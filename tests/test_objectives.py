import contextlib
import dataclasses
import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from shortcutdiff.assets import asset_path

from shortcutdiff.data import Dataset2D
from shortcutdiff.objectives import (PROB_CLIP, Clamped, ClassifierAccuracyError,
                                     ClassifierMargin, Composite, MomentMatch, Objective,
                                     QuadraticTarget, RbfReward, ToyClassifier,
                                     eval_objective, make_objective,
                                     _cross_entropy, save_classifier,
                                     train_toy_classifier)
from shortcutdiff.tape import Tape


def gradient_of(objective, x):
    tape = Tape()
    v = tape.variable(x)
    return tape.backward(objective.build(tape, v))[v]


def fd_gradient(objective, x, h=1e-6):
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = h
        g[j] = (objective.value(x + e) - objective.value(x - e)) / (2 * h)
    return g


def test_quadratic_zero_at_target():
    obj = QuadraticTarget(np.array([0.3, -0.7]))
    assert obj.value(np.array([0.3, -0.7])) == 0.0
    np.testing.assert_array_equal(gradient_of(obj, np.array([0.3, -0.7])), 0.0)


def test_rbf_peak_value_and_gradient():
    obj = RbfReward(np.array([1.0, 2.0]), width=0.5)
    assert obj.value(np.array([1.0, 2.0])) == -1.0
    np.testing.assert_array_equal(gradient_of(obj, np.array([1.0, 2.0])), 0.0)


def test_classifier_margin_logistic_closed_form():
    clf = ToyClassifier([np.array([1.0, 0.0]), np.zeros(())])
    obj = ClassifierMargin(clf, label=1)
    p = 1.0 / (1.0 + math.exp(-2.0))
    assert p == pytest.approx(0.8808, abs=1e-4)
    assert obj.value(np.array([2.0, 0.0])) == pytest.approx(-math.log(p), rel=1e-12)
    assert obj.value(np.array([2.0, 0.0])) == pytest.approx(0.1269, abs=1e-4)


def test_evasion_negates_cross_entropy():
    clf = ToyClassifier([np.array([1.0, 0.0]), np.zeros(())])
    fit = ClassifierMargin(clf, label=1, evade=False)
    evade = ClassifierMargin(clf, label=1, evade=True)
    x = np.array([0.4, 1.0])
    assert evade.value(x) == -fit.value(x)


@pytest.mark.parametrize("make", [
    lambda: QuadraticTarget(np.array([0.5, -0.2])),
    lambda: RbfReward(np.array([0.2, 0.9]), width=0.7),
    lambda: ClassifierMargin(ToyClassifier([np.array([0.8, -1.1]), np.asarray(0.2)]), 1),
    lambda: ClassifierMargin(
        ToyClassifier([np.array([[0.5, 0.3], [-0.2, 0.9]]), np.array([0.1, -0.3]),
                       np.array([0.7, -0.4]), np.asarray(0.05)]), 0, evade=True),
    lambda: Composite(RbfReward(np.array([0.0, 0.0]), 1.0), np.array([1.0, 1.0]), 0.7),
])
def test_objective_gradients_match_finite_differences(make):
    rng = np.random.default_rng(17)
    obj = make()
    for _ in range(3):
        x = rng.standard_normal(2)
        np.testing.assert_allclose(gradient_of(obj, x), fd_gradient(obj, x),
                                   rtol=1e-6, atol=1e-9)


def test_moment_match_zero_at_reference_batch():
    rng = np.random.default_rng(3)
    ref = rng.standard_normal((6, 2))
    obj = MomentMatch(ref)
    assert obj.value(ref) == pytest.approx(0.0, abs=1e-28)

    tape = Tape()
    x = tape.variable(ref.T)  # one sample per column
    np.testing.assert_allclose(tape.backward(obj.build_batch(tape, x))[x], 0.0,
                               atol=1e-14)


def test_moment_match_batch_gradient_matches_fd():
    rng = np.random.default_rng(5)
    ref = rng.standard_normal((5, 2))
    obj = MomentMatch(ref)
    batch = rng.standard_normal((3, 2))

    tape = Tape()
    x = tape.variable(batch.T)
    grad = tape.backward(obj.build_batch(tape, x))[x].T

    h = 1e-6
    for b in range(batch.shape[0]):
        for j in range(2):
            up, dn = batch.copy(), batch.copy()
            up[b, j] += h
            dn[b, j] -= h
            fd = (obj.value(up) - obj.value(dn)) / (2 * h)
            assert grad[b, j] == pytest.approx(fd, rel=1e-6, abs=1e-9)

    mean_gap = batch.mean(axis=0) - ref.mean(axis=0)
    mom_gap = batch.T @ batch / len(batch) - ref.T @ ref / len(ref)
    assert obj.value(batch) == pytest.approx(
        np.sum(mean_gap ** 2) + np.sum(mom_gap ** 2), rel=1e-12, abs=0)


def test_moment_match_rejects_single_sample():
    obj = MomentMatch(np.zeros((4, 2)))
    with pytest.raises(ValueError, match="batch"):
        eval_objective(obj, np.array([0.1, 0.2]))
    with pytest.raises(ValueError, match="batch"):
        obj.build(Tape(), None)


def test_clamped_scores_the_clamped_samples_single_and_batch():
    x = np.array([[1.7, -0.3], [-2.5, 0.9], [0.2, 1.01]])
    clipped = np.clip(x, -1.0, 1.0)
    single = QuadraticTarget(np.array([0.5, 0.5]))
    batch = MomentMatch(np.zeros((4, 2)))
    assert Clamped(single).value(x[0]) == single.value(clipped[0])
    assert Clamped(batch).batch
    assert Clamped(batch).value(x) == batch.value(clipped)
    tape = Tape()
    v = tape.variable(x[0])
    grad = tape.backward(Clamped(single).build_rows(tape, v))[v]
    np.testing.assert_array_equal(grad, [0.0, -0.8])  # clamped coordinate is flat


@pytest.mark.parametrize("obj", [QuadraticTarget(np.array([0.5, -0.2])),
                                 Clamped(RbfReward(np.array([0.2, 0.9]), width=0.7))])
def test_single_sample_objective_scores_a_batch_as_its_mean(obj):
    x = np.random.default_rng(8).standard_normal((3, 2)) * 1.5
    per_row = [obj.value(row) for row in x]
    assert obj.value(x) == pytest.approx(np.mean(per_row), rel=1e-15, abs=0)
    assert obj.value(x[:1]) == per_row[0]

    tape = Tape()
    block = tape.variable(x.T)
    grads = tape.backward(obj.build_rows(tape, block))[block]
    for col, row in zip(grads.T, x):
        tape1 = Tape()
        v1 = tape1.variable(row)
        want = tape1.backward(obj.build_rows(tape1, v1))[v1] / len(x)
        np.testing.assert_allclose(col, want, rtol=1e-15, atol=0)


MLP = ToyClassifier([np.array([[0.5, 0.3], [-0.2, 0.9]]), np.array([0.1, -0.3]),
                     np.array([0.7, -0.4]), np.asarray(0.05)])


@pytest.mark.parametrize("obj", [
    QuadraticTarget(np.array([0.5, -0.2])),
    RbfReward(np.array([0.2, 0.9]), width=0.7),
    ClassifierMargin(MLP, 0, evade=True),
    Composite(RbfReward(np.array([0.0, 0.0]), 1.0), np.array([1.0, 1.0]), 0.7),
    MomentMatch(np.random.default_rng(4).standard_normal((6, 2))),
    Clamped(QuadraticTarget(np.array([0.5, -0.2]))),
    Clamped(MomentMatch(np.random.default_rng(4).standard_normal((6, 2)))),
], ids=lambda obj: type(obj).__name__)
def test_objective_tape_does_not_grow_with_the_batch(obj):
    rng = np.random.default_rng(9)
    counts = set()
    for b in (1, 8, 64):
        tape = Tape()
        x = tape.variable(rng.standard_normal((2, b)))
        tape.backward(obj.build_rows(tape, x))
        counts.add(tape.node_count())
    assert len(counts) == 1


def test_build_rows_rejects_an_empty_batch():
    for obj in (QuadraticTarget(np.zeros(2)), MomentMatch(np.zeros((4, 2)))):
        with pytest.raises(ValueError, match=f"{type(obj).__name__}: empty batch"):
            obj.value(np.zeros((0, 2)))


def tape_gradient(objective, x0):
    """(dJ/dx_0, J) of `build_rows` on a tape of its own, x_0's samples as rows."""
    tape = Tape()
    x = tape.variable(np.atleast_2d(x0).T)
    j = objective.build_rows(tape, x)
    return tape.backward(j)[x], float(j.value)


def assert_same_bytes(got, want):
    (g, j), (g_want, j_want) = got, want
    assert type(j) is float
    assert (g.shape, g.dtype, g.tobytes()) == (g_want.shape, g_want.dtype, g_want.tobytes())
    assert np.float64(j).tobytes() == np.float64(j_want).tobytes()


LOGISTIC = ToyClassifier([np.array([0.8, -1.1]), np.asarray(0.2)])
TWINNED = [QuadraticTarget(np.array([0.5, -0.2])),
           RbfReward(np.array([0.2, 0.9]), width=0.7),
           *(ClassifierMargin(clf, label, evade) for clf in (LOGISTIC, MLP)
             for label in (0, 1) for evade in (False, True))]


@pytest.mark.parametrize("obj", TWINNED, ids=lambda obj: type(obj).__name__)
@pytest.mark.parametrize("shape", [(2,), (1, 2), (5, 2), (32, 2)])
def test_a_twin_gives_the_tapes_gradient_and_j_byte_for_byte(obj, shape):
    assert "gradient" in vars(type(obj))  # the class runs a twin
    rng = np.random.default_rng(31)
    for scale in (0.3, 1.0, 4.0):
        x0 = rng.standard_normal(shape) * scale
        assert_same_bytes(obj.gradient(x0), tape_gradient(obj, x0))
        assert_same_bytes(obj.gradient(x0), Objective.gradient(obj, x0))
    # an F-ordered block, as the engines hand x_0 over, gives the same bytes
    x0 = np.asfortranarray(rng.standard_normal(shape))
    assert_same_bytes(obj.gradient(x0), tape_gradient(obj, x0))


@pytest.mark.parametrize("label", [0, 1])
@pytest.mark.parametrize("evade", [False, True])
def test_the_margin_twin_passes_no_gradient_through_a_clamped_probability(label, evade):
    # logits of +-32 put p(label) within PROB_CLIP of 0 or 1 in three
    # columns, where tanh' is still nonzero, so the clamp's mask alone stops
    # the gradient there
    steep = ToyClassifier([np.array([16.0, 0.0]), np.asarray(0.0)])
    obj = ClassifierMargin(steep, label, evade)
    x0 = np.array([[2.0, 0.3], [-2.0, -0.1], [0.01, 0.5], [2.0, -1.0]])
    t = np.tanh(0.5 * steep.logit(x0))
    p_label = 0.5 * t + 0.5 if label else 0.5 - 0.5 * t
    clamped = (p_label <= PROB_CLIP) | (p_label >= 1.0 - PROB_CLIP)
    assert clamped.tolist() == [True, True, False, True]
    assert np.all(1.0 - t * t > 0.0)
    got = obj.gradient(x0)
    assert_same_bytes(got, tape_gradient(obj, x0))
    assert np.all(got[0][:, clamped] == 0.0) and np.all(got[0][0, ~clamped] != 0.0)


def test_the_rbf_twin_keeps_the_tapes_bits_where_exp_underflows():
    obj = RbfReward(np.array([0.0, 0.0]), width=0.05)
    x0 = np.array([[30.0, 0.0], [0.01, -0.02], [0.0, -45.0]])
    assert np.exp(-0.5 * 30.0 ** 2 / 0.05 ** 2) == 0.0
    got = obj.gradient(x0)
    assert_same_bytes(got, tape_gradient(obj, x0))
    assert np.all(got[0][:, [0, 2]] == 0.0) and np.all(got[0][:, 1] != 0.0)
    far = obj.gradient(x0[[0, 2]])  # every sample underflows: J is -0.0
    assert_same_bytes(far, tape_gradient(obj, x0[[0, 2]]))
    assert np.all(far[0] == 0.0) and far[1] == 0.0


REF = np.random.default_rng(4).standard_normal((6, 2))


@pytest.mark.parametrize("obj", [
    MomentMatch(REF, order=1),
    MomentMatch(REF, order=2),
    Composite(RbfReward(np.array([0.0, 0.0]), 1.0), np.array([1.0, 1.0]), 0.7),
    Clamped(QuadraticTarget(np.array([0.5, -0.2]))),
    Clamped(RbfReward(np.array([0.2, 0.9]), width=0.7)),
    Clamped(ClassifierMargin(MLP, 1)),
    Clamped(MomentMatch(REF)),
], ids=lambda obj: type(obj).__name__)
def test_an_objective_without_a_twin_keeps_the_tapes_bits(obj):
    assert type(obj).gradient is Objective.gradient
    inner = getattr(obj, "inner", None)
    if inner is not None and "gradient" in vars(type(inner)):
        def no_twin(x0):
            raise AssertionError("Clamped reached its inner objective's twin")
        inner.gradient = no_twin
    rng = np.random.default_rng(12)
    for shape in ((2,), (1, 2), (7, 2)):
        x0 = rng.standard_normal(shape) * 1.5
        assert_same_bytes(obj.gradient(x0), tape_gradient(obj, x0))


def test_a_subclass_that_builds_j_anew_takes_the_tapes_gradient():
    class Doubled(QuadraticTarget):
        def build(self, tape, x):
            return tape.scale(super().build(tape, x), 2.0)

    obj, base = Doubled(np.array([0.5, -0.2])), QuadraticTarget(np.array([0.5, -0.2]))
    assert Doubled.gradient is Objective.gradient
    x0 = np.random.default_rng(3).standard_normal((4, 2))
    assert_same_bytes(obj.gradient(x0), tape_gradient(obj, x0))
    np.testing.assert_array_equal(obj.gradient(x0)[0], 2.0 * base.gradient(x0)[0])


def test_a_twin_rejects_an_empty_batch_as_build_rows_does():
    for obj in TWINNED[:3]:
        with pytest.raises(ValueError, match=f"{type(obj).__name__}: empty batch"):
            obj.gradient(np.zeros((0, 2)))


@pytest.mark.parametrize("label", [2, -1, 0.5, 1.0, "1", None])
def test_a_classifier_margin_label_other_than_0_or_1_is_rejected(label):
    with pytest.raises(ValueError, match=f"label is 0 or 1, got {label!r}"):
        ClassifierMargin(MLP, label)


def test_a_classifier_margin_takes_numpy_0_and_1_labels():
    x0 = np.array([[0.3, -0.8], [1.1, 0.4]])
    for label in (0, 1):
        for numpy_label in (np.int64(label), np.int32(label)):
            obj = ClassifierMargin(MLP, numpy_label, evade=True)
            want = ClassifierMargin(MLP, label, evade=True).gradient(x0)
            assert_same_bytes(obj.gradient(x0), want)


def test_composite_mix_bounds_and_tradeoff():
    with pytest.raises(ValueError):
        Composite(QuadraticTarget(np.zeros(2)), np.zeros(2), mix=1.5)
    metric = QuadraticTarget(np.array([2.0, 0.0]))
    ref = np.array([0.0, 0.0])
    x = np.array([1.0, 0.0])
    for mix in (0.0, 0.5, 1.0):
        obj = Composite(metric, ref, mix)
        assert obj.value(x) == pytest.approx(mix * metric.value(x) + (1 - mix) * 1.0)


def test_train_classifier_separable_is_perfect():
    rng = np.random.default_rng(0)
    pts = np.concatenate([rng.standard_normal((60, 2)) * 0.2 + [2.0, 0.0],
                          rng.standard_normal((60, 2)) * 0.2 + [-2.0, 0.0]])
    labels = np.concatenate([np.ones(60, dtype=int), np.zeros(60, dtype=int)])
    clf = train_toy_classifier(pts, labels, steps=300, seed=1)
    assert clf.accuracy == 1.0


def test_train_classifier_is_deterministic():
    rng = np.random.default_rng(0)
    pts = np.concatenate([rng.standard_normal((40, 2)) * 0.3 + [1.5, 0.0],
                          rng.standard_normal((40, 2)) * 0.3 + [-1.5, 0.0]])
    labels = np.concatenate([np.ones(40, dtype=int), np.zeros(40, dtype=int)])
    c1 = train_toy_classifier(pts, labels, steps=120, seed=9)
    c2 = train_toy_classifier(pts, labels, steps=120, seed=9)
    for a, b in zip(c1.weights, c2.weights):
        np.testing.assert_array_equal(a, b)


def test_classifier_decision_flips_across_boundary():
    rng = np.random.default_rng(0)
    pts = np.concatenate([rng.standard_normal((60, 2)) * 0.2 + [2.0, 0.0],
                          rng.standard_normal((60, 2)) * 0.2 + [-2.0, 0.0]])
    labels = np.concatenate([np.ones(60, dtype=int), np.zeros(60, dtype=int)])
    clf = train_toy_classifier(pts, labels, steps=300, seed=1)
    assert clf.predict(np.array([3.0, 0.0])) == 1
    assert clf.predict(np.array([-3.0, 0.0])) == 0


def test_classifier_recipe_reproduces_the_shipped_file(tmp_path):
    script = Path(__file__).resolve().parent.parent / "scripts" / "make_assets.py"
    spec = importlib.util.spec_from_file_location("make_assets", script)
    make_assets = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(make_assets)
    save_classifier(tmp_path / "clf.json", make_assets.evasion_classifier())
    shipped = Path(asset_path("evasion_classifier.json")).read_bytes()
    assert (tmp_path / "clf.json").read_bytes() == shipped


def test_classifier_holds_its_output_layer_in_affine_layout():
    assert [w.shape for w in MLP.weights] == [(2, 2), (2,), (1, 2), (1,)]
    logistic = ToyClassifier([np.array([1.0, -2.0]), np.asarray(0.5)])
    assert [w.shape for w in logistic.weights] == [(1, 2), (1,)]
    rows = np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 2.0]])
    np.testing.assert_array_equal(logistic.logit(rows), [1.5, -1.5, -1.5])
    assert logistic.logit(rows[0]) == 1.5
    np.testing.assert_array_equal(logistic.predict(rows), [1, 0, 0])


def test_classifier_weights_are_read_only_c_ordered_copies():
    w1 = np.asfortranarray(MLP.weights[0])
    clf = ToyClassifier([w1, *MLP.weights[1:]])
    assert all(w.flags.c_contiguous and not w.flags.writeable for w in clf.weights)
    assert w1.flags.writeable  # copied, so the caller's array is left as it was
    rows = np.random.default_rng(2).standard_normal((5, 2))
    tape = Tape()
    for _ in range(2):  # the second build reuses the tape's constants
        logit = clf.build_logit(tape, tape.constant(rows.T)).value[0]
        assert logit.tobytes() == clf.logit(rows).tobytes() == MLP.logit(rows).tobytes()


@pytest.mark.parametrize("weights, match", [
    ([np.zeros((3, 2)), np.zeros(3), np.zeros(3)], "3 weight arrays"),
    ([np.zeros((3, 2)), np.zeros(2), np.zeros(3), np.zeros(())], r"weights\[1\] has shape"),
    ([np.zeros((3, 2)), np.zeros(3), np.zeros(2), np.zeros(())], r"weights\[2\] has shape"),
    ([np.zeros((3, 2)), np.zeros(3), np.zeros(3), np.zeros(2)], r"weights\[3\] has shape"),
    ([np.zeros(3), np.zeros(3), np.zeros(3), np.zeros(())], r"weights\[0\] has shape"),
    ([np.zeros((2, 2)), np.zeros(())], r"weights\[0\] has shape"),
    ([np.zeros((3, 2)), np.array([0.0, np.nan, 0.0]), np.zeros(3), np.zeros(())],
     r"weights\[1\] has non-finite"),
])
def test_classifier_rejects_bad_weights_by_array(weights, match):
    with pytest.raises(ValueError, match=match):
        ToyClassifier(weights)


def test_block_cross_entropy_matches_a_per_sample_loop():
    # the trainer's loss: one (d, B) block with a label per column
    rng = np.random.default_rng(21)
    clf = ToyClassifier([rng.standard_normal((5, 2)), rng.standard_normal(5),
                         rng.standard_normal(5), rng.standard_normal(())])
    points, labels = rng.standard_normal((16, 2)), rng.integers(0, 2, 16)

    def loss_and_grad(x, label):
        tape = Tape()
        theta = [tape.variable(w) for w in clf.weights]
        ce = _cross_entropy(tape, tape.mlp(tape.constant(x), theta), label)
        loss = tape.scale(tape.sum(ce), 1.0 / ce.shape[-1])
        grads = tape.backward(loss)
        return float(loss.value), np.concatenate([grads[v].ravel() for v in theta])

    loss, grad = loss_and_grad(points.T, labels)
    per_sample = [loss_and_grad(x, int(label)) for x, label in zip(points, labels)]
    assert loss == pytest.approx(np.mean([j for j, _ in per_sample]), rel=1e-14, abs=0)
    np.testing.assert_allclose(grad, np.mean([g for _, g in per_sample], axis=0),
                               rtol=1e-12, atol=1e-15)


def test_classifier_accuracy_floor_flagged():
    rng = np.random.default_rng(2)
    pts = rng.standard_normal((100, 2))
    labels = rng.integers(0, 2, 100)  # unlearnable labels
    with pytest.raises(ClassifierAccuracyError):
        train_toy_classifier(pts, labels, steps=50, seed=0)


def test_mlp_classifier_separates_moons():
    ds = Dataset2D("two-moons", seed=4,
                   params={"radius": 1.0, "noise": 0.06, "gap": 0.3})
    pts, labels = ds.sample(400)
    clf = train_toy_classifier(pts, labels, hidden=12, steps=700, seed=3)
    assert clf.accuracy >= 0.95


def test_make_objective_factory():
    assert isinstance(make_objective("quadratic-target", target=[0, 0]), QuadraticTarget)
    assert isinstance(make_objective("rbf-reward", center=[0, 0]), RbfReward)
    with pytest.raises(ValueError, match="unknown objective"):
        make_objective("clip-score")


def test_make_objective_leaves_an_omitted_keyword_at_the_class_default():
    clf = ToyClassifier([np.ones((1, 2)), np.zeros(1)])
    built = [(make_objective("rbf-reward", center=[0, 0]), RbfReward, "width"),
             (make_objective("moment-match", reference=np.zeros((3, 2))),
              MomentMatch, "order"),
             (make_objective("classifier-margin", classifier=clf, label=1),
              ClassifierMargin, "evade"),
             (make_objective("composite", metric=QuadraticTarget(np.zeros(2)),
                             reference=[0, 0]), Composite, "mix")]
    for objective, cls, key in built:
        default = next(f.default for f in dataclasses.fields(cls) if f.name == key)
        assert getattr(objective, key) == default
    assert make_objective("rbf-reward", center=[0, 0], width=0.25).width == 0.25


def test_classifier_training_builds_one_classifier(monkeypatch):
    built = []
    post_init = ToyClassifier.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(ToyClassifier, "__post_init__", counted)
    rng = np.random.default_rng(0)
    pts = rng.standard_normal((40, 2))
    counts = []
    for steps in (1, 20):
        built.clear()
        with contextlib.suppress(ClassifierAccuracyError):
            train_toy_classifier(pts, (pts[:, 0] > 0).astype(int), hidden=4,
                                 steps=steps, batch=8)
        counts.append(len(built))
    assert counts[0] == counts[1] == 1
