import math

import numpy as np
import pytest

from shortcutdiff.data import Dataset2D
from shortcutdiff.objectives import (Clamped, ClassifierAccuracyError,
                                     ClassifierMargin, Composite, MomentMatch,
                                     QuadraticTarget, RbfReward, ToyClassifier,
                                     eval_objective, make_objective,
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
    xs = [tape.variable(row) for row in ref]
    grads = tape.backward(obj.build_batch(tape, xs))
    for v in xs:
        np.testing.assert_allclose(grads[v], 0.0, atol=1e-14)


def test_moment_match_batch_gradient_matches_fd():
    rng = np.random.default_rng(5)
    ref = rng.standard_normal((5, 2))
    obj = MomentMatch(ref)
    batch = rng.standard_normal((3, 2))

    tape = Tape()
    xs = [tape.variable(row) for row in batch]
    grads = tape.backward(obj.build_batch(tape, xs))

    h = 1e-6
    for b in range(batch.shape[0]):
        for j in range(2):
            up, dn = batch.copy(), batch.copy()
            up[b, j] += h
            dn[b, j] -= h
            fd = (obj.value(up) - obj.value(dn)) / (2 * h)
            assert grads[xs[b]][j] == pytest.approx(fd, rel=1e-6, abs=1e-9)


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
    grad = tape.backward(Clamped(single).build(tape, v))[v]
    np.testing.assert_array_equal(grad, [0.0, -0.8])  # clamped coordinate is flat


def test_single_sample_objective_rejects_a_batch():
    with pytest.raises(ValueError, match="B=3"):
        QuadraticTarget(np.zeros(2)).value(np.zeros((3, 2)))


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


def test_classifier_accuracy_floor_flagged():
    rng = np.random.default_rng(2)
    pts = rng.standard_normal((100, 2))
    labels = rng.integers(0, 2, 100)  # unlearnable labels
    with pytest.raises(ClassifierAccuracyError):
        train_toy_classifier(pts, labels, steps=50, seed=0)


def test_mlp_classifier_separates_moons():
    ds = Dataset2D("two-moons", seed=4, params={"noise": 0.06, "gap": 0.3})
    pts, labels = ds.sample(400)
    clf = train_toy_classifier(pts, labels, hidden=12, steps=700, seed=3)
    assert clf.accuracy >= 0.95


def test_make_objective_factory():
    assert isinstance(make_objective("quadratic-target", target=[0, 0]), QuadraticTarget)
    assert isinstance(make_objective("rbf-reward", center=[0, 0]), RbfReward)
    with pytest.raises(ValueError, match="unknown objective"):
        make_objective("clip-score")
