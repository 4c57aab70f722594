import collections
import types

import numpy as np
import pytest

from shortcutdiff import engines
from shortcutdiff.engines import (EstimatorSpec, GradTarget, _stacked_system,
                                  evaluate_bounds, grad_bptt, grad_fd_oracle,
                                  grad_ift_oracle, grad_norm_sweep,
                                  grad_sdo_latent, grad_sdo_params,
                                  grad_truncated, parameter_gradient,
                                  step_block_gradient, sweep_norm_ratios)
from shortcutdiff.drivers import LatentOptConfig, latent_pass, optimize_latent
from shortcutdiff.model import (Denoiser, DenoiserField, DivergenceError,
                                ScalarGainField, VelocityField, ZeroField)
from shortcutdiff.objectives import (ClassifierMargin, MomentMatch, QuadraticTarget,
                                     RbfReward, ToyClassifier)
from shortcutdiff.optim import unflatten
from shortcutdiff.sampler import (ddim_step, ddim_step_var, picard_update, rollout,
                                  sample_picard, sample_sequential)
from shortcutdiff.schedule import Schedule
from shortcutdiff.tape import PRIMITIVES, VALUES, ShapeError, Tape

LATENT = GradTarget("latent")
PARAMS = GradTarget("params")

# J = 0.5 x^2 through u(x) = x with two steps; every engine has a hand value
LINEAR = ScalarGainField(1.0, dim=1)
SCHED2 = Schedule("vp-linear", 2)
XN = np.array([1.0])
HALF_SQUARE = QuadraticTarget(np.array([0.0]))


def rel_err(a, b):
    denom = max(np.linalg.norm(a), np.linalg.norm(b), 1e-300)
    return np.linalg.norm(np.asarray(a) - np.asarray(b)) / denom


def small_mlp_case(seed, n=6, hidden=(5,), parameterization="epsilon"):
    rng = np.random.default_rng(seed)
    sched = Schedule("vp-linear", n)
    field = DenoiserField(Denoiser.create(rng, hidden=hidden,
                                          parameterization=parameterization), sched)
    x_n = rng.standard_normal(2)
    obj = QuadraticTarget(rng.standard_normal(2))
    return field, sched, x_n, obj


# --------------------------------------------------------------- closed forms

def test_bptt_latent_linear_oracle():
    rep = grad_bptt(LINEAR, SCHED2, XN, HALF_SQUARE, LATENT)
    assert rep.gradient[0] == pytest.approx(0.0625, abs=1e-12)
    assert rep.l2_norm == pytest.approx(0.0625, abs=1e-12)


def test_bptt_params_linear_oracle():
    rep = grad_bptt(LINEAR, SCHED2, XN, HALF_SQUARE, PARAMS)
    assert rep.gradient[0] == pytest.approx(-0.125, abs=1e-12)


def test_bptt_zero_velocity_is_objective_gradient():
    obj = QuadraticTarget(np.array([0.2, -0.5]))
    x = np.array([1.0, 1.0])
    rep = grad_bptt(ZeroField(2), Schedule("vp-linear", 5), x, obj, LATENT)
    np.testing.assert_allclose(rep.gradient, x - np.array([0.2, -0.5]), rtol=1e-14)


def test_sdo_latent_linear_oracle():
    rep = grad_sdo_latent(LINEAR, SCHED2, XN, HALF_SQUARE, m=2)
    assert rep.gradient[0] == pytest.approx(0.125, abs=1e-12)


def test_sdo_latent_zero_velocity_coincides_with_bptt():
    obj = QuadraticTarget(np.array([0.3, 0.3]))
    x = np.array([-0.4, 2.0])
    sched = Schedule("vp-linear", 7)
    sdo = grad_sdo_latent(ZeroField(2), sched, x, obj)
    bptt = grad_bptt(ZeroField(2), sched, x, obj, LATENT)
    np.testing.assert_array_equal(sdo.gradient, bptt.gradient)


def test_sdo_params_linear_oracle_cases():
    g2 = grad_sdo_params(LINEAR, SCHED2, XN, HALF_SQUARE, "fixed", iprime=2)
    g1 = grad_sdo_params(LINEAR, SCHED2, XN, HALF_SQUARE, "fixed", iprime=1)
    full = grad_sdo_params(LINEAR, SCHED2, XN, HALF_SQUARE, "full-sum")
    assert g2.gradient[0] == pytest.approx(-0.125, abs=1e-12)
    assert g1.gradient[0] == pytest.approx(-0.0625, abs=1e-12)
    assert full.gradient[0] == pytest.approx(-0.1875, abs=1e-12)
    assert g1.gradient[0] + g2.gradient[0] == pytest.approx(full.gradient[0], abs=1e-15)
    # the one-step sum deliberately differs from the exact -0.125
    assert full.gradient[0] != pytest.approx(-0.125, abs=1e-3)


def test_truncated_linear_oracle_and_bptt_coincidence():
    k1 = grad_truncated(LINEAR, SCHED2, XN, HALF_SQUARE, k=1)
    assert k1.gradient[0] == pytest.approx(-0.0625, abs=1e-12)
    kN = grad_truncated(LINEAR, SCHED2, XN, HALF_SQUARE, k=2)
    bptt = grad_bptt(LINEAR, SCHED2, XN, HALF_SQUARE, PARAMS)
    np.testing.assert_array_equal(kN.gradient, bptt.gradient)


def test_truncated_zero_velocity_all_k_identical():
    sched = Schedule("vp-linear", 6)
    x = np.array([0.7, -0.1])
    obj = QuadraticTarget(np.zeros(2))
    grads = [grad_truncated(ZeroField(2), sched, x, obj, k).gradient
             for k in (1, 3, 6)]
    for g in grads[1:]:
        np.testing.assert_array_equal(g, grads[0])


def test_ift_oracle_linear_closed_forms():
    lat = grad_ift_oracle(LINEAR, SCHED2, XN, HALF_SQUARE, LATENT)
    par = grad_ift_oracle(LINEAR, SCHED2, XN, HALF_SQUARE, PARAMS)
    assert lat.gradient[0] == pytest.approx(0.0625, abs=1e-12)
    assert par.gradient[0] == pytest.approx(-0.125, abs=1e-12)


def test_ift_oracle_zero_velocity():
    obj = QuadraticTarget(np.array([1.0, 0.0]))
    x = np.array([0.25, 0.5])
    rep = grad_ift_oracle(ZeroField(2), Schedule("vp-linear", 4), x, obj, LATENT)
    np.testing.assert_allclose(rep.gradient, x - np.array([1.0, 0.0]), atol=1e-15)


def test_fd_oracle_linear_closed_forms():
    lat = grad_fd_oracle(LINEAR, SCHED2, XN, HALF_SQUARE, LATENT, "true-map")
    assert lat[0] == pytest.approx(0.0625, abs=1e-10)
    sur = grad_fd_oracle(LINEAR, SCHED2, XN, HALF_SQUARE, LATENT,
                         "sdo-surrogate-at-m", m=2)
    assert sur[0] == pytest.approx(0.125, abs=1e-10)
    par = grad_fd_oracle(LINEAR, SCHED2, XN, HALF_SQUARE, PARAMS, "true-map")
    assert par[0] == pytest.approx(-0.125, abs=1e-9)
    sur_p = grad_fd_oracle(LINEAR, SCHED2, XN, HALF_SQUARE, PARAMS,
                           "sdo-surrogate-at-iprime", iprime=1)
    assert sur_p[0] == pytest.approx(-0.0625, abs=1e-10)


def test_fd_oracle_rejects_a_surrogate_of_the_other_target_and_a_second_m():
    field, sched, x_n, obj = small_mlp_case(3)
    with pytest.raises(ValueError, match="^surrogate 'sdo-surrogate-at-m' differentiates "
                                         "a latent target, not a params one$"):
        grad_fd_oracle(field, sched, x_n, obj, PARAMS, "sdo-surrogate-at-m", m=2)
    with pytest.raises(ValueError, match="^surrogate 'sdo-surrogate-at-iprime' "
                                         "differentiates a params target, not a "
                                         "latent one$"):
        grad_fd_oracle(field, sched, x_n, obj, LATENT, "sdo-surrogate-at-iprime",
                       iprime=2)
    at_m2 = GradTarget("latent", 2)
    for surrogate in ("true-map", "sdo-surrogate-at-m"):
        with pytest.raises(ValueError, match=r"^m=4 contradicts the target's m=2$"):
            grad_fd_oracle(field, sched, x_n, obj, at_m2, surrogate, m=4)
        # the target's m is the step when m is not given, and agreeing is fine
        at_2 = grad_fd_oracle(field, sched, x_n, obj, LATENT, surrogate, m=2)
        for m in (None, 2):
            np.testing.assert_array_equal(
                grad_fd_oracle(field, sched, x_n, obj, at_m2, surrogate, m=m), at_2)
    with pytest.raises(ValueError, match="^unknown surrogate 'adjoint'$"):
        grad_fd_oracle(field, sched, x_n, obj, LATENT, "adjoint")


def test_fd_oracle_exact_on_quadratic_through_identity():
    obj = QuadraticTarget(np.zeros(1))
    g = grad_fd_oracle(ZeroField(1), Schedule("vp-linear", 3), np.array([3.0]),
                       obj, LATENT, "true-map")
    assert g[0] == pytest.approx(3.0, abs=1e-9)  # central diff exact on quadratics


@pytest.mark.parametrize("target, surrogate, step", [
    (LATENT, "true-map", {}), (PARAMS, "true-map", {}),
    (LATENT, "sdo-surrogate-at-m", {"m": 2}), (PARAMS, "sdo-surrogate-at-iprime", {"iprime": 2})],
    ids=["latent", "params", "surrogate-at-m", "surrogate-at-iprime"])
def test_fd_true_map_raises_on_a_non_finite_state(target, surrogate, step):
    # x_1 = 1 - 1e308 / 2 is finite, and step 1 overflows, in the base roll
    # of every map and in each true-map probe
    with np.errstate(over="ignore"), pytest.raises(
            DivergenceError, match="^sample_sequential: non-finite state produced "
                                   "at step n=1$"):
        grad_fd_oracle(ScalarGainField(1e308, dim=1), Schedule("vp-linear", 2),
                       np.array([1.0]), QuadraticTarget(np.zeros(1)), target, surrogate,
                       **step)


@pytest.mark.parametrize("parameterization", ["epsilon", "velocity"])
def test_each_fd_surrogate_gives_j_of_x0_bit_for_bit_at_its_base_point(
        parameterization, monkeypatch):
    # central differences that evaluate their map at the base point alone
    monkeypatch.setattr(engines, "central_difference", lambda f, x0: f(x0))
    missed = []
    for seed in range(20):
        field, sched, x_n, obj = small_mlp_case(seed, parameterization=parameterization)
        want = obj.value(sample_sequential(field, sched, x_n).x0)
        for n in range(1, sched.n_steps + 1):
            at_m = grad_fd_oracle(field, sched, x_n, obj, LATENT, "sdo-surrogate-at-m", m=n)
            at_i = grad_fd_oracle(field, sched, x_n, obj, PARAMS, "sdo-surrogate-at-iprime",
                                  iprime=n)
            missed += [(seed, name, n) for name, got in (("m", at_m), ("i'", at_i))
                       if got != want]
    assert missed == []


# ---------------------------------------------------------- oracle agreement

@pytest.mark.parametrize("seed", [0, 1, 2])
def test_bptt_matches_fd_true_map_both_targets(seed):
    field, sched, x_n, obj = small_mlp_case(seed)
    for target in (LATENT, PARAMS):
        ad = grad_bptt(field, sched, x_n, obj, target).gradient
        fd = grad_fd_oracle(field, sched, x_n, obj, target, "true-map")
        assert rel_err(ad, fd) <= 1e-5


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_bptt_matches_ift_oracle_both_targets(seed):
    field, sched, x_n, obj = small_mlp_case(seed)
    for target in (LATENT, PARAMS):
        ad = grad_bptt(field, sched, x_n, obj, target).gradient
        ift = grad_ift_oracle(field, sched, x_n, obj, target).gradient
        assert rel_err(ad, ift) <= 1e-8


@pytest.mark.parametrize("seed", [3, 4])
def test_sdo_latent_matches_its_fd_surrogate(seed):
    field, sched, x_n, obj = small_mlp_case(seed)
    for m in (sched.n_steps, 3, 1):
        ad = grad_sdo_latent(field, sched, x_n, obj, m=m).gradient
        fd = grad_fd_oracle(field, sched, x_n, obj, LATENT,
                            "sdo-surrogate-at-m", m=m)
        assert rel_err(ad, fd) <= 1e-5


def test_a_latent_gradient_at_m_n_rolls_only_below_its_step(monkeypatch):
    # x_N is the recorded state itself, so the one roll is x_{N-1} to x_0,
    # for one noise and for a block
    field, sched, x_n, obj = small_mlp_case(5, n=10)
    rolls = []
    roll = field.roll
    monkeypatch.setattr(field, "roll", lambda s, v, n_from, n_to:
                        rolls.append((n_from, n_to)) or roll(s, v, n_from, n_to))
    for x in (x_n, np.stack([x_n, -x_n])):
        rolls.clear()
        rep = grad_sdo_latent(field, sched, x, obj)
        assert rolls == [(9, 0)]
        assert rep.gradient.shape == x.shape


@pytest.mark.parametrize("seed", [3, 4])
def test_sdo_params_matches_its_fd_surrogate(seed):
    field, sched, x_n, obj = small_mlp_case(seed)
    for iprime in (1, 3, sched.n_steps):
        ad = grad_sdo_params(field, sched, x_n, obj, "fixed", iprime=iprime).gradient
        fd = grad_fd_oracle(field, sched, x_n, obj, PARAMS,
                            "sdo-surrogate-at-iprime", iprime=iprime)
        assert rel_err(ad, fd) <= 1e-5


def test_sdo_params_decomposition():
    field, sched, x_n, obj = small_mlp_case(9)
    total = sum(grad_sdo_params(field, sched, x_n, obj, "fixed", iprime=i).gradient
                for i in range(1, sched.n_steps + 1))
    full = grad_sdo_params(field, sched, x_n, obj, "full-sum").gradient
    assert np.max(np.abs(total - full)) <= 1e-10


def test_truncated_full_window_bit_identical_to_bptt_mlp():
    field, sched, x_n, obj = small_mlp_case(13)
    kN = grad_truncated(field, sched, x_n, obj, k=sched.n_steps)
    bptt = grad_bptt(field, sched, x_n, obj, PARAMS)
    np.testing.assert_array_equal(kN.gradient, bptt.gradient)


class ConstantField(ZeroField):
    """u = theta, independent of the state: every cross-step Jacobian is
    the identity, so the exact and one-step parameter gradients coincide."""

    def __init__(self, value):
        self.value_vec = np.asarray(value, dtype=np.float64)
        self.dim = self.value_vec.size

    def params(self):
        return [self.value_vec]

    def with_params(self, arrays):
        return ConstantField(arrays[0])

    def build(self, tape, x, n, theta=None):
        value = theta[0] if theta is not None else tape.constant(self.value_vec)
        return tape.mlp(x, [np.zeros((self.dim, self.dim)), value])


@pytest.mark.parametrize("field", [
    ZeroField(2), ScalarGainField(0.7, dim=2),
    DenoiserField(Denoiser.create(np.random.default_rng(0), hidden=(4,)),
                  Schedule("vp-linear", 5)),
    ConstantField([0.3, -0.2])], ids=lambda f: type(f).__name__)
def test_velocity_field_output_has_the_shape_of_x(field):
    # one state (d,), a (d, B) block at one step, and the block at one step
    # per column; on VALUES and on a tape with the parameters watched
    block = np.random.default_rng(1).standard_normal((2, 3))
    for x, n in ((block[:, 0], 2), (block, 2), (block, np.array([1, 2, 3]))):
        assert field.value(x, n).shape == x.shape
        tape = Tape()
        theta = [tape.variable(p) for p in field.params()]
        assert field.build(tape, tape.constant(x), n, theta).shape == x.shape


def test_estimators_coincide_when_velocity_ignores_state():
    field = ConstantField([0.3, -0.2])
    sched = Schedule("vp-linear", 5)
    x_n = np.array([1.0, 2.0])
    obj = QuadraticTarget(np.zeros(2))

    bptt = grad_bptt(field, sched, x_n, obj, PARAMS).gradient
    full = grad_sdo_params(field, sched, x_n, obj, "full-sum").gradient
    ift = grad_ift_oracle(field, sched, x_n, obj, PARAMS).gradient
    np.testing.assert_allclose(full, bptt, rtol=1e-15)
    np.testing.assert_allclose(ift, bptt, rtol=1e-12)

    lat_b = grad_bptt(field, sched, x_n, obj, LATENT).gradient
    lat_s = grad_sdo_latent(field, sched, x_n, obj).gradient
    np.testing.assert_array_equal(lat_s, lat_b)


# ------------------------------------------------------------- tape economy

def test_node_count_sdo_independent_of_network_size():
    rng = np.random.default_rng(0)
    sched = Schedule("vp-linear", 10)
    x_n = rng.standard_normal(2)
    obj = QuadraticTarget(np.zeros(2))
    counts = {}
    for hidden in ((8,), (64, 64)):
        field = DenoiserField(Denoiser.create(rng, hidden=hidden), sched)
        sdo = grad_sdo_latent(field, sched, x_n, obj)
        bptt = grad_bptt(field, sched, x_n, obj, LATENT)
        counts[hidden] = (sdo.tape_node_count, bptt.tape_node_count)
    # a network call is one `mlp` node at any depth, so an extra hidden
    # layer adds no node to either tape
    assert counts[(64, 64)] == counts[(8,)]


def test_node_count_sdo_growth_bounded_by_update_cost():
    # across N the one-step tape grows only by the per-step update
    # arithmetic (scale + subtract at the recorded step, subtract elsewhere)
    rng = np.random.default_rng(2)
    obj = QuadraticTarget(np.zeros(2))
    x_n = rng.standard_normal(2)
    counts = {}
    for n in (10, 100):
        sched = Schedule("vp-linear", n)
        field = DenoiserField(Denoiser.create(rng, hidden=(64, 64)), sched)
        counts[n] = grad_sdo_latent(field, sched, x_n, obj).tape_node_count
    step_cost = 2
    assert counts[100] <= counts[10] + 100 * step_cost


def test_node_count_one_step_is_the_same_at_every_n():
    rng = np.random.default_rng(4)
    den = Denoiser.create(rng, hidden=(64, 64))
    x_n = rng.standard_normal(2)
    obj = QuadraticTarget(rng.standard_normal(2))
    counts = set()
    for n in (10, 200):
        sched = Schedule("vp-linear", n)
        field = DenoiserField(den, sched)
        counts.add((
            grad_sdo_params(field, sched, x_n, obj, "fixed", iprime=n).tape_node_count,
            grad_sdo_params(field, sched, x_n, obj, "fixed", iprime=1).tape_node_count,
            grad_sdo_latent(field, sched, x_n, obj).tape_node_count,
            grad_sdo_latent(field, sched, x_n, obj, m=n // 2).tape_node_count,
            grad_sdo_params(field, sched, x_n, obj, "full-sum").tape_node_count))
    # one recorded network call and DDIM step, then mul + sum of the
    # contraction; the parameter calls record their time bias, and the
    # field's lincomb takes full-sum's per-column steps' (C,) coefficients
    assert counts == {(6, 6, 5, 5, 6)}


def test_node_count_bptt_linear_in_n():
    # the contraction adds mul + sum; for the parameters, the block call's
    # 6 nodes stand in for step N, which the window does not record
    rng = np.random.default_rng(1)
    obj = QuadraticTarget(np.zeros(2))
    x_n = rng.standard_normal(2)
    for target, overhead in ((LATENT, 2), (PARAMS, 5)):
        per_step = None
        for n in (5, 10, 20):
            sched = Schedule("vp-linear", n)
            field = DenoiserField(Denoiser.create(rng, hidden=(8, 8)), sched)
            rep = grad_bptt(field, sched, x_n, obj, target)
            step_cost = (rep.tape_node_count - overhead) / n
            if per_step is None:
                per_step = step_cost
            assert step_cost == per_step == 3


def test_node_counts_of_every_estimator_on_the_64_64_network():
    # a recorded DDIM step is 3 nodes: the network's mlp and 2 lincombs; the
    # parameter contraction records the time bias, the network, the field's
    # lincomb (with (C,) coefficients at per-column steps) and the step's,
    # then mul + sum; the latent adds the objective's 2
    rng = np.random.default_rng(6)
    den = Denoiser.create(rng, hidden=(64, 64))
    x_n = rng.standard_normal(2)
    obj = QuadraticTarget(rng.standard_normal(2))
    for n in (5, 12):
        sched = Schedule("vp-linear", n)
        field = DenoiserField(den, sched)
        assert grad_bptt(field, sched, x_n, obj, LATENT).tape_node_count == 3 * n + 2
        assert grad_bptt(field, sched, x_n, obj, PARAMS).tape_node_count == 3 * n + 5
        for k in (2, 3, n):
            assert grad_truncated(field, sched, x_n, obj, k).tape_node_count == 3 * k + 5
        assert grad_truncated(field, sched, x_n, obj, 1).tape_node_count == 6
        assert grad_sdo_params(field, sched, x_n, obj, "fixed",
                               iprime=2).tape_node_count == 6
        assert grad_sdo_latent(field, sched, x_n, obj).tape_node_count == 5
        assert grad_sdo_params(field, sched, x_n, obj, "full-sum").tape_node_count == 6


def _counted_tape_calls(monkeypatch):
    """Wrap each primitive and `backward` on Tape; the Counter counts their
    calls by name."""
    calls = collections.Counter()
    for name in (*PRIMITIVES, "backward"):
        def counted(self, *args, _prim=getattr(Tape, name), _name=name, **kwargs):
            calls[_name] += 1
            return _prim(self, *args, **kwargs)
        monkeypatch.setattr(Tape, name, counted)
    return calls


def _every_estimator(field, sched, x_n, obj, n):
    runs = {
        "sdo fixed": lambda: grad_sdo_params(field, sched, x_n, obj, "fixed", 2),
        "sdo full-sum": lambda: grad_sdo_params(field, sched, x_n, obj, "full-sum"),
        "bptt params": lambda: grad_bptt(field, sched, x_n, obj, PARAMS),
        "bptt latent": lambda: grad_bptt(field, sched, x_n, obj, LATENT),
        "sdo latent": lambda: grad_sdo_latent(field, sched, x_n, obj),
        "truncated-1": lambda: grad_truncated(field, sched, x_n, obj, 1),
        "truncated-3": lambda: grad_truncated(field, sched, x_n, obj, 3),
        "latent_pass sdo": lambda: latent_pass(field, sched, x_n, n // 2, obj, "sdo"),
        "latent_pass bptt": lambda: latent_pass(field, sched, x_n, n // 2, obj, "bptt"),
    }
    if x_n.ndim == 1:  # the oracle takes one noise
        runs["ift-oracle"] = lambda: grad_ift_oracle(field, sched, x_n, obj, PARAMS)
    return runs


def _census_objective(kind, rng):
    if kind == "quadratic":
        return QuadraticTarget(rng.standard_normal(2))
    if kind == "rbf":
        return RbfReward(rng.standard_normal(2), 0.8)
    if kind == "margin":
        clf = ToyClassifier([rng.standard_normal((4, 2)), rng.standard_normal(4),
                             rng.standard_normal((1, 4)), np.zeros(1)])
        return ClassifierMargin(clf, 1, evade=True)
    return MomentMatch(rng.standard_normal((5, 2)))


@pytest.mark.parametrize("kind", ["quadratic", "rbf", "margin"])
@pytest.mark.parametrize("parameterization", ["epsilon", "velocity"])
def test_a_denoiser_field_gradient_records_no_tape(monkeypatch, parameterization, kind):
    # the roll, window, block and the objective's gradient all run on numpy
    # twins, so no estimator calls a Tape primitive or Tape.backward, at any N
    calls = _counted_tape_calls(monkeypatch)
    rng = np.random.default_rng(40)
    den = Denoiser.create(rng, hidden=(6, 5), parameterization=parameterization)
    obj = _census_objective(kind, rng)
    for n in (4, 30):
        sched = Schedule("vp-linear", n)
        field = DenoiserField(den, sched)
        for x_n in (rng.standard_normal(2), rng.standard_normal((3, 2))):
            for label, run in _every_estimator(field, sched, x_n, obj, n).items():
                calls.clear()
                run()
                assert calls == {}, (n, x_n.shape, label)


def test_a_moment_match_gradient_calls_only_its_objectives_tape(monkeypatch):
    # the control: MomentMatch keeps the tape, and the wrappers count it
    calls = _counted_tape_calls(monkeypatch)
    rng = np.random.default_rng(41)
    den = Denoiser.create(rng, hidden=(6, 5))
    obj = _census_objective("moment-match", rng)
    obj.gradient(rng.standard_normal((3, 2)))
    objective_tape = calls.copy()
    assert objective_tape["backward"] == 1 and sum(objective_tape.values()) > 1
    for n in (4, 30):
        sched = Schedule("vp-linear", n)
        field = DenoiserField(den, sched)
        for x_n in (rng.standard_normal(2), rng.standard_normal((3, 2))):
            for label, run in _every_estimator(field, sched, x_n, obj, n).items():
                calls.clear()
                run()
                assert calls == objective_tape, (n, x_n.shape, label)


def test_bptt_params_at_one_step_is_sdo_at_the_first_step_bit_for_bit():
    rng = np.random.default_rng(2)
    sched = Schedule("vp-linear", 1)
    field = DenoiserField(Denoiser.create(rng, hidden=(16, 16)), sched)
    obj = QuadraticTarget(rng.standard_normal(2))
    for x in (rng.standard_normal(2), rng.standard_normal((3, 2))):
        bptt = grad_bptt(field, sched, x, obj, PARAMS)
        sdo = grad_sdo_params(field, sched, x, obj, "fixed", iprime=1)
        assert bptt.gradient.tobytes() == sdo.gradient.tobytes()
        assert bptt.loss == sdo.loss
        assert bptt.tape_node_count == sdo.tape_node_count == 6


# ------------------------------------------------------ the numpy reverse twin

TWIN_N = 10
TWIN_CASES = [(hidden, par, batch) for hidden in ((6,), (6, 5), (6, 5, 4))
              for par in ("epsilon", "velocity") for batch in (None, 8)]


def _twin_case(hidden, parameterization, batch):
    """A DenoiserField on a 10-step grid, a state x_N (d,) or an (8, d)
    block, and an objective."""
    field, sched, _, obj = small_mlp_case(31, TWIN_N, hidden, parameterization)
    rng = np.random.default_rng(32)
    return field, sched, rng.standard_normal(2 if batch is None else (batch, 2)), obj


def _twin_and_tape(field, call, method="window"):
    """call(field) with the field's own `method`, its numpy twin, and then
    with `VelocityField`'s, on a Tape, on the same field."""
    twin = call(field)
    setattr(field, method, types.MethodType(getattr(VelocityField, method), field))
    try:
        return twin, call(field)
    finally:
        delattr(field, method)


@pytest.mark.parametrize("hidden, parameterization, batch", TWIN_CASES)
def test_the_twin_window_gives_the_tapes_states_adjoints_and_nodes(hidden,
                                                                   parameterization,
                                                                   batch):
    field, sched, x, _ = _twin_case(hidden, parameterization, batch)
    v = np.ascontiguousarray(x.T)
    g = np.random.default_rng(33).standard_normal(v.shape)
    per_step = 3 if parameterization == "epsilon" else 2
    for n_from, n_to in ((5, 4), (7, 3), (TWIN_N, 0)):  # windows of 1, k and N steps

        def call(f):
            states, pullback = f.window(sched, v, n_from, n_to)
            return states, *pullback(g)

        (states, adjoints, nodes), (tape_states, tape_adjoints, tape_nodes) = \
            _twin_and_tape(field, call)
        assert nodes == tape_nodes == per_step * (n_from - n_to) + 2
        assert len(states) == len(adjoints) == n_from - n_to + 1
        for got, want in zip([*states, *adjoints], [*tape_states, *tape_adjoints],
                             strict=True):
            assert got.shape == v.shape and got.tobytes() == want.tobytes()
        assert adjoints[-1].tobytes() == g.tobytes()


@pytest.mark.parametrize("hidden, parameterization, batch", TWIN_CASES)
def test_the_engines_on_the_twin_end_at_the_tapes_bits(hidden, parameterization, batch):
    field, sched, x, obj = _twin_case(hidden, parameterization, batch)
    calls = {  # windows of 1, k and N steps
        "bptt-latent": lambda f: grad_bptt(f, sched, x, obj, LATENT),
        "bptt-latent-at-k": lambda f: grad_bptt(f, sched, x, obj, GradTarget("latent", 4)),
        "sdo-latent": lambda f: grad_sdo_latent(f, sched, x, obj, m=6),
        "bptt-params": lambda f: grad_bptt(f, sched, x, obj, PARAMS),
        "truncated-2": lambda f: grad_truncated(f, sched, x, obj, 2),
        "truncated-k": lambda f: grad_truncated(f, sched, x, obj, 5),
        "bptt-spec": lambda f: parameter_gradient(EstimatorSpec("bptt"), f, sched, x, obj),
    }
    for name, call in calls.items():
        twin, tape = _twin_and_tape(field, call)
        assert twin.gradient.tobytes() == tape.gradient.tobytes(), name
        assert twin.loss == tape.loss and twin.tape_node_count == tape.tape_node_count, name
    # the twin's bptt is grad_bptt's, which the tape's ends at too
    assert (calls["bptt-spec"](field).gradient.tobytes()
            == calls["bptt-params"](field).gradient.tobytes())


def test_both_windows_reject_a_step_outside_the_grid_and_a_misshapen_cotangent():
    field, sched, x, _ = _twin_case((6,), "epsilon", None)
    for window in (field.window, types.MethodType(VelocityField.window, field)):
        for n_from, n_to in ((TWIN_N + 1, 3), (2, -1)):
            with pytest.raises(ValueError, match="outside"):
                window(sched, x, n_from, n_to)
        _, pullback = window(sched, x, 3, 1)
        with pytest.raises(ShapeError):
            pullback(np.ones(3))


def test_the_window_runs_the_rolls_step_loop():
    for hidden, parameterization, batch in TWIN_CASES:
        field, sched, x, _ = _twin_case(hidden, parameterization, batch)
        for n_from, n_to in ((5, 4), (7, 3), (TWIN_N, 0)):  # windows of 1, k and N steps
            rows = rollout(field, sched, x, n_from, n_to)
            states, _ = field.window(sched, x.T, n_from, n_to)
            assert len(states) == len(rows) == n_from - n_to + 1
            for state, row in zip(states, rows):
                assert state.T.tobytes() == row.tobytes()


def _contract_cases(hidden, parameterization):
    """name -> (field, schedule, states, steps, g) for a block call and its
    pullback of g: one state and an (8, d) block at one step, the N
    per-column steps (`every_step`) of N states and of N·B columns, a block
    lo..hi, the stopped block's reversed, transposed view of a roll, at
    N = 30, where that view and a C-ordered copy of it give W1x's cotangent
    different bits, and an F-ordered g on the N·B columns."""
    field, sched, x, _ = _twin_case(hidden, parameterization, None)
    rng = np.random.default_rng(34)
    every, n = sched.every_step, sched.n_steps
    lo_hi = np.repeat(np.arange(3, 8), 8)
    blocks = {
        "one state": (x, 4),
        "an (8, d) block": (rng.standard_normal((2, 8)), 7),
        "every step": (rng.standard_normal((2, n)), every),
        "N·B columns": (rng.standard_normal((2, n * 8)), np.repeat(every, 8)),
        "a block lo..hi": (rng.standard_normal((2, lo_hi.size)), lo_hi),
    }
    cases = {name: (field, sched, states, steps, rng.standard_normal(states.shape))
             for name, (states, steps) in blocks.items()}
    states, steps = blocks["N·B columns"]
    cases["an F-ordered g"] = (field, sched, states, steps,
                               np.asfortranarray(rng.standard_normal(states.shape)))
    field, sched, x, _ = small_mlp_case(31, 30, hidden, parameterization)
    rows = rollout(field, sched, x, sched.n_steps)
    cases["a transposed view"] = (field, sched, rows[::-1][1:].reshape(-1, 2).T,
                                  np.repeat(sched.every_step, 1),
                                  np.tile(rng.standard_normal((2, 1)), sched.n_steps))
    return cases


@pytest.mark.parametrize("hidden, parameterization",
                         [(hidden, par) for hidden, par, batch in TWIN_CASES if batch is None])
def test_the_twin_contraction_gives_the_tapes_weight_cotangents_and_nodes(hidden,
                                                                          parameterization):
    # a contraction is the pullback of one `block` call: its u, the states'
    # cotangent when asked and the weight cotangents, and the call's nodes
    for name, (field, sched, states, steps, g) in _contract_cases(
            hidden, parameterization).items():
        for with_states in (False, True):

            def call(f):
                u, pullback, nodes = f.block(sched, states, steps)
                return u, *pullback(g, states=with_states), nodes

            (u, cot, grads, nodes), (tape_u, tape_cot, tape_grads, tape_nodes) = \
                _twin_and_tape(field, call, "block")
            assert nodes == tape_nodes == (3 if parameterization == "epsilon" else 2), name
            assert u.shape == states.shape and u.tobytes() == tape_u.tobytes(), name
            if with_states:
                assert cot.shape == states.shape and cot.tobytes() == tape_cot.tobytes(), name
            else:
                assert cot is None and tape_cot is None, name
            for got, want, weight in zip(grads, tape_grads, field.params(), strict=True):
                assert got.shape == weight.shape and got.tobytes() == want.tobytes(), name


def test_both_contractions_reject_a_step_outside_the_grid_and_a_misshapen_cotangent():
    field, sched, x, _ = _twin_case((6,), "epsilon", None)
    for block in (field.block, types.MethodType(VelocityField.block, field)):
        for steps in (0, TWIN_N + 1, np.array([1, TWIN_N + 1])):
            with pytest.raises(ValueError, match="outside"):
                block(sched, x if np.ndim(steps) == 0 else np.ones((2, 2)), steps)
        with pytest.raises(ShapeError):
            block(sched, x, 3)[1](np.ones(3))
        with pytest.raises(ShapeError):
            block(sched, np.ones((2, 4)), 3)[1](np.ones((2, 3)), states=True)


@pytest.mark.parametrize("parameterization", ["epsilon", "velocity"])
@pytest.mark.parametrize("n", [1, 7])
def test_the_ift_oracle_on_the_twin_block_gives_the_tapes_bits(parameterization, n):
    field, sched, x, obj = small_mlp_case(37, n, (6, 5), parameterization)
    for target in (LATENT, PARAMS):
        twin, tape = _twin_and_tape(
            field, lambda f: grad_ift_oracle(f, sched, x, obj, target), "block")
        assert twin.gradient.tobytes() == tape.gradient.tobytes(), target
        assert twin.loss == tape.loss, target


# --------------------------------------------------- a field's own schedule

OTHER_SCHEDULE_CALLS = {
    "rollout": lambda f, s, x, o: rollout(f, s, x, s.n_steps),
    "sample_sequential": lambda f, s, x, o: sample_sequential(f, s, x),
    "sample_picard": lambda f, s, x, o: sample_picard(f, s, x),
    "picard_update": lambda f, s, x, o: picard_update(f, s, np.tile(x, (s.n_steps + 1, 1))),
    "grad_bptt": lambda f, s, x, o: grad_bptt(f, s, x, o, PARAMS),
    "grad_sdo_params": lambda f, s, x, o: grad_sdo_params(f, s, x, o, "fixed", iprime=2),
    "grad_sdo_latent": lambda f, s, x, o: grad_sdo_latent(f, s, x, o),
    "grad_ift_oracle": lambda f, s, x, o: grad_ift_oracle(f, s, x, o, LATENT),
    "roll": lambda f, s, x, o: f.roll(s, x, s.n_steps, 0),
    "window": lambda f, s, x, o: f.window(s, x, s.n_steps, 0),
    "block": lambda f, s, x, o: f.block(s, x, 2),
    "ddim_step_var": lambda f, s, x, o: ddim_step_var(VALUES, f, s, x, 2),
}


@pytest.mark.parametrize("entry", sorted(OTHER_SCHEDULE_CALLS))
@pytest.mark.parametrize("n_steps", [5, 20])
def test_a_field_asked_through_another_schedule_raises_and_names_both(entry, n_steps):
    field, sched, x, obj = small_mlp_case(36, n=10)
    other = Schedule("vp-linear", n_steps)
    with pytest.raises(ValueError, match=r"built on Schedule\(kind='vp-linear', n_steps=10,"
                                         rf".* asked through Schedule\(kind='vp-linear', "
                                         rf"n_steps={n_steps},"):
        OTHER_SCHEDULE_CALLS[entry](field, other, x, obj)
    # an equal schedule is the field's own
    OTHER_SCHEDULE_CALLS[entry](field, Schedule("vp-linear", 10), x, obj)


# ------------------------------------------------------------------- bounds

def test_bounds_zero_velocity():
    rep = evaluate_bounds(ZeroField(2), Schedule("vp-linear", 4),
                          np.array([0.5, -0.5]), QuadraticTarget(np.zeros(2)))
    assert rep.lambda_hat == 0.0
    assert rep.measured_error_latent == 0.0
    assert rep.measured_error_params == 0.0
    assert rep.bound_valid
    assert rep.bound_latent == 0.0
    assert rep.bound_params == 0.0


def test_bounds_linear_oracle_closed_forms():
    field = ScalarGainField(0.1, dim=1)
    sched = Schedule("vp-linear", 4)
    rep = evaluate_bounds(field, sched, np.array([1.0]), HALF_SQUARE)

    c = 0.1 / 4
    strict_upper = np.triu(np.ones((4, 4)), k=1)
    lam_expected = c * np.linalg.svd(strict_upper, compute_uv=False)[0]
    assert rep.lambda_hat == pytest.approx(lam_expected, rel=1e-12)

    x0 = (1 - c) ** 4
    assert rep.rho_hat == pytest.approx(x0, rel=1e-12)  # J' = x_0 for the half square
    err_expected = abs(x0 * (1 - c) - x0 * (1 - c) ** 4)
    assert rep.measured_error_latent == pytest.approx(err_expected, rel=1e-10)
    assert rep.bound_valid


def test_bounds_flag_when_not_contractive():
    # a large gain makes the stacked operator norm exceed one
    field = ScalarGainField(30.0, dim=1)
    sched = Schedule("vp-linear", 4)
    rep = evaluate_bounds(field, sched, np.array([1.0]), HALF_SQUARE)
    assert rep.lambda_hat >= 1.0
    assert not rep.bound_valid
    assert rep.bound_latent is None
    assert rep.measured_error_latent > 0.0


def test_ift_guard_rejects_large_systems():
    field = ZeroField(2)
    sched = Schedule("vp-linear", 3000)
    with pytest.raises(ValueError, match="guard"):
        grad_ift_oracle(field, sched, np.zeros(2), HALF_SQUARE, LATENT)


# -------------------------------------------------------------------- sweep

def test_sweep_rows_and_coincidences():
    rng = np.random.default_rng(2)
    base = Denoiser.create(rng, hidden=(6,))

    def make_field(n):
        sched = Schedule("vp-linear", n)
        return DenoiserField(base, sched), sched

    rows = grad_norm_sweep(
        make_field, QuadraticTarget(np.zeros(2)), [4, 8],
        [EstimatorSpec.parse("bptt"), EstimatorSpec.parse("sdo-full"),
         EstimatorSpec.parse("truncated-4")],
        seed=7, noise_rng=np.random.default_rng(0),
        select_rng=np.random.default_rng(1), draws=2, reps=2)
    assert len(rows) == 12
    assert {r["estimator"] for r in rows} == {"bptt", "sdo-full", "truncated-4"}
    by = {(r["N"], r["estimator"]): r for r in rows}  # keeps the last draw
    # a full-length truncation window reproduces bptt exactly
    assert by[(4, "truncated-4")]["grad_l2"] == by[(4, "bptt")]["grad_l2"]
    assert all(r["finite"] for r in rows)
    # bptt records every network call, so its tape grows with N
    assert by[(8, "bptt")]["tape_nodes"] > by[(4, "bptt")]["tape_nodes"]

    ratios = sweep_norm_ratios(rows)
    assert set(ratios) == {"bptt", "sdo-full", "truncated-4"}
    assert all(r >= 1.0 for r in ratios.values())


def test_sweep_zero_field_zero_param_norms():
    def make_field(n):
        sched = Schedule("vp-linear", n)
        return ZeroField(2), sched

    rows = grad_norm_sweep(make_field, QuadraticTarget(np.zeros(2)), [3],
                           [EstimatorSpec.parse("bptt")], seed=0,
                           noise_rng=np.random.default_rng(0),
                           select_rng=np.random.default_rng(1))
    assert rows[0]["grad_l2"] == 0.0


def test_sweep_rejects_an_empty_n_list_or_estimator_list_by_name():
    def make_field(n):
        raise AssertionError("built a field")

    for n_list, specs, key in (([], [EstimatorSpec.parse("bptt")], "n_list"),
                               ([3], [], "estimators"), ([], [], "n_list")):
        with pytest.raises(ValueError, match=f"^{key} is empty$"):
            grad_norm_sweep(make_field, QuadraticTarget(np.zeros(2)), n_list, specs, seed=0,
                            noise_rng=np.random.default_rng(0),
                            select_rng=np.random.default_rng(1))


@pytest.mark.parametrize("durations, median", [((0.5, 3.0, 1.25), 1.25),
                                               ((1.0, 3.0), 2.0)])
def test_sweep_wall_time_is_the_median_of_the_timed_calls(monkeypatch, durations,
                                                           median):
    # a clock read before and after each call
    clock = iter([t for i, d in enumerate(durations) for t in (100.0 * i, 100.0 * i + d)])
    monkeypatch.setattr(engines.time, "perf_counter", lambda: next(clock))
    rows = grad_norm_sweep(lambda n: (ZeroField(2), Schedule("vp-linear", n)),
                           QuadraticTarget(np.zeros(2)), [3],
                           [EstimatorSpec.parse("bptt")], seed=0,
                           noise_rng=np.random.default_rng(0),
                           select_rng=np.random.default_rng(1), reps=len(durations))
    assert [r["wall_time_s"] for r in rows] == [median]
    assert next(clock, None) is None  # no other clock read


def test_estimator_spec_parse():
    assert EstimatorSpec.parse("truncated-7").k == 7
    assert EstimatorSpec.parse("truncated-k").k is None
    assert EstimatorSpec.parse("truncated-k").label() == "truncated-k"
    assert EstimatorSpec.parse("bptt").kind == "bptt"
    assert EstimatorSpec.parse("truncated-0").k == 0  # k is checked where N is known
    for unknown in ("adjoint", "fd-oracle", "truncated-x", "truncated-", "truncated"):
        with pytest.raises(ValueError, match=f"^unknown estimator '{unknown}'$"):
            EstimatorSpec.parse(unknown)


def test_parameter_gradient_matches_each_engine_bit_for_bit():
    field, sched, x_n, obj = small_mlp_case(8)
    cases = [
        ("bptt", None, grad_bptt(field, sched, x_n, obj, PARAMS)),
        ("sdo", 4, grad_sdo_params(field, sched, x_n, obj, "fixed", iprime=4)),
        ("sdo-full", None, grad_sdo_params(field, sched, x_n, obj, "full-sum")),
        ("ift-oracle", None, grad_ift_oracle(field, sched, x_n, obj, PARAMS)),
        ("last-step", None, grad_truncated(field, sched, x_n, obj, 1)),
        ("truncated-3", None, grad_truncated(field, sched, x_n, obj, 3)),
    ]
    for text, iprime, direct in cases:
        rep = parameter_gradient(EstimatorSpec.parse(text), field, sched, x_n,
                                 obj, iprime)
        np.testing.assert_array_equal(rep.gradient, direct.gradient)
        assert rep.tape_node_count == direct.tape_node_count
    with pytest.raises(ValueError, match="window k"):
        parameter_gradient(EstimatorSpec.parse("truncated-k"), field, sched,
                           x_n, obj)


def _block_cases(field, sched, noises, obj):
    """The windowed parameter estimators and two latent targets, each as a
    function of the noise: one (d,) noise or a (B, d) block."""
    n = sched.n_steps
    cases = [(text, lambda x, text=text: parameter_gradient(
                 EstimatorSpec.parse(text), field, sched, x, obj, 4))
             for text in ("sdo", "bptt", "last-step", "truncated-3", "sdo-full")]
    return cases + [
        ("sdo-latent", lambda x: grad_sdo_latent(field, sched, x, obj, m=n // 2)),
        ("bptt-latent", lambda x: grad_bptt(field, sched, x, obj, LATENT))]


def test_a_noise_block_is_the_mean_of_its_per_noise_gradients():
    rng = np.random.default_rng(21)
    sched = Schedule("vp-linear", 7, 0.1, 20.0)
    field = DenoiserField(Denoiser.create(rng, hidden=(16, 16)), sched)
    noises = rng.standard_normal((5, 2))
    obj = QuadraticTarget(rng.standard_normal(2))
    for label, grad_of in _block_cases(field, sched, noises, obj):
        block = grad_of(noises)
        per_noise = [grad_of(x) for x in noises]
        grads = [r.gradient for r in per_noise]
        # row r of a latent gradient depends on noise r alone
        want = (np.stack(grads) / len(noises) if label.endswith("latent")
                else np.mean(grads, axis=0))
        assert block.gradient.shape == want.shape, label
        np.testing.assert_allclose(block.gradient, want, rtol=1e-12, atol=0,
                                   err_msg=label)
        assert block.loss == pytest.approx(np.mean([r.loss for r in per_noise]),
                                           rel=1e-12, abs=0), label
        assert block.tape_node_count == per_noise[0].tape_node_count, label


def test_a_block_of_one_noise_is_the_single_noise_call_bit_for_bit():
    # up to the sign of an exact zero: where a saturated tanh unit passes
    # no gradient, the weight VJP of one state is an outer product (-0.0
    # for a negative input), of a one-column block a gemm that adds to +0.0
    field, sched, x_n, obj = small_mlp_case(9, n=7, hidden=(16, 16))
    for label, grad_of in _block_cases(field, sched, x_n[None], obj):
        single, block = grad_of(x_n), grad_of(x_n[None])
        assert ((block.gradient + 0.0).tobytes()
                == (single.gradient.reshape(block.gradient.shape) + 0.0).tobytes()), label
        assert block.loss == single.loss, label
        assert block.tape_node_count == single.tape_node_count, label


def test_the_stacked_system_takes_one_noise():
    field, sched, x_n, obj = small_mlp_case(3)
    with pytest.raises(ValueError, match="one noise"):
        grad_ift_oracle(field, sched, np.stack([x_n, x_n]), obj, PARAMS)



def test_stacked_matrices_match_central_differences_of_the_picard_update():
    """A = dF/dy, B_latent = dF/dx_N and B_theta = dF/dtheta of the stacked
    system, each against central differences of the value-path
    `picard_update` at the sequential trajectory."""
    field, sched, x_n, _ = small_mlp_case(11, n=5, hidden=(6,))
    traj, a, b_latent, b_theta = _stacked_system(field, sched, x_n)
    n, h = sched.n_steps, 1e-6
    flat0 = np.concatenate([p.ravel() for p in field.params()])

    def update(y, x_top, flat):  # F(y, x_N, theta), flattened as y is
        f = field.with_params(unflatten(flat, field.params()))
        return picard_update(f, sched, np.vstack([y.reshape(n, -1), x_top]))[:n].ravel()

    y0, top0 = traj.states[:n].ravel(), traj.states[n]
    for matrix, probe in ((a, lambda e: update(y0 + e, top0, flat0)),
                          (b_latent, lambda e: update(y0, top0 + e, flat0)),
                          (b_theta, lambda e: update(y0, top0, flat0 + e))):
        fd = np.empty_like(matrix)
        for k in range(matrix.shape[1]):
            e = np.zeros(matrix.shape[1])
            e[k] = h
            fd[:, k] = (probe(e) - probe(-e)) / (2.0 * h)
        assert np.max(np.abs(fd - matrix)) <= 1e-6 * np.max(np.abs(matrix))


def test_sweep_random_window_estimator_is_deterministic():
    rng = np.random.default_rng(4)
    base = Denoiser.create(rng, hidden=(5,))

    def make_field(n):
        sched = Schedule("vp-linear", n)
        return DenoiserField(base, sched), sched

    def run():
        return grad_norm_sweep(make_field, QuadraticTarget(np.zeros(2)), [4, 6],
                               [EstimatorSpec.parse("truncated-k")], seed=2,
                               noise_rng=np.random.default_rng(0),
                               select_rng=np.random.default_rng(9), draws=2)

    first, second = run(), run()
    assert [r["grad_l2"] for r in first] == [r["grad_l2"] for r in second]
    assert all(r["estimator"] == "truncated-k" for r in first)


def test_sweep_records_nonfinite_norms():
    class NanField(ZeroField):
        def params(self):
            return [np.asarray(0.5)]

        def with_params(self, arrays):
            return self

        def build(self, tape, x, n, theta=None):
            a = theta[0] if theta is not None else tape.constant(0.5)
            return tape.mul(tape.scale(a, float("nan")), x)

    def make_field(n):
        sched = Schedule("vp-linear", n)
        return NanField(2), sched

    with np.errstate(invalid="ignore"):
        rows = grad_norm_sweep(make_field, QuadraticTarget(np.zeros(2)), [3],
                               [EstimatorSpec.parse("bptt")], seed=0,
                               noise_rng=np.random.default_rng(0),
                               select_rng=np.random.default_rng(1))
    assert len(rows) == 1
    assert not rows[0]["finite"]
    assert np.isnan(rows[0]["grad_l2"])


# ------------------------------------ recorded windows against the full tape

def _reference_window(field, sched, x, objective, step, k, target, start=None,
                      clamp=False, stop_input=False, per_row=False):
    """A recorded-window gradient as one full tape: DDIM steps from `start`
    (N by default) down to 0, every network call outside steps
    step .. step-k+1 run on VALUES and enter as constants, and the
    objective on the same tape.
    x holds one state (d,) or a batch (B, d) at `start`, stepped as one
    (d, B) block, or with per_row each row as a (d, 1) block of its own,
    placed into column r of the sample block by the exact product x_r e_r^T;
    a latent target is the state at `step`; stop_input hands each recorded
    call its state input as a constant."""
    n_steps = sched.n_steps
    start = n_steps if start is None else start
    tape = Tape()
    theta = [tape.variable(p) for p in field.params()] if target == "params" else None
    x = np.asarray(x, dtype=np.float64)
    leaves, outs = [], []
    for block in (np.atleast_2d(x)[:, :, None] if per_row else [x.T]):
        x = tape.constant(block)
        for n in range(start, 0, -1):
            if target == "latent" and n == step:
                x = tape.variable(x.value)
                leaves.append(x)
            if step - k < n <= step:
                xin = tape.constant(x.value) if stop_input else x
                u = field.build(tape, xin, n, theta)
            else:
                u = tape.constant(field.build(VALUES, x.value, n))
            x = tape.sub(x, tape.scale(u, 1.0 / n_steps))
        outs.append(tape.clamp(x, -1.0, 1.0) if clamp else x)
    sample = outs[0]
    if per_row:
        eye = np.eye(len(outs))
        sample = zeros = tape.constant(np.zeros((x.shape[0], len(outs))))
        for r, col in enumerate(outs):
            sample = tape.add(sample, tape.mlp(tape.constant(eye[r:r + 1]), [col, zeros]))
    j = objective.build_rows(tape, sample)
    grads = tape.backward(j)
    if target == "params":
        return np.concatenate([grads[v].ravel() for v in theta]), float(j.value)
    if per_row:
        return np.hstack([grads[v] for v in leaves]).T, float(j.value)
    return grads[leaves[0]].T, float(j.value)


def _reference_full_sum(field, sched, x, objective):
    """The full-sum gradient as one full tape: the DDIM steps from x_N on
    VALUES; one recorded network call on the (d, N·B) block of the
    states x_1 .. x_N (column (i-1)·B + b is x_i of noise b, at step i),
    each column taking its DDIM step; and the objective at x_0 + (S - S),
    where S sums each noise's column steps. That sample has the bits of
    the rolled x_0, and its derivative is the Picard update's at the fixed
    point with the states held fixed."""
    n_steps = sched.n_steps
    tape = Tape()
    theta = [tape.variable(p) for p in field.params()]
    states = [np.asarray(x, dtype=np.float64).T]
    for n in range(n_steps, 0, -1):
        u = field.build(VALUES, states[-1], n)
        states.append(VALUES.sub(states[-1], VALUES.scale(u, 1.0 / n_steps)))
    x0 = tape.constant(states.pop())
    block = tape.constant(np.column_stack(states[::-1]))
    b = block.shape[1] // n_steps
    per_column = np.repeat(np.arange(1, n_steps + 1), b)
    steps = tape.sub(block, tape.scale(field.build(tape, block, per_column, theta),
                                       1.0 / n_steps))
    per_noise = np.tile(np.eye(b), (n_steps, 1)).reshape((n_steps * b,) + x0.shape[1:])
    s = tape.mlp(tape.constant(per_noise), [steps, np.zeros(x0.shape)])
    sample = tape.add(x0, tape.sub(s, tape.constant(s.value)))
    j = objective.build_rows(tape, sample)
    grads = tape.backward(j)
    return np.concatenate([grads[v].ravel() for v in theta]), float(j.value)


def _reference_step_block(field, sched, x, objective, k):
    """The parameter gradient through the last k steps (bptt at k = N) as
    one full tape: the DDIM steps from x_N on VALUES; one recorded
    network call with the weights watched on the constant (d, k·B) block of
    the states x_1 .. x_k (column (i-1)·B + b is x_i of noise b, at step
    i), each column taking its DDIM step; then the steps k .. 1 recorded
    again with the weights constant, each output plus (its block columns
    minus their value). That sample has the bits of the rolled x_0, and the
    block's columns for x_i receive the adjoint dJ/dx_{i-1}."""
    n_steps = sched.n_steps
    tape = Tape()
    theta = [tape.variable(p) for p in field.params()]
    states = [np.asarray(x, dtype=np.float64).T]  # x_N, x_{N-1}, ..
    for n in range(n_steps, 0, -1):
        states.append(VALUES.sub(states[-1], VALUES.scale(
            field.build(VALUES, states[-1], n), 1.0 / n_steps)))
    block = tape.constant(np.column_stack([states[n_steps - i] for i in range(1, k + 1)]))
    b = block.shape[1] // k
    per_column = np.repeat(np.arange(1, k + 1), b)
    steps = tape.sub(block, tape.scale(field.build(tape, block, per_column, theta),
                                       1.0 / n_steps))
    pick = np.eye(k * b)
    zeros = np.zeros(states[0].shape)
    x = tape.constant(states[n_steps - k])
    for i in range(k, 0, -1):
        u = field.build(tape, x, i)
        step = tape.sub(x, tape.scale(u, 1.0 / n_steps))
        cols = pick[:, (i - 1) * b:i * b].reshape((k * b,) + x.shape[1:])
        own = tape.mlp(tape.constant(cols), [steps, zeros])
        x = tape.add(step, tape.sub(own, tape.constant(own.value)))
    j = objective.build_rows(tape, x)
    grads = tape.backward(j)
    return np.concatenate([grads[v].ravel() for v in theta]), float(j.value)


def _window_cases(estimator, field, sched, x_n, obj):
    """(engine report, recorded step, window k, target) for each evaluation
    of one windowed estimator."""
    n = sched.n_steps
    if estimator == "sdo":
        return ([(grad_sdo_params(field, sched, x_n, obj, "fixed", iprime=i),
                  i, 1, "params") for i in sorted({1, n})]
                + [(grad_sdo_latent(field, sched, x_n, obj, m=m), m, 1, "latent")
                   for m in sorted({n, max(1, n // 3)})])
    if estimator == "bptt":
        return ([(grad_bptt(field, sched, x_n, obj, PARAMS), n, n, "params")]
                + [(grad_bptt(field, sched, x_n, obj, GradTarget("latent", m)),
                    m, m, "latent") for m in sorted({n, max(1, n // 2)})])
    return [(grad_truncated(field, sched, x_n, obj, k), k, k, "params")
            for k in sorted({1, min(3, n)})]


def _seeded_case(n):
    """From seed n: a 16-16 network on an N-step schedule, one noise, a
    quadratic objective and a block of three noises."""
    rng = np.random.default_rng(n)
    sched = Schedule("vp-linear", n, 0.1, 20.0)
    field = DenoiserField(Denoiser.create(rng, hidden=(16, 16)), sched)
    x_n = rng.standard_normal(2)
    obj = QuadraticTarget(rng.standard_normal(2))
    return field, sched, x_n, obj, rng.standard_normal((3, 2))


def _check_windows(n, estimator):
    field, sched, x_n, obj, block = _seeded_case(n)
    if estimator == "full-sum":
        cases = [(grad_sdo_params(field, sched, x, obj, "full-sum"),
                  _reference_full_sum(field, sched, x, obj)) for x in (x_n, block)]
    else:
        cases = []
        for rep, step, k, target in _window_cases(estimator, field, sched, x_n, obj):
            want, want_loss = _reference_window(field, sched, x_n, obj, step, k, target)
            if target == "params" and k > 1:
                # one gemm sums the steps' weight gradients over the block's
                # columns, where the per-step tape adds one step at a time
                np.testing.assert_allclose(rep.gradient, want, rtol=1e-12, atol=0)
                assert rep.loss == want_loss
                cases += [(rep, _reference_step_block(field, sched, x_n, obj, k)),
                          (grad_truncated(field, sched, block, obj, k),
                           _reference_step_block(field, sched, block, obj, k))]
            else:
                cases.append((rep, (want, want_loss)))
    for rep, (want, want_loss) in cases:
        assert rep.gradient.tobytes() == want.reshape(rep.gradient.shape).tobytes()
        assert rep.loss == want_loss


@pytest.mark.parametrize("n", [1, 7, 40])
def test_one_step_engines_match_the_full_tape_bit_for_bit(n):
    _check_windows(n, "sdo")


@pytest.mark.parametrize("estimator", ["bptt", "truncated", "full-sum"])
@pytest.mark.parametrize("n", [1, 7, 40])
def test_window_engines_match_the_full_tape_bit_for_bit(n, estimator):
    _check_windows(n, estimator)


@pytest.mark.parametrize("n", [1, 7, 40])
def test_full_sum_matches_the_per_step_stopped_input_tape(n):
    # each network call on its own state and at its own scalar time: the
    # block call moves the sum by ulps (gemm against gemv, numpy's sin and
    # cos against math's); J comes from the same roll
    field, sched, x_n, obj, block = _seeded_case(n)
    for x in (x_n, block):
        rep = grad_sdo_params(field, sched, x, obj, "full-sum")
        want, want_loss = _reference_window(field, sched, x, obj, n, n, "params",
                                            stop_input=True)
        np.testing.assert_allclose(rep.gradient, want, rtol=1e-12, atol=0)
        assert rep.loss == want_loss
        assert rep.tape_node_count == 6


def _check_latent_pass(estimator, clamp):
    rng = np.random.default_rng(11)
    sched = Schedule("vp-linear", 12, 0.1, 20.0)
    field = DenoiserField(Denoiser.create(rng, hidden=(16, 16)), sched)
    z = rng.standard_normal((3, 2))
    single = QuadraticTarget(rng.standard_normal(2))
    batch = MomentMatch(rng.standard_normal((8, 2)))
    for m in (12, 5):
        k = 1 if estimator == "sdo" else m
        for objective, latent in ((single, z[0]), (batch, z)):
            grad, loss, x0 = latent_pass(field, sched, latent, m, objective,
                                         estimator, clamp)
            want, want_loss = _reference_window(field, sched, latent, objective, m, k,
                                                "latent", start=m, clamp=clamp)
            assert grad.tobytes() == want.reshape(grad.shape).tobytes()
            assert loss == want_loss
            assert x0.shape == latent.shape
            if clamp:
                assert np.all(np.abs(x0) <= 1.0)


@pytest.mark.parametrize("clamp", [False, True])
def test_latent_pass_sdo_matches_the_full_tape_bit_for_bit(clamp):
    _check_latent_pass("sdo", clamp)


@pytest.mark.parametrize("clamp", [False, True])
def test_latent_pass_bptt_matches_the_full_tape_bit_for_bit(clamp):
    _check_latent_pass("bptt", clamp)


def test_latent_pass_batch_block_matches_a_per_row_tape():
    # the batch steps as one (d, B) block; against each latent stepped on
    # its own it moves by ulps (gemm against gemv), so its columns do not mix
    rng = np.random.default_rng(13)
    sched = Schedule("vp-linear", 12, 0.1, 20.0)
    field = DenoiserField(Denoiser.create(rng, hidden=(32, 32)), sched)
    z = rng.standard_normal((5, 2))
    batch = MomentMatch(rng.standard_normal((8, 2)))
    for estimator in ("sdo", "bptt"):
        for clamp in (False, True):
            for m in (12, 5):
                grad, loss, _ = latent_pass(field, sched, z, m, batch, estimator, clamp)
                want, want_loss = _reference_window(
                    field, sched, z, batch, m, 1 if estimator == "sdo" else m,
                    "latent", start=m, clamp=clamp, per_row=True)
                assert grad.shape == want.shape == z.shape
                np.testing.assert_allclose(grad, want, rtol=1e-12, atol=0)
                assert loss == pytest.approx(want_loss, rel=1e-12, abs=0)


@pytest.mark.parametrize("estimator", ["sdo", "bptt", "fd-oracle"])
def test_latent_pass_rejects_a_step_outside_1_to_n(estimator):
    field, sched, x_n, obj = small_mlp_case(4)
    for m in (0, sched.n_steps + 1, -1):
        with pytest.raises(ValueError, match="outside"):
            latent_pass(field, sched, x_n, m, obj, estimator)


# each takes (field, schedule, x_n, objective, a step n), the step as a scalar
# or inside an array of steps
STEP_ENTRY_POINTS = {
    "ddim-step-var": lambda f, s, x, o, n: ddim_step_var(VALUES, f, s, x, n),
    "ddim-step-var-block": lambda f, s, x, o, n: ddim_step_var(
        VALUES, f, s, np.column_stack([x, x, x]), np.array([1, n, s.n_steps])),
    "ddim-step": lambda f, s, x, o, n: ddim_step(f, s, x, n),
    "sdo-latent": lambda f, s, x, o, n: grad_sdo_latent(f, s, x, o, m=n),
    "bptt-latent": lambda f, s, x, o, n: grad_bptt(f, s, x, o, GradTarget("latent", n)),
    "sdo-params": lambda f, s, x, o, n: grad_sdo_params(f, s, x, o, "fixed", iprime=n),
    "sdo-spec": lambda f, s, x, o, n: parameter_gradient(EstimatorSpec("sdo"), f, s, x,
                                                         o, iprime=n),
    "truncated": lambda f, s, x, o, n: grad_truncated(f, s, x, o, n),
    "truncated-spec": lambda f, s, x, o, n: parameter_gradient(
        EstimatorSpec("truncated", n), f, s, x, o),
    "fd-true-map": lambda f, s, x, o, n: grad_fd_oracle(
        f, s, x, o, GradTarget("latent", n)),
    "fd-at-m": lambda f, s, x, o, n: grad_fd_oracle(
        f, s, x, o, LATENT, "sdo-surrogate-at-m", m=n),
    "fd-at-iprime": lambda f, s, x, o, n: grad_fd_oracle(
        f, s, x, o, PARAMS, "sdo-surrogate-at-iprime", iprime=n),
    "optimize-latent": lambda f, s, x, o, n: optimize_latent(
        f, s, x, o, LatentOptConfig(m=n, steps=1)),
    "step-block": lambda f, s, x, o, n: step_block_gradient(
        f, s, x, s.n_steps, n, o, exact=False, latent=False),
    "step-block-array": lambda f, s, x, o, n: step_block_gradient(
        f, s, x, s.n_steps, np.arange(min(n, 1), max(n, 1) + 1), o,
        exact=False, latent=False),
}


@pytest.mark.parametrize("entry", sorted(STEP_ENTRY_POINTS))
@pytest.mark.parametrize("bad", [0, 7, -1])  # 0, N + 1 and -1, with N = 6
def test_every_entry_point_rejects_a_step_outside_1_to_n(entry, bad):
    # -1 is the step that a check after indexing the grid would miss:
    # times[-1] is 1.0, the time of step N
    field, sched, x_n, obj = small_mlp_case(4)
    assert sched.n_steps == 6
    with pytest.raises(ValueError, match=r"outside [01]\.\.6$"):
        STEP_ENTRY_POINTS[entry](field, sched, x_n, obj, bad)


@pytest.mark.parametrize("clamp", [False, True])
def test_latent_pass_fd_oracle_reports_the_sdo_loss_and_sample(clamp):
    rng = np.random.default_rng(12)
    sched = Schedule("vp-linear", 12, 0.1, 20.0)
    field = DenoiserField(Denoiser.create(rng, hidden=(16, 16)), sched)
    z = rng.standard_normal((3, 2)) * 2.0
    single = QuadraticTarget(rng.standard_normal(2))
    batch = MomentMatch(rng.standard_normal((8, 2)))
    for m in (12, 5):
        for objective, latent in ((single, z[0]), (batch, z)):
            _, loss, x0 = latent_pass(field, sched, latent, m, objective,
                                      "fd-oracle", clamp)
            _, want_loss, want_x0 = latent_pass(field, sched, latent, m, objective,
                                                "sdo", clamp)
            assert loss == want_loss
            assert x0.shape == latent.shape
            assert x0.tobytes() == want_x0.tobytes()


@pytest.mark.parametrize("estimator", ["sdo", "bptt", "fd-oracle"])
def test_latent_pass_steers_a_batch_on_the_mean_of_a_single_sample_objective(estimator):
    # row r of the batch gradient is row r's own gradient over B; central
    # differences of the mean lose ~ulp(J) / 2h to cancellation
    rng = np.random.default_rng(14)
    sched = Schedule("vp-linear", 12, 0.1, 20.0)
    field = DenoiserField(Denoiser.create(rng, hidden=(16, 16)), sched)
    z = rng.standard_normal((4, 2))
    obj = QuadraticTarget(rng.standard_normal(2))
    rtol = 1e-8 if estimator == "fd-oracle" else 1e-12
    for m in (12, 5):
        grad, loss, x0 = latent_pass(field, sched, z, m, obj, estimator)
        rows = [latent_pass(field, sched, row, m, obj, estimator) for row in z]
        np.testing.assert_allclose(grad, np.stack([g for g, _, _ in rows]) / len(z),
                                   rtol=rtol, atol=0)
        assert loss == pytest.approx(np.mean([j for _, j, _ in rows]), rel=1e-12, abs=0)
        np.testing.assert_allclose(x0, np.stack([x for _, _, x in rows]),
                                   rtol=1e-12, atol=0)


def test_every_engine_reports_the_objective_at_its_sample():
    field, sched, x_n, obj = small_mlp_case(5)
    want = obj.value(sample_sequential(field, sched, x_n).x0)
    reports = [grad_bptt(field, sched, x_n, obj, PARAMS),
               grad_bptt(field, sched, x_n, obj, LATENT),
               grad_sdo_params(field, sched, x_n, obj, "fixed", iprime=3),
               grad_sdo_params(field, sched, x_n, obj, "full-sum"),
               grad_sdo_latent(field, sched, x_n, obj, m=2),
               grad_truncated(field, sched, x_n, obj, 3),
               grad_ift_oracle(field, sched, x_n, obj, PARAMS)]
    assert [rep.loss for rep in reports] == [want] * len(reports)


def test_engines_score_a_batch_objective_on_one_sample_as_a_batch_of_one():
    field, sched, x_n, _ = small_mlp_case(6)
    obj = MomentMatch(np.random.default_rng(6).standard_normal((5, 2)))
    want = obj.value(sample_sequential(field, sched, x_n).x0)
    assert grad_bptt(field, sched, x_n, obj, PARAMS).loss == want
    assert grad_sdo_latent(field, sched, x_n, obj).loss == want
