import numpy as np
import pytest

from shortcutdiff.model import (Denoiser, DenoiserField, DivergenceError,
                                ScalarGainField, ZeroField)
from shortcutdiff.sampler import (PicardResult, ddim_step, picard_update,
                                  residual_violations, rollout, sample_picard,
                                  sample_sequential, verify_fixed_point)
from shortcutdiff.schedule import Schedule

LINEAR = ScalarGainField(1.0, dim=1)


def sched(n):
    return Schedule("vp-linear", n)


def test_ddim_step_zero_velocity_is_identity():
    x = np.array([0.3, -0.8])
    out = ddim_step(ZeroField(2), sched(4), x, 2)
    np.testing.assert_array_equal(out, x)


def test_ddim_step_linear_oracle():
    out = ddim_step(LINEAR, sched(2), np.array([1.0]), 2)
    assert out[0] == 0.5


def test_ddim_step_scales_linearly():
    x = np.array([0.7])
    for c in (2.0, -3.0):
        np.testing.assert_allclose(ddim_step(LINEAR, sched(5), c * x, 3),
                                   c * ddim_step(LINEAR, sched(5), x, 3), rtol=1e-15)


def test_ddim_step_range_check():
    with pytest.raises(ValueError):
        ddim_step(LINEAR, sched(3), np.array([1.0]), 0)
    with pytest.raises(ValueError):
        ddim_step(LINEAR, sched(3), np.array([1.0]), 4)


def test_sequential_zero_velocity_keeps_state():
    x = np.array([1.5, -2.0])
    traj = sample_sequential(ZeroField(2), sched(6), x)
    for row in traj.states:
        np.testing.assert_array_equal(row, x)


def test_sequential_linear_oracle_n2():
    traj = sample_sequential(LINEAR, sched(2), np.array([1.0]))
    np.testing.assert_array_equal(traj.states.ravel(), [0.25, 0.5, 1.0])


@pytest.mark.parametrize("n", [1, 3, 10, 40])
def test_sequential_linear_closed_form(n):
    traj = sample_sequential(LINEAR, sched(n), np.array([1.0]))
    assert traj.x0[0] == pytest.approx((1 - 1 / n) ** n, rel=1e-13)


def test_sequential_aborts_on_nonfinite():
    class Exploding(ZeroField):
        def build(self, tape, x, t, theta=None):
            return tape.scale(x, 1e308)

    with np.errstate(over="ignore"), pytest.raises(DivergenceError, match="step"):
        sample_sequential(Exploding(1), sched(4), np.array([1.0]))


def test_sequential_names_the_step_that_first_diverged():
    class ExplodingBelow(ZeroField):  # finite steps until t = 0.5
        def build(self, tape, x, t, theta=None):
            return tape.scale(x, 1e308 if t <= 0.5 else 1.0)

    with np.errstate(over="ignore"), pytest.raises(DivergenceError,
                                                   match=r"step n=3$"):
        sample_sequential(ExplodingBelow(1), sched(8), np.array([1.0]))


def test_rollout_rows_are_the_sequential_states():
    rng = np.random.default_rng(5)
    s = sched(9)
    field = DenoiserField(Denoiser.create(rng, hidden=(8,)), s)
    x = rng.standard_normal(2)
    rows = rollout(field, s, x, 9)
    np.testing.assert_array_equal(rows, sample_sequential(field, s, x).states[::-1])
    # rolling N -> m and then m -> 0 lands on the same x_0
    x_m = rollout(field, s, x, 9, 4)[-1]
    np.testing.assert_array_equal(rollout(field, s, x_m, 4)[-1], rows[-1])
    with pytest.raises(ValueError):
        rollout(field, s, x, 4, 5)


def test_block_rollout_matches_single_rollouts():
    rng = np.random.default_rng(6)
    s = sched(9)
    field = DenoiserField(Denoiser.create(rng, hidden=(8, 8)), s)
    xs = rng.standard_normal((5, 2))
    for n_from, n_to in ((9, 0), (9, 4), (6, 2)):
        rows = rollout(field, s, xs, n_from, n_to)
        assert rows.shape == (n_from - n_to + 1, 5, 2)
        singles = np.stack([rollout(field, s, x, n_from, n_to) for x in xs], axis=1)
        np.testing.assert_allclose(rows, singles, rtol=1e-13, atol=1e-15)


def test_rollout_propagates_nonfinite_without_raising():
    rows = rollout(LINEAR, sched(3), np.array([np.nan]), 3)
    assert rows.shape == (4, 1)
    assert np.all(np.isnan(rows))


def test_picard_update_hand_example():
    seq = np.ones((3, 1))
    first = picard_update(LINEAR, sched(2), seq)
    np.testing.assert_array_equal(first.ravel(), [0.0, 0.5, 1.0])
    second = picard_update(LINEAR, sched(2), first)
    np.testing.assert_array_equal(second.ravel(), [0.25, 0.5, 1.0])
    # fixed point reached
    third = picard_update(LINEAR, sched(2), second)
    np.testing.assert_array_equal(third, second)


def test_picard_update_zero_velocity_fills_top_state():
    seq = np.array([[9.0], [5.0], [2.0]])
    out = picard_update(ZeroField(1), sched(2), seq)
    np.testing.assert_array_equal(out.ravel(), [2.0, 2.0, 2.0])


def _per_state_picard_update(field, schedule, seq):
    """Reference: one network call per state and a running sum in a loop."""
    n_steps = schedule.n_steps
    us = np.stack([field.value(seq[i], i / n_steps) for i in range(1, n_steps + 1)])
    out = np.empty_like(seq)
    out[n_steps] = seq[n_steps]
    acc = np.zeros_like(seq[n_steps])
    for n in range(n_steps - 1, -1, -1):
        acc = acc + us[n]
        out[n] = seq[n_steps] - acc / n_steps
    return out


@pytest.mark.parametrize("parameterization", ["epsilon", "velocity"])
def test_picard_update_matches_a_per_state_reference(parameterization):
    rng = np.random.default_rng(4)
    s = sched(20)
    field = DenoiserField(Denoiser.create(rng, hidden=(16, 16),
                                          parameterization=parameterization), s)
    seq = np.tile(rng.standard_normal(2), (21, 1))
    for _ in range(3):
        new = picard_update(field, s, seq)
        np.testing.assert_allclose(new, _per_state_picard_update(field, s, seq),
                                   rtol=1e-13, atol=1e-15)
        seq = new
    for field in (LINEAR, ZeroField(1)):  # the running sum alone is exact
        seq = rng.standard_normal((21, 1))
        np.testing.assert_array_equal(picard_update(field, s, seq),
                                      _per_state_picard_update(field, s, seq))


def test_picard_update_keeps_x_n():
    rng = np.random.default_rng(0)
    seq = rng.standard_normal((6, 2))
    out = picard_update(ZeroField(2), sched(5), seq)
    np.testing.assert_array_equal(out[5], seq[5])


def test_sample_picard_linear_oracle_converges_in_n():
    res = sample_picard(LINEAR, sched(2), np.array([1.0]), tolerance=1e-12)
    assert isinstance(res, PicardResult)
    assert res.converged
    assert res.iters_used == 2
    np.testing.assert_array_equal(res.trajectory.states.ravel(), [0.25, 0.5, 1.0])


def test_sample_picard_zero_velocity_one_iteration():
    res = sample_picard(ZeroField(2), sched(7), np.array([0.4, 0.1]))
    assert res.converged
    assert res.iters_used == 1


def test_sample_picard_nonconvergence_is_flagged():
    res = sample_picard(LINEAR, sched(30), np.array([1.0]),
                        tolerance=1e-300, max_iters=3)
    assert not res.converged
    assert res.iters_used == 3


def test_sample_picard_iters_bounded_by_n_for_mlp():
    rng = np.random.default_rng(3)
    d = Denoiser.create(rng, hidden=(8, 8))
    s = sched(20)
    field = DenoiserField(d, s)
    res = sample_picard(field, s, rng.standard_normal(2), tolerance=1e-10)
    assert res.converged
    assert res.iters_used <= s.n_steps


def test_picard_residuals_monotone_on_linear_oracle():
    res = sample_picard(LINEAR, sched(12), np.array([1.0]), tolerance=1e-14)
    assert residual_violations(res.residuals) == 0


def test_residual_violations_counts_increases():
    assert residual_violations([5.0, 1.0, 2.0, 0.5, 0.7]) == 2
    assert residual_violations([9.0, 4.0, 2.0, 1.0]) == 0
    # violations before convergence are reported, never raised
    rng = np.random.default_rng(4)
    d = Denoiser.create(rng, hidden=(8,))
    s = sched(15)
    res = sample_picard(DenoiserField(d, s), s, rng.standard_normal(2),
                        tolerance=1e-12)
    assert res.converged
    assert residual_violations(res.residuals) >= 0


def test_verify_fixed_point_linear_oracle_exact():
    rep = verify_fixed_point(LINEAR, sched(2), np.array([1.0]), tolerance=1e-12)
    assert rep.max_deviation == 0.0
    assert rep.converged


def test_verify_fixed_point_zero_velocity_exact():
    rep = verify_fixed_point(ZeroField(2), sched(9), np.array([2.0, -1.0]))
    assert rep.max_deviation == 0.0


def test_verify_fixed_point_mlp_within_tolerance():
    rng = np.random.default_rng(5)
    d = Denoiser.create(rng, hidden=(8, 8))
    s = sched(25)
    rep = verify_fixed_point(DenoiserField(d, s), s, rng.standard_normal(2),
                       tolerance=1e-10)
    assert rep.converged
    assert rep.max_deviation <= 1e-8


def test_trajectory_csv_shape():
    traj = sample_sequential(LINEAR, sched(2), np.array([1.0]))
    lines = traj.to_csv().strip().split("\n")
    assert lines[0] == "step_index,t,x0"
    assert len(lines) == 4
    assert lines[1].startswith("2,1,")
    assert lines[-1].startswith("0,0,")
