import dataclasses
import math
import pickle

import numpy as np
import pytest

from shortcutdiff.model import kernel_rates
from shortcutdiff.schedule import KINDS, Schedule


def test_boundary_condition_t0():
    for sched in (Schedule("vp-linear", 10), Schedule("straight-line", 10)):
        assert sched.alpha_sigma(0.0) == (1.0, 0.0)


def test_straight_line_is_linear_in_t():
    sched = Schedule("straight-line", 4)
    assert sched.alpha_sigma(0.25) == (0.75, 0.25)


def test_vp_linear_terminal_alpha_closed_form():
    sched = Schedule("vp-linear", 10, beta_min=0.1, beta_max=20.0)
    alpha, sigma = sched.alpha_sigma(1.0)
    # exp(-0.5 * (beta_min + beta_max)/2) from the linear-rate integral
    assert alpha == pytest.approx(math.exp(-5.025), rel=1e-12)
    assert sigma == pytest.approx(math.sqrt(1 - alpha * alpha), rel=1e-12)


@pytest.mark.parametrize("t", np.linspace(0.0, 1.0, 21))
def test_vp_variance_preserving(t):
    sched = Schedule("vp-linear", 10)
    alpha, sigma = sched.alpha_sigma(float(t))
    assert abs(alpha * alpha + sigma * sigma - 1.0) < 1e-12


def test_monotone_coefficients():
    for kind in ("vp-linear", "straight-line"):
        sched = Schedule(kind, 10)
        ts = np.linspace(0.0, 1.0, 50)
        pairs = [sched.alpha_sigma(float(t)) for t in ts]
        alphas = [p[0] for p in pairs]
        sigmas = [p[1] for p in pairs]
        assert all(a1 >= a2 - 1e-15 for a1, a2 in zip(alphas, alphas[1:]))
        assert all(s1 <= s2 + 1e-15 for s1, s2 in zip(sigmas, sigmas[1:]))


def test_t_out_of_range_rejected():
    sched = Schedule("vp-linear", 10)
    with pytest.raises(ValueError):
        sched.alpha_sigma(-0.01)
    with pytest.raises(ValueError):
        sched.alpha_sigma(1.01)


@pytest.mark.parametrize("kind", KINDS)
def test_terms_of_an_array_of_times_match_each_time_bit_for_bit(kind):
    # alpha takes math.exp per value: np.exp differs from it in the last bit
    sched = Schedule(kind, 10)
    ts = np.random.default_rng(0).uniform(1e-3, 1.0, 4000)
    for form in (sched.alpha_sigma, lambda t: kernel_rates(sched, t)):
        got = form(ts)
        want = np.array([form(float(t)) for t in ts]).T
        assert [g.shape for g in got] == [ts.shape] * 2
        assert np.asarray(got).tobytes() == want.tobytes()


def test_an_array_with_a_time_out_of_range_names_it():
    sched = Schedule("vp-linear", 10)
    for bad, shown in ((1.01, "1.01"), (-0.5, "-0.5"), (math.nan, "nan")):
        with pytest.raises(ValueError, match=rf"t must be in \[0, 1\], got {shown}$"):
            sched.alpha_sigma(np.array([0.5, bad, 2.0]))


def test_drift_matches_finite_difference_reconstruction():
    """f and the noise coefficient must equal d log(alpha)/dt and
    sigma' - f sigma reconstructed from alpha_sigma alone."""
    h = 1e-6
    for kind, ts in (("vp-linear", [0.1, 0.3, 0.5, 0.7, 0.9, 0.99]),
                     ("straight-line", [0.1, 0.3, 0.5, 0.7, 0.9])):
        sched = Schedule(kind, 10)
        for t in ts:
            a_hi, s_hi = sched.alpha_sigma(t + h)
            a_lo, s_lo = sched.alpha_sigma(t - h)
            f_fd = (math.log(a_hi) - math.log(a_lo)) / (2 * h)
            sig_rate = (s_hi - s_lo) / (2 * h)
            _, sigma = sched.alpha_sigma(t)
            c_fd = sig_rate - f_fd * sigma
            f, _ = sched.drift_coeffs(t)
            assert abs(f - f_fd) <= 1e-9 * max(1.0, abs(f_fd))
            assert abs(sched.score_scale(t) - c_fd) <= 1e-9 * max(1.0, abs(c_fd))


def test_vp_drift_closed_form():
    sched = Schedule("vp-linear", 10, beta_min=0.1, beta_max=20.0)
    f, g2 = sched.drift_coeffs(0.5)
    assert f == pytest.approx(-10.05 / 2)
    assert g2 == pytest.approx(10.05)


def test_straight_line_drift_singular_at_one():
    sched = Schedule("straight-line", 10)
    with pytest.raises(ValueError):
        sched.drift_coeffs(1.0)
    with pytest.raises(ValueError):
        sched.score_scale(1.0)


def test_invalid_schedule_rejected():
    with pytest.raises(ValueError):
        Schedule("cosine", 10)
    with pytest.raises(ValueError):
        Schedule("vp-linear", 0)
    with pytest.raises(ValueError):
        Schedule("vp-linear", 10, beta_min=-1.0)


def test_the_hash_is_the_field_tuples_made_once():
    sched = Schedule("vp-linear", 50, 0.1, 20.0)
    assert hash(sched) == hash(("vp-linear", 50, 0.1, 20.0))
    assert sched == Schedule("vp-linear", 50, 0.1, 20.0)
    assert sched != Schedule("vp-linear", 51, 0.1, 20.0)
    other = dataclasses.replace(sched, n_steps=7)
    assert hash(other) == hash(("vp-linear", 7, 0.1, 20.0))
    assert other == Schedule("vp-linear", 7, 0.1, 20.0)
    copy = pickle.loads(pickle.dumps(sched))
    assert copy == sched and hash(copy) == hash(sched)
    with pytest.raises(dataclasses.FrozenInstanceError):
        sched.n_steps = 3
    with pytest.raises(ValueError, match="n_steps"):
        dataclasses.replace(sched, n_steps=0)


def test_the_grid_is_n_over_n_bit_for_bit_and_the_coefficient_minus_one_over_n():
    for n_steps in range(1, 1025):
        sched = Schedule("vp-linear", n_steps)
        want = np.array([n / n_steps for n in range(n_steps + 1)])
        assert sched.times.shape == (n_steps + 1,)
        assert sched.times.tobytes() == want.tobytes()
        assert sched.step_coeff.shape == ()
        assert sched.step_coeff.item().hex() == (-(1.0 / n_steps)).hex()


def test_the_grid_is_built_on_first_use_once_and_read_only():
    sched = Schedule("vp-linear", 8)
    assert "times" not in vars(sched) and "step_coeff" not in vars(sched)
    times, coeff = sched.times, sched.step_coeff
    assert sched.times is times and sched.step_coeff is coeff
    for array in (times, coeff):
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0.0


def test_a_replaced_or_pickled_schedule_after_a_read_has_its_own_grid():
    sched = Schedule("vp-linear", 50, 0.1, 20.0)
    sched.times, sched.step_coeff  # read, so both are kept on the instance
    assert sched == Schedule("vp-linear", 50, 0.1, 20.0)
    assert hash(sched) == hash(("vp-linear", 50, 0.1, 20.0))
    for k in (1, 7, 200):
        other = dataclasses.replace(sched, n_steps=k)
        assert other.times.shape == (k + 1,) and other.times[-1] == 1.0
        assert other.step_coeff == -(1.0 / k)
        assert other != sched and hash(other) == hash(("vp-linear", k, 0.1, 20.0))
    # the pickle holds the fields alone, so the copy builds its grid anew, read-only
    assert pickle.dumps(sched) == pickle.dumps(Schedule("vp-linear", 50, 0.1, 20.0))
    copy = pickle.loads(pickle.dumps(sched))
    assert copy == sched and hash(copy) == hash(sched)
    assert copy.times.tobytes() == sched.times.tobytes()
    assert not copy.times.flags.writeable and not copy.step_coeff.flags.writeable


@pytest.mark.parametrize("bad", [0, 8, -1])  # 0, N + 1 and a -1 that indexing would wrap
def test_the_step_check_names_the_quantity_and_the_range(bad):
    sched = Schedule("vp-linear", 7)
    with pytest.raises(ValueError, match=rf"^window k={bad} outside 1\.\.7$"):
        sched.steps(bad, "window k")
    block = np.array([3, bad, 1])
    with pytest.raises(ValueError, match=rf"^step n={min(bad, 1)}\.\.{max(bad, 3)} "
                                         r"outside 1\.\.7$"):
        sched.steps(block, "step n")
    with pytest.raises(ValueError, match=r"^i'=None outside 1\.\.7$"):
        sched.steps(None, "i'")
    steps = np.arange(1, 8)
    assert sched.steps(steps, "step n") is steps and sched.steps(7, "step n") == 7
