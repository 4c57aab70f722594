import math

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
