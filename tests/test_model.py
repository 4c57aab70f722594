import numpy as np
import pytest

from shortcutdiff.data import Dataset2D
from shortcutdiff.model import (Denoiser, DenoiserField, ScalarGainField,
                                TrainConfig, ZeroField, dsm_loss, dsm_loss_var,
                                kernel_rates, train_denoiser, velocity)
from shortcutdiff.schedule import Schedule
from shortcutdiff.tape import VALUES, Tape


def zero_denoiser(parameterization="epsilon", hidden=(8, 8)):
    rng = np.random.default_rng(0)
    d = Denoiser.create(rng, hidden=hidden, parameterization=parameterization)
    return d.with_flat(np.zeros(d.flatten().size))


def test_flatten_roundtrip_lossless():
    rng = np.random.default_rng(3)
    d = Denoiser.create(rng, hidden=(5, 7))
    flat = d.flatten()
    d2 = d.with_flat(flat)
    for a, b in zip(d.weights, d2.weights):
        np.testing.assert_array_equal(a, b)
    assert [w.shape for w in d.weights] == [w.shape for w in d2.weights]


def test_velocity_zero_network_is_drift_term():
    # f(0.5) x with beta(0.5) = 10.05 on the default vp rates
    sched = Schedule("vp-linear", 10, beta_min=0.1, beta_max=20.0)
    u = velocity(zero_denoiser(), sched, np.array([1.0, 0.0]), 0.5)
    np.testing.assert_allclose(u, [-5.025, 0.0], rtol=1e-12)


def test_velocity_parameterized_network_is_passthrough():
    d = zero_denoiser(parameterization="velocity")
    d.weights[-1] = np.array([0.3, -0.1])  # constant network output
    sched = Schedule("vp-linear", 10)
    u = velocity(d, sched, np.array([5.0, 5.0]), 0.7)
    np.testing.assert_allclose(u, [0.3, -0.1])


def test_velocity_linear_map_scales():
    # a zero noise-prediction network leaves u = f(t) x, a linear map
    sched = Schedule("vp-linear", 10)
    d = zero_denoiser()
    x = np.array([0.4, -1.2])
    np.testing.assert_allclose(velocity(d, sched, 2 * x, 0.3),
                               2 * velocity(d, sched, x, 0.3), rtol=1e-12)


def test_velocity_rejects_t0_for_noise_prediction():
    sched = Schedule("vp-linear", 10)
    with pytest.raises(ValueError):
        velocity(zero_denoiser(), sched, np.zeros(2), 0.0)


def test_velocity_rejects_nonfinite_state():
    sched = Schedule("vp-linear", 10)
    with pytest.raises(ValueError, match="finite"):
        velocity(zero_denoiser(), sched, np.array([np.inf, 0.0]), 0.5)


def test_velocity_matches_coefficient_reconstruction():
    """u must equal f x + (sigma' - f sigma) eps_hat with both coefficients
    reconstructed from alpha_sigma by finite differences."""
    rng = np.random.default_rng(11)
    sched = Schedule("vp-linear", 10)
    d = Denoiser.create(rng, hidden=(6,))
    x = rng.standard_normal(2)
    h = 1e-6
    for t in (0.2, 0.5, 0.9):
        a_hi, s_hi = sched.alpha_sigma(t + h)
        a_lo, s_lo = sched.alpha_sigma(t - h)
        f_fd = (np.log(a_hi) - np.log(a_lo)) / (2 * h)
        c_fd = (s_hi - s_lo) / (2 * h) - f_fd * sched.alpha_sigma(t)[1]
        tape = Tape(recording=False)
        eps_hat = d.build(tape, tape.constant(x), t).value
        expected = f_fd * x + c_fd * eps_hat
        np.testing.assert_allclose(velocity(d, sched, x, t), expected, rtol=1e-9)


def test_dsm_loss_zero_when_network_predicts_noise():
    d = zero_denoiser()
    d.weights[-1] = np.array([0.7, -0.2])  # network constantly outputs this
    sched = Schedule("vp-linear", 10)
    tape = Tape(recording=False)
    loss = dsm_loss_var(tape, d, sched, x0=np.array([[0.1, 0.2]]),
                        ts=np.array([0.5]), eps=np.array([[0.7, -0.2]]))
    assert float(loss.value) == pytest.approx(0.0, abs=1e-30)


def test_dsm_loss_zero_network_equals_noise_energy():
    d = zero_denoiser()
    sched = Schedule("vp-linear", 10)
    tape = Tape(recording=False)
    loss = dsm_loss_var(tape, d, sched, x0=np.array([[0.3, -0.4]]),
                        ts=np.array([0.5]), eps=np.array([[1.0, 1.0]]))
    assert float(loss.value) == pytest.approx(2.0)


def test_dsm_loss_rejects_empty_batch():
    with pytest.raises(ValueError):
        dsm_loss(zero_denoiser(), Schedule("vp-linear", 10),
                 np.zeros((0, 2)), np.random.default_rng(0))


def test_dsm_gradient_matches_finite_differences():
    rng = np.random.default_rng(21)
    sched = Schedule("vp-linear", 10)
    d = Denoiser.create(rng, hidden=(4,))
    x0 = rng.standard_normal((3, 2))
    ts = rng.uniform(0.1, 0.9, 3)
    eps = rng.standard_normal((3, 2))

    tape = Tape()
    theta = [tape.variable(w) for w in d.weights]
    loss = dsm_loss_var(tape, d, sched, x0, ts, eps, theta)
    grads = tape.backward(loss)
    gflat = np.concatenate([grads[v].ravel() for v in theta])

    def loss_at(flat):
        dd = d.with_flat(flat)
        t2 = Tape(recording=False)
        return float(dsm_loss_var(t2, dd, sched, x0, ts, eps).value)

    flat = d.flatten()
    h = 1e-5
    fd = np.zeros_like(flat)
    for j in range(flat.size):
        e = np.zeros_like(flat)
        e[j] = h
        fd[j] = (loss_at(flat + e) - loss_at(flat - e)) / (2 * h)
    np.testing.assert_allclose(gflat, fd, rtol=1e-5, atol=1e-8)


def _fields(parameterization):
    rng = np.random.default_rng(8)
    sched = Schedule("vp-linear", 12)
    den = Denoiser.create(rng, hidden=(16, 16), parameterization=parameterization)
    return [DenoiserField(den, sched), ScalarGainField(0.7, dim=2), ZeroField(2)]


@pytest.mark.parametrize("parameterization", ["epsilon", "velocity"])
def test_field_block_values_match_per_state_values(parameterization):
    rng = np.random.default_rng(9)
    block = rng.standard_normal((2, 7))  # one state per column
    times = np.arange(2, 9) / 12
    for field in _fields(parameterization):
        for t in (5 / 12, times):  # one time for every column, one per column
            column_times = np.broadcast_to(t, 7)
            per_state = np.stack([field.value(block[:, j], float(column_times[j]))
                                  for j in range(7)], axis=1)
            got = field.value(block, t)
            assert got.shape == block.shape
            np.testing.assert_allclose(got, per_state, rtol=1e-13, atol=1e-15)


def test_zero_field_returns_zeros_shaped_like_the_state():
    for shape in ((2,), (2, 5)):
        assert ZeroField(2).value(np.ones(shape), 0.5).shape == shape


def _per_row_dsm_loss(tape, denoiser, schedule, x0, ts, eps, theta):
    """Reference: one network call and one squared norm per row."""
    total = None
    for b in range(x0.shape[0]):
        t = float(ts[b])
        alpha, sigma = schedule.alpha_sigma(t)
        xt = alpha * x0[b] + sigma * eps[b]
        if denoiser.parameterization == "epsilon":
            target = eps[b]
        else:
            da, ds = kernel_rates(schedule, t)
            target = da * x0[b] + ds * eps[b]
        pred = denoiser.build(tape, tape.constant(xt), t, theta)
        term = tape.sqnorm(tape.sub(pred, tape.constant(target)))
        total = term if total is None else tape.add(total, term)
    return tape.scale(total, 1.0 / x0.shape[0])


@pytest.mark.parametrize("parameterization", ["epsilon", "velocity"])
def test_batched_dsm_loss_and_gradient_match_a_per_row_loop(parameterization):
    rng = np.random.default_rng(22)
    sched = Schedule("vp-linear", 10)
    d = Denoiser.create(rng, hidden=(16, 16), parameterization=parameterization)
    x0 = rng.standard_normal((9, 2))
    ts = rng.uniform(1e-3, 1.0, 9)
    eps = rng.standard_normal((9, 2))
    results = []
    for loss_fn in (dsm_loss_var, _per_row_dsm_loss):
        tape = Tape()
        theta = [tape.variable(w) for w in d.weights]
        loss = loss_fn(tape, d, sched, x0, ts, eps, theta)
        grads = tape.backward(loss)
        results.append((float(loss.value),
                        np.concatenate([grads[v].ravel() for v in theta])))
    (loss, grad), (ref_loss, ref_grad) = results
    assert loss == pytest.approx(ref_loss, rel=1e-12)
    np.testing.assert_allclose(grad, ref_grad, rtol=1e-12,
                               atol=1e-12 * np.max(np.abs(ref_grad)))
    assert float(dsm_loss_var(VALUES, d, sched, x0, ts, eps)) == loss


def standard_normal_dataset(seed=0):
    # a one-mode ring at radius 0 with unit noise is exactly N(0, I)
    return Dataset2D("gaussian-mixture-ring", seed=seed,
                     params={"modes": 1, "radius": 0.0, "noise": 1.0})


def test_training_is_deterministic():
    cfg = TrainConfig(dataset=standard_normal_dataset(), schedule=Schedule("vp-linear", 10),
                      hidden=(6,), steps=25, batch=8, seed=42)
    d1, l1 = train_denoiser(cfg)
    d2, l2 = train_denoiser(cfg)
    np.testing.assert_array_equal(d1.flatten(), d2.flatten())
    assert l1 == l2


def test_training_zero_lr_leaves_parameters():
    cfg = TrainConfig(dataset=standard_normal_dataset(), schedule=Schedule("vp-linear", 10),
                      hidden=(6,), steps=10, batch=8, lr=0.0, seed=42)
    trained, _ = train_denoiser(cfg)
    init = Denoiser.create(np.random.Generator(np.random.PCG64(0)))
    cfg1 = TrainConfig(dataset=standard_normal_dataset(), schedule=Schedule("vp-linear", 10),
                       hidden=(6,), steps=1, batch=8, lr=0.0, seed=42)
    ref, _ = train_denoiser(cfg1)
    np.testing.assert_array_equal(trained.flatten(), ref.flatten())


def test_training_approaches_optimal_predictor():
    """On N(0,I) data the population-optimal noise prediction is sigma_t x;
    training must land within 0.1 mean error of it on a probe grid."""
    sched = Schedule("vp-linear", 10)
    cfg = TrainConfig(dataset=standard_normal_dataset(), schedule=sched,
                      hidden=(32, 32), steps=1500, batch=64, lr=3e-3, seed=7)
    trained, losses = train_denoiser(cfg)
    assert losses[-1] < losses[0]

    grid = np.linspace(-1.5, 1.5, 5)
    errs = []
    tape = Tape(recording=False)
    for t in (0.2, 0.4, 0.6, 0.8):
        sigma = sched.alpha_sigma(t)[1]
        for gx in grid:
            for gy in grid:
                x = np.array([gx, gy])
                pred = trained.build(tape, tape.constant(x), t).value
                errs.append(np.linalg.norm(pred - sigma * x))
    assert float(np.mean(errs)) <= 0.1
