import gc
import weakref

import numpy as np
import pytest

from shortcutdiff import model
from shortcutdiff.data import Dataset2D
from shortcutdiff.engines import grad_sdo_latent
from shortcutdiff.model import (Denoiser, DenoiserField, ScalarGainField,
                                TrainConfig, VelocityField, ZeroField, dsm_loss,
                                dsm_loss_var, kernel_rates, time_features,
                                train_denoiser, velocity)
from shortcutdiff.objectives import RbfReward
from shortcutdiff.sampler import ddim_step_var, rollout, sample_picard
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


# ------------------------------------------------------------ time-term memos

class UncachedField(VelocityField):
    """DenoiserField's velocity without its memo: the network takes its
    weights as constants through the theta path, which records the time
    bias instead of reading it, and f, c come from the Schedule."""

    def __init__(self, field):
        self.field, self.dim = field, field.dim

    def build(self, tape, x, t, theta=None):
        den, sched = self.field.denoiser, self.field.schedule
        net = den.build(tape, x, t, [tape.constant(w) for w in den.weights])
        if isinstance(t, np.ndarray):
            f = np.array([sched.drift_coeffs(ti)[0] for ti in t])
            c = np.array([sched.score_scale(ti) for ti in t])
            return tape.add(tape.mul(x, tape.constant(np.broadcast_to(f, x.shape))),
                            tape.mul(net, tape.constant(np.broadcast_to(c, x.shape))))
        return tape.lincomb(x, sched.drift_coeffs(t)[0], net, sched.score_scale(t))


def _memo_case(hidden=(16, 16), n=12):
    rng = np.random.default_rng(17)
    field = DenoiserField(Denoiser.create(rng, hidden=hidden), Schedule("vp-linear", n))
    return field, rng.standard_normal((3, 2))


def _time_term_outputs(field, sched, noises):
    """Bytes of a block rollout, a Picard solve, sdo latent gradients and
    field values at a time grid and at its reverse (same key shape)."""
    n = sched.n_steps
    times = np.arange(1, n + 1) / n
    block = np.tile(noises[:1].T, (1, n))
    pic = sample_picard(field, sched, noises[0])
    rep = grad_sdo_latent(field, sched, noises, RbfReward(np.zeros(2), 0.7))
    return [rollout(field, sched, noises, n).tobytes(),
            pic.trajectory.states.tobytes(), pic.iters_used,
            np.array(pic.residuals).tobytes(),
            rep.gradient.tobytes(), rep.loss, rep.tape_node_count,
            field.value(block, times).tobytes(),
            field.value(block, times[::-1].copy()).tobytes()]


def test_memoized_time_terms_are_bit_identical_cold_and_warm():
    field, noises = _memo_case()
    sched = field.schedule
    assert not field._memo  # a new field starts cold
    cold = _time_term_outputs(field, sched, noises)
    warm = _time_term_outputs(field, sched, noises)
    assert cold == warm == _time_term_outputs(UncachedField(field), sched, noises)
    arrays = [a for terms in field._memo.values() for a in terms[:3]]
    assert arrays and not any(a.flags.writeable for a in arrays)


def test_memo_never_serves_a_stale_time_bias():
    field, noises = _memo_case()
    x, times = noises.T, np.array([0.25, 0.5, 0.75])

    def check(f):
        for t in (0.5, times):
            assert f.value(x, t).tobytes() == UncachedField(f).value(x, t).tobytes()

    check(field)  # fills the memos
    flat = field.denoiser.flatten()
    check(DenoiserField(field.denoiser.with_flat(1.5 * flat), field.schedule))
    check(field.with_params([2.0 * w for w in field.params()]))
    weights = field.denoiser.weights
    for i in (1, 2):  # W1t, then b1
        new = -weights[i]
        new.flags.writeable = False
        weights[i] = new  # replaced in the list
        check(field)


def test_constant_weights_never_serve_a_replaced_array():
    """Each of the seven weights replaced in the list, after a value build
    and a recorded build on the same tape, changes the next value and
    recorded step exactly as in UncachedField."""
    field, noises = _memo_case()
    x, sched, tape = noises.T, field.schedule, Tape()

    def step(f, t):  # a recorded DDIM step: its output and the state gradient
        v = t.variable(x)
        out = ddim_step_var(t, f, sched, v, 5)
        return out.value.tobytes(), t.backward(t.sum(out))[v].tobytes()

    def check():
        for t in (0.5, np.array([0.25, 0.5, 0.75])):
            assert field.value(x, t).tobytes() == UncachedField(field).value(x, t).tobytes()
        assert step(field, tape) == step(UncachedField(field), Tape())

    weights = field.denoiser.weights
    for i in range(len(weights)):
        check()  # fills the memos from the weights in place
        new = weights[i] + 0.25
        new.flags.writeable = False
        weights[i] = new  # replaced in the list
        check()


def test_constant_weights_keep_no_finished_tape_alive():
    field, noises = _memo_case()
    tape = Tape()
    field.build(tape, tape.variable(noises[0]), 0.5)
    ref = weakref.ref(tape)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        del tape
        assert ref() is None
    finally:
        if was_enabled:
            gc.enable()


def _memo_snapshot(memo):
    return {key: [None if a is None else a.tobytes() for a in terms[:3]] + terms[3:]
            for key, terms in memo.items()}


def test_memo_stays_within_its_bound_without_thrashing(monkeypatch):
    field, noises = _memo_case(n=200)
    memo, bound = field._memo, model._MEMO_COLUMNS
    rng = np.random.default_rng(3)
    field.value(noises[0], 0.5)
    before = _memo_snapshot(memo)
    for _ in range(40):  # dsm_loss draws fresh random times: 2,560 columns
        dsm_loss(field.denoiser, field.schedule, rng.standard_normal((64, 2)), rng)
    assert _memo_snapshot(memo) == before  # training times never reach the field's memo
    for t in rng.uniform(0.01, 1.0, 1500):
        field.value(noises[0], t)
    held = sum(1 if not isinstance(key, tuple) else len(key[1]) // 8 for key in memo)
    assert held == sum(terms[3] for terms in memo.values()) == memo.columns <= bound

    def work():  # every step time of N = 200 and two grids
        rollout(field, field.schedule, noises[0], 200)
        sample_picard(field, field.schedule, noises[0], max_iters=2)
        field.value(np.tile(noises.T, (1, 200)), np.repeat(np.arange(1, 201) / 200, 3))

    work()
    wide = np.linspace(0.01, 1.0, bound + 1)  # wider than the bound: not kept
    field.value(np.tile(noises[:1].T, (1, bound + 1)), wide)
    assert model._time_key(wide) not in memo
    misses = []
    monkeypatch.setattr(model, "time_features",
                        lambda t: misses.append(t) or time_features(t))
    work()
    assert misses == []


def test_with_params_hands_over_the_coefficients(monkeypatch):
    """The field `with_params` makes shares its parent's f and c: its first
    roll asks the Schedule for none, and it computes its own time biases."""
    field, noises = _memo_case()
    sched = field.schedule
    rollout(field, sched, noises, sched.n_steps)  # fills the memo
    new = field.with_params([w - 0.125 for w in field.params()])
    expected = rollout(UncachedField(new), sched, noises, sched.n_steps).tobytes()
    calls = []
    for name in ("drift_coeffs", "score_scale"):
        method = getattr(Schedule, name)
        monkeypatch.setattr(Schedule, name,
                            lambda self, t, _m=method, _n=name: calls.append(_n) or _m(self, t))
    assert rollout(new, sched, noises, sched.n_steps).tobytes() == expected
    assert calls == []
    assert rollout(field, sched, noises, sched.n_steps).tobytes() == \
        rollout(UncachedField(field), sched, noises, sched.n_steps).tobytes()


def _reference_net(tape, theta, x, t):
    """The network with its time bias on the tape, written out as one-layer
    `mlp` nodes with tanh between them."""
    tf = tape.constant(time_features(t))
    h = tape.tanh(tape.mlp(x, [theta[0], tape.mlp(tf, theta[1:3])]))
    rest = theta[3:]
    for i in range(0, len(rest), 2):
        pre = tape.mlp(h, rest[i:i + 2])
        h = tape.tanh(pre) if i + 2 < len(rest) else pre
    return h


@pytest.mark.parametrize("t", [0.5, np.array([0.25, 0.5, 0.75])])
def test_watched_build_matches_the_full_tape_in_w1t_and_b1(t):
    field, noises = _memo_case()
    den, x = field.denoiser, noises.T
    den.build(VALUES, x, t)  # a warm memo at t
    grads = []
    for net in (den.build, lambda tape, xv, tv, th: _reference_net(tape, th, xv, tv)):
        tape = Tape()
        theta = [tape.variable(w) for w in den.weights]
        out = net(tape, tape.constant(x), t, theta)
        grads.append(list(tape.backward(tape.sqnorm(out)).values()))
    assert [g.tobytes() for g in grads[0]] == [g.tobytes() for g in grads[1]]
    assert np.any(grads[0][1] != 0) and np.any(grads[0][2] != 0)  # W1t, b1


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
