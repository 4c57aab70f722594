import ast
import copy
import gc
import pickle
import re
import weakref
from pathlib import Path

import numpy as np
import pytest

from shortcutdiff import model, sampler
from shortcutdiff.data import Dataset2D
from shortcutdiff.engines import grad_sdo_latent
from shortcutdiff.model import (Denoiser, DenoiserField, ScalarGainField,
                                TrainConfig, VelocityField, ZeroField, dsm_gradient,
                                dsm_loss, dsm_loss_var, kernel_rates, time_features,
                                train_denoiser, velocity)
from shortcutdiff.objectives import RbfReward
from shortcutdiff.optim import BETA1, BETA2, EPS, flatten, unflatten
from shortcutdiff.sampler import rollout, sample_picard
from shortcutdiff.schedule import Schedule
from shortcutdiff.seeding import stream_rng
from shortcutdiff.tape import PRIMITIVES, VALUES, ShapeError, Tape, _freeze


def zero_denoiser(parameterization="epsilon", hidden=(8, 8)):
    rng = np.random.default_rng(0)
    d = Denoiser.create(rng, hidden=hidden, parameterization=parameterization)
    return d.with_flat(np.zeros(d.flatten().size))


def constant_denoiser(out, parameterization="epsilon"):
    """A zero network but for its output bias, so it outputs `out` everywhere."""
    d = zero_denoiser(parameterization)
    return Denoiser(d.data_dim, d.hidden, d.parameterization, [*d.weights[:-1], np.array(out)])


def test_flatten_roundtrip_lossless():
    rng = np.random.default_rng(3)
    d = Denoiser.create(rng, hidden=(5, 7))
    flat = d.flatten()
    d2 = d.with_flat(flat)
    for a, b in zip(d.weights, d2.weights):
        np.testing.assert_array_equal(a, b)
    assert [w.shape for w in d.weights] == [w.shape for w in d2.weights]
    with pytest.raises(ValueError, match=f"^parameter vector has {flat.size - 1} "
                                         f"entries, expected {flat.size}$"):
        d.with_flat(flat[1:])


def test_denoiser_holds_read_only_copies_and_leaves_the_callers_arrays():
    ws = Denoiser.create(np.random.default_rng(8), hidden=(4,)).weights
    given = [np.array(w) for w in ws]  # writeable, as a caller builds them
    kept = [w.copy() for w in given]
    d = Denoiser(2, (4,), "epsilon", given)
    for w, mine, before in zip(d.weights, given, kept):
        assert w is not mine and mine.flags.writeable
        assert mine.tobytes() == before.tobytes()
        assert not w.flags.writeable and w.flags.c_contiguous
        assert w.tobytes() == before.tobytes()
    # an array that is already read-only and C-ordered is shared, not copied
    assert all(a is b for a, b in zip(Denoiser(2, (4,), "epsilon", d.weights).weights,
                                      d.weights))


def test_unflattened_weights_are_kept_and_with_flat_shares_no_memory_with_its_vector():
    d = Denoiser.create(np.random.default_rng(9), hidden=(4,))
    vec = 0.5 * d.flatten()
    arrays = unflatten(vec, d.weights)
    held = Denoiser(2, (4,), "epsilon", arrays).weights
    assert all(w is a and not w.flags.writeable for w, a in zip(held, arrays, strict=True))
    d2 = d.with_flat(vec)
    assert not any(np.shares_memory(w, vec) for w in d2.weights)
    assert d2.flatten().tobytes() == vec.tobytes()


def test_a_denoiser_of_another_layout_is_a_shape_error_when_it_is_built():
    ws = Denoiser.create(np.random.default_rng(8), hidden=(4, 3)).weights
    assert Denoiser(2, (4, 3), "epsilon", ws).weights == ws
    misshapen = {"output bias": (-1, np.zeros(3)), "hidden weight": (3, np.zeros((3, 5))),
                 "W1t": (1, np.zeros((4, 2)))}
    for name, (i, w) in misshapen.items():
        bad = list(ws)
        bad[i] = w
        with pytest.raises(ShapeError, match=r"^weights \[.*\] do not fit data_dim 2, "
                                             r"hidden \(4, 3\)$"):
            Denoiser(2, (4, 3), "epsilon", bad)
    one_layer = [np.zeros((2, 2)), np.zeros((2, 3)), np.zeros(2)]  # no hidden layer
    for weights in (one_layer, ws):
        with pytest.raises(ShapeError, match=r"hidden \(\)$"):
            Denoiser(2, (), "velocity", weights)


@pytest.mark.parametrize("parameterization", ["epsilon", "velocity"])
def test_a_roll_or_window_of_a_misshapen_state_is_a_shape_error_when_it_steps(parameterization):
    n = 6
    sched = Schedule("vp-linear", n)
    field = DenoiserField(Denoiser.create(np.random.default_rng(5), hidden=(4, 3),
                                          parameterization=parameterization), sched)
    # the wrong width, as one state and as a block; ndim 0 and ndim 3
    for v in (np.zeros(3), np.zeros((1, 4)), np.zeros(()), np.zeros((2, 4, 1))):
        match = rf"^state {re.escape(str(v.shape))} is not \(2,\) or \(2, B\)$"
        for n_from, n_to in ((4, 3), (5, 2), (n, 0)):  # 1, k and N steps
            for call in (field.roll, field.window):
                with pytest.raises(ShapeError, match=match):
                    call(sched, v, n_from, n_to)
        # a call that takes no step checks nothing
        assert field.roll(sched, v, 3, 3) == []
        states, pullback = field.window(sched, v, 3, 3)
        assert len(states) == 1 and states[0].tobytes() == v.tobytes()
        g = np.ones(v.shape)
        adjoints, nodes = pullback(g)
        assert len(adjoints) == 1 and adjoints[0] is g and nodes == 2


def test_the_model_imports_nothing_from_the_sampler():
    tree = ast.parse(Path(model.__file__).read_text(encoding="utf-8"))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names.add(node.module or "")
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name for alias in node.names)
    assert names and not any("sampler" in name for name in names)
    assert sampler.ddim_step_var is model.ddim_step_var


def test_velocity_zero_network_is_drift_term():
    # f(0.5) x with beta(0.5) = 10.05 on the default vp rates
    sched = Schedule("vp-linear", 10, beta_min=0.1, beta_max=20.0)
    u = velocity(zero_denoiser(), sched, np.array([1.0, 0.0]), 0.5)
    np.testing.assert_allclose(u, [-5.025, 0.0], rtol=1e-12)


def test_velocity_parameterized_network_is_passthrough():
    d = constant_denoiser([0.3, -0.1], parameterization="velocity")
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
    d = constant_denoiser([0.7, -0.2])  # network constantly outputs this
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


@pytest.mark.parametrize("parameterization", ["epsilon", "velocity"])
def test_dsm_loss_draws_times_then_noise_and_scores_them_as_the_tape_does(parameterization):
    rng = np.random.default_rng(12)
    d = Denoiser.create(rng, hidden=(6, 5), parameterization=parameterization)
    sched = Schedule("vp-linear", 10)
    x0 = rng.standard_normal((7, 2))
    gen = np.random.default_rng(13)
    twin = copy.deepcopy(gen)
    loss = dsm_loss(d, sched, x0, gen)
    ts = twin.uniform(model.T_MIN, 1.0, size=7)
    eps = twin.standard_normal((7, 2))
    assert gen.bit_generator.state == twin.bit_generator.state  # no other draw
    tape = Tape()
    recorded = dsm_loss_var(tape, d, sched, x0, ts, eps,
                            [tape.variable(w) for w in d.weights])
    values = np.asarray(dsm_loss_var(VALUES, d, sched, x0, ts, eps))
    assert type(loss) is float
    assert np.float64(loss).tobytes() == values.tobytes() == recorded.value.tobytes()


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
    for field in _fields(parameterization):
        for n in (5, np.arange(2, 9)):  # one step for every column, one per column
            column_steps = np.broadcast_to(n, 7)
            per_state = np.stack([field.value(block[:, j], int(column_steps[j]))
                                  for j in range(7)], axis=1)
            got = field.value(block, n)
            assert got.shape == block.shape
            np.testing.assert_allclose(got, per_state, rtol=1e-13, atol=1e-15)


def test_zero_field_returns_zeros_shaped_like_the_state():
    for shape in ((2,), (2, 5)):
        assert ZeroField(2).value(np.ones(shape), 1).shape == shape


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


def _tape_dsm_gradient(denoiser, schedule, x0, ts, eps):
    """(loss, weight cotangents) of `dsm_loss_var` on a Tape and its backward."""
    tape = Tape()
    theta = [tape.variable(w) for w in denoiser.weights]
    loss = dsm_loss_var(tape, denoiser, schedule, x0, ts, eps, theta)
    grads = tape.backward(loss)
    return loss.value, [grads[v] for v in theta]


@pytest.mark.parametrize("batch", [1, 7, 96])
@pytest.mark.parametrize("kind", ["vp-linear", "straight-line"])
@pytest.mark.parametrize("parameterization", ["epsilon", "velocity"])
def test_dsm_gradient_is_the_tapes_loss_and_cotangents_byte_for_byte(parameterization, kind,
                                                                      batch):
    # straight-line with a velocity network reaches kernel_rates' constant rates
    rng = np.random.default_rng(batch)
    d = Denoiser.create(rng, hidden=(64, 64), parameterization=parameterization)
    sched = Schedule(kind, 50)
    x0 = rng.standard_normal((batch, 2))
    ts, eps = rng.uniform(1e-3, 1.0, batch), rng.standard_normal((batch, 2))
    loss, grads = dsm_gradient(d, sched, x0, ts, eps)
    ref_loss, ref_grads = _tape_dsm_gradient(d, sched, x0, ts, eps)
    assert np.asarray(loss).tobytes() == ref_loss.tobytes()
    assert len(grads) == len(ref_grads) == 7
    for g, ref in zip(grads, ref_grads):
        assert g.shape == ref.shape and g.tobytes() == ref.tobytes()


def _tape_train_denoiser(cfg):
    """`train_denoiser`'s loop with each step's gradient taken on a Tape and
    the textbook Adam expressions: the reference that the program's loop
    matches bit for bit."""
    rng_train = stream_rng(cfg.seed, "training")
    points, _ = cfg.dataset.sample(cfg.data_size)
    denoiser = Denoiser.create(stream_rng(cfg.seed, "init"), data_dim=points.shape[1],
                               hidden=cfg.hidden, parameterization=cfg.parameterization)
    flat = denoiser.flatten()
    m, v, losses = np.zeros(flat.size), np.zeros(flat.size), []
    for step in range(1, cfg.steps + 1):
        idx = rng_train.integers(0, cfg.data_size, size=cfg.batch)
        ts = rng_train.uniform(cfg.t_min, 1.0, size=cfg.batch)
        eps = rng_train.standard_normal((cfg.batch, points.shape[1]))
        loss, grads = _tape_dsm_gradient(denoiser, cfg.schedule, points[idx], ts, eps)
        losses.append(float(loss))
        g = flatten(grads)
        m = BETA1 * m + (1.0 - BETA1) * g
        v = BETA2 * v + (1.0 - BETA2) * g * g
        mhat, vhat = m / (1.0 - BETA1 ** step), v / (1.0 - BETA2 ** step)
        flat = flat - cfg.lr * mhat / (np.sqrt(vhat) + EPS)
        denoiser = denoiser.with_flat(flat)
    return denoiser, losses


@pytest.mark.parametrize("parameterization", ["epsilon", "velocity"])
def test_training_matches_a_tape_reference_loop_byte_for_byte(parameterization):
    cfg = TrainConfig(dataset=standard_normal_dataset(3), schedule=Schedule("vp-linear", 20),
                      hidden=(16, 16), parameterization=parameterization, steps=30,
                      batch=12, lr=1e-2, data_size=256, seed=8)
    trained, losses = train_denoiser(cfg)
    ref, ref_losses = _tape_train_denoiser(cfg)
    assert np.asarray(losses).tobytes() == np.asarray(ref_losses).tobytes()
    assert trained.flatten().tobytes() == ref.flatten().tobytes()


@pytest.mark.parametrize("parameterization", ["epsilon", "velocity"])
def test_training_records_no_tape(monkeypatch, parameterization):
    # each step's gradient is dsm_gradient's arrays: no Tape primitive and
    # no backward pass runs
    calls = []
    for name in (*PRIMITIVES, "backward"):
        def counted(self, *args, _prim=getattr(Tape, name), _name=name, **kwargs):
            calls.append(_name)
            return _prim(self, *args, **kwargs)
        monkeypatch.setattr(Tape, name, counted)
    train_denoiser(TrainConfig(dataset=standard_normal_dataset(),
                               schedule=Schedule("vp-linear", 10), hidden=(6, 6),
                               parameterization=parameterization, steps=3, batch=5,
                               data_size=32, seed=1))
    assert calls == []
    tape = Tape()
    tape.backward(tape.sum(tape.variable(np.ones(2))))
    assert calls == ["sum", "backward"]  # the wrappers count


# ------------------------------------------------------------ time-term grids

class UncachedField(VelocityField):
    """DenoiserField's velocity without its grids: the network takes its
    weights as constants through the theta path, which records the time
    bias of the steps' times instead of reading it, and f, c come from the
    Schedule's scalar methods."""

    def __init__(self, field):
        self.field, self.dim = field, field.dim

    def build(self, tape, x, n, theta=None):
        den, sched = self.field.denoiser, self.field.schedule
        t = sched.times[n]
        net = den.build(tape, x, t, [tape.constant(w) for w in den.weights])
        if den.parameterization == "velocity":
            return net
        if isinstance(t, np.ndarray):
            f = np.array([sched.drift_coeffs(ti)[0] for ti in t])
            c = np.array([sched.score_scale(ti) for ti in t])
            return tape.add(tape.mul(x, tape.constant(np.broadcast_to(f, x.shape))),
                            tape.mul(net, tape.constant(np.broadcast_to(c, x.shape))))
        return tape.lincomb(x, sched.drift_coeffs(t)[0], net, sched.score_scale(t))


def _grid_case(hidden=(16, 16), n=12, parameterization="epsilon"):
    rng = np.random.default_rng(17)
    den = Denoiser.create(rng, hidden=hidden, parameterization=parameterization)
    return DenoiserField(den, Schedule("vp-linear", n)), rng.standard_normal((3, 2))


def _time_term_outputs(field, sched, noises):
    """Bytes of a block rollout, a Picard solve, sdo latent gradients and
    field values at every step, in order and reversed, and at the
    schedule's own `every_step`."""
    n = sched.n_steps
    steps = np.arange(1, n + 1)
    block = np.tile(noises[:1].T, (1, n))
    pic = sample_picard(field, sched, noises[0])
    rep = grad_sdo_latent(field, sched, noises, RbfReward(np.zeros(2), 0.7))
    return [rollout(field, sched, noises, n).tobytes(),
            pic.trajectory.states.tobytes(), pic.iters_used,
            np.array(pic.residuals).tobytes(),
            rep.gradient.tobytes(), rep.loss, rep.tape_node_count,
            field.value(block, steps).tobytes(),
            field.value(block, steps[::-1].copy()).tobytes(),
            field.value(block, sched.every_step).tobytes()]


def test_memoized_time_terms_are_bit_identical_cold_and_warm(monkeypatch):
    field, noises = _grid_case()
    sched = field.schedule
    # a new field starts cold
    assert field._steps == [None] * sched.n_steps and "_columns" not in vars(field)
    cold = _time_term_outputs(field, sched, noises)
    warm = _time_term_outputs(field, sched, noises)
    assert cold == warm == _time_term_outputs(UncachedField(field), sched, noises)
    steps, columns = field._steps, vars(field)["_columns"]
    arrays = [*(a for terms in steps for a in terms), columns, *sched.velocity_coeffs,
              sched.every_step]
    assert not any(a.flags.writeable for a in arrays)
    assert len(steps) == sched.n_steps and columns.shape == (16, sched.n_steps)
    assert columns.flags.c_contiguous
    # a new field asked at one step makes that step's terms alone
    one = DenoiserField(field.denoiser, sched)
    assert one.value(noises[0], 5).tobytes() == field.value(noises[0], 5).tobytes()
    assert [i for i, terms in enumerate(one._steps) if terms is not None] == [4]
    assert "_columns" not in vars(one)
    # the whole-grid call reads the columns themselves, not a copy
    seen, build = [], model.Denoiser.build
    monkeypatch.setattr(model.Denoiser, "build", lambda self, *args, bias=None:
                        seen.append(bias) or build(self, *args, bias=bias))
    field.value(np.tile(noises[:1].T, (1, sched.n_steps)), sched.every_step)
    assert len(seen) == 1 and seen[0] is columns


def test_memo_never_serves_a_stale_time_bias():
    field, noises = _grid_case()
    x, steps = noises.T, np.array([3, 6, 9])

    def check(f):
        for n in (6, steps):
            assert f.value(x, n).tobytes() == UncachedField(f).value(x, n).tobytes()

    check(field)  # builds the grids
    flat = field.denoiser.flatten()
    check(DenoiserField(field.denoiser.with_flat(1.5 * flat), field.schedule))
    check(field.with_params([2.0 * w for w in field.params()]))
    # a denoiser's weights are fixed, so the grids built from them stay true
    den = field.denoiser
    assert type(den.weights) is tuple
    with pytest.raises(TypeError):
        den.weights[1] = -den.weights[1]
    with pytest.raises(AttributeError):
        den.weights = den.weights[::-1]
    check(field)


def test_a_fields_network_and_schedule_cannot_be_reassigned():
    field, noises = _grid_case()
    x, den, sched = noises.T, field.denoiser, field.schedule
    before = field.value(x, 6)  # builds step 6's grid entry
    new = den.with_flat(2.0 * den.flatten())
    with pytest.raises(AttributeError):
        field.denoiser = new
    with pytest.raises(AttributeError):
        field.schedule = Schedule("vp-linear", 24)
    assert field.denoiser is den and field.schedule is sched
    assert field.value(x, 6).tobytes() == before.tobytes()
    # a new field serves the new weights
    fresh = DenoiserField(new, sched)
    assert fresh.denoiser is new
    for n in (6, np.array([3, 6, 9])):
        assert fresh.value(x, n).tobytes() == UncachedField(fresh).value(x, n).tobytes()
    assert fresh.value(x, 6).tobytes() != before.tobytes()


@pytest.mark.parametrize("copy_of", [lambda d: pickle.loads(pickle.dumps(d)),
                                     copy.deepcopy, copy.copy],
                         ids=["pickle", "deepcopy", "copy"])
def test_a_copied_denoiser_holds_read_only_c_ordered_weights(copy_of):
    den = Denoiser.create(np.random.default_rng(8), hidden=(4, 3),
                          parameterization="velocity")
    dup = copy_of(den)
    assert type(dup) is Denoiser and type(dup.weights) is tuple
    assert (dup.data_dim, dup.hidden, dup.parameterization) == (2, (4, 3), "velocity")
    for w, orig in zip(dup.weights, den.weights, strict=True):
        assert not w.flags.writeable and w.flags.c_contiguous
        assert _freeze(w) is w
        assert w.tobytes() == orig.tobytes()


def test_constant_weights_keep_no_finished_tape_alive():
    field, noises = _grid_case()
    tape = Tape()
    field.build(tape, tape.variable(noises[0]), 6)
    ref = weakref.ref(tape)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        del tape
        assert ref() is None
    finally:
        if was_enabled:
            gc.enable()


def test_with_params_hands_over_the_coefficients(monkeypatch):
    """The field `with_params` makes reads f and c off the schedule it
    shares with its parent, which built them once: its first roll asks the
    Schedule's scalar methods for none, and it builds its own time biases."""
    field, noises = _grid_case()
    sched = field.schedule
    rollout(field, sched, noises, sched.n_steps)  # builds f and c
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


@pytest.mark.parametrize("parameterization", ["epsilon", "velocity"])
def test_a_step_and_per_column_steps_keep_their_time_bias_bit_for_bit(parameterization):
    """A step's bias is one gemv, and per-column steps' the columns of one
    gemm over every step's time. Gathered columns equal a gemm over the
    gathered times, for any int array of two or more steps; a step equals
    the per-state call at its time."""
    field, _ = _grid_case(n=50, parameterization=parameterization)
    sched, uncached = field.schedule, UncachedField(field)
    rng = np.random.default_rng(4)
    blocks = [np.arange(1, 51), np.arange(50, 0, -1), sched.every_step,
              rng.integers(1, 51, size=2), rng.integers(1, 51, size=37),
              rng.integers(1, 51, size=200)]
    blocks += [np.repeat(np.arange(lo, hi + 1), b) for lo, hi in ((1, 50), (7, 19))
               for b in (1, 8)]
    for steps in blocks:
        x = rng.standard_normal((2, len(steps)))
        assert field.value(x, steps).tobytes() == uncached.value(x, steps).tobytes()
    x = rng.standard_normal(2)
    for n in range(1, 51):
        assert field.value(x, n).tobytes() == uncached.value(x, n).tobytes()


@pytest.mark.parametrize("parameterization", ["epsilon", "velocity"])
def test_a_step_outside_1_to_n_is_a_value_error_naming_it(parameterization):
    field, noises = _grid_case(n=12, parameterization=parameterization)
    x = noises.T
    tape = Tape()
    theta = [tape.variable(w) for w in field.params()]
    for bad, named in ((0, "0"), (-1, "-1"), (13, "13"),
                       (np.array([1, 5, 13]), "1..13"), (np.array([0, 2, 3]), "0..3"),
                       (np.array([-1, 4, 4]), "-1..4")):
        for call in (lambda: field.value(x if isinstance(bad, np.ndarray) else x[:, 0], bad),
                     lambda: field.build(tape, tape.constant(x), bad, theta)):
            with pytest.raises(ValueError, match=rf"^step n={named} outside 1\.\.12$"):
                call()


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
    field, noises = _grid_case()
    den, x = field.denoiser, noises.T
    field.value(x, 6)  # built grids, which a recorded time bias does not read
    grads = []
    for net in (den.build, lambda tape, xv, tv, th: _reference_net(tape, th, xv, tv)):
        tape = Tape()
        theta = [tape.variable(w) for w in den.weights]
        out = net(tape, tape.constant(x), t, theta)
        grads.append(list(tape.backward(tape.sqnorm(out)).values()))
    assert [g.tobytes() for g in grads[0]] == [g.tobytes() for g in grads[1]]
    assert np.any(grads[0][1] != 0) and np.any(grads[0][2] != 0)  # W1t, b1


def test_a_watched_build_at_per_column_steps_reads_no_bias_grid():
    """Watched weights record their time bias from the times, so a build at
    per-column steps makes no gemm grid; its values are the value path's."""
    field, noises = _grid_case(n=10, hidden=(8,))
    x, steps, tape = noises.T, np.array([2, 5, 9]), Tape()
    out = field.build(tape, tape.constant(x), steps,
                      [tape.variable(w) for w in field.params()])
    assert "_columns" not in vars(field)
    assert out.value.tobytes() == field.value(x, steps).tobytes()
    assert vars(field)["_columns"].shape == (8, 10)  # the value path built it


def standard_normal_dataset(seed=0):
    # a one-mode ring at radius 0 with unit noise is exactly N(0, I)
    return Dataset2D("gaussian-mixture-ring", seed=seed,
                     params={"modes": 1, "radius": 0.0, "noise": 1.0})


def test_dataset_without_a_key_fails_on_construction():
    with pytest.raises(ValueError, match="'two-moons' needs the key 'radius'"):
        Dataset2D("two-moons", params={"gap": 0.3, "noise": 0.06})


def test_dataset_with_an_unknown_key_fails_on_construction():
    with pytest.raises(ValueError, match="'two-moons' takes no key 'modes'"):
        Dataset2D("two-moons", params={"radius": 1.0, "gap": 0.3, "noise": 0.06,
                                       "modes": 2})


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
