import numpy as np
import pytest

from shortcutdiff.drivers import (FinetuneConfig, LatentOptConfig,
                                  OptimizationDiverged, finetune_params,
                                  latent_pass, optimize_latent, project_ball)
from shortcutdiff.model import Denoiser, DenoiserField, ScalarGainField, ZeroField
from shortcutdiff.objectives import MomentMatch, QuadraticTarget, RbfReward
from shortcutdiff.optim import AdamState, adam_step
from shortcutdiff.sampler import rollout
from shortcutdiff.schedule import Schedule
from shortcutdiff.seeding import stream_rng
from shortcutdiff.tape import Tape


def test_adam_first_step_closed_form():
    state = AdamState(1, lr=0.1)
    p = adam_step(state, np.array([0.0]), np.array([1.0]))
    assert p[0] == pytest.approx(-0.1 * 1.0 / (1.0 + 1e-8), rel=1e-12)


def test_adam_zero_gradient_keeps_parameters():
    state = AdamState(3, lr=0.5)
    p = np.array([1.0, -2.0, 0.3])
    for _ in range(5):
        p = adam_step(state, p, np.zeros(3))
    np.testing.assert_array_equal(p, [1.0, -2.0, 0.3])


def test_adam_first_step_moves_against_gradient_sign():
    state = AdamState(3, lr=0.2)
    g = np.array([3.0, -0.01, 0.5])
    p = adam_step(state, np.zeros(3), g)
    np.testing.assert_array_equal(np.sign(p), -np.sign(g))


def test_projection_idempotent_and_exact():
    rng = np.random.default_rng(0)
    z = rng.standard_normal(5) * 3
    c = rng.standard_normal(5)
    once = project_ball(z, c, 0.25)
    twice = project_ball(once, c, 0.25)
    np.testing.assert_array_equal(once, twice)
    assert np.max(np.abs(once - c)) <= 0.25


def test_identity_map_latent_steering_converges():
    target = np.array([0.8, -0.3])
    cfg = LatentOptConfig(estimator="sdo", lr=0.05, steps=200)
    res = optimize_latent(ZeroField(2), Schedule("vp-linear", 5),
                          np.array([2.0, 2.0]), QuadraticTarget(target), cfg)
    assert np.linalg.norm(res.x0 - target) <= 1e-3
    assert res.loss_history[-1] < res.loss_history[0]


def test_zero_learning_rate_keeps_latent_and_loss():
    cfg = LatentOptConfig(estimator="sdo", lr=0.0, steps=10)
    x = np.array([1.0, -1.0])
    res = optimize_latent(ZeroField(2), Schedule("vp-linear", 4), x,
                          QuadraticTarget(np.zeros(2)), cfg)
    np.testing.assert_array_equal(res.latent, x)
    assert len(set(res.loss_history)) == 1


def test_zero_steps_returns_initial_state():
    cfg = LatentOptConfig(steps=0)
    x = np.array([0.5, 0.5])
    res = optimize_latent(ZeroField(2), Schedule("vp-linear", 4), x,
                          QuadraticTarget(np.zeros(2)), cfg)
    np.testing.assert_array_equal(res.latent, x)
    np.testing.assert_array_equal(res.x0, x)
    assert len(res.loss_history) == 1


def test_every_iterate_respects_ball_constraint():
    seen = []
    x = np.array([1.0, 1.0])
    cfg = LatentOptConfig(estimator="sdo", lr=0.3, steps=25, tau=0.1)
    optimize_latent(ZeroField(2), Schedule("vp-linear", 4), x,
                    QuadraticTarget(np.array([5.0, 5.0])), cfg,
                    on_iterate=lambda step, z: seen.append(z.copy()))
    assert len(seen) == 25
    for z in seen:
        assert np.max(np.abs(z - x)) <= 0.1


def test_fd_oracle_driver_matches_bptt_trajectories():
    rng = np.random.default_rng(3)
    sched = Schedule("vp-linear", 5)
    field = DenoiserField(Denoiser.create(rng, hidden=(6,)), sched)
    x = rng.standard_normal(2)
    obj = QuadraticTarget(np.array([0.4, 0.0]))
    res_fd = optimize_latent(field, sched, x, obj,
                             LatentOptConfig(estimator="fd-oracle", steps=8, lr=0.05))
    res_bp = optimize_latent(field, sched, x, obj,
                             LatentOptConfig(estimator="bptt", steps=8, lr=0.05))
    for a, b in zip(res_fd.loss_history, res_bp.loss_history):
        assert a == pytest.approx(b, abs=1e-4)
    np.testing.assert_allclose(res_fd.latent, res_bp.latent, atol=1e-4)


def test_best_loss_no_worse_than_final():
    rng = np.random.default_rng(5)
    sched = Schedule("vp-linear", 6)
    field = DenoiserField(Denoiser.create(rng, hidden=(6,)), sched)
    res = optimize_latent(field, sched, rng.standard_normal(2),
                          QuadraticTarget(np.zeros(2)),
                          LatentOptConfig(steps=30, lr=0.1))
    assert res.best_loss <= res.loss_history[-1] + 1e-15


def test_intermediate_step_start_freezes_prefix():
    rng = np.random.default_rng(6)
    sched = Schedule("vp-linear", 8)
    field = DenoiserField(Denoiser.create(rng, hidden=(6,)), sched)
    x = rng.standard_normal(2)
    cfg = LatentOptConfig(m=3, steps=0)
    res = optimize_latent(field, sched, x, QuadraticTarget(np.zeros(2)), cfg)
    from shortcutdiff.sampler import sample_sequential
    traj = sample_sequential(field, sched, x)
    np.testing.assert_allclose(res.latent, traj.states[3], rtol=1e-15)


def test_batch_latent_steering_with_moment_match():
    rng = np.random.default_rng(7)
    ref = rng.standard_normal((16, 2)) * 0.5 + np.array([1.0, 0.0])
    obj = MomentMatch(ref)
    batch = rng.standard_normal((6, 2))
    cfg = LatentOptConfig(estimator="sdo", steps=60, lr=0.05)
    res = optimize_latent(ZeroField(2), Schedule("vp-linear", 4), batch, obj, cfg)
    assert res.loss_history[-1] < 0.1 * res.loss_history[0]
    assert res.x0.shape == (6, 2)


def test_divergence_aborts_with_history():
    class Explode(QuadraticTarget):
        def build(self, tape, x):
            return tape.scale(super().build(tape, x), 1e308)

    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(OptimizationDiverged) as info:
        optimize_latent(ScalarGainField(40.0, 2), Schedule("vp-linear", 3),
                        np.array([10.0, 10.0]), Explode(np.zeros(2)),
                        LatentOptConfig(steps=50, lr=5.0))
    assert isinstance(info.value.history, list)


def test_latent_pass_sdo_equals_bptt_on_zero_field():
    obj = QuadraticTarget(np.array([0.1, 0.2]))
    z = np.array([0.7, -0.4])
    g1, l1, x1 = latent_pass(ZeroField(2), Schedule("vp-linear", 4), z, 4, obj, "sdo")
    g2, l2, x2 = latent_pass(ZeroField(2), Schedule("vp-linear", 4), z, 4, obj, "bptt")
    np.testing.assert_array_equal(g1, g2)
    assert l1 == l2


# -------------------------------------------------------------- fine-tuning

def small_gain_setup():
    field = ScalarGainField(0.5, dim=2)
    sched = Schedule("vp-linear", 6)
    obj = RbfReward(np.zeros(2), width=0.8)
    return field, sched, obj


def test_finetune_zero_lr_keeps_params_and_reward():
    field, sched, obj = small_gain_setup()
    cfg = FinetuneConfig(estimator="sdo", batch=4, steps=6, lr=0.0, seed=3,
                         eval_every=2, eval_batch=8)
    res = finetune_params(field, sched, obj, cfg)
    assert float(np.asarray(res.field.params()[0])) == 0.5
    values = [v for _, v in res.heldout]
    assert len(set(values)) == 1


def test_finetune_improves_reward_on_gain_field():
    # pulling the gain up contracts samples toward the reward center
    field, sched, obj = small_gain_setup()
    cfg = FinetuneConfig(estimator="sdo", batch=8, steps=40, lr=0.02, seed=1,
                         eval_every=10, eval_batch=16)
    res = finetune_params(field, sched, obj, cfg)
    assert res.heldout[-1][1] < res.heldout[0][1]  # objective is -reward


def test_finetune_truncated_full_window_matches_bptt():
    field, sched, obj = small_gain_setup()
    kwargs = dict(batch=3, steps=5, lr=0.05, seed=11, eval_every=5, eval_batch=4)
    res_t = finetune_params(field, sched, obj,
                            FinetuneConfig(estimator="truncated-k",
                                           k=sched.n_steps, **kwargs))
    res_b = finetune_params(field, sched, obj,
                            FinetuneConfig(estimator="bptt", **kwargs))
    np.testing.assert_array_equal(np.asarray(res_t.field.params()[0]),
                                  np.asarray(res_b.field.params()[0]))
    assert res_t.heldout == res_b.heldout


def test_finetune_is_deterministic_given_seed():
    field, sched, obj = small_gain_setup()
    cfg = FinetuneConfig(estimator="sdo", batch=4, steps=8, lr=0.05, seed=21,
                         eval_every=4, eval_batch=8)
    r1 = finetune_params(field, sched, obj, cfg)
    r2 = finetune_params(field, sched, obj, cfg)
    np.testing.assert_array_equal(np.asarray(r1.field.params()[0]),
                                  np.asarray(r2.field.params()[0]))
    assert r1.heldout == r2.heldout


def test_finetune_skips_and_logs_nonfinite_gradients():
    class NanField(ScalarGainField):
        # NaN only on the parameter-differentiable build, so the held-out
        # evaluation (values only) stays finite and only the gradients fail
        def build(self, tape, x, t, theta=None):
            if theta is None:
                return tape.mul(tape.constant(self.gain), x)
            return tape.mul(tape.scale(theta[0], float("nan")), x)

    field = NanField(0.5, dim=2)
    sched = Schedule("vp-linear", 4)
    cfg = FinetuneConfig(estimator="sdo", batch=2, steps=3, lr=0.1, seed=5,
                         eval_every=3, eval_batch=2)
    with np.errstate(invalid="ignore"):
        res = finetune_params(field, sched, RbfReward(np.zeros(2)), cfg)
    assert res.skipped_steps == [1, 2, 3]
    assert float(np.asarray(res.field.params()[0])) == 0.5  # never updated
    assert all(np.isnan(row["grad_l2"]) for row in res.log)


def _reference_clamped_param_grad(field, sched, x_n, objective, recorded):
    """One noise's parameter gradient as a full tape: network calls at the
    steps outside `recorded` under Tape.paused, and the [-1, 1] clamp and
    the objective on the same tape."""
    n_steps = sched.n_steps
    tape = Tape()
    theta = [tape.variable(p) for p in field.params()]
    x = tape.constant(x_n)
    for n in range(n_steps, 0, -1):
        if n in recorded:
            u = field.build(tape, x, n / n_steps, theta)
        else:
            with tape.paused():
                u = field.build(tape, x, n / n_steps, theta)
        x = tape.sub(x, tape.scale(u, 1.0 / n_steps))
    j = objective.build(tape, tape.clamp(x, -1.0, 1.0))
    grads = tape.backward(j)
    return np.concatenate([grads[v].ravel() for v in theta]), float(j.value)


@pytest.mark.parametrize("estimator", ["sdo", "bptt"])
def test_finetune_clamp_matches_the_full_tape_bit_for_bit(estimator):
    rng = np.random.default_rng(17)
    sched = Schedule("vp-linear", 6, 0.1, 20.0)
    field = DenoiserField(Denoiser.create(rng, hidden=(8,)), sched)
    obj = RbfReward(np.array([0.8, -0.8]), width=0.7)
    cfg = FinetuneConfig(estimator=estimator, batch=4, steps=1, lr=0.01, seed=2,
                         eval_every=1, eval_batch=3, clamp_samples=True)
    res = finetune_params(field, sched, obj, cfg)

    noise_rng, select_rng = stream_rng(2, "noise"), stream_rng(2, "iprime")
    noise_rng.standard_normal((3, 2))  # the held-out set comes first
    noises = noise_rng.standard_normal((4, 2))
    iprime = int(select_rng.integers(1, 7))
    recorded = {iprime} if estimator == "sdo" else set(range(1, 7))
    assert np.any(np.abs([rollout(field, sched, x, 6)[-1] for x in noises]) > 1.0)
    flat0 = np.concatenate([p.ravel() for p in field.params()])
    grad_sum, loss_sum = np.zeros_like(flat0), 0.0
    for x_n in noises:
        g, loss = _reference_clamped_param_grad(field, sched, x_n, obj, recorded)
        grad_sum += g
        loss_sum += loss
    want = adam_step(AdamState(flat0.size, lr=0.01), flat0, grad_sum / 4)
    got = np.concatenate([p.ravel() for p in res.field.params()])
    assert got.tobytes() == want.tobytes()
    assert res.log[0]["loss_or_reward"] == loss_sum / 4


def test_fd_oracle_guard_rejects_large_latents():
    rng = np.random.default_rng(0)
    big = rng.standard_normal((40, 2))  # 80 probe coordinates
    obj = MomentMatch(rng.standard_normal((8, 2)))
    with pytest.raises(ValueError, match="fd-oracle"):
        latent_pass(ZeroField(2), Schedule("vp-linear", 3), big, 3, obj,
                    estimator="fd-oracle")


def test_finetune_rejects_bad_config():
    with pytest.raises(ValueError):
        FinetuneConfig(estimator="adjoint")
    with pytest.raises(ValueError):
        FinetuneConfig(batch=0)
    with pytest.raises(ValueError):
        LatentOptConfig(estimator="ift-oracle")
    with pytest.raises(ValueError):
        LatentOptConfig(tau=-1.0)
