"""Optimization drivers: latent steering and reward fine-tuning.

Latent steering differentiates J through the partial map from the latent
at step m with `engines.recorded_backward`: one recorded step for sdo,
all m for bptt, the rest rolled on values and contracted with dJ/dx_0. It
steps the latent with Adam and optionally projects it back onto an
infinity-norm ball around the starting latent. Fine-tuning draws fresh
noise batches, estimates the parameter gradient with a chosen estimator,
logs the mean J that the estimator reports, and tracks reward on a fixed
held-out noise set. With the clamp flag on, both score the objective
through `objectives.Clamped`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .engines import (EstimatorSpec, central_difference, parameter_gradient,
                      recorded_backward)
from .model import DivergenceError, VelocityField
from .objectives import Clamped
from .optim import AdamState, adam_step, unflatten
from .sampler import rollout
from .schedule import Schedule
from .seeding import stream_rng
from .tape import VALUES, Tape


class OptimizationDiverged(RuntimeError):
    def __init__(self, message: str, history: list[float]):
        super().__init__(message)
        self.history = history


LATENT_ESTIMATORS = ("sdo", "bptt", "fd-oracle")
FINETUNE_ESTIMATORS = ("sdo", "bptt", "last-step", "truncated")


@dataclass
class LatentOptConfig:
    m: int | None = None          # start step; None means the initial noise
    estimator: str = "sdo"
    lr: float = 0.05
    steps: int = 200
    tau: float | None = None      # infinity-ball radius around the start latent
    track_best: bool = True
    clamp_samples: bool = False   # clamp x_0 to [-1, 1] before the objective

    def __post_init__(self):
        if self.estimator not in LATENT_ESTIMATORS:
            raise ValueError(f"latent estimator must be one of {LATENT_ESTIMATORS}")
        if self.tau is not None and self.tau <= 0:
            raise ValueError("tau must be positive when set")


@dataclass
class LatentOptResult:
    latent: np.ndarray            # optimized latent at step m
    x0: np.ndarray                # final sample(s)
    loss_history: list[float]
    best_loss: float
    best_x0: np.ndarray
    log: list[dict]               # run-log rows


def project_ball(z: np.ndarray, center: np.ndarray, tau: float) -> np.ndarray:
    """Projection onto the infinity-norm ball, exact under recomputation:
    max|z - center| <= tau holds in floating point, not just up to an ulp."""
    z = np.clip(z, center - tau, center + tau)
    over = np.abs(z - center) > tau
    while np.any(over):  # rounding of center +- tau can overshoot by one ulp
        z = np.where(over, np.nextafter(z, center), z)
        over = np.abs(z - center) > tau
    return z


def latent_pass(field: VelocityField, schedule: Schedule, z: np.ndarray, m: int,
                objective, estimator: str = "sdo", clamp: bool = False,
                fd_h: float = 1e-5):
    """(gradient, loss, x_0) of J through the partial map from the latent at
    step m. Accepts one latent (d,) or a jointly-optimized batch (B, d); a
    batch needs a batch objective."""
    z = np.asarray(z, dtype=np.float64)
    rows = np.atleast_2d(z)
    if estimator == "fd-oracle" and rows.size > 64:
        raise ValueError(
            f"fd-oracle probes every latent coordinate ({rows.size} here); "
            "it is a debug estimator; use sdo or bptt for large latents")
    if clamp:
        objective = Clamped(objective)

    tape = Tape()
    zvars = [tape.variable(row) for row in rows]
    # sdo records one step; fd-oracle reports its loss and x_0 from it too
    k = m if estimator == "bptt" else 1
    grads, loss, x0 = recorded_backward(tape, field, schedule, zvars, m, k,
                                        objective)
    grad = np.stack([grads[zv] for zv in zvars])
    if clamp:
        x0 = Clamped.clamp(VALUES, x0)

    if estimator == "fd-oracle":
        grad = central_difference(
            lambda zz: objective.value(
                np.stack([rollout(field, schedule, row, m)[-1] for row in zz])),
            rows, fd_h)

    if z.ndim == 1:
        return grad[0], loss, x0[0]
    return grad, loss, x0


def optimize_latent(field: VelocityField, schedule: Schedule, x_init: np.ndarray,
                    objective, config: LatentOptConfig,
                    on_iterate=None) -> LatentOptResult:
    """Steer the latent at step m so the generated sample minimizes J.

    For m < N the prefix trajectory from x_init stays frozen; only the
    latent at step m moves. Projection onto the tau-ball happens after
    every Adam step, so each iterate satisfies the constraint exactly.
    """
    x_init = np.asarray(x_init, dtype=np.float64)
    n_steps = schedule.n_steps
    m = n_steps if config.m is None else int(config.m)
    if not 1 <= m <= n_steps:
        raise ValueError(f"start step m={m} outside 1..{n_steps}")

    if m == n_steps:
        z = x_init.copy()
    elif x_init.ndim == 1:
        z = rollout(field, schedule, x_init, n_steps, m)[-1]
    else:
        z = np.stack([rollout(field, schedule, row, n_steps, m)[-1]
                      for row in x_init])

    center = z.copy()
    adam = AdamState(z.size, lr=config.lr)
    history: list[float] = []
    log: list[dict] = []
    best_loss = np.inf
    best_x0 = None
    x0 = None

    grad, loss, x0 = latent_pass(field, schedule, z, m, objective,
                                 config.estimator, config.clamp_samples)
    for step in range(config.steps + 1):
        if not np.isfinite(loss):
            raise OptimizationDiverged(f"non-finite loss at step {step}", history)
        history.append(loss)
        if config.track_best and loss < best_loss:
            best_loss, best_x0 = loss, np.array(x0)
        if step == config.steps:
            break
        t0 = time.perf_counter()
        flat = adam_step(adam, z.ravel(), grad.ravel())
        z = flat.reshape(z.shape)
        if config.tau is not None:
            z = project_ball(z, center, config.tau)
        if on_iterate is not None:
            on_iterate(step, z)
        grad, loss, x0 = latent_pass(field, schedule, z, m, objective,
                                     config.estimator, config.clamp_samples)
        log.append({"step": step, "loss_or_reward": loss,
                    "grad_l2": float(np.linalg.norm(grad)),
                    "estimator": config.estimator,
                    "elapsed_s": time.perf_counter() - t0})
    if best_x0 is None:
        best_loss, best_x0 = history[-1], np.array(x0)
    return LatentOptResult(z, x0, history, best_loss, best_x0, log)


# -------------------------------------------------------------- fine-tuning

@dataclass
class FinetuneConfig:
    estimator: str = "sdo"        # truncated-<k> means truncated-k with that k
    batch: int = 16
    steps: int = 200
    lr: float = 1e-3
    grad_clip: float | None = None
    k: int | None = None          # truncated-k window; None draws k per step
    eval_every: int = 20
    eval_batch: int = 64
    clamp_samples: bool = False
    seed: int = 0

    def __post_init__(self):
        spec = EstimatorSpec.parse(self.estimator)
        if spec.kind not in FINETUNE_ESTIMATORS:
            raise ValueError("finetune estimator must be sdo, bptt, last-step, "
                             f"truncated-k or truncated-<k>, got {self.estimator!r}")
        if spec.k is not None:
            self.estimator, self.k = "truncated-k", spec.k
        if self.batch < 1:
            raise ValueError("batch must be >= 1")


@dataclass
class FinetuneResult:
    field: VelocityField
    heldout: list[tuple[int, float]]   # (step, held-out mean objective)
    log: list[dict]
    skipped_steps: list[int] = dataclass_field(default_factory=list)


def _heldout_mean(field, schedule, noises, objective, step):
    """Mean objective over the held-out noises; a non-finite mean raises
    DivergenceError naming the step."""
    n_steps = schedule.n_steps
    mean = float(np.mean([objective.value(rollout(field, schedule, xn, n_steps)[-1])
                          for xn in noises]))
    if not np.isfinite(mean):
        raise DivergenceError(f"finetune: held-out mean objective is {mean} "
                              f"at step {step}")
    return step, mean


def finetune_params(field: VelocityField, schedule: Schedule, objective,
                    config: FinetuneConfig) -> FinetuneResult:
    """Reward fine-tuning loop: fresh noise batch, estimator gradient of the
    mean objective, optional norm clipping, Adam step; held-out objective
    tracked on a fixed noise set at the configured cadence. Non-finite
    gradients skip the step and are logged, never silent; a non-finite
    held-out mean raises DivergenceError."""
    noise_rng = stream_rng(config.seed, "noise")
    select_rng = stream_rng(config.seed, "iprime")
    kind = EstimatorSpec.parse(config.estimator).kind
    dim = field.dim
    heldout_noise = noise_rng.standard_normal((config.eval_batch, dim))

    if config.clamp_samples:
        objective = Clamped(objective)

    flat = np.concatenate([p.ravel() for p in field.params()])
    adam = AdamState(flat.size, lr=config.lr)
    log: list[dict] = []
    skipped: list[int] = []
    heldout = [_heldout_mean(field, schedule, heldout_noise, objective, 0)]

    for step in range(1, config.steps + 1):
        t0 = time.perf_counter()
        noises = noise_rng.standard_normal((config.batch, dim))
        iprime = int(select_rng.integers(1, schedule.n_steps + 1))
        k = config.k if config.k is not None else int(
            select_rng.integers(1, schedule.n_steps + 1))
        spec = EstimatorSpec(kind, k if kind == "truncated" else None)

        grad_sum = np.zeros_like(flat)
        loss_sum = 0.0
        for x_n in noises:  # fixed batch order keeps accumulation deterministic
            rep = parameter_gradient(spec, field, schedule, x_n, objective,
                                     iprime)
            grad_sum += rep.gradient
            loss_sum += rep.loss
        grad = grad_sum / config.batch
        mean_loss = loss_sum / config.batch

        if not np.all(np.isfinite(grad)):
            skipped.append(step)
            log.append({"step": step, "loss_or_reward": mean_loss,
                        "grad_l2": float("nan"), "estimator": config.estimator,
                        "elapsed_s": time.perf_counter() - t0})
            continue
        norm = float(np.linalg.norm(grad))
        if config.grad_clip is not None and norm > config.grad_clip:
            grad = grad * (config.grad_clip / norm)
        flat = adam_step(adam, flat, grad)
        field = field.with_params(unflatten(flat, field.params()))

        log.append({"step": step, "loss_or_reward": mean_loss,
                    "grad_l2": norm, "estimator": config.estimator,
                    "elapsed_s": time.perf_counter() - t0})
        if step % config.eval_every == 0 or step == config.steps:
            heldout.append(_heldout_mean(field, schedule, heldout_noise, objective,
                                         step))
    return FinetuneResult(field, heldout, log, skipped)
