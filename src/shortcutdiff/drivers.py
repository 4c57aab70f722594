"""Optimization drivers: latent steering and reward fine-tuning.

Latent steering differentiates J through the partial map from the latent
at step m with `engines.step_block_gradient` at the step m: a window of
one step for sdo and of all m for bptt, the rest rolled on values. It steps the
latent with Adam and optionally projects it back onto an infinity-norm
ball around the starting latent. Fine-tuning draws a fresh (B, d) noise
block per step, takes the parameter gradient of the batch objective with
a chosen estimator as one window over the block, logs the J that
the estimator reports, and tracks the objective on a fixed held-out noise
block. A single-sample objective scores a batch as the mean
over its rows; a batch objective scores it jointly. With the clamp flag
on, both score the objective through `objectives.Clamped`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .engines import (EstimatorSpec, central_difference, parameter_gradient,
                      step_block_gradient)
from .model import DivergenceError, VelocityField
from .objectives import Clamped
from .optim import AdamState, adam_step, flatten, unflatten
from .sampler import rollout, sample_sequential
from .schedule import Schedule
from .seeding import stream_rng
from .tape import VALUES


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
        if self.steps < 0:
            raise ValueError(f"steps must be >= 0, got {self.steps}")
        if self.lr < 0:  # zero is a no-op run; a negative rate ascends
            raise ValueError(f"lr must be >= 0, got {self.lr}")


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
                objective, estimator: str = "sdo", clamp: bool = False):
    """(gradient, loss, x_0) of J through the partial map from the latent at
    step m. Accepts one latent (d,) or a jointly-optimized batch (B, d),
    which a batch objective scores jointly and a single-sample objective
    as the mean over its rows. The gradient and x_0 have the layout of
    z."""
    if estimator not in LATENT_ESTIMATORS:
        raise ValueError(f"latent estimator {estimator!r} is not one of {LATENT_ESTIMATORS}")
    z = np.asarray(z, dtype=np.float64)
    schedule.steps(m, "latent step m")
    if estimator == "fd-oracle" and z.size > 64:
        raise ValueError(
            f"fd-oracle probes every latent coordinate ({z.size} here); "
            "it is a debug estimator; use sdo or bptt for large latents")
    if clamp:
        objective = Clamped(objective)

    if estimator == "fd-oracle":
        # one roll of the whole block, as the recorder rolls it, so the loss
        # and x_0 are the bits sdo reports; a non-finite state raises
        def roll(zz):
            return sample_sequential(field, schedule, zz, m).x0
        x0 = roll(z)
        loss = objective.value(x0)
        grad = central_difference(lambda zz: objective.value(roll(zz)), z)
    else:
        rep, x0 = step_block_gradient(field, schedule, z, m, m, objective,
                                      exact=estimator == "bptt", latent=True)
        grad, loss = rep.gradient, rep.loss
    if clamp:
        x0 = Clamped.clamp(VALUES, x0)
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
    m = schedule.steps(n_steps if config.m is None else int(config.m), "start step m")

    z = (x_init.copy() if m == n_steps
         else rollout(field, schedule, x_init, n_steps, m)[-1])

    center = z.copy()
    adam = AdamState(z.size, lr=config.lr)
    history: list[float] = []
    log: list[dict] = []
    best_loss = np.inf
    best_x0 = None

    grad, loss, x0 = latent_pass(field, schedule, z, m, objective,
                                 config.estimator, config.clamp_samples)
    for step in range(config.steps + 1):
        if not np.isfinite(loss):
            raise DivergenceError(f"non-finite loss at step {step}")
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
    estimator: str = "sdo"  # truncated-<k> fixes the window, truncated-k draws it
    batch: int = 8
    steps: int = 40
    lr: float = 5e-4
    grad_clip: float | None = None
    eval_every: int = 10
    eval_batch: int = 32
    clamp_samples: bool = False
    seed: int = 0

    def __post_init__(self):
        if EstimatorSpec.parse(self.estimator).kind not in FINETUNE_ESTIMATORS:
            raise ValueError("finetune estimator must be sdo, bptt, last-step, "
                             f"truncated-k or truncated-<k>, got {self.estimator!r}")
        for key in ("batch", "eval_every", "eval_batch"):
            if getattr(self, key) < 1:
                raise ValueError(f"{key} must be >= 1, got {getattr(self, key)}")
        if self.steps < 0:
            raise ValueError(f"steps must be >= 0, got {self.steps}")
        if self.lr < 0:
            raise ValueError(f"lr must be >= 0, got {self.lr}")
        if self.grad_clip is not None and self.grad_clip <= 0:
            raise ValueError(f"grad_clip must be > 0 when set, got {self.grad_clip}")


@dataclass
class FinetuneResult:
    field: VelocityField
    heldout: list[tuple[int, float]]   # (step, held-out mean objective)
    log: list[dict]
    skipped_steps: list[int] = dataclass_field(default_factory=list)


def _heldout_mean(field, schedule, noises, objective, step):
    """The objective of the held-out block, rolled as one block; a
    non-finite value raises DivergenceError naming the step."""
    mean = objective.value(rollout(field, schedule, noises, schedule.n_steps)[-1])
    if not np.isfinite(mean):
        raise DivergenceError(f"finetune: held-out mean objective is {mean} "
                              f"at step {step}")
    return step, mean


def finetune_params(field: VelocityField, schedule: Schedule, objective,
                    config: FinetuneConfig) -> FinetuneResult:
    """Reward fine-tuning loop: fresh noise block, estimator gradient of the
    batch objective, optional norm clipping, Adam step; held-out objective
    tracked on a fixed noise set at the configured cadence. Non-finite
    gradients skip the step and are logged, never silent; a non-finite
    held-out mean raises DivergenceError."""
    noise_rng = stream_rng(config.seed, "noise")
    select_rng = stream_rng(config.seed, "iprime")
    spec = EstimatorSpec.parse(config.estimator)
    dim = field.dim
    heldout_noise = noise_rng.standard_normal((config.eval_batch, dim))

    if config.clamp_samples:
        objective = Clamped(objective)

    flat = flatten(field.params())
    adam = AdamState(flat.size, lr=config.lr)
    log: list[dict] = []
    skipped: list[int] = []
    heldout = [_heldout_mean(field, schedule, heldout_noise, objective, 0)]

    for step in range(1, config.steps + 1):
        t0 = time.perf_counter()
        noises = noise_rng.standard_normal((config.batch, dim))
        iprime = int(select_rng.integers(1, schedule.n_steps + 1))
        # k is drawn every step unless the estimator fixes it: sdo's i' draws
        # interleave with these and would move without them
        k = spec.k if spec.k is not None else int(
            select_rng.integers(1, schedule.n_steps + 1))
        spec_k = EstimatorSpec(spec.kind, k if spec.kind == "truncated" else None)

        rep = parameter_gradient(spec_k, field, schedule, noises, objective, iprime)
        if rep.finite:
            grad = rep.gradient
            if config.grad_clip is not None and rep.l2_norm > config.grad_clip:
                grad = grad * (config.grad_clip / rep.l2_norm)
            flat = adam_step(adam, flat, grad)
            field = field.with_params(unflatten(flat, field.params()))
        else:
            skipped.append(step)
        log.append({"step": step, "loss_or_reward": rep.loss,
                    "grad_l2": rep.l2_norm if rep.finite else float("nan"),
                    "estimator": config.estimator,
                    "elapsed_s": time.perf_counter() - t0})
        if rep.finite and (step % config.eval_every == 0 or step == config.steps):
            heldout.append(_heldout_mean(field, schedule, heldout_noise, objective,
                                         step))
    return FinetuneResult(field, heldout, log, skipped)
