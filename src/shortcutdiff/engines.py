"""Gradient engines for objectives of the sampling endpoint.

Five routes to d J(x_0) / d(target):

  bptt        full reverse-mode through every denoising step (exact);
  sdo         one-step gradients: one recorded DDIM step (at m for
              latents, at a sampled i' for parameters) contracted with
              dJ/dx_0, the rest of the roll on values only; parameters
              also have the full per-step sum as a reference mode;
  ift-oracle  materializes the stacked trajectory-update Jacobian and
              solves the implicit-function linear system (exact: the
              dependency structure is strictly triangular);
  fd-oracle   central differences through the true map or through the
              stop-gradient surrogate the one-step estimators define;
  truncated   reverse-mode through only the last k denoising steps.

`parameter_gradient` is the one map from an `EstimatorSpec` to an engine.

All engines evaluate the same forward values (recording only changes what
the backward pass can see), so disagreements between them are meaningful.
The one-step tape is O(1) in N: 16 nodes for parameters and 15 for a
latent on the 64-64 network, where bptt records 13 to 15 per step.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .model import DivergenceError, VelocityField
from .optim import unflatten
from .sampler import ddim_step_var, rollout, sample_sequential
from .schedule import Schedule
from .tape import Tape, Var

IFT_DIM_GUARD = 4096


@dataclass(frozen=True)
class GradTarget:
    """What to differentiate: the latent at step m, or the parameters."""

    kind: str  # "latent" | "params"
    m: int | None = None  # latent step; None means the initial noise (m = N)

    def __post_init__(self):
        if self.kind not in ("latent", "params"):
            raise ValueError(f"unknown gradient target {self.kind!r}")


@dataclass
class GradientReport:
    gradient: np.ndarray
    l2_norm: float
    tape_node_count: int
    wall_time_seconds: float
    estimator: str
    seed: int | None = None

    @property
    def finite(self) -> bool:
        return bool(np.all(np.isfinite(self.gradient)))


@dataclass
class BoundReport:
    lambda_hat: float
    rho_hat: float
    l_f_hat: float
    measured_error_latent: float
    measured_error_params: float
    bound_latent: float | None
    bound_params: float | None
    bound_valid: bool


def _report(grad: np.ndarray, tape: Tape, t0: float, estimator: str,
            seed: int | None) -> GradientReport:
    grad = np.asarray(grad, dtype=np.float64)
    return GradientReport(
        gradient=grad,
        l2_norm=float(np.linalg.norm(grad)),
        tape_node_count=tape.node_count(),
        wall_time_seconds=time.perf_counter() - t0,
        estimator=estimator,
        seed=seed,
    )


def _flatten_param_grads(grads: dict, theta: list[Var]) -> np.ndarray:
    if not theta:
        return np.zeros(0)
    return np.concatenate([np.asarray(grads[v]).ravel() for v in theta])


def _resolve_m(schedule: Schedule, m: int | None) -> int:
    m = schedule.n_steps if m is None else int(m)
    if not 1 <= m <= schedule.n_steps:
        raise ValueError(f"latent step m={m} outside 1..{schedule.n_steps}")
    return m


# ---------------------------------------------------------------------- bptt

def grad_bptt(field: VelocityField, schedule: Schedule, x_n: np.ndarray,
              objective, target: GradTarget, seed: int | None = None) -> GradientReport:
    """Exact gradient of the true sampling map by full recording."""
    t0 = time.perf_counter()
    tape = Tape()
    if target.kind == "latent":
        m = _resolve_m(schedule, target.m)
        x = tape.variable(rollout(field, schedule, x_n, schedule.n_steps, m)[-1])
        theta = None
        steps = range(m, 0, -1)
    else:
        x = tape.constant(x_n)
        theta = [tape.variable(p) for p in field.params()]
        steps = range(schedule.n_steps, 0, -1)
    for n in steps:
        x = ddim_step_var(tape, field, schedule, x, n, theta=theta)
    grads = tape.backward(objective.build(tape, x))
    if target.kind == "latent":
        flat = grads[tape.watched[0]]
    else:
        flat = _flatten_param_grads(grads, theta)
    return _report(flat, tape, t0, "bptt", seed)


# ----------------------------------------------------------------- one-step

def one_step_backward(tape: Tape, field: VelocityField, schedule: Schedule,
                      starts: list[Var], m: int, objective,
                      theta: list[Var] | None = None, clamp: bool = False,
                      batch: bool = False) -> tuple[dict, float, np.ndarray]:
    """Backward pass of the one-step estimators: (gradients of the watched
    leaves, J, the x_0 rows the objective saw).

    From each start x_m, one DDIM step is recorded and its value is rolled
    on to x_0 without the tape. g = dJ/dx_0 comes from a separate objective
    tape (with the [-1, 1] clamp on it when `clamp`), and the contraction
    sum_r <x_{m-1}^r, g_r> is backpropagated through the recorded steps,
    so the tape holds one network call per start at every N. `batch`
    hands every row to `objective.build_batch`; otherwise `objective.build`
    sees the first row only.
    """
    steps = [ddim_step_var(tape, field, schedule, x, m, theta=theta) for x in starts]
    obj_tape = Tape()
    xs = [obj_tape.variable(rollout(field, schedule, s.value, m - 1)[-1])
          for s in steps]
    outs = [obj_tape.clamp(x, -1.0, 1.0) for x in xs] if clamp else xs
    j = (objective.build_batch(obj_tape, outs) if batch
         else objective.build(obj_tape, outs[0]))
    g = obj_tape.backward(j)
    total = None
    for s, x in zip(steps, xs):  # each sub node is the last one before its term
        term = tape.sum(tape.mul(s, tape.constant(g[x])))
        total = term if total is None else tape.add(total, term)
    return tape.backward(total), float(j.value), np.stack([o.value for o in outs])


def grad_sdo_latent(field: VelocityField, schedule: Schedule, x_n: np.ndarray,
                    objective, m: int | None = None,
                    seed: int | None = None) -> GradientReport:
    """One-step latent gradient J'(x_0) (I - (1/N) du(x_m)/dx): one recorded
    step at m contracted with dJ/dx_0."""
    t0 = time.perf_counter()
    m = _resolve_m(schedule, m)
    tape = Tape()
    x = tape.variable(rollout(field, schedule, x_n, schedule.n_steps, m)[-1])
    grads, _, _ = one_step_backward(tape, field, schedule, [x], m, objective)
    return _report(grads[x], tape, t0, "sdo", seed)


def grad_sdo_params(field: VelocityField, schedule: Schedule, x_n: np.ndarray,
                    objective, selection: str = "random-uniform",
                    iprime: int | None = None,
                    rng: np.random.Generator | None = None,
                    seed: int | None = None) -> GradientReport:
    """One-step parameter gradient.

    fixed:          -(1/N) J'(x_0) du(x_i')/dtheta: one recorded step at i'
                    contracted with dJ/dx_0;
    random-uniform: same, with i' drawn from the caller's seeded stream;
    full-sum:       reference mode recording every step's network call with
                    a stopped state input, i.e. the per-step parameter sum
                    without any cross-step Jacobian products.
    """
    t0 = time.perf_counter()
    n_steps = schedule.n_steps
    if selection == "random-uniform":
        if rng is None:
            raise ValueError("random-uniform selection needs an rng")
        iprime = int(rng.integers(1, n_steps + 1))
    elif selection == "fixed":
        if iprime is None or not 1 <= int(iprime) <= n_steps:
            raise ValueError(f"fixed selection needs i' in 1..{n_steps}, got {iprime}")
        iprime = int(iprime)
    elif selection != "full-sum":
        raise ValueError(f"unknown timestep selection {selection!r}")

    tape = Tape()
    theta = [tape.variable(p) for p in field.params()]
    if selection == "full-sum":
        x = tape.constant(x_n)
        for n in range(n_steps, 0, -1):
            x = ddim_step_var(tape, field, schedule, x, n, theta=theta, sg_input=True)
        grads = tape.backward(objective.build(tape, x))
    else:
        x = tape.constant(rollout(field, schedule, x_n, n_steps, iprime)[-1])
        grads, _, _ = one_step_backward(tape, field, schedule, [x], iprime,
                                        objective, theta)
    label = "sdo-full" if selection == "full-sum" else "sdo"
    return _report(_flatten_param_grads(grads, theta), tape, t0, label, seed)


# ---------------------------------------------------------------- truncated

def grad_truncated(field: VelocityField, schedule: Schedule, x_n: np.ndarray,
                   objective, k: int, target: GradTarget = GradTarget("params"),
                   seed: int | None = None) -> GradientReport:
    """Reverse-mode through the last k denoising steps only; states above
    the window are constants. k = N coincides with bptt; k = 1 is the
    final-step-only baseline."""
    t0 = time.perf_counter()
    n_steps = schedule.n_steps
    if not 1 <= k <= n_steps:
        raise ValueError(f"window k={k} outside 1..{n_steps}")
    tape = Tape()
    if target.kind == "latent":
        x = tape.variable(x_n)
        theta = None
    else:
        x = tape.constant(x_n)
        theta = [tape.variable(p) for p in field.params()]
    if k < n_steps:
        x = tape.constant(rollout(field, schedule, x_n, n_steps, k)[-1])
    for n in range(k, 0, -1):
        x = ddim_step_var(tape, field, schedule, x, n, theta=theta)
    grads = tape.backward(objective.build(tape, x))
    if target.kind == "latent":
        flat = grads[tape.watched[0]]
    else:
        flat = _flatten_param_grads(grads, theta)
    label = "last-step" if k == 1 else f"truncated-{k}"
    return _report(flat, tape, t0, label, seed)


# -------------------------------------------------------- finite differences

def grad_fd_oracle(field: VelocityField, schedule: Schedule, x_n: np.ndarray,
                   objective, target: GradTarget, surrogate: str = "true-map",
                   m: int | None = None, iprime: int | None = None,
                   h: float = 1e-5) -> np.ndarray:
    """Central differences through the requested forward map.

    true-map                 the actual sampling map (checks bptt);
    sdo-surrogate-at-m       latents: every network call except step m is
                             frozen at its base value (checks sdo latent);
    sdo-surrogate-at-iprime  parameters: only the step-i' network call
                             responds to the probe (checks sdo params).
    """
    if h <= 0:
        raise ValueError("h must be positive")
    x_n = np.asarray(x_n, dtype=np.float64)
    n_steps = schedule.n_steps

    if surrogate == "true-map":
        if target.kind == "latent":
            m = _resolve_m(schedule, target.m if m is None else m)
            base = rollout(field, schedule, x_n, n_steps, m)[-1]
            return _central(
                lambda xi: objective.value(rollout(field, schedule, xi, m)[-1]),
                base, h)

        flat0 = np.concatenate([p.ravel() for p in field.params()])

        def j_of_theta(flat):
            f2 = field.with_params(unflatten(flat, field.params()))
            traj = sample_sequential(f2, schedule, x_n)
            return objective.value(traj.x0)
        return _central(j_of_theta, flat0, h)

    if surrogate == "sdo-surrogate-at-m":
        m = _resolve_m(schedule, m)
        states = rollout(field, schedule, x_n, n_steps)  # row j is x_{N-j}
        base_m, base_m1, base_traj_tail = (states[n_steps - m],
                                           states[n_steps - m + 1], states[-1])

        def j_of(xi):
            u = field.value(xi, m / n_steps)
            x_m1 = xi - u / n_steps
            x0 = base_traj_tail + (x_m1 - base_m1)
            return objective.value(x0)
        return _central(j_of, base_m, h)

    if surrogate == "sdo-surrogate-at-iprime":
        if iprime is None or not 1 <= int(iprime) <= n_steps:
            raise ValueError(f"need i' in 1..{n_steps}, got {iprime}")
        iprime = int(iprime)
        states = rollout(field, schedule, x_n, n_steps)  # row j is x_{N-j}
        base_i, base_x0 = states[n_steps - iprime], states[-1]
        base_u = field.value(base_i, iprime / n_steps)
        flat0 = np.concatenate([p.ravel() for p in field.params()])

        def j_of_theta(flat):
            f2 = field.with_params(unflatten(flat, field.params()))
            u = f2.value(base_i, iprime / n_steps)
            x0 = base_x0 - (u - base_u) / n_steps
            return objective.value(x0)
        return _central(j_of_theta, flat0, h)

    raise ValueError(f"unknown surrogate {surrogate!r}")


def _central(f, x0: np.ndarray, h: float) -> np.ndarray:
    g = np.zeros_like(x0)
    for j in range(x0.size):
        e = np.zeros_like(x0)
        e.ravel()[j] = h
        g.ravel()[j] = (f(x0 + e) - f(x0 - e)) / (2.0 * h)
    return g


# -------------------------------------------------------------- ift oracle

def _step_jacobians(field: VelocityField, schedule: Schedule,
                    states: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """(dU/dx, dU/dtheta) of the velocity at every trajectory step i=1..N."""
    n_steps = schedule.n_steps
    dim = states.shape[1]
    u_x, u_theta = [], []
    for i in range(1, n_steps + 1):
        tape = Tape()
        x = tape.variable(states[i])
        theta = [tape.variable(p) for p in field.params()]
        u = field.build(tape, x, i / n_steps, theta)
        jx = np.zeros((dim, dim))
        jt_rows = []
        for j in range(dim):
            basis = np.zeros(dim)
            basis[j] = 1.0
            comp = tape.sum(tape.mul(u, tape.constant(basis)))
            grads = tape.backward(comp)
            jx[j] = grads[x]
            jt_rows.append(np.concatenate([grads[v].ravel() for v in theta])
                           if theta else np.zeros(0))
        u_x.append(jx)
        u_theta.append(np.stack(jt_rows) if theta else np.zeros((dim, 0)))
    return u_x, u_theta


def _stacked_system(field: VelocityField, schedule: Schedule, x_n: np.ndarray):
    """Jacobians of the whole-trajectory update F with state y=(x_0..x_{N-1})
    and the initial noise treated as an external parameter (its trivial
    identity row would otherwise make I - dF/dy singular)."""
    n_steps = schedule.n_steps
    dim = x_n.shape[0]
    total = n_steps * dim
    if (n_steps + 1) * dim > IFT_DIM_GUARD:
        raise ValueError(f"stacked dimension {(n_steps + 1) * dim} exceeds "
                         f"the {IFT_DIM_GUARD} guard")
    traj = sample_sequential(field, schedule, x_n)
    u_x, u_theta = _step_jacobians(field, schedule, traj.states)

    a = np.zeros((total, total))
    for n in range(n_steps):
        for j in range(n + 1, n_steps):
            a[n * dim:(n + 1) * dim, j * dim:(j + 1) * dim] = -u_x[j - 1] / n_steps

    b_latent = np.tile(np.eye(dim) - u_x[n_steps - 1] / n_steps, (n_steps, 1))

    p_dim = u_theta[0].shape[1]
    b_theta = np.zeros((total, p_dim))
    acc = np.zeros((dim, p_dim))
    for n in range(n_steps - 1, -1, -1):
        acc = acc + u_theta[n] / n_steps  # adds step n+1's contribution
        b_theta[n * dim:(n + 1) * dim] = -acc
    return traj, a, b_latent, b_theta


def _objective_row(objective, traj, dim: int, n_steps: int) -> np.ndarray:
    tape = Tape()
    x0 = tape.variable(traj.x0)
    g = tape.backward(objective.build(tape, x0))[x0]
    row = np.zeros(n_steps * dim)
    row[:dim] = g
    return row


def grad_ift_oracle(field: VelocityField, schedule: Schedule, x_n: np.ndarray,
                    objective, target: GradTarget,
                    seed: int | None = None) -> GradientReport:
    """Implicit-function gradient through the trajectory fixed point: solve
    (I - dF/dy)^T v = (dJ/dy)^T, then contract with dF/d(target). Exact
    here because dF/dy is strictly triangular (nilpotent)."""
    t0 = time.perf_counter()
    if target.kind == "latent" and target.m not in (None, schedule.n_steps):
        raise ValueError("ift oracle differentiates the initial noise; "
                         "intermediate-latent targets are not stacked states")
    traj, a, b_latent, b_theta = _stacked_system(field, schedule, x_n)
    dim = x_n.shape[0]
    row = _objective_row(objective, traj, dim, schedule.n_steps)
    eye = np.eye(a.shape[0])
    try:
        v = np.linalg.solve((eye - a).T, row)
    except np.linalg.LinAlgError as exc:
        raise DivergenceError(f"ift oracle: singular stacked system ({exc}); "
                              "this should not happen for the triangular "
                              "trajectory update") from exc
    b = b_latent if target.kind == "latent" else b_theta
    tape = Tape()  # oracle does not measure tape economy
    return _report(v @ b, tape, t0, "ift-oracle", seed)


def evaluate_bounds(field: VelocityField, schedule: Schedule, x_n: np.ndarray,
                    objective) -> BoundReport:
    """Estimate the contraction constant, objective-gradient bound, and
    parameter Lipschitz constant of the stacked update, then compare the
    one-step gradient errors against the resulting bounds. Bounds are only
    meaningful when the contraction constant is below one; otherwise the
    raw quantities are still reported with bound_valid=False."""
    traj, a, _, b_theta = _stacked_system(field, schedule, x_n)
    dim = x_n.shape[0]
    lam = float(np.linalg.svd(a, compute_uv=False)[0]) if a.size else 0.0
    rho = float(np.linalg.norm(_objective_row(objective, traj, dim, schedule.n_steps)))
    l_f = float(np.linalg.svd(b_theta, compute_uv=False)[0]) if b_theta.size else 0.0

    err_latent = float(np.linalg.norm(
        grad_bptt(field, schedule, x_n, objective, GradTarget("latent")).gradient
        - grad_sdo_latent(field, schedule, x_n, objective).gradient))
    if field.params():
        err_params = float(np.linalg.norm(
            grad_bptt(field, schedule, x_n, objective, GradTarget("params")).gradient
            - grad_sdo_params(field, schedule, x_n, objective,
                              selection="full-sum").gradient))
    else:
        err_params = 0.0

    valid = lam < 1.0
    return BoundReport(
        lambda_hat=lam,
        rho_hat=rho,
        l_f_hat=l_f,
        measured_error_latent=err_latent,
        measured_error_params=err_params,
        bound_latent=lam * lam * rho / (1.0 - lam) if valid else None,
        bound_params=lam * rho * l_f / (1.0 - lam) if valid else None,
        bound_valid=valid,
    )


# ------------------------------------------------------------------- sweep

@dataclass(frozen=True)
class EstimatorSpec:
    """Config-level estimator identity for drivers and the sweep."""

    kind: str  # bptt | sdo | sdo-full | ift-oracle | last-step | truncated
    k: int | None = None  # truncated window; None until the caller draws it

    @classmethod
    def parse(cls, text: str) -> "EstimatorSpec":
        text = text.strip()
        if text == "truncated-k":  # window drawn uniformly per evaluation
            return cls("truncated")
        if text.startswith("truncated-"):
            return cls("truncated", int(text.split("-", 1)[1]))
        if text in ("bptt", "sdo", "sdo-full", "ift-oracle", "last-step"):
            return cls(text)
        raise ValueError(f"unknown estimator {text!r}")

    def label(self) -> str:
        if self.kind != "truncated":
            return self.kind
        return "truncated-k" if self.k is None else f"truncated-{self.k}"


def parameter_gradient(spec: EstimatorSpec, field: VelocityField,
                       schedule: Schedule, x_n: np.ndarray, objective,
                       iprime: int | None = None,
                       seed: int | None = None) -> GradientReport:
    """One parameter-gradient evaluation for an estimator spec.

    The caller makes the random choices: `iprime` is the recorded step of
    sdo, and a truncated spec carries its window k.
    """
    params = GradTarget("params")
    if spec.kind == "bptt":
        return grad_bptt(field, schedule, x_n, objective, params, seed)
    if spec.kind == "sdo":
        return grad_sdo_params(field, schedule, x_n, objective,
                               selection="fixed", iprime=iprime, seed=seed)
    if spec.kind == "sdo-full":
        return grad_sdo_params(field, schedule, x_n, objective,
                               selection="full-sum", seed=seed)
    if spec.kind == "ift-oracle":
        return grad_ift_oracle(field, schedule, x_n, objective, params, seed)
    if spec.kind == "last-step":
        return grad_truncated(field, schedule, x_n, objective, 1, params, seed)
    if spec.kind == "truncated":
        if spec.k is None:
            raise ValueError("a truncated spec needs its window k")
        return grad_truncated(field, schedule, x_n, objective, spec.k, params, seed)
    raise ValueError(f"unknown estimator kind {spec.kind!r}")


def grad_norm_sweep(make_field, objective, n_list: list[int],
                    estimators: list[EstimatorSpec], seed: int,
                    noise_rng: np.random.Generator, select_rng: np.random.Generator,
                    draws: int = 1, reps: int = 1) -> list[dict]:
    """Parameter-gradient norms, tape sizes, and wall times over N values.

    `make_field(N) -> (field, schedule)` rebuilds the model on an N-step
    schedule. `draws` fixed noises are drawn once and shared across every
    (N, estimator) cell so norm variation across N reflects the estimator,
    not the draw; one row is emitted per evaluation. Wall time per row is
    the median over `reps` repeated calls of the same gradient. Non-finite
    gradients are recorded, not dropped. Rows are labelled with the spec as
    given; sdo's i' and a truncated-k window are drawn per evaluation from
    `select_rng`.
    """
    if not n_list:
        raise ValueError("n_list is empty")
    dim = make_field(int(n_list[0]))[0].dim
    noises = noise_rng.standard_normal((draws, dim))

    rows = []
    for n in n_list:
        field, schedule = make_field(int(n))
        for spec in estimators:
            for x_n in noises:
                iprime, pinned = None, spec
                if spec.kind == "sdo":
                    iprime = int(select_rng.integers(1, schedule.n_steps + 1))
                elif spec.kind == "truncated" and spec.k is None:
                    pinned = EstimatorSpec(
                        "truncated", int(select_rng.integers(1, schedule.n_steps + 1)))
                reports = [parameter_gradient(pinned, field, schedule, x_n,
                                              objective, iprime, seed)
                           for _ in range(max(1, reps))]
                times = sorted(r.wall_time_seconds for r in reports)
                rep = reports[-1]
                rows.append({
                    "N": int(n),
                    "estimator": spec.label(),
                    "grad_l2": rep.l2_norm,
                    "tape_nodes": rep.tape_node_count,
                    "wall_time_s": times[len(times) // 2],
                    "finite": rep.finite,
                    "seed": seed,
                })
    return rows


def sweep_worst_norms(rows: list[dict]) -> dict[str, list[tuple[int, float]]]:
    """Per estimator (sorted), the worst-case (max over draws) gradient norm
    at each N, in increasing N."""
    worst: dict[tuple[str, int], float] = {}
    for row in rows:
        key = (row["estimator"], row["N"])
        worst[key] = max(worst.get(key, 0.0), row["grad_l2"])
    return {est: [(n, v) for (e, n), v in sorted(worst.items()) if e == est]
            for est in sorted({e for e, _ in worst})}


def sweep_norm_ratios(rows: list[dict]) -> dict[str, float]:
    """Stability summary: per estimator, the max/min across N of the
    worst-case (max over draws) gradient norm."""
    ratios = {}
    for est, series in sweep_worst_norms(rows).items():
        vals = [v for _, v in series]
        ratios[est] = max(vals) / min(vals) if min(vals) > 0 else float("inf")
    return ratios
