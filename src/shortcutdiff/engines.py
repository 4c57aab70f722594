"""Gradient engines for objectives of the sampling endpoint.

Five routes to d J(x_0) / d(target):

  bptt        every denoising step below the target recorded (exact);
  sdo         one-step gradients: one recorded DDIM step (at m for
              latents, at a given i' for parameters); parameters also
              have the full per-step sum as a reference mode, the
              gradient of one Picard update at its fixed point;
  truncated   parameters through only the last k denoising steps;
  ift-oracle  reads the stacked trajectory-update Jacobian row by row off
              one recorded Picard update and solves the implicit-function
              linear system (exact: the dependency structure is strictly
              triangular);
  fd-oracle   central differences through the true map or through the
              stop-gradient surrogate the one-step estimators define.

The reverse-mode engines take dJ/dx_0 from a separate objective tape.
bptt, sdo and truncated take a window of k DDIM steps below x_m and roll
the rest on values only; they differ only in m and k. The window is
recorded with the weights constant (`recorded_backward`). The weights are
watched in one place, `_step_contraction`: one network call on a block of
states contracted with the cotangents of their steps' outputs, which are
dJ/dx_0 for sdo and the full per-step sum, and the window's state adjoints
for bptt and truncated. `parameter_gradient` is the one map from an `EstimatorSpec` to an engine.
The reverse-mode engines take one noise (d,) or a (B, d) block of noises,
recorded as one block, and report the gradient and J of the batch
objective; the oracles take one noise.

All engines evaluate the same forward values (recording only changes what
the backward pass can see), so disagreements between them are meaningful.
Each report carries J(x_0) at its sample and the nodes of its tapes. On
the 64-64 network a recorded DDIM step is 7 nodes (the network's 5 and two
`lincomb`s); at every N sdo records 10 for the parameters and 9 for the
latent and sdo-full 11, and bptt records 7N + 2 (latent) or 7N + 6
(parameters).
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
    loss: float  # J(x_0) at the sample the gradient was taken at
    l2_norm: float
    tape_node_count: int
    wall_time_seconds: float
    estimator: str

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


def _report(grad: np.ndarray, loss: float, nodes: int, t0: float,
            estimator: str) -> GradientReport:
    grad = np.asarray(grad, dtype=np.float64)
    return GradientReport(
        gradient=grad,
        loss=loss,
        l2_norm=float(np.linalg.norm(grad)),
        tape_node_count=nodes,
        wall_time_seconds=time.perf_counter() - t0,
        estimator=estimator,
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


# ---------------------------------------------------------- recorded window

def _objective_gradient(objective, x0: np.ndarray) -> tuple[np.ndarray, float]:
    """(dJ/dx_0 as a (d, B) block, J) on a tape of its own, for x_0 holding
    B samples as rows, (d,) or (B, d)."""
    tape = Tape()
    x = tape.variable(np.atleast_2d(x0).T)
    j = objective.build_rows(tape, x)
    return tape.backward(j)[x], float(j.value)


def recorded_backward(tape: Tape, field: VelocityField, schedule: Schedule,
                      start: Var, m: int, k: int,
                      objective) -> tuple[dict, float, np.ndarray]:
    """Backward pass of a recorded window: (the cotangent of each state
    x_m .. x_{m-k}, keyed by its Var in step order, J, x_0).

    The start x_m is a watched state (d,) or block (d, B) of states, one
    per column. The k DDIM steps m .. m-k+1 are recorded on it with the
    weights constant, and x_{m-k} is rolled on to x_0 without the tape;
    x_0 comes back as rows, (d,) or (B, d). The contraction of x_{m-k} with
    dJ/dx_0 is backpropagated through the recorded steps. The start's
    cotangent is the latent gradient: k = m gives the exact one, and k = 1
    the one-step estimator, whose tape holds one network call at every N.
    """
    xs = [start]
    for n in range(m, m - k, -1):
        xs.append(ddim_step_var(tape, field, schedule, xs[-1], n))
    x0 = rollout(field, schedule, xs[-1].value.T, m - k)[-1]
    g, loss = _objective_gradient(objective, x0)
    total = tape.sum(tape.mul(xs[-1], tape.constant(g.reshape(xs[-1].shape))))
    grads = tape.backward(total, keep=tuple(xs))
    return {x: grads[x] for x in xs}, loss, x0


def _step_contraction(field: VelocityField, schedule: Schedule, states: np.ndarray,
                      times, cotangents: np.ndarray) -> tuple[np.ndarray, int]:
    """(the flat parameter gradient, tape nodes) of sum(C * steps), where
    steps are the DDIM steps of `states`, one state (d,) or a (d, C) block
    of them, each at its time (one time, or a (C,) array of per-column
    times), and C is the cotangent of their outputs in the same layout.
    The steps are one recorded network call; this is the only place a
    parameter gradient watches the weights."""
    tape = Tape()
    theta = [tape.variable(p) for p in field.params()]
    x = tape.constant(states)
    steps = tape.lincomb(x, 1.0, field.build(tape, x, times, theta),
                         -(1.0 / schedule.n_steps))
    grads = tape.backward(tape.sum(tape.mul(steps, tape.constant(cotangents))))
    return _flatten_param_grads(grads, theta), tape.node_count()


def _window(field: VelocityField, schedule: Schedule, x_n: np.ndarray,
            objective, m: int, k: int, latent: bool, label: str) -> GradientReport:
    """Roll x_n down to x_m on values, then differentiate the latent x_m or
    the parameters through the window of k steps below it. A (B, d) block
    x_n is recorded as one (d, B) block, and a latent gradient comes back
    in the layout of x_n.

    The parameter gradient sums <dJ/dx_{n-1}, d x_{n-1}/d theta> over the
    steps n = m .. m-k+1, as one contraction of the (d, k·B) block of
    x_{m-k+1} .. x_m (column j·B + b is x_{m-k+1+j} of noise b) with the
    cotangents of x_{m-k} .. x_{m-1}, from the window recorded from x_{m-1}
    (x_m's own cotangent is not needed). k = 1 contracts x_m with dJ/dx_0
    at its scalar time."""
    t0 = time.perf_counter()
    n_steps = schedule.n_steps
    tape = Tape()
    if latent:
        start = tape.variable(rollout(field, schedule, x_n, n_steps, m)[-1].T)
        grads, loss, _ = recorded_backward(tape, field, schedule, start, m, k, objective)
        return _report(grads[start].T, loss, tape.node_count(), t0, label)
    rows = rollout(field, schedule, x_n, n_steps, m - 1)  # ends x_m, x_{m-1}
    x_m = rows[-2].T
    if k == 1:
        x0 = rollout(field, schedule, rows[-1], m - 1)[-1]
        g, loss = _objective_gradient(objective, x0)
        grad, nodes = _step_contraction(field, schedule, x_m, m / n_steps,
                                        g.reshape(x_m.shape))
        return _report(grad, loss, nodes, t0, label)
    grads, loss, _ = recorded_backward(tape, field, schedule, tape.variable(rows[-1].T),
                                       m - 1, k - 1, objective)
    xs, cotangents = zip(*grads.items())  # x_{m-1} .. x_{m-k}
    states = np.column_stack([x.value for x in xs[-2::-1]] + [x_m])
    times = np.repeat(np.arange(m - k + 1, m + 1) / n_steps, states.shape[1] // k)
    grad, nodes = _step_contraction(field, schedule, states, times,
                                    np.column_stack(cotangents[::-1]))
    return _report(grad, loss, tape.node_count() + nodes, t0, label)


def _full_sum(field: VelocityField, schedule: Schedule, x_n: np.ndarray,
              objective) -> GradientReport:
    """The sum of the fixed-i' parameter gradients: the gradient of one
    Picard update at its fixed point, with the states held fixed. The
    states x_1 .. x_N of every noise, rolled on values, form one (d, N·B)
    block in `picard_update`'s column order (column (i-1)·B + b is x_i of
    noise b, at time i/N), contracted with each noise's dJ/dx_0."""
    t0 = time.perf_counter()
    n_steps = schedule.n_steps
    rows = rollout(field, schedule, x_n, n_steps)  # row j is x_{N-j}
    g, loss = _objective_gradient(objective, rows[-1])
    states = rows[-2::-1].reshape(-1, rows.shape[-1]).T
    times = np.repeat(np.arange(1, n_steps + 1) / n_steps, states.shape[1] // n_steps)
    grad, nodes = _step_contraction(field, schedule, states, times, np.tile(g, n_steps))
    return _report(grad, loss, nodes, t0, "sdo-full")


def grad_bptt(field: VelocityField, schedule: Schedule, x_n: np.ndarray,
              objective, target: GradTarget) -> GradientReport:
    """Exact gradient of the true sampling map: every step below the target
    recorded."""
    m = (_resolve_m(schedule, target.m) if target.kind == "latent"
         else schedule.n_steps)
    return _window(field, schedule, x_n, objective, m, m,
                   target.kind == "latent", "bptt")


def grad_sdo_latent(field: VelocityField, schedule: Schedule, x_n: np.ndarray,
                    objective, m: int | None = None) -> GradientReport:
    """One-step latent gradient J'(x_0) (I - (1/N) du(x_m)/dx): one recorded
    step at m contracted with dJ/dx_0."""
    m = _resolve_m(schedule, m)
    return _window(field, schedule, x_n, objective, m, 1, True, "sdo")


def grad_sdo_params(field: VelocityField, schedule: Schedule, x_n: np.ndarray,
                    objective, selection: str = "fixed",
                    iprime: int | None = None) -> GradientReport:
    """One-step parameter gradient.

    fixed:     -(1/N) J'(x_0) du(x_i')/dtheta: one recorded step at i'
               contracted with dJ/dx_0;
    full-sum:  the sum of the fixed gradients over every i', without any
               cross-step Jacobian products: one recorded network call on
               the block of all N states, each at its own time.
    """
    n_steps = schedule.n_steps
    if selection == "full-sum":
        return _full_sum(field, schedule, x_n, objective)
    if selection != "fixed":
        raise ValueError(f"unknown timestep selection {selection!r}")
    if iprime is None or not 1 <= int(iprime) <= n_steps:
        raise ValueError(f"fixed selection needs i' in 1..{n_steps}, got {iprime}")
    return _window(field, schedule, x_n, objective, int(iprime), 1, False, "sdo")


def grad_truncated(field: VelocityField, schedule: Schedule, x_n: np.ndarray,
                   objective, k: int) -> GradientReport:
    """Parameter gradient through the last k denoising steps only; states
    above the window are constants. k = N coincides with bptt; k = 1 is the
    final-step-only baseline."""
    if not 1 <= k <= schedule.n_steps:
        raise ValueError(f"window k={k} outside 1..{schedule.n_steps}")
    label = "last-step" if k == 1 else f"truncated-{k}"
    return _window(field, schedule, x_n, objective, k, k, False, label)


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
            return central_difference(
                lambda xi: objective.value(rollout(field, schedule, xi, m)[-1]),
                base, h)

        flat0 = np.concatenate([p.ravel() for p in field.params()])

        def j_of_theta(flat):
            f2 = field.with_params(unflatten(flat, field.params()))
            traj = sample_sequential(f2, schedule, x_n)
            return objective.value(traj.x0)
        return central_difference(j_of_theta, flat0, h)

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
        return central_difference(j_of, base_m, h)

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
        return central_difference(j_of_theta, flat0, h)

    raise ValueError(f"unknown surrogate {surrogate!r}")


def central_difference(f, x0: np.ndarray, h: float) -> np.ndarray:
    """Central differences of the scalar f at x0, one coordinate at a time."""
    g = np.zeros_like(x0)
    for j in range(x0.size):
        e = np.zeros_like(x0)
        e.ravel()[j] = h
        g.ravel()[j] = (f(x0 + e) - f(x0 - e)) / (2.0 * h)
    return g


# -------------------------------------------------------------- ift oracle

def _stacked_system(field: VelocityField, schedule: Schedule, x_n: np.ndarray):
    """Jacobians of the whole-trajectory update F with state y=(x_0..x_{N-1})
    and the initial noise treated as an external parameter (its trivial
    identity row would otherwise make I - dF/dy singular).

    F is the Picard update, F_n = x_N - (1/N) sum_{i>n} u(x_i, i/N), recorded
    as `picard_update` evaluates it: one network call on the (d, N) block of
    x_1 .. x_N, each column at its own time, with the states and theta
    watched. Row (n, j) of [dF/dy | dF/dx_N | dF/dtheta] is one backward pass
    of that block contracted with a constant suffix mask, -1/N at (j, i) for
    i > n. theta is shared by every column, so each row needs a pass of its
    own."""
    if x_n.ndim != 1:
        raise ValueError(f"the stacked system takes one noise (d,), got {x_n.shape}")
    n_steps = schedule.n_steps
    dim = x_n.shape[0]
    total = n_steps * dim
    if (n_steps + 1) * dim > IFT_DIM_GUARD:
        raise ValueError(f"stacked dimension {(n_steps + 1) * dim} exceeds "
                         f"the {IFT_DIM_GUARD} guard")
    traj = sample_sequential(field, schedule, x_n)
    tape = Tape()
    states = tape.variable(traj.states[1:].T)  # column i-1 is x_i
    theta = [tape.variable(p) for p in field.params()]
    u = field.build(tape, states, np.arange(1, n_steps + 1) / n_steps, theta)

    a = np.zeros((total, total))  # y's first block, x_0, enters no F_n
    b_latent = np.tile(np.eye(dim), (n_steps, 1))
    b_theta = np.zeros((total, sum(p.size for p in field.params())))
    for row in range(total):
        n, j = divmod(row, dim)
        mask = np.zeros((dim, n_steps))
        mask[j, n:] = -1.0 / n_steps
        grads = tape.backward(tape.sum(tape.mul(u, tape.constant(mask))))
        a[row, dim:] = grads[states][:, :-1].T.ravel()
        b_latent[row] += grads[states][:, -1]
        b_theta[row] = _flatten_param_grads(grads, theta)
    return traj, a, b_latent, b_theta


def grad_ift_oracle(field: VelocityField, schedule: Schedule, x_n: np.ndarray,
                    objective, target: GradTarget) -> GradientReport:
    """Implicit-function gradient through the trajectory fixed point: solve
    (I - dF/dy)^T v = (dJ/dy)^T, then contract with dF/d(target). Exact
    here because dF/dy is strictly triangular (nilpotent)."""
    t0 = time.perf_counter()
    if target.kind == "latent" and target.m not in (None, schedule.n_steps):
        raise ValueError("ift oracle differentiates the initial noise; "
                         "intermediate-latent targets are not stacked states")
    traj, a, b_latent, b_theta = _stacked_system(field, schedule, x_n)
    g, loss = _objective_gradient(objective, traj.x0)
    row = np.zeros(a.shape[0])  # dJ/dy: y's first block is x_0
    row[:g.size] = g.ravel()
    eye = np.eye(a.shape[0])
    try:
        v = np.linalg.solve((eye - a).T, row)
    except np.linalg.LinAlgError as exc:
        raise DivergenceError(f"ift oracle: singular stacked system ({exc}); "
                              "this should not happen for the triangular "
                              "trajectory update") from exc
    b = b_latent if target.kind == "latent" else b_theta
    return _report(v @ b, loss, 0, t0, "ift-oracle")  # no tape economy to measure


def evaluate_bounds(field: VelocityField, schedule: Schedule, x_n: np.ndarray,
                    objective) -> BoundReport:
    """Estimate the contraction constant, objective-gradient bound, and
    parameter Lipschitz constant of the stacked update, then compare the
    one-step gradient errors against the resulting bounds. Bounds are only
    meaningful when the contraction constant is below one; otherwise the
    raw quantities are still reported with bound_valid=False."""
    traj, a, _, b_theta = _stacked_system(field, schedule, x_n)
    lam = float(np.linalg.svd(a, compute_uv=False)[0]) if a.size else 0.0
    rho = float(np.linalg.norm(_objective_gradient(objective, traj.x0)[0]))
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
                       iprime: int | None = None) -> GradientReport:
    """One parameter-gradient evaluation for an estimator spec.

    x_n is one noise (d,) or a (B, d) block, taken as one recorded window:
    the report holds the gradient and J of the batch objective, the mean J
    for a single-sample objective. The ift oracle takes one noise. The
    caller makes the random choices: `iprime` is the recorded step of sdo,
    and a truncated spec carries its window k.
    """
    params = GradTarget("params")
    if spec.kind == "bptt":
        return grad_bptt(field, schedule, x_n, objective, params)
    if spec.kind == "sdo":
        return grad_sdo_params(field, schedule, x_n, objective,
                               selection="fixed", iprime=iprime)
    if spec.kind == "sdo-full":
        return grad_sdo_params(field, schedule, x_n, objective,
                               selection="full-sum")
    if spec.kind == "ift-oracle":
        return grad_ift_oracle(field, schedule, x_n, objective, params)
    if spec.kind == "last-step":
        return grad_truncated(field, schedule, x_n, objective, 1)
    if spec.kind == "truncated":
        if spec.k is None:
            raise ValueError("a truncated spec needs its window k")
        return grad_truncated(field, schedule, x_n, objective, spec.k)
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
    for key, value in (("draws", draws), ("reps", reps)):
        if value < 1:
            raise ValueError(f"{key} must be >= 1, got {value}")
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
                                              objective, iprime)
                           for _ in range(reps)]
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
