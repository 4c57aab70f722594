"""Gradient engines for objectives of the sampling endpoint.

Five routes to d J(x_0) / d(target):

  bptt        every denoising step below the target differentiated (exact);
  sdo         one-step gradients: one recorded DDIM step (at m for
              latents, at a given i' for parameters); parameters also
              have the full per-step sum as a reference mode, the
              gradient of one Picard update at its fixed point;
  truncated   parameters through only the last k denoising steps;
  ift-oracle  reads the stacked trajectory-update Jacobian row by row off
              the pullbacks of one block call on the Picard update's states
              and solves the implicit-function linear system (exact: the
              dependency structure is strictly triangular);
  fd-oracle   central differences of step `FD_STEP` through the true map
              or the stop-gradient surrogate the one-step estimators
              define, whose one step is `ddim_step_var` and which gives x_0
              bit for bit at its base; a non-finite state of the base roll
              or of a true-map probe raises.

bptt, sdo and truncated are one function, `step_block_gradient`: one
contraction of the outputs of one step (sdo at i', a latent at m,
last-step) or of a block 1..k of per-column steps (sdo-full, truncated-k,
bptt for the parameters) with dJ/dx_0 (stopped: sdo) or with the
adjoints off a window of the steps below with the weights constant
(exact: bptt, truncated); every other state is rolled on values. A window
is the field's `window`: its states and a pullback of dJ/dx_0 to every
state's adjoint. A latent's own step is a window too, of one step for
sdo. A parameter contraction is the weights' half of the pullback of the
field's `block`, one network call at one step index or at per-column
ones; the ift oracle reads its states' half. Next to its `roll`, a
`DenoiserField` runs the window and the block as numpy twins of the
tape's rules, and any other field records them on a Tape, with the same
bits. dJ/dx_0 and J come from the objective's `gradient`, which for the
quadratic target, the RBF reward and the classifier margin is a numpy twin
of its tape, so a `DenoiserField` gradient of one of them records no tape.
It takes one noise (d,) or a (B, d) block of noises, recorded as one
block, and gives the gradient and J of the batch objective; the oracles
take one noise. `parameter_gradient` is the one map from an
`EstimatorSpec` to an engine.

All engines evaluate the same forward values (recording only changes what
the backward pass can see), so disagreements between them are meaningful.
A `GradientReport` holds the gradient, J(x_0) at its sample and the nodes
of its tapes, and no name or time: an estimator is named by its
`EstimatorSpec`, and a caller that wants the time measures the call. A
DDIM step is 3 nodes (the network's one `mlp` and two `lincomb`s) at any
network depth, and a parameter contraction adds the recorded time bias;
at every N sdo records 6 for the parameters and 5 for the latent and
sdo-full 6, and bptt records 3N + 2 (latent) or 3N + 5 (parameters). A
window and a block count the nodes a Tape records for them, also where a
twin runs them and makes none: a window 3 per step (2 for a velocity
network) and the 2 of the seed sum(x_0 · dJ/dx_0), a block 3 (2), to
which a contraction adds the step's `lincomb` and the seed's 2.

The step grid lives on the `Schedule`: the steps, the fd surrogates and
the stacked system ask the field at step indices, not times (the stacked
system at `every_step`, all N at once), and read their coefficient from
`step_coeff`; every step index (m, i', a window k) goes through its one
check, `Schedule.steps`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .model import DivergenceError, VelocityField
from .optim import flatten, unflatten
from .sampler import ddim_step_var, rollout, sample_sequential
from .schedule import Schedule
from .tape import VALUES

IFT_DIM_GUARD = 4096
FD_STEP = 1e-5  # the central-difference step of every fd oracle


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
    tape_node_count: int  # of its tapes, and of a window the nodes a Tape records for it

    @property
    def l2_norm(self) -> float:
        return float(np.linalg.norm(self.gradient))

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


def _resolve_m(schedule: Schedule, m: int | None) -> int:
    return schedule.steps(schedule.n_steps if m is None else int(m), "latent step m")


# ------------------------------------------------------------- step blocks

def step_block_gradient(field: VelocityField, schedule: Schedule, x: np.ndarray,
                        top: int, steps, objective, *, exact: bool,
                        latent: bool) -> tuple[GradientReport, np.ndarray]:
    """(the report of the gradient of J(x_0), x_0) from the state x at step
    `top`, one (d,) or a (B, d) block stepped as one (d, B) block; x_0
    comes back in the layout of x.

    `steps` is one step n, or an int array lo..hi taken as one (d, k·B)
    block of per-column steps (column j·B + b is x_{lo+j} of noise b). Each
    step's output is contracted with dJ/dx_0 when stopped, and when exact
    with its adjoint off the field's `window` of the steps below, with the
    weights constant. For the weights (a flat gradient) the contraction is
    the weights' half of the field's `block` pullback; for one step m, the
    latent x_m (a gradient in the layout of x), it reads x_m's adjoint off
    the window from x_m, of every step below m when exact and of step m
    alone when stopped. Everything else is rolled on values.
    """
    schedule.steps(steps, "steps")
    block = isinstance(steps, np.ndarray)
    lo, hi = (int(steps[0]), int(steps[-1])) if block else (steps, steps)
    # the window runs from x_w down to x_bottom: from x_m for a latent, whose
    # own step is always in it, and from x_{hi-1} for exact parameters
    # (x_hi's adjoint is not needed)
    w = hi if latent else (hi if exact else lo) - 1
    bottom = 0 if exact else w
    if latent:
        bottom = min(bottom, w - 1)
    # ends x_w; a latent at m = top rolls no step
    rows = rollout(field, schedule, x, top, w) if w < top else VALUES.constant(x)[None]
    xs = [rows[-1].T]  # one state per column; xs[j] is x_{w-j}
    window = bottom < w
    if window:
        xs, pullback = field.window(schedule, xs[0], w, bottom)
    x0 = rollout(field, schedule, xs[-1].T, bottom)[-1]
    g, loss = objective.gradient(x0)
    g = g.reshape(xs[-1].shape)  # dJ/dx_0 in the layout of a state
    nodes = 0
    if window:
        adjoints, nodes = pullback(g)
        if latent:
            return GradientReport(adjoints[0].T, loss, nodes), x0
    if not block:  # x_n in the layout of a state; xs[0] is x_{n-1}
        states, cotangents = rows[-2].T, adjoints[0] if window else g
    elif window:  # exact: x_lo .. x_{hi-1} off the window, x_hi off the roll
        xs, adjoints = xs[::-1], adjoints[::-1]  # xs[i] is x_i
        states = np.column_stack(xs[lo:hi] + [rows[-2].T])
        cotangents = np.column_stack(adjoints[lo - 1:hi])
    else:  # stopped: x_lo .. x_hi off the roll, where rows[::-1][i] is x_{lo-1+i}
        states = rows[::-1][1:hi - lo + 2].reshape(-1, g.shape[0]).T
        cotangents = np.tile(g.reshape(g.shape[0], -1), hi - lo + 1)
    if block:
        steps = np.repeat(steps, states.shape[1] // steps.size)
    _, pullback, recorded = field.block(schedule, states, steps)
    grads = pullback(schedule.step_coeff * cotangents)[1]
    # the step's lincomb and the seed's mul and sum are 3 nodes more
    return GradientReport(flatten(grads), loss, nodes + recorded + 3), x0


def _last_steps(k: int):
    """Steps k .. 1 for an exact parameter gradient: the block 1..k, or the
    scalar step 1, whose adjoint is dJ/dx_0."""
    return np.arange(1, k + 1) if k > 1 else 1


def grad_bptt(field: VelocityField, schedule: Schedule, x_n: np.ndarray,
              objective, target: GradTarget) -> GradientReport:
    """Exact gradient of the true sampling map: every step below the target
    in the window."""
    latent = target.kind == "latent"
    steps = _resolve_m(schedule, target.m) if latent else _last_steps(schedule.n_steps)
    return step_block_gradient(field, schedule, x_n, schedule.n_steps, steps, objective,
                               exact=True, latent=latent)[0]


def grad_sdo_latent(field: VelocityField, schedule: Schedule, x_n: np.ndarray,
                    objective, m: int | None = None) -> GradientReport:
    """One-step latent gradient J'(x_0) (I - (1/N) du(x_m)/dx): one recorded
    step at m contracted with dJ/dx_0."""
    return step_block_gradient(field, schedule, x_n, schedule.n_steps,
                               _resolve_m(schedule, m), objective, exact=False,
                               latent=True)[0]


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
    if selection == "full-sum":
        steps = schedule.every_step
    elif selection != "fixed":
        raise ValueError(f"unknown timestep selection {selection!r}")
    else:
        steps = schedule.steps(iprime, "fixed selection's i'")
    return step_block_gradient(field, schedule, x_n, schedule.n_steps, steps, objective,
                               exact=False, latent=False)[0]


def grad_truncated(field: VelocityField, schedule: Schedule, x_n: np.ndarray,
                   objective, k: int) -> GradientReport:
    """Parameter gradient through the last k denoising steps only; states
    above the window are constants. k = N coincides with bptt; k = 1 is the
    final-step-only baseline."""
    schedule.steps(k, "window k")
    return step_block_gradient(field, schedule, x_n, schedule.n_steps, _last_steps(k),
                               objective, exact=True, latent=False)[0]


# -------------------------------------------------------- finite differences

def grad_fd_oracle(field: VelocityField, schedule: Schedule, x_n: np.ndarray,
                   objective, target: GradTarget, surrogate: str = "true-map",
                   m: int | None = None, iprime: int | None = None) -> np.ndarray:
    """Central differences of J(j(f, x)) for one map j from the state x at a
    step n, off one base roll: a latent probes x around x_n with the field f
    fixed, and the parameters probe f at x_n. A non-finite state of the
    base roll or of a true-map probe raises DivergenceError.

    true-map                 the sampling map from step n: m for a latent, N
                             for the parameters (checks bptt);
    sdo-surrogate-at-m       latents, n = m (checks sdo latent), and
    sdo-surrogate-at-iprime  parameters, n = i' (checks sdo params): x_0 +
                             (`ddim_step_var` at n - x_{n-1}), which only step
                             n moves; at the base point it is x_0 bit for bit.

    A latent's step is `m`, or the target's own m when `m` is None.
    """
    kind = {"sdo-surrogate-at-m": "latent",
            "sdo-surrogate-at-iprime": "params"}.get(surrogate, target.kind)
    if kind != target.kind:
        raise ValueError(f"surrogate {surrogate!r} differentiates a {kind} "
                         f"target, not a {target.kind} one")
    if m is not None and target.m is not None and int(m) != target.m:
        raise ValueError(f"m={m} contradicts the target's m={target.m}")
    latent = target.kind == "latent"
    if latent:
        m = _resolve_m(schedule, target.m if m is None else m)
    xs = sample_sequential(field, schedule, x_n).states  # xs[n] is x_n

    if surrogate == "true-map":
        n = m if latent else schedule.n_steps

        def j(f, x):
            return sample_sequential(f, schedule, x, n).x0
    elif surrogate in ("sdo-surrogate-at-m", "sdo-surrogate-at-iprime"):
        n = m if latent else int(schedule.steps(iprime, "i'"))

        def j(f, x):
            return xs[0] + (ddim_step_var(VALUES, f, schedule, x, n) - xs[n - 1])
    else:
        raise ValueError(f"unknown surrogate {surrogate!r}")
    if latent:
        return central_difference(lambda x: objective.value(j(field, x)), xs[n])
    params = field.params()
    return central_difference(
        lambda flat: objective.value(j(field.with_params(unflatten(flat, params)), xs[n])),
        flatten(params))


def central_difference(f, x0: np.ndarray) -> np.ndarray:
    """Central differences of the scalar f at x0, one coordinate at a time."""
    g = np.zeros_like(x0)
    for j in range(x0.size):
        e = np.zeros_like(x0)
        e.ravel()[j] = FD_STEP
        g.ravel()[j] = (f(x0 + e) - f(x0 - e)) / (2.0 * FD_STEP)
    return g


# -------------------------------------------------------------- ift oracle

def _stacked_system(field: VelocityField, schedule: Schedule, x_n: np.ndarray):
    """Jacobians of the whole-trajectory update F with state y=(x_0..x_{N-1})
    and the initial noise treated as an external parameter (its trivial
    identity row would otherwise make I - dF/dy singular).

    F is the Picard update, F_n = x_N - (1/N) sum_{i>n} u(x_i, i/N), taken
    as `picard_update` evaluates it: one `block` call on the (d, N) block of
    x_1 .. x_N, each column at its own step. Row (n, j) of
    [dF/dy | dF/dx_N | dF/dtheta] is one pullback of that call, to the
    states and the weights, of a suffix mask, -1/N at (j, i) for i > n.
    theta is shared by every column, so each row needs a pullback of its
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
    states = traj.states[1:].T  # column i-1 is x_i
    _, pullback, _ = field.block(schedule, states, schedule.every_step)

    a = np.zeros((total, total))  # y's first block, x_0, enters no F_n
    b_latent = np.tile(np.eye(dim), (n_steps, 1))
    b_theta = np.zeros((total, sum(p.size for p in field.params())))
    for row in range(total):
        n, j = divmod(row, dim)
        mask = np.zeros((dim, n_steps))
        mask[j, n:] = schedule.step_coeff
        cot, grads = pullback(mask, states=True)
        a[row, dim:] = cot[:, :-1].T.ravel()
        b_latent[row] += cot[:, -1]
        b_theta[row] = flatten(grads)
    return traj, a, b_latent, b_theta


def grad_ift_oracle(field: VelocityField, schedule: Schedule, x_n: np.ndarray,
                    objective, target: GradTarget) -> GradientReport:
    """Implicit-function gradient through the trajectory fixed point: solve
    (I - dF/dy)^T v = (dJ/dy)^T, then contract with dF/d(target). Exact
    here because dF/dy is strictly triangular (nilpotent)."""
    if target.kind == "latent" and target.m not in (None, schedule.n_steps):
        raise ValueError("ift oracle differentiates the initial noise; "
                         "intermediate-latent targets are not stacked states")
    traj, a, b_latent, b_theta = _stacked_system(field, schedule, x_n)
    g, loss = objective.gradient(traj.x0)
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
    return GradientReport(v @ b, loss, 0)  # no tape economy to measure


def evaluate_bounds(field: VelocityField, schedule: Schedule, x_n: np.ndarray,
                    objective) -> BoundReport:
    """Estimate the contraction constant, objective-gradient bound, and
    parameter Lipschitz constant of the stacked update, then compare the
    one-step gradient errors against the resulting bounds. Bounds are only
    meaningful when the contraction constant is below one; otherwise the
    raw quantities are still reported with bound_valid=False."""
    traj, a, _, b_theta = _stacked_system(field, schedule, x_n)
    lam = float(np.linalg.svd(a, compute_uv=False)[0]) if a.size else 0.0
    rho = float(np.linalg.norm(objective.gradient(traj.x0)[0]))
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
            try:  # truncated-<k>; k is checked where N is known
                return cls("truncated", int(text[len("truncated-"):]))
            except ValueError:
                pass
        elif text in ("bptt", "sdo", "sdo-full", "ift-oracle", "last-step"):
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
    the median over `reps` repeated calls of the same gradient, each timed
    around its `parameter_gradient` call. Non-finite gradients are
    recorded, not dropped. Rows are labelled with the spec as given; sdo's
    i' and a truncated-k window are drawn per evaluation from `select_rng`.
    """
    if not n_list or not estimators:
        raise ValueError(f"{'estimators' if n_list else 'n_list'} is empty")
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
                times = []
                for _ in range(reps):
                    t0 = time.perf_counter()
                    rep = parameter_gradient(pinned, field, schedule, x_n, objective,
                                             iprime)
                    times.append(time.perf_counter() - t0)
                rows.append({
                    "N": int(n),
                    "estimator": spec.label(),
                    "grad_l2": rep.l2_norm,
                    "tape_nodes": rep.tape_node_count,
                    "wall_time_s": float(np.median(times)),
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
