"""Sequential DDIM sampling and Picard (parallel-in-time) refinement.

Both samplers integrate the probability-flow ODE with step 1/N. The step
grid lives on the `Schedule`: the times t_n = n/N (`Schedule.times`), the
step's coefficient -(1/N) (`Schedule.step_coeff`) and the check that a
step index lies in 1..N (`Schedule.steps`); a field is asked at step
indices, not times. The Picard iteration refines the whole trajectory at
once from the integral form; its fixed point coincides with the
sequential trajectory, which `verify_fixed_point` checks numerically.
Every recorded DDIM step is `ddim_step_var`, which `model` defines for
the default `VelocityField.roll` and `window` and this module imports.
The gradient engines' block of per-column steps is the field's `block`,
one network call and its pullback. Every value-only roll is `rollout`,
which makes no handle or node: it asks the field to `roll`, which takes
each step through `ddim_step_var` on `tape.VALUES`, except that a
`DenoiserField` runs its step loop of the same numpy expressions, with
the same bits (see `model.DenoiserField.roll`). One state (d,) and a
(B, d) block of B states take the same path: the step sees the block as
(d, B), one state per column, and makes one network call for all of
them. A Picard update is one network call on the (d, N) block of all N
states, each column at its own step (`Schedule.every_step`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import DivergenceError, VelocityField, ddim_step_var  # noqa: F401 (re-exported)
from .schedule import Schedule
from .tape import VALUES


@dataclass
class Trajectory:
    """States indexed by step n (x_N is the initial noise, x_0 the sample)."""

    states: np.ndarray  # (m+1, d), m <= N; row n is x_n at time t = n/N

    @property
    def x0(self) -> np.ndarray:
        return self.states[0]

    def table(self, schedule: Schedule) -> tuple[list[str], list[dict]]:
        """CSV columns and rows from step m down to 0, each at t = n/N."""
        columns = ["step_index", "t",
                   *(f"x{j}" for j in range(self.states.shape[1]))]
        rows = [dict(zip(columns, (n, schedule.times[n], *self.states[n])))
                for n in range(self.states.shape[0] - 1, -1, -1)]
        return columns, rows


@dataclass
class PicardResult:
    trajectory: Trajectory
    iters_used: int
    residuals: list[float]
    converged: bool


@dataclass
class FixedPointReport:
    max_deviation: float
    iters_used: int
    converged: bool


def rollout(field: VelocityField, schedule: Schedule, x: np.ndarray,
            n_from: int, n_to: int = 0) -> np.ndarray:
    """Value-only DDIM roll from the state x at step n_from down to step n_to.

    Row j holds x_{n_from - j} in the layout of x, so the first row is x
    itself and the last is x_{n_to}. x is one state (d,) or a block (B, d)
    of B states, which steps as one (d, B) network call per step. The
    steps are `field.roll`'s, on values, so nothing is recorded, and
    non-finite values propagate without a check; callers that must stop on
    them test the rows.
    """
    if not 0 <= n_to <= n_from <= schedule.n_steps:
        raise ValueError(f"rollout from step {n_from} to {n_to} is outside "
                         f"0..{schedule.n_steps}")
    v = VALUES.constant(x).T  # one state per column; a (d,) state is its own transpose
    # (n, d), or (n, d, B) for a block; np.array is 4x sooner than np.stack
    rows = np.array([v, *field.roll(schedule, v, n_from, n_to)])
    return rows if rows.ndim == 2 else np.ascontiguousarray(rows.transpose(0, 2, 1))


def ddim_step(field: VelocityField, schedule: Schedule, x: np.ndarray, n: int) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise ValueError(f"ddim_step: non-finite state at step n={n}")
    return rollout(field, schedule, x, n, n - 1)[-1]


def sample_sequential(field: VelocityField, schedule: Schedule, x_n: np.ndarray,
                      m: int | None = None) -> Trajectory:
    """Apply the DDIM update for n = m down to 1 (m = N by default) from the
    state x_n at step m, recording every state; the first non-finite state
    raises DivergenceError."""
    m = schedule.n_steps if m is None else m
    with np.errstate(over="ignore", invalid="ignore"):  # rows checked below
        rows = rollout(field, schedule, np.asarray(x_n, dtype=np.float64), m)
    finite = np.isfinite(rows[1:]).all(axis=tuple(range(1, rows.ndim)))
    bad = np.flatnonzero(~finite)  # empty at m = 0, which takes no step
    if bad.size:  # row j = bad[0] + 1 holds x_{m-j}, produced by step m-j+1
        raise DivergenceError(f"sample_sequential: non-finite state "
                              f"produced at step n={m - bad[0]}")
    return Trajectory(rows[::-1].copy())


def picard_update(field: VelocityField, schedule: Schedule,
                  seq: np.ndarray) -> np.ndarray:
    """One refinement of the whole sequence:
    x_n <- x_N - (1/N) sum_{i=N..n+1} u(x_i, i/N), cumulative sum taken
    from i=N downward in fixed order; x_N is left unchanged. All N
    velocities come from one network call on the (d, N) block of states,
    at `schedule.every_step`, which must be the field's own schedule's
    (`VelocityField.check_schedule`)."""
    field.check_schedule(schedule)
    seq = np.asarray(seq, dtype=np.float64)
    n_steps = schedule.n_steps
    if seq.shape[0] != n_steps + 1:
        raise ValueError(f"sequence has {seq.shape[0]} states, expected {n_steps + 1}")
    us = field.value(seq[1:].T, schedule.every_step).T  # row i-1 holds u(x_i, i/N)
    out = np.empty_like(seq)
    out[n_steps] = seq[n_steps]
    # row n of the reversed cumsum is u(x_N) + u(x_{N-1}) + ... + u(x_{n+1})
    out[:n_steps] = seq[n_steps] - np.cumsum(us[::-1], axis=0)[::-1] / n_steps
    return out


def sample_picard(field: VelocityField, schedule: Schedule, x_n: np.ndarray,
                  tolerance: float = 1e-10, max_iters: int = 200) -> PicardResult:
    """Iterate picard_update from the constant-noise initial guess.

    Stops when the max-infinity residual between iterates falls under the
    tolerance, or at k = N updates, where the triangular step dependency
    makes the iterate exactly the sequential trajectory (verified by one
    uncounted residual evaluation). Non-convergence within max_iters is
    flagged, not raised.
    """
    if tolerance <= 0:
        raise ValueError("tolerance must be positive")
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    x_n = np.asarray(x_n, dtype=np.float64)
    n_steps = schedule.n_steps
    seq = np.tile(x_n, (n_steps + 1, 1))
    residuals: list[float] = []
    converged = False
    for k in range(1, max_iters + 1):
        new = picard_update(field, schedule, seq)
        res = float(np.max(np.abs(new - seq)))
        residuals.append(res)
        seq = new
        if res <= tolerance:
            converged = True
            break
        if k >= n_steps:
            # structurally exact now; one verification pass must agree
            check = picard_update(field, schedule, seq)
            converged = float(np.max(np.abs(check - seq))) <= tolerance
            break
    return PicardResult(Trajectory(seq), len(residuals), residuals, converged)


def residual_violations(residuals: list[float]) -> int:
    """Count increases of the Picard residual after the first update.

    Monotone decay is the observed behavior on trained models but is not
    guaranteed; verification reports violations instead of failing on them.
    """
    tail = residuals[1:]
    return sum(1 for r1, r2 in zip(tail, tail[1:]) if r2 > r1)


def verify_fixed_point(field: VelocityField, schedule: Schedule, x_n: np.ndarray,
                 tolerance: float = 1e-10) -> FixedPointReport:
    """Max infinity-norm gap between the sequential trajectory and the
    Picard fixed point started from the same noise."""
    seq_traj = sample_sequential(field, schedule, x_n)
    pic = sample_picard(field, schedule, x_n, tolerance=tolerance,
                        max_iters=max(2 * schedule.n_steps, 10))
    dev = float(np.max(np.abs(seq_traj.states - pic.trajectory.states)))
    return FixedPointReport(dev, pic.iters_used, pic.converged)
