"""Forward-noising schedules and the drift/diffusion coefficients they induce.

Two kinds:
  vp-linear      alpha(t) = exp(-0.5 * int_0^t beta(s) ds), beta linear in t,
                 sigma = sqrt(1 - alpha^2); the canonical variance-preserving
                 schedule.
  straight-line  alpha = 1 - t, sigma = t; the minimal flow-matching-style
                 path (pair it with a velocity-parameterized network: the
                 noise-prediction form is singular at t = 1 where alpha = 0).

A schedule owns its step grid: the times t_n = n/N, the step indices
1..N, the step's coefficient -(1/N), the velocity coefficients at the
steps' times and the check that a step index lies in 1..N.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import cached_property

import numpy as np

KINDS = ("vp-linear", "straight-line")


@dataclass(frozen=True)
class Schedule:
    kind: str = "vp-linear"
    n_steps: int = 50
    beta_min: float = 0.1
    beta_max: float = 20.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown schedule kind {self.kind!r}; expected one of {KINDS}")
        if self.n_steps < 1:
            raise ValueError(f"n_steps must be >= 1, got {self.n_steps}")
        if self.kind == "vp-linear" and not 0 < self.beta_min <= self.beta_max:
            raise ValueError("vp-linear requires 0 < beta_min <= beta_max")

    def __getstate__(self):  # the fields alone: the grid is rebuilt read-only
        return asdict(self)

    @cached_property
    def times(self) -> np.ndarray:
        """The read-only (N+1,) grid t_n = n/N, n = 0..N, built on first use."""
        times = np.arange(self.n_steps + 1) / self.n_steps
        times.flags.writeable = False
        return times

    @cached_property
    def every_step(self) -> np.ndarray:
        """The read-only int array 1..N of every step index, built on first
        use; a field asked at it answers from its whole grids."""
        steps = np.arange(1, self.n_steps + 1)
        steps.flags.writeable = False
        return steps

    @cached_property
    def velocity_coeffs(self) -> tuple[np.ndarray, np.ndarray]:
        """(f, c), read-only (N,) arrays of f(t_n) and g^2/(2 sigma) at t_n
        over steps n = 1..N, the coefficients of the noise-prediction
        velocity f x + c eps; built on first use by `drift_coeffs` and
        `score_scale`, whose domain errors they raise."""
        times = self.times[1:]
        f = np.array([self.drift_coeffs(t)[0] for t in times])
        c = np.array([self.score_scale(t) for t in times])
        f.flags.writeable = c.flags.writeable = False
        return f, c

    @cached_property
    def step_coeff(self) -> np.ndarray:
        """-(1/N), a step's coefficient of the velocity, as a read-only 0-d
        array, which numpy multiplies by sooner than by a float."""
        coeff = np.array(-(1.0 / self.n_steps))
        coeff.flags.writeable = False
        return coeff

    def steps(self, n, name: str):
        """n, one step index or an int array of them, once each lies in
        1..N; otherwise a ValueError naming the quantity `name`. Check before
        indexing `times`, where -1 would wrap."""
        lo = hi = n
        if isinstance(n, np.ndarray):
            lo, hi = n.min(), n.max()
        if n is None or not 1 <= lo <= hi <= self.n_steps:
            span = f"{lo}..{hi}" if isinstance(n, np.ndarray) else n
            raise ValueError(f"{name}={span} outside 1..{self.n_steps}")
        return n

    def _check_t(self, t):
        """t as a float, or a float64 array of times, each in [0, 1]."""
        if isinstance(t, np.ndarray):
            t = np.asarray(t, dtype=np.float64)
            outside = ~((t >= 0.0) & (t <= 1.0))  # NaN too
            if outside.any():
                raise ValueError(f"t must be in [0, 1], got {float(t[outside][0])}")
            return t
        t = float(t)
        if not 0.0 <= t <= 1.0:
            raise ValueError(f"t must be in [0, 1], got {t}")
        return t

    def beta(self, t: float) -> float:
        t = self._check_t(t)
        return self.beta_min + (self.beta_max - self.beta_min) * t

    def alpha_sigma(self, t):
        """Kernel coefficients of q(x_t | x_0) = N(alpha_t x_0, sigma_t^2 I):
        two floats at one time, two (B,) arrays at a (B,) array of times.
        alpha takes math.exp per value either way, because np.exp is not
        math.exp bit for bit."""
        t = self._check_t(t)
        if self.kind == "vp-linear":
            integral = self.beta_min * t + 0.5 * (self.beta_max - self.beta_min) * t * t
            if isinstance(t, np.ndarray):
                alpha = np.array([math.exp(v) for v in (-0.5 * integral).tolist()])
                return alpha, np.sqrt(np.maximum(0.0, 1.0 - alpha * alpha))
            alpha = math.exp(-0.5 * integral)
            return alpha, math.sqrt(max(0.0, 1.0 - alpha * alpha))
        return 1.0 - t, t

    def drift_coeffs(self, t: float) -> tuple[float, float]:
        """(f(t), g(t)^2) with f = d log alpha / dt and g^2 = d sigma^2/dt - 2 f sigma^2."""
        t = self._check_t(t)
        if self.kind == "vp-linear":
            b = self.beta(t)
            return -0.5 * b, b
        if t >= 1.0:
            raise ValueError("straight-line drift is singular at t = 1 (alpha = 0)")
        f = -1.0 / (1.0 - t)
        return f, 2.0 * t / (1.0 - t)

    def score_scale(self, t: float) -> float:
        """Coefficient g^2/(2 sigma) multiplying the noise prediction in the velocity."""
        t = self._check_t(t)
        alpha, sigma = self.alpha_sigma(t)
        if sigma <= 0.0:
            raise ValueError(f"noise-prediction velocity undefined at t={t} (sigma=0)")
        if alpha <= 0.0:
            raise ValueError(f"noise-prediction velocity undefined at t={t} (alpha=0)")
        _, g2 = self.drift_coeffs(t)
        return g2 / (2.0 * sigma)
