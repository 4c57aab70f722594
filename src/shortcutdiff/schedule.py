"""Forward-noising schedules and the drift/diffusion coefficients they induce.

Two kinds:
  vp-linear      alpha(t) = exp(-0.5 * int_0^t beta(s) ds), beta linear in t,
                 sigma = sqrt(1 - alpha^2); the canonical variance-preserving
                 schedule.
  straight-line  alpha = 1 - t, sigma = t; the minimal flow-matching-style
                 path (pair it with a velocity-parameterized network: the
                 noise-prediction form is singular at t = 1 where alpha = 0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
