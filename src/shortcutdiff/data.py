"""Synthetic 2D datasets (desk-scale stand-ins for image data).

Both generators are deterministic given their seed and return points plus
a two-class label per point (ring modes alternate classes; moons are one
class each) so the same draw can feed generative training and the frozen
classifier used by the evasion task.

A `Dataset2D` must be given its kind's keys in `params`, those of
`KIND_KEYS` and no others (a ring: modes, radius, noise; moons: radius,
gap, noise); a missing or unknown key fails on construction. The
generators declare no defaults; a run's come from the config's `[train]`
section.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

KIND_KEYS = {"gaussian-mixture-ring": ("modes", "radius", "noise"),
             "two-moons": ("radius", "gap", "noise")}


@dataclass(frozen=True)
class Dataset2D:
    kind: str = "gaussian-mixture-ring"
    seed: int = 0
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        keys = KIND_KEYS.get(self.kind)
        if keys is None:
            raise ValueError(f"unknown dataset kind {self.kind!r}; "
                             f"expected one of {tuple(KIND_KEYS)}")
        missing = [key for key in keys if key not in self.params]
        if missing:
            raise ValueError(f"dataset {self.kind!r} needs the key {missing[0]!r}")
        unknown = [key for key in self.params if key not in keys]
        if unknown:
            raise ValueError(f"dataset {self.kind!r} takes no key {unknown[0]!r}; "
                             f"its keys are {', '.join(keys)}")
        if int(self.params.get("modes", 1)) < 1:
            raise ValueError(f"modes must be >= 1, got {self.params['modes']}")

    def sample(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Return (points (n,2) float64, labels (n,) int)."""
        rng = np.random.Generator(np.random.PCG64(self.seed))
        if self.kind == "gaussian-mixture-ring":
            return _ring(rng, n, **self.params)
        return _moons(rng, n, **self.params)


def _ring(rng, n, modes, radius, noise):
    ang = 2.0 * np.pi * np.arange(int(modes)) / int(modes)
    centers = np.stack([radius * np.cos(ang), radius * np.sin(ang)], axis=1)
    idx = rng.integers(0, int(modes), size=n)
    pts = centers[idx] + noise * rng.standard_normal((n, 2))
    return pts, (idx % 2).astype(np.int64)


def _moons(rng, n, radius, gap, noise):
    """Two interleaved half-circles separated vertically by `gap`."""
    label = rng.integers(0, 2, size=n)
    theta = np.pi * rng.random(n)
    x = np.where(label == 0, radius * np.cos(theta),
                 radius - radius * np.cos(theta))
    y = np.where(label == 0, radius * np.sin(theta) - gap / 2.0,
                 -radius * np.sin(theta) + gap / 2.0)
    pts = np.stack([x - radius / 2.0, y], axis=1)
    pts += noise * rng.standard_normal((n, 2))
    return pts, label.astype(np.int64)
