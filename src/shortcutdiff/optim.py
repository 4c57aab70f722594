"""Adam with the standard moment constants."""

from __future__ import annotations

import numpy as np

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


class AdamState:
    def __init__(self, dim: int, lr: float):
        self.lr = float(lr)
        self.m = np.zeros(dim)
        self.v = np.zeros(dim)
        self.t = 0


def adam_step(state: AdamState, params: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """One bias-corrected update; returns the new parameter vector, a fresh
    array. The moments m and v are updated in place, and every operation
    runs in the order of the textbook expressions
        m = β1 m + (1 − β1) g,  v = β2 v + (1 − β2) g g,
        params − lr m̂ / (√v̂ + ε),
    so the bits are theirs."""
    if grad.shape != params.shape or grad.shape != state.m.shape:
        raise ValueError(f"adam_step: shape mismatch {params.shape} vs {grad.shape}")
    state.t += 1
    m, v = state.m, state.v
    m *= BETA1
    m += (1.0 - BETA1) * grad
    v *= BETA2
    gg = (1.0 - BETA2) * grad
    gg *= grad
    v += gg
    step = m / (1.0 - BETA1 ** state.t)
    step *= state.lr
    den = v / (1.0 - BETA2 ** state.t)
    np.sqrt(den, out=den)
    den += EPS
    step /= den
    return params - step


def flatten(arrays: list) -> np.ndarray:
    """One flat parameter vector of the arrays in order, the layout that
    `unflatten` splits; an empty list gives an empty vector."""
    return np.concatenate([np.ravel(a) for a in arrays]) if arrays else np.zeros(0)


def unflatten(flat: np.ndarray, like: list[np.ndarray]) -> list[np.ndarray]:
    """Split a flat parameter vector into fresh read-only arrays shaped like
    `like`, which a `Denoiser` keeps as they are instead of copying."""
    out, pos = [], 0
    for a in like:
        out.append(flat[pos:pos + a.size].reshape(a.shape).copy())
        out[-1].flags.writeable = False
        pos += a.size
    return out
