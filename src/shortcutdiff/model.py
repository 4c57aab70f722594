"""Toy denoiser network, velocity fields, and score-matching training.

The network is a tanh MLP over [x, time features]. The first-layer weight
is stored as two blocks (one for x, one for the time features) so the
input concatenation never has to live on the tape. The network, the
fields and the DDIM step run one code path for a state x (d,) and for a
block x (d, B) of B states, one per column: the block goes through the
network in one call, at one time for every column or at a (B,) array of
times, one per column. The score-matching loss of a batch is one such
call.

Terms that depend only on the weights and the time are computed once and
reused on the value path, where the weights are constants: each
`Denoiser` memoizes its first-layer time bias `W1t tf(t) + b1` per time,
and one memo per schedule holds the coefficients f(t) and g^2/(2 sigma_t).
The key is the time itself, or the shape and bytes of a float64 array of
per-column times. Each entry is the array the uncached expression returns,
read-only, so memoized values are bit-identical. A Picard solve asks for
the same time grid on every iteration, and a roll asks for the same N step
times on every call. Both memos are bounded at 1,024 time columns or
entries, so they pay off for rolls and Picard grids up to N = 1,024.

With constant weights the network makes no handles per call: on VALUES
the weights are the frozen arrays themselves, and on a Tape their
constants are made once per tape (`tape.ConstantMemo`) and made anew when
an array in `weights` is replaced.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset2D
from .optim import AdamState, adam_step, unflatten
from .schedule import Schedule
from .seeding import stream_rng
from .tape import VALUES, ConstantMemo, Tape, Var

TIME_FEATURES = 3

PARAMETERIZATIONS = ("epsilon", "velocity")

# Memo bounds: 1,024 time columns of first-layer bias per Denoiser (one
# time is one column; 512 KiB at width 64) and 1,024 coefficient entries.
# Either holds every step time of N = 200 plus several Picard and full-sum
# grids, and a batch of random times cannot grow it past the bound. The
# memos pay off while the times that come back fit in the bound: rolls and
# one-state Picard grids up to N = 1,024 (the configs and benchmarks use
# N = 10 to 200). Past it, a roll's step times cycle through the memo and
# never hit, and a grid wider than 1,024 columns is not kept at all.
_BIAS_MEMO_COLUMNS = 1024
_COEFF_MEMO_ENTRIES = 1024


class DivergenceError(RuntimeError):
    """A numeric computation failed: a training loss, a sampled state or a
    held-out objective came out non-finite, or a linear system was
    singular. The CLI maps it to exit code 3."""


def time_features(t) -> np.ndarray:
    """[t, sin 2 pi t, cos 2 pi t]: (3,) for one time, (3, B) for a (B,)
    array of times."""
    if isinstance(t, np.ndarray):
        return np.stack([t, np.sin(2.0 * np.pi * t), np.cos(2.0 * np.pi * t)])
    return np.array([t, math.sin(2.0 * math.pi * t), math.cos(2.0 * math.pi * t)])


def _time_key(t):
    """Memo key of a time: the number itself, or the shape and bytes of a
    float64 array of times."""
    if isinstance(t, np.ndarray):
        t = np.asarray(t, dtype=np.float64)
        return t.shape, t.tobytes()
    return t


def weight_shapes(data_dim: int, hidden: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Shapes of the denoiser weights [W1x, W1t, b1, W2, b2, ..., Wout, bout]."""
    shapes = [(hidden[0], data_dim), (hidden[0], TIME_FEATURES), (hidden[0],)]
    for prev, cur in zip(hidden, [*hidden[1:], data_dim]):
        shapes += [(cur, prev), (cur,)]
    return shapes


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr, dtype=np.float64)
    arr.flags.writeable = False
    return arr


@dataclass
class Denoiser:
    """Tanh MLP, either noise-predicting ("epsilon") or direct-velocity."""

    data_dim: int
    hidden: tuple[int, ...]
    parameterization: str
    weights: list[np.ndarray]  # [W1x, W1t, b1, W2, b2, ..., Wout, bout]

    def __post_init__(self):
        # immutable weights let the tape share them without defensive copies
        self.weights = [_frozen(w) for w in self.weights]
        # time key -> W1t tf(t) + b1 for the (W1t, b1) in _memo_of; the
        # entries hold _memo_columns time columns in all
        self._bias_memo, self._memo_of, self._memo_columns = {}, (None, None), 0
        self._constants = ConstantMemo()

    @classmethod
    def create(cls, rng: np.random.Generator, data_dim: int = 2,
               hidden: tuple[int, ...] = (64, 64),
               parameterization: str = "epsilon") -> "Denoiser":
        if parameterization not in PARAMETERIZATIONS:
            raise ValueError(f"unknown parameterization {parameterization!r}")
        hidden = tuple(int(h) for h in hidden)
        if not hidden:
            raise ValueError("need at least one hidden layer")
        fan_in = data_dim + TIME_FEATURES
        ws: list[np.ndarray] = []
        for i, shape in enumerate(weight_shapes(data_dim, hidden)):
            if len(shape) == 1:
                ws.append(np.zeros(shape))
            else:  # both first-layer blocks see the whole [x, time] input
                ws.append(rng.standard_normal(shape)
                          / math.sqrt(fan_in if i < 2 else shape[1]))
        return cls(data_dim, hidden, parameterization, ws)

    # ------------------------------------------------------------ parameters

    def param_arrays(self) -> list[np.ndarray]:
        return list(self.weights)

    def flatten(self) -> np.ndarray:
        return np.concatenate([w.ravel() for w in self.weights])

    def with_flat(self, vec: np.ndarray) -> "Denoiser":
        vec = np.asarray(vec, dtype=np.float64)
        if vec.size != self.flatten().size:
            raise ValueError(f"parameter vector has {vec.size} entries, "
                             f"expected {self.flatten().size}")
        return Denoiser(self.data_dim, self.hidden, self.parameterization,
                        unflatten(vec, self.weights))

    def layer_sizes(self) -> list[int]:
        return [self.data_dim + TIME_FEATURES, *self.hidden, self.data_dim]

    # ----------------------------------------------------------- tape builds

    def _time_bias(self, t, key) -> np.ndarray:
        """W1t tf(t) + b1 for the constant weights, read-only: (h,) at one
        time, (h, B) at a (B,) array of times. Memoized under `key`, the
        `_time_key` of t. The memo is emptied when `weights` no longer holds
        the W1t and b1 it was filled from, and drops its oldest entries past
        the column bound; an entry wider than the bound is not stored."""
        w1t, b1 = self.weights[1], self.weights[2]
        memo = self._bias_memo
        if self._memo_of[0] is not w1t or self._memo_of[1] is not b1:
            memo.clear()
            self._memo_of, self._memo_columns = (w1t, b1), 0
        bias = memo.get(key)
        if bias is None:
            bias = VALUES.affine(w1t, time_features(t), b1)
            bias.flags.writeable = False  # shared by every later call
            columns = bias.size // b1.size
            if columns > _BIAS_MEMO_COLUMNS:
                return bias
            memo[key] = bias
            self._memo_columns += columns
            while self._memo_columns > _BIAS_MEMO_COLUMNS:
                self._memo_columns -= memo.pop(next(iter(memo))).size // b1.size
        return bias

    def build(self, tape: Tape, x: Var, t,
              theta: list[Var] | None = None, *, key=None) -> Var:
        """Network output for x (d,) or (d, B) at one time t, or for x (d, B)
        at a (B,) array t of per-column times. Every layer is one `affine`,
        which takes a state or a block of states alike. With theta None the
        first-layer time bias comes from `_time_bias`, under `key` when the
        caller has already built the `_time_key` of t; with watched theta it
        is recorded, so its gradient reaches W1t and b1."""
        if theta is None:
            theta = self._constants.of(tape, self.weights)
            bias = tape.constant(self._time_bias(t, _time_key(t) if key is None else key))
        else:
            bias = tape.affine(theta[1], tape.constant(time_features(t)), theta[2])
        # the first bias is (h,) at one time, (h, B) at per-column times
        h = tape.tanh(tape.affine(theta[0], x, bias))
        rest = theta[3:]
        for i in range(0, len(rest), 2):
            pre = tape.affine(rest[i], h, rest[i + 1])
            h = tape.tanh(pre) if i + 2 < len(rest) else pre
        return h


class VelocityField:
    """A velocity u(x, t) expressible in tape primitives.

    x is one state (d,) or a block (d, B) of states, one per column; t is
    one time, or for a block a (B,) array of per-column times. The result
    has the shape of x. `theta=None` treats parameters as constants (no
    parameter gradients); passing watched Vars makes the build
    parameter-differentiable.
    """

    dim: int

    def params(self) -> list[np.ndarray]:
        raise NotImplementedError

    def with_params(self, arrays: list[np.ndarray]) -> "VelocityField":
        raise NotImplementedError

    def build(self, tape: Tape, x: Var, t,
              theta: list[Var] | None = None) -> Var:
        raise NotImplementedError

    def value(self, x: np.ndarray, t) -> np.ndarray:
        """u(x, t) as an array: the same build, run on VALUES."""
        return self.build(VALUES, VALUES.constant(x), t)


class DenoiserField(VelocityField):
    """PF-ODE velocity induced by a denoiser and a schedule.

    For the noise-predicting network: u = f(t) x + g^2(t)/(2 sigma_t) eps(x, t).
    For a velocity-parameterized network the output is used directly.
    """

    def __init__(self, denoiser: Denoiser, schedule: Schedule):
        self.denoiser = denoiser
        self.schedule = schedule
        self.dim = denoiser.data_dim

    def params(self) -> list[np.ndarray]:
        return self.denoiser.param_arrays()

    def with_params(self, arrays):
        d = self.denoiser
        return DenoiserField(Denoiser(d.data_dim, d.hidden, d.parameterization,
                                      [np.asarray(a, dtype=np.float64) for a in arrays]),
                             self.schedule)

    def build(self, tape, x, t, theta=None):
        key = _time_key(t)  # one key for the time bias and the coefficients
        net = self.denoiser.build(tape, x, t, theta, key=key)
        if self.denoiser.parameterization == "velocity":
            return net
        f, c = _coeffs(self.schedule, key)
        if isinstance(t, np.ndarray):
            return tape.add(tape.mul(x, tape.constant(np.broadcast_to(f, x.shape))),
                            tape.mul(net, tape.constant(np.broadcast_to(c, x.shape))))
        return tape.lincomb(x, f, net, c)


class ZeroField(VelocityField):
    """u == 0: sampling is the identity map."""

    def __init__(self, dim: int = 2):
        self.dim = dim

    def params(self):
        return []

    def with_params(self, arrays):
        return self

    def build(self, tape, x, t, theta=None):
        return tape.constant(np.zeros(x.shape))


class ScalarGainField(VelocityField):
    """u = a * x with a single scalar parameter; every gradient engine has a
    closed form on this field, so it anchors the verification suite."""

    def __init__(self, gain: float = 1.0, dim: int = 1):
        self.gain = float(gain)
        self.dim = dim

    def params(self):
        return [np.asarray(self.gain)]

    def with_params(self, arrays):
        return ScalarGainField(float(np.asarray(arrays[0])), self.dim)

    def build(self, tape, x, t, theta=None):
        a = theta[0] if theta is not None else tape.constant(self.gain)
        return tape.mul(a, x)


@functools.lru_cache(maxsize=_COEFF_MEMO_ENTRIES)
def _coeffs(schedule: Schedule, key):
    """Memoized (f(t), g^2(t)/(2 sigma_t)) of `schedule` at the time whose
    `_time_key` is `key`: two floats for one time, two read-only (B,)
    arrays for B times. Every value comes from the Schedule's own scalar
    methods, which run their range checks on each miss."""
    if not isinstance(key, tuple):
        return schedule.drift_coeffs(key)[0], schedule.score_scale(key)
    ts = np.frombuffer(key[1])
    coeffs = (np.array([schedule.drift_coeffs(t)[0] for t in ts]),
              np.array([schedule.score_scale(t) for t in ts]))
    for arr in coeffs:
        arr.flags.writeable = False  # shared by every caller of the memo
    return coeffs


def velocity(denoiser: Denoiser, schedule: Schedule, x: np.ndarray, t: float) -> np.ndarray:
    """PF-ODE velocity at (x, t). Rejects t=0 for noise-predicting networks."""
    x = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise ValueError("velocity: state contains non-finite entries")
    return DenoiserField(denoiser, schedule).value(x, t)


# ------------------------------------------------------------------ training

def kernel_rates(schedule: Schedule, t):
    """(d alpha/dt, d sigma/dt): two floats at one time, two (B,) arrays at
    a (B,) array of times. The conditional-velocity regression target for
    direct-velocity networks is alpha' x_0 + sigma' eps."""
    if schedule.kind == "straight-line":
        one = np.ones_like(t) if isinstance(t, np.ndarray) else 1.0
        return -one, one
    alpha, sigma = schedule.alpha_sigma(t)
    zero = np.asarray(sigma) <= 0.0
    if zero.any():
        raise ValueError(f"kernel rates undefined at t={np.asarray(t)[zero].ravel()[0]} "
                         "(sigma=0)")
    f, _ = schedule.drift_coeffs(t)
    da = f * alpha
    return da, -alpha * da / sigma


def dsm_loss_var(tape: Tape, denoiser: Denoiser, schedule: Schedule,
                 x0: np.ndarray, ts: np.ndarray, eps: np.ndarray,
                 theta: list[Var] | None = None) -> Var:
    """Batch score-matching loss as a tape scalar for fixed draws (ts, eps):
    the schedule terms of the (B,) times as arrays, one network call on the
    (d, B) block of noised rows, one time per column, and one squared norm
    over the block."""
    x0 = np.atleast_2d(np.asarray(x0, dtype=np.float64))
    ts = np.asarray(ts, dtype=np.float64)
    alpha, sigma = schedule.alpha_sigma(ts)
    xt = alpha[:, None] * x0 + sigma[:, None] * eps
    if denoiser.parameterization == "epsilon":
        target = eps
    else:
        da, ds = kernel_rates(schedule, ts)
        target = da[:, None] * x0 + ds[:, None] * eps
    pred = denoiser.build(tape, tape.constant(xt.T), ts, theta)
    err = tape.sqnorm(tape.sub(pred, tape.constant(target.T)))
    return tape.scale(err, 1.0 / x0.shape[0])


def dsm_loss(denoiser: Denoiser, schedule: Schedule, x0: np.ndarray,
             rng: np.random.Generator, t_min: float = 1e-3) -> float:
    """Noise-prediction loss on one batch with fresh (t, eps) draws."""
    x0 = np.atleast_2d(np.asarray(x0, dtype=np.float64))
    if x0.shape[0] == 0:
        raise ValueError("dsm_loss: batch is empty")
    ts = rng.uniform(t_min, 1.0, size=x0.shape[0])
    eps = rng.standard_normal(x0.shape)
    return float(dsm_loss_var(VALUES, denoiser, schedule, x0, ts, eps))


@dataclass
class TrainConfig:
    dataset: Dataset2D
    schedule: Schedule
    hidden: tuple[int, ...] = (64, 64)
    parameterization: str = "epsilon"
    steps: int = 5000
    batch: int = 64
    lr: float = 2e-3
    t_min: float = 1e-3
    data_size: int = 4096
    seed: int = 0

    def __post_init__(self):
        for key in ("steps", "batch", "data_size"):
            if getattr(self, key) < 1:
                raise ValueError(f"{key} must be >= 1, got {getattr(self, key)}")
        if not self.hidden or min(self.hidden) < 1:
            raise ValueError(f"hidden must be widths >= 1, got {self.hidden}")
        if self.lr < 0:  # zero is a no-op run; a negative rate ascends
            raise ValueError(f"lr must be >= 0, got {self.lr}")
        if not 0.0 < self.t_min < 1.0:
            raise ValueError(f"t_min must be in (0, 1), got {self.t_min}")


def train_denoiser(cfg: TrainConfig) -> tuple[Denoiser, list[float]]:
    """Train by denoising score matching; deterministic given cfg.seed."""
    rng_init = stream_rng(cfg.seed, "init")
    rng_train = stream_rng(cfg.seed, "training")
    points, _ = cfg.dataset.sample(cfg.data_size)

    denoiser = Denoiser.create(rng_init, data_dim=points.shape[1],
                               hidden=cfg.hidden,
                               parameterization=cfg.parameterization)
    flat = denoiser.flatten()
    adam = AdamState(flat.size, lr=cfg.lr)
    losses: list[float] = []

    for step in range(cfg.steps):
        idx = rng_train.integers(0, cfg.data_size, size=cfg.batch)
        ts = rng_train.uniform(cfg.t_min, 1.0, size=cfg.batch)
        eps = rng_train.standard_normal((cfg.batch, points.shape[1]))

        tape = Tape()
        theta = [tape.variable(w) for w in denoiser.weights]
        loss = dsm_loss_var(tape, denoiser, schedule=cfg.schedule,
                            x0=points[idx], ts=ts, eps=eps, theta=theta)
        value = float(loss.value)
        if not math.isfinite(value):
            raise DivergenceError(f"training diverged at step {step}: loss={value}")
        losses.append(value)

        grads = tape.backward(loss)
        gflat = np.concatenate([grads[v].ravel() for v in theta])
        flat = adam_step(adam, flat, gflat)
        denoiser = denoiser.with_flat(flat)
    return denoiser, losses
