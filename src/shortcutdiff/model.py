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
`DenoiserField` memoizes the first-layer time bias `W1t tf(t) + b1` and the
coefficients f(t) and g^2/(2 sigma_t) per time. The key is the time
itself, or the shape and bytes of a float64 array of per-column times.
Each entry holds the arrays the uncached expressions return, read-only, so
memoized values are bit-identical. A Picard solve asks for the same time
grid on every iteration, and a roll asks for the same N step times on
every call. A new W1t or b1 drops the memo's biases, and `with_params`
hands the memo to the new field, whose schedule is the same.

A network call is one `tape.mlp`, so a recorded call is one node at any
depth; with watched weights the time bias is one more, a one-layer `mlp`.
With constant weights it makes no handles: the frozen arrays of `weights`
and the memoized time bias go to the primitive as they are, on VALUES and
on a Tape alike, so an array replaced in `weights` is used at the next
call. A field's `f(t) x + c(t) net` is one `lincomb`, whose coefficients
at per-column times are (B,) arrays, one per column.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset2D
from .optim import AdamState, adam_step, unflatten
from .schedule import Schedule
from .seeding import stream_rng
from .tape import VALUES, Tape, Var

TIME_FEATURES = 3

PARAMETERIZATIONS = ("epsilon", "velocity")

# Memo bound: 1,024 time columns per field (one time is one column; 512 KiB
# of first-layer bias at width 64). It holds every step time of N = 200
# plus several Picard and full-sum grids, and a batch of random times cannot
# grow it past the bound. The memo pays off while the times that come back
# fit in the bound: rolls and one-state Picard grids up to N = 1,024 (the
# configs and benchmarks use N = 10 to 200). Past it, a roll's step times
# cycle through the memo and never hit, and a grid wider than 1,024 columns
# is not kept at all.
_MEMO_COLUMNS = 1024


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

    def build(self, tape: Tape, x: Var, t,
              theta: list[Var] | None = None, *, bias=None) -> Var:
        """Network output for x (d,) or (d, B) at one time t, or for x (d, B)
        at a (B,) array t of per-column times: one `mlp` call, which takes a
        state or a block of states alike. With theta None the first-layer
        time bias is `bias` when given (a `DenoiserField` passes its
        memoized one) and is computed otherwise; with watched theta it is
        recorded, so its gradient reaches W1t and b1."""
        if theta is None:
            theta = self.weights
            if bias is None:
                bias = VALUES.mlp(time_features(t), theta[1:3])
        else:
            bias = tape.mlp(tape.constant(time_features(t)), theta[1:3])
        # the first bias is (h,) at one time, (h, B) at per-column times
        return tape.mlp(x, [theta[0], bias, *theta[3:]])


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


class _TimeTerms(dict):
    """A field's memo: time key -> [W1t tf(t) + b1, f(t), g^2/(2 sigma_t),
    columns], the arrays read-only, or None until asked for (f and c stay
    None for a velocity-parameterized network)."""

    bias_of = (None, None)  # the (W1t, b1) the biases were computed from
    columns = 0  # time columns held by the entries


class DenoiserField(VelocityField):
    """PF-ODE velocity induced by a denoiser and a schedule.

    For the noise-predicting network: u = f(t) x + g^2(t)/(2 sigma_t) eps(x, t).
    For a velocity-parameterized network the output is used directly. On
    the value path the time bias and f, c come from the field's memo.
    """

    def __init__(self, denoiser: Denoiser, schedule: Schedule):
        self.denoiser = denoiser
        self.schedule = schedule
        self.dim = denoiser.data_dim
        self._memo = _TimeTerms()

    def params(self) -> list[np.ndarray]:
        return self.denoiser.param_arrays()

    def with_params(self, arrays):
        d = self.denoiser
        field = DenoiserField(Denoiser(d.data_dim, d.hidden, d.parameterization,
                                       [np.asarray(a, dtype=np.float64) for a in arrays]),
                              self.schedule)
        field._memo = self._memo  # the same schedule, so f and c still hold
        return field

    def _time_terms(self, t, with_bias: bool) -> list:
        """The memo's [bias, f, c, columns] at t, computing what it lacks: f
        and c by the Schedule's scalar methods and range checks (0-d arrays
        at one time, which numpy multiplies by sooner than by floats), and
        the bias when `with_bias`. Past the bound the oldest entries go."""
        memo, (w1t, b1) = self._memo, self.denoiser.weights[1:3]
        # a replaced W1t or b1 drops the biases; f and c still hold
        if memo.bias_of[0] is not w1t or memo.bias_of[1] is not b1:
            for terms in memo.values():
                terms[0] = None
            memo.bias_of = (w1t, b1)
        key = _time_key(t) if isinstance(t, np.ndarray) else t
        terms = memo.get(key)
        if terms is None:
            ts = np.frombuffer(key[1]) if isinstance(key, tuple) else None
            terms = [None, None, None, 1 if ts is None else len(ts)]
            if self.denoiser.parameterization == "epsilon":
                sched = self.schedule
                if ts is None:
                    f, c = np.array(sched.drift_coeffs(t)[0]), np.array(sched.score_scale(t))
                else:
                    f = np.array([sched.drift_coeffs(ti)[0] for ti in ts])
                    c = np.array([sched.score_scale(ti) for ti in ts])
                f.flags.writeable = c.flags.writeable = False
                terms[1:3] = f, c
            if terms[3] <= _MEMO_COLUMNS:
                memo[key] = terms
                memo.columns += terms[3]
                while memo.columns > _MEMO_COLUMNS:
                    memo.columns -= memo.pop(next(iter(memo)))[3]
        if with_bias and terms[0] is None:
            terms[0] = VALUES.mlp(time_features(t), [w1t, b1])
            terms[0].flags.writeable = False  # shared by every later call
        return terms

    def build(self, tape, x, t, theta=None):
        bias, f, c, _ = self._time_terms(t, theta is None)
        net = self.denoiser.build(tape, x, t, theta, bias=bias)
        if self.denoiser.parameterization == "velocity":
            return net
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
