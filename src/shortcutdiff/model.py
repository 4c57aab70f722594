"""Toy denoiser network, velocity fields, and score-matching training.

The network is a tanh MLP over [x, time features]. The first-layer weight
is stored as two blocks (one for x, one for the time features) so the
input concatenation never has to live on the tape. The network, the
fields and the DDIM step run one code path for a state x (d,) and for a
block x (d, B) of B states, one per column: the block goes through the
network in one call, at one time for every column or at a (B,) array of
times, one per column. The score-matching loss of a batch is one such
call, and training takes its gradient with no tape (`dsm_gradient`).

A field is asked at a step n of its schedule's grid t_n = n/N, or for a
block at an int array of per-column steps, never at a free time; a step
outside 1..N is a ValueError that names it. A `DenoiserField` is asked
through its own schedule alone: its roll, window and block, a DDIM step
and a Picard update (`VelocityField.check_schedule`) raise a ValueError
that names both schedules for another one. A `DenoiserField` reads the
terms that depend only on the weights and the time off read-only grids
over steps 1..N (`DenoiserField._step` and `DenoiserField._columns`),
which hold because a `Denoiser`'s weights are fixed when it is built.

A network call is one `tape.mlp`, so a recorded call is one node at any
depth; with watched weights the time bias is one more, a one-layer `mlp`.
With constant weights it makes no handles: the frozen arrays of `weights`
and the grid's time bias go to the primitive as they are, on VALUES and
on a Tape alike. A field's `f x + c net` is one `lincomb`, whose
coefficients at per-column steps are (B,) arrays, one per column.

A field runs the engines' calls by three methods, by default on VALUES or
a Tape and for a `DenoiserField` a numpy twin with the same bits, no node
made and the Tape's node count:

  roll      a value-only roll, by default `ddim_step_var` on VALUES per
            step. A `DenoiserField` runs its step loop: one step body, the
            numpy expressions of `_mlp` and `_lincomb`.
  window    an exact gradient's steps with the weights constant: their
            states and a pullback from the bottom state's cotangent to every
            state's adjoint. A `DenoiserField` runs the roll's loop, keeping
            each step's arrays as `_mlp` saves them, then the tape's rules
            (`_mlp_pullback`, `_vjp_lincomb`'s expressions) in its order.
  block     one call on states at per-column steps and its pullback to the
            weights and, when asked, to the states. A `DenoiserField` runs
            the network's call as `Denoiser.vjp`, then the field's glue.

`Denoiser.vjp` is the one numpy twin of a network call with watched
weights: the tape's forward arrays and rules (`_mlp`, `_mlp_pullback`,
`_fold_biases`) for its two nodes. `DenoiserField.block` and training's
`dsm_gradient` both run it; `dsm_loss_var` on a Tape is their reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .data import Dataset2D
from .optim import AdamState, adam_step, flatten, unflatten
from .schedule import Schedule
from .seeding import stream_rng
from .tape import (VALUES, ShapeError, Tape, Values, Var, _fold_biases, _freeze, _lincomb,
                   _mlp, _mlp_pullback, _sqnorm)

TIME_FEATURES = 3
T_MIN = 1e-3  # score matching draws its times from U(T_MIN, 1)

PARAMETERIZATIONS = ("epsilon", "velocity")


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


def weight_shapes(data_dim: int, hidden: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Shapes of the denoiser weights [W1x, W1t, b1, W2, b2, ..., Wout, bout]."""
    shapes = [(hidden[0], data_dim), (hidden[0], TIME_FEATURES), (hidden[0],)]
    for prev, cur in zip(hidden, [*hidden[1:], data_dim]):
        shapes += [(cur, prev), (cur,)]
    return shapes


@dataclass(frozen=True)
class Denoiser:
    """Tanh MLP, either noise-predicting ("epsilon") or direct-velocity.
    Its weights are fixed when it is built: a new network is a new
    Denoiser (`with_flat`). A layout other than `weight_shapes(data_dim,
    hidden)`, or no hidden layer, is a ShapeError when it is built."""

    data_dim: int
    hidden: tuple[int, ...]
    parameterization: str
    weights: tuple[np.ndarray, ...]  # (W1x, W1t, b1, W2, b2, ..., Wout, bout)

    def __post_init__(self):
        # read-only copies (an array already read-only is kept) let the tape
        # share them without defensive copies, and leave the caller's alone
        object.__setattr__(self, "weights", tuple(_freeze(w) for w in self.weights))
        shapes = [w.shape for w in self.weights]
        if not self.hidden or shapes != weight_shapes(self.data_dim, self.hidden):
            raise ShapeError(f"weights {shapes} do not fit data_dim {self.data_dim}, "
                             f"hidden {self.hidden}")

    def __reduce__(self):
        # a copy or an unpickled Denoiser is built anew, so its weights are
        # frozen again (pickling drops an array's read-only flag)
        return Denoiser, (self.data_dim, self.hidden, self.parameterization, self.weights)

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

    def flatten(self) -> np.ndarray:
        return flatten(self.weights)

    def with_flat(self, vec: np.ndarray) -> "Denoiser":
        vec = np.asarray(vec, dtype=np.float64)
        size = sum(w.size for w in self.weights)
        if vec.size != size:
            raise ValueError(f"parameter vector has {vec.size} entries, "
                             f"expected {size}")
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
        time bias is `bias` when given (a `DenoiserField` passes its grid's)
        and is computed otherwise; with watched theta it is recorded, so its
        gradient reaches W1t and b1."""
        if theta is None:
            theta = self.weights
            if bias is None:
                bias = VALUES.mlp(time_features(t), theta[1:3])
        else:
            bias = tape.mlp(tape.constant(time_features(t)), theta[1:3])
        # the first bias is (h,) at one time, (h, B) at per-column times
        return tape.mlp(x, [theta[0], bias, *theta[3:]])

    def vjp(self, x: np.ndarray, t):
        """(out, pullback) of `build` with watched weights, with the Tape's
        bits and no tape: the numpy twin of its two nodes. Forward, the time
        bias `_mlp` of the time features, then the network's `_mlp`, both
        saving their arrays. pullback(g, states=False), for g the output's
        cotangent, returns (x's cotangent, None unless `states`, and the
        cotangents of `weights`): `_mlp_pullback` with the weights live and
        its biases folded, then the time bias's. x is C-ordered, as a
        Tape's leaf is. `DenoiserField.block` and `dsm_gradient` run it."""
        w1x, w1t, b1, *rest = self.weights
        features, saved_bias, saved = time_features(t), [], []
        ws = [w1x, _mlp(features, [w1t, b1], saved_bias), *rest]
        out = _mlp(x, ws, saved)

        def pullback(g, states=False):
            grads = _fold_biases(_mlp_pullback(saved, [states] + [True] * len(ws), g),
                                 [x, *ws])
            bias = _fold_biases(_mlp_pullback(saved_bias, [False, True, True], grads[2]),
                                [features, w1t, b1])
            return grads[0], [grads[1], *bias[1:], *grads[3:]]

        return out, pullback


class VelocityField:
    """A velocity u(x, t_n) expressible in tape primitives.

    x is one state (d,) or a block (d, B) of states, one per column; n is
    one step index 1..N of the field's schedule, or for a block an int
    array of per-column steps. The result has the shape of x. `theta=None`
    treats parameters as constants (no parameter gradients); passing
    watched Vars makes the build parameter-differentiable.
    """

    dim: int

    def params(self) -> list[np.ndarray]:
        raise NotImplementedError

    def with_params(self, arrays: list[np.ndarray]) -> "VelocityField":
        raise NotImplementedError

    def build(self, tape: Tape, x: Var, n,
              theta: list[Var] | None = None) -> Var:
        raise NotImplementedError

    def value(self, x: np.ndarray, n) -> np.ndarray:
        """u(x, t_n) as an array, the same build run on VALUES; it checks no schedule."""
        return self.build(VALUES, VALUES.constant(x), n)

    def check_schedule(self, schedule: Schedule) -> None:
        """Raise a ValueError unless the field may be asked through
        `schedule`; by default any schedule will do."""

    def roll(self, schedule: Schedule, v: np.ndarray, n_from: int,
             n_to: int) -> list[np.ndarray]:
        """The states after each DDIM step from step n_from down to n_to, for
        v one state (d,) or a block (d, B): `ddim_step_var` on VALUES."""
        states = []
        for n in range(n_from, n_to, -1):
            v = ddim_step_var(VALUES, self, schedule, v, n)
            states.append(v)
        return states

    def window(self, schedule: Schedule, v: np.ndarray, n_from: int, n_to: int):
        """(states, pullback) of the DDIM steps from step n_from down to n_to
        with the weights constant, for v one state (d,) or a block (d, B):
        states[j] is x_{n_from - j}, from v itself to x_{n_to}. pullback(g),
        for g the cotangent of x_{n_to} (the window's bottom), returns
        (adjoints, nodes): adjoints[j] is the adjoint of states[j], and
        nodes counts the tape's nodes, the steps' and the 2 of the seed
        sum(x_{n_to} * g). By default each step is `ddim_step_var` on a
        Tape and the pullback is one `Tape.backward` that keeps every
        state."""
        tape = Tape()
        xs = [tape.variable(v)]
        for n in range(n_from, n_to, -1):
            xs.append(ddim_step_var(tape, self, schedule, xs[-1], n))

        def pullback(g):
            adjoints = tape.backward(tape.sum(tape.mul(xs[-1], tape.constant(g))),
                                     keep=tuple(xs))
            return [adjoints[x] for x in xs], tape.node_count()

        return [x.value for x in xs], pullback

    def block(self, schedule: Schedule, states: np.ndarray, steps):
        """(u, pullback, nodes) of one call on `states`, one state (d,) or a
        block (d, C), at one step or at C per-column `steps`. pullback(g,
        states=False), for g the cotangent of u, returns (the states'
        cotangent, None unless `states`, and the cotangents of `params()`).
        nodes counts the call's, with the states and weights watched; the
        pullback's seed sum(u * g) adds 2. By default it is `build` on a
        Tape."""
        self.check_schedule(schedule)
        tape = Tape()
        x = tape.variable(states)
        theta = [tape.variable(p) for p in self.params()]
        u = self.build(tape, x, schedule.steps(steps, "step index n"), theta)

        def pullback(g, states=False):
            grads = tape.backward(tape.sum(tape.mul(u, tape.constant(g))))
            return grads[x] if states else None, [grads[v] for v in theta]

        return u.value, pullback, tape.node_count()


def ddim_step_var(tape: Tape | Values, field: VelocityField, schedule: Schedule,
                  x: Var | np.ndarray, n) -> Var | np.ndarray:
    """x_{n-1} = x_n - (1/N) u(x_n, n/N) on a tape, or on VALUES for a
    value-only step, with the weights constant. n is one step index, or for
    a (d, C) block x an int array of C per-column step indices. The field
    must take `schedule` (`VelocityField.check_schedule`)."""
    field.check_schedule(schedule)
    u = field.build(tape, x, schedule.steps(n, "step index n"))
    return tape.lincomb(x, 1.0, u, schedule.step_coeff)


class DenoiserField(VelocityField):
    """PF-ODE velocity induced by a denoiser and a schedule.

    For the noise-predicting network: u = f(t) x + g^2(t)/(2 sigma_t) eps(x, t).
    For a velocity-parameterized network the output is used directly. On
    the value path the time bias comes from the field's read-only grids:
    at one step its entry of `_steps`, a gemv, and at per-column steps
    columns of `_columns`, a gemm. The two differ in their last bits, and
    each keeps the bits it has always had. The field's denoiser and
    schedule are read-only properties, so the grids built from them hold
    for the field's life.
    """

    def __init__(self, denoiser: Denoiser, schedule: Schedule):
        self._denoiser = denoiser
        self._schedule = schedule
        self.dim = denoiser.data_dim
        self._steps = [None] * schedule.n_steps  # entry n-1: step n's terms, by `_step`

    @property
    def denoiser(self) -> Denoiser:
        """The network, read-only: the grids are built from it."""
        return self._denoiser

    @property
    def schedule(self) -> Schedule:
        """The schedule, read-only: the grids are built from it."""
        return self._schedule

    def params(self) -> list[np.ndarray]:
        return list(self.denoiser.weights)

    def with_params(self, arrays):
        d = self.denoiser
        return DenoiserField(Denoiser(d.data_dim, d.hidden, d.parameterization, arrays),
                             self.schedule)

    @cached_property
    def _columns(self) -> np.ndarray:
        """The (h, N) time biases W1t tf(t_n) + b1 of one gemm over the N
        times, for per-column steps, built on first use."""
        bias = VALUES.mlp(time_features(self.schedule.times[1:]), self.denoiser.weights[1:3])
        bias.flags.writeable = False
        return bias

    def _step(self, i: int) -> tuple:
        """Entry i of `_steps`, made: step i+1's (bias, f, c), its bias of
        one gemv, and f and c as 0-d arrays, which numpy multiplies by
        sooner than by floats (None for a velocity network)."""
        bias = VALUES.mlp(time_features(self.schedule.times[i + 1]),
                          self.denoiser.weights[1:3])
        bias.flags.writeable = False
        f = c = None
        if self.denoiser.parameterization == "epsilon":
            f, c = self.schedule.velocity_coeffs
            f, c = f[i, ...], c[i, ...]
        self._steps[i] = bias, f, c
        return self._steps[i]

    def build(self, tape, x, n, theta=None):
        """A step reads its entry of the step grid. Per-column steps read
        (C,) arrays f and c and, with constant weights, C-ordered columns of
        the gemm grid, as the mlp's product is; the schedule's `every_step`
        reads the whole grids, unchecked and uncopied. Watched weights read
        no gemm grid: their time bias is recorded from the times."""
        sched, eps = self.schedule, self.denoiser.parameterization == "epsilon"
        if not isinstance(n, np.ndarray):
            i = sched.steps(n, "step n") - 1
            bias, f, c = self._steps[i] or self._step(i)
        else:
            whole = n is sched.every_step
            i = slice(None) if whole else sched.steps(n, "step n") - 1
            f, c = (g[i] for g in sched.velocity_coeffs) if eps else (None, None)
            bias = None
            if theta is None:
                bias = self._columns if whole else self._columns.take(i, axis=1)
        net = self.denoiser.build(tape, x, None if theta is None else sched.times[n], theta,
                                  bias=bias)
        return tape.lincomb(x, f, net, c) if eps else net

    def check_schedule(self, schedule):
        """The grids and the step coefficient hold for the field's own
        schedule alone: another one is a ValueError that names both."""
        if schedule is not self._schedule and schedule != self._schedule:
            raise ValueError(f"a field built on {self._schedule} was asked "
                             f"through {schedule}")

    def _loop(self, schedule, v, n_from, n_to, saves=None):
        """The states of the DDIM steps from step n_from down to n_to of v,
        one state (d,) or a block (d, B): entry j is x_{n_from-1-j}.
        `saves`, when a list, receives each step's arrays as `_mlp` saves
        them, each layer's weight and input. Every step runs the numpy
        expressions of `_mlp` and `_lincomb` on its entry of `_steps`, which
        it fills, and gives `ddim_step_var`'s bits. A roll that takes a step
        checks the state's shape once; the weights' layout holds unchecked,
        as `Denoiser` checked it when it was built."""
        self.check_schedule(schedule)
        if not 0 <= n_to <= n_from <= schedule.n_steps:
            raise ValueError(f"steps from {n_from} down to {n_to} are outside "
                             f"0..{schedule.n_steps}")
        if n_from == n_to:
            return []
        if v.ndim not in (1, 2) or len(v) != self.dim:
            raise ShapeError(f"state {v.shape} is not ({self.dim},) or ({self.dim}, B)")
        w1x, _, _, *rest = self.denoiser.weights
        s, eps = schedule.step_coeff, self.denoiser.parameterization == "epsilon"
        col = (slice(None), None) if v.ndim == 2 else slice(None)  # b[col] is _mlp's bias
        layers = [(w, b[col]) for w, b in zip(rest[::2], rest[1::2])]
        w_out, b_out = layers.pop()
        states, steps = [], self._steps
        for i in range(n_from - 1, n_to - 1, -1):  # steps n_from .. n_to + 1
            bias, f, c = steps[i] or self._step(i)
            if saves is not None:
                saved = [w1x, v]
                saves.append(saved)
            h = w1x.dot(v)
            h += bias[col]
            np.tanh(h, h)
            for w, b in layers:
                if saves is not None:
                    saved += (w, h)
                h = w.dot(h)
                h += b
                np.tanh(h, h)
            if saves is not None:
                saved += (w_out, h)
            net = w_out.dot(h)
            net += b_out
            v = v + s * (f * v + c * net) if eps else v + s * net
            states.append(v)
        return states

    def roll(self, schedule, v, n_from, n_to):
        """`VelocityField.roll` bit for bit, in the field's step loop."""
        return self._loop(schedule, v, n_from, n_to)

    def window(self, schedule, v, n_from, n_to):
        """`VelocityField.window` bit for bit, with no tape: its numpy reverse
        twin. The forward loop is the roll's, keeping each step's saved
        arrays. The pullback runs the tape's rules for the same nodes, in
        the tape's order: per step from the bottom, with s the step's
        coefficient and f, c its `_steps` entry, x_n's adjoint is
        (g + f·(s·g)) + W1xᵀ(…), the last term `_mlp_pullback` of c·(s·g)
        (of s·g, and no f term, for a velocity network). Its node count is
        the tape's for the same window: 3 per step of a noise-predicting
        network (an `mlp` and two `lincomb`s), 2 per step of a velocity
        network, and the 2 seed nodes."""
        v = VALUES.constant(v)  # C-ordered, as a Tape's variable holds it
        saves = []
        states = [v, *self._loop(schedule, v, n_from, n_to, saves)]
        s, eps = schedule.step_coeff, self.denoiser.parameterization == "epsilon"
        live = [True] + [False] * (len(self.denoiser.weights) - 1)  # x alone

        def pullback(g):
            if g.shape != states[-1].shape:
                raise ShapeError(f"window: cotangent {g.shape} does not match "
                                 f"the bottom state {states[-1].shape}")
            adjoints = [g]
            for saved, (_, f, c) in zip(saves[::-1], self._steps[n_to:n_from]):
                gu = s * g
                if eps:
                    g, gu = g + f * gu, c * gu
                g = g + _mlp_pullback(saved, live, gu)[0]
                adjoints.append(g)
            return adjoints[::-1], (3 if eps else 2) * len(saves) + 2

        return states, pullback

    def block(self, schedule, states, steps):
        """`VelocityField.block` bit for bit, with no tape: the network's
        call is `Denoiser.vjp` at the steps' times (its time bias recorded
        from the times, as with watched weights, not read off a grid), then
        the field's `_lincomb`. Reverse, the network's cotangent is c·g (g
        for a velocity network) and goes through the call's pullback; the
        states' cotangent, formed only when asked, is f·g plus the
        network's, in the tape's order. states and g are C-ordered first, as
        a Tape's leaves are. Its node count is the tape's: 3 for a
        noise-predicting network (the time bias, the `mlp` and the
        `lincomb`), 2 for a velocity network."""
        self.check_schedule(schedule)
        schedule.steps(steps, "step index n")
        x = VALUES.constant(states)
        eps = self.denoiser.parameterization == "epsilon"
        u, net_pullback = self.denoiser.vjp(x, schedule.times[steps])
        if eps:
            f, c = (coeffs[steps - 1] for coeffs in schedule.velocity_coeffs)
            u = _lincomb(x, f, u, c)

        def pullback(g, states=False):
            g = VALUES.constant(g)
            if g.shape != u.shape:
                raise ShapeError(f"block: cotangent {g.shape} does not match "
                                 f"the velocity {u.shape}")
            gx, grads = net_pullback(c * g if eps else g, states)
            return f * g + gx if states and eps else gx, grads  # gx None unless states

        return u, pullback, 3 if eps else 2


class ZeroField(VelocityField):
    """u == 0: sampling is the identity map."""

    def __init__(self, dim: int = 2):
        self.dim = dim

    def params(self):
        return []

    def with_params(self, arrays):
        return self

    def build(self, tape, x, n, theta=None):
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

    def build(self, tape, x, n, theta=None):
        a = theta[0] if theta is not None else tape.constant(self.gain)
        return tape.mul(a, x)


def velocity(denoiser: Denoiser, schedule: Schedule, x: np.ndarray, t: float) -> np.ndarray:
    """PF-ODE velocity at (x, t) for any t, by the Schedule's scalar methods.
    Rejects t=0 for noise-predicting networks."""
    x = VALUES.constant(x)
    if not np.all(np.isfinite(x)):
        raise ValueError("velocity: state contains non-finite entries")
    if denoiser.parameterization == "velocity":
        return denoiser.build(VALUES, x, t)
    f, c = schedule.drift_coeffs(t)[0], schedule.score_scale(t)
    return VALUES.lincomb(x, f, denoiser.build(VALUES, x, t), c)


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


def _dsm_rows(denoiser: Denoiser, schedule: Schedule, x0, ts, eps):
    """(noised rows, regression targets, times) of the draws (ts, eps) on
    the batch x0: two (B, d) arrays from the schedule terms of the (B,)
    times, and the times as float64."""
    x0 = np.atleast_2d(np.asarray(x0, dtype=np.float64))
    ts = np.asarray(ts, dtype=np.float64)
    alpha, sigma = schedule.alpha_sigma(ts)
    xt = alpha[:, None] * x0 + sigma[:, None] * eps
    if denoiser.parameterization == "epsilon":
        return xt, eps, ts
    da, ds = kernel_rates(schedule, ts)
    return xt, da[:, None] * x0 + ds[:, None] * eps, ts


def dsm_loss_var(tape: Tape, denoiser: Denoiser, schedule: Schedule,
                 x0: np.ndarray, ts: np.ndarray, eps: np.ndarray,
                 theta: list[Var] | None = None) -> Var:
    """Batch score-matching loss as a tape scalar for fixed draws (ts, eps):
    the schedule terms of the (B,) times as arrays, one network call on the
    (d, B) block of noised rows, one time per column, and one squared norm
    over the block. With watched theta it is the reference that
    `dsm_gradient` matches bit for bit."""
    xt, target, ts = _dsm_rows(denoiser, schedule, x0, ts, eps)
    pred = denoiser.build(tape, tape.constant(xt.T), ts, theta)
    err = tape.sqnorm(tape.sub(pred, tape.constant(target.T)))
    return tape.scale(err, 1.0 / xt.shape[0])


def dsm_gradient(denoiser: Denoiser, schedule: Schedule, x0: np.ndarray,
                 ts: np.ndarray, eps: np.ndarray) -> tuple[np.float64, list[np.ndarray]]:
    """(loss, the cotangents of the denoiser's weights) of `dsm_loss_var`
    with watched weights, with the Tape's bits and no tape: the network's
    call is `Denoiser.vjp` on a C-ordered copy of the noised block, as
    `Tape.constant` makes it, and its cotangent is sqnorm's and scale's
    rules, (2·(1/B))·err."""
    xt, target, ts = _dsm_rows(denoiser, schedule, x0, ts, eps)
    pred, pullback = denoiser.vjp(np.array(xt.T, order="C"), ts)
    err = pred - VALUES.constant(target.T)
    scale = 1.0 / xt.shape[0]
    return scale * _sqnorm(err), pullback((2.0 * scale) * err)[1]


def dsm_loss(denoiser: Denoiser, schedule: Schedule, x0: np.ndarray,
             rng: np.random.Generator) -> float:
    """Noise-prediction loss on one batch with fresh (t, eps) draws."""
    x0 = np.atleast_2d(np.asarray(x0, dtype=np.float64))
    if x0.shape[0] == 0:
        raise ValueError("dsm_loss: batch is empty")
    ts = rng.uniform(T_MIN, 1.0, size=x0.shape[0])
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
    t_min: float = T_MIN
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
    """Train by denoising score matching; deterministic given cfg.seed. Each
    step's gradient is `dsm_gradient`'s, which records no tape."""
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

        loss, grads = dsm_gradient(denoiser, cfg.schedule, points[idx], ts, eps)
        value = float(loss)
        if not math.isfinite(value):
            raise DivergenceError(f"training diverged at step {step}: loss={value}")
        losses.append(value)

        flat = adam_step(adam, flat, flatten(grads))
        denoiser = denoiser.with_flat(flat)
    return denoiser, losses
