"""Reverse-mode autodiff over dense float64 arrays with a recording switch.

The tape records one node per primitive application. A node is the `Var`
of its result, which also holds the op, the parents and the arrays saved
for the backward pass, so recording makes one object per node. Recording
can be paused; ops computed while paused return constant leaves whose
values are bit-identical to the recorded path. Tests pause it to record
part of a reference computation, and the benchmark's finite differences
run on a tape that does not record. `node_count` is the benchmark's memory
proxy.

`Values` (shared as `VALUES`) presents the same primitives over plain
float64 arrays, with the same checks and numpy expressions and without
handles, nodes or copies. Code written once against the tape interface
(the network, the objectives, the DDIM step) evaluates values through it.
"""

from __future__ import annotations

import operator
from contextlib import contextmanager, nullcontext

import numpy as np


class ShapeError(ValueError):
    """Raised when operand shapes do not conform to a primitive's rule."""


PRIMITIVES = (
    "add", "sub", "scale", "lincomb", "mul", "affine",
    "tanh", "sum", "sqnorm", "clamp", "exp", "log",
)

_F64 = np.dtype(np.float64)


def _freeze(value) -> np.ndarray:
    # C order as on VALUES: np.dot of an F-ordered w can differ in the last bits
    if (isinstance(value, np.ndarray) and value.dtype == np.float64
            and not value.flags.writeable and value.flags.c_contiguous):
        return value  # already immutable; sharing it is safe
    arr = np.array(value, dtype=np.float64, copy=True, order="C")
    arr.flags.writeable = False
    return arr


class Var:
    """Handle to a value on a tape. Valid only for the tape that issued it.

    It holds the tape's private key rather than the tape, so a tape's nodes
    never point back at the tape and a dropped tape is freed at once,
    without waiting for the cycle collector. A recorded result is its own
    node: `op`, `parents` and `saved` are what the backward pass reads.
    Vars hash by identity, and the backward pass keys cotangents by them.
    """

    __slots__ = ("key", "value", "live", "op", "parents", "saved")

    def __init__(self, key: object, value: np.ndarray, live: bool,
                 op: str | None = None, parents: tuple = (), saved: tuple = ()):
        self.key = key
        self.value = value
        self.live = live
        self.op = op
        self.parents = parents
        self.saved = saved

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    @property
    def out(self) -> "Var":
        """The node's output, which is the node itself (the benchmark's
        tracer reads `node.out.value` of each entry of `Tape.nodes`)."""
        return self

    def __repr__(self):
        return f"Var(shape={self.shape}, live={self.live})"


class Tape:
    """Single-writer recording tape. Use one tape per concurrent worker."""

    def __init__(self, recording: bool = True):
        self._key = object()  # identifies this tape's Vars
        self.nodes: list[Var] = []
        self.recording = recording
        self.watched: list[Var] = []

    # ---------------------------------------------------------------- leaves

    def constant(self, value) -> Var:
        return Var(self._key, _freeze(value), False)

    def variable(self, value) -> Var:
        """Watched leaf: backward() reports a gradient for it."""
        v = Var(self._key, _freeze(value), True)
        self.watched.append(v)
        return v

    def node_count(self) -> int:
        return len(self.nodes)

    @contextmanager
    def paused(self):
        """Disable recording inside the block (values are unaffected)."""
        prev = self.recording
        self.recording = False
        try:
            yield self
        finally:
            self.recording = prev

    # ------------------------------------------------------------- recording

    def _own(self, *vars_: Var, op: str):
        for v in vars_:
            if not isinstance(v, Var):
                raise TypeError(f"{op}: expected Var, got {type(v).__name__}")
            if v.key is not self._key:
                raise ValueError(f"{op}: operand belongs to a different tape")

    def _emit(self, op: str, value, parents: tuple[Var, ...], saved: tuple) -> Var:
        # op results are freshly allocated by numpy; freeze without copying
        if type(value) is not np.ndarray or value.dtype is not _F64:
            value = np.asarray(value, dtype=np.float64)
        value.setflags(write=False)
        if self.recording:
            for p in parents:
                if p.live:
                    out = Var(self._key, value, True, op, parents, saved)
                    self.nodes.append(out)
                    return out
        return Var(self._key, value, False)

    # ------------------------------------------------------------ primitives
    # Each first tests that every operand's key is this tape's (a non-Var has
    # no key) and calls `_own` only to raise its error, before computing.

    def add(self, a: Var, b: Var) -> Var:
        k = self._key
        if getattr(a, "key", None) is not k or getattr(b, "key", None) is not k:
            self._own(a, b, op="add")
        return self._emit("add", _add(a.value, b.value), (a, b), ())

    def sub(self, a: Var, b: Var) -> Var:
        k = self._key
        if getattr(a, "key", None) is not k or getattr(b, "key", None) is not k:
            self._own(a, b, op="sub")
        return self._emit("sub", _sub(a.value, b.value), (a, b), ())

    def scale(self, a: Var, c: float) -> Var:
        if getattr(a, "key", None) is not self._key:
            self._own(a, op="scale")
        return self._emit("scale", _scale(a.value, c), (a,), (float(c),))

    def lincomb(self, a: Var, ca: float, b: Var, cb: float) -> Var:
        """ca a + cb b for scalar coefficients and operands of one shape; at
        ca = 1 it adds a itself. A DDIM step's glue is two of these."""
        k = self._key
        if getattr(a, "key", None) is not k or getattr(b, "key", None) is not k:
            self._own(a, b, op="lincomb")
        ca, cb = float(ca), float(cb)
        return self._emit("lincomb", _lincomb(a.value, ca, b.value, cb), (a, b), (ca, cb))

    def mul(self, a: Var, b: Var) -> Var:
        """Elementwise product; one operand may be scalar-shaped."""
        k = self._key
        if getattr(a, "key", None) is not k or getattr(b, "key", None) is not k:
            self._own(a, b, op="mul")
        return self._emit("mul", _mul(a.value, b.value), (a, b), (a.value, b.value))

    def affine(self, w: Var, x: Var, b: Var) -> Var:
        """w @ x + b for w (m,k) and x (k,) or (k,n). b has the product's
        shape, or is (m,) and is added to every column of a (k,n) x."""
        k = self._key
        if (getattr(w, "key", None) is not k or getattr(x, "key", None) is not k
                or getattr(b, "key", None) is not k):
            self._own(w, x, b, op="affine")
        return self._emit("affine", _affine(w.value, x.value, b.value), (w, x, b),
                          (w.value, x.value, b.value.shape))

    def tanh(self, a: Var) -> Var:
        if getattr(a, "key", None) is not self._key:
            self._own(a, op="tanh")
        y = np.tanh(a.value)
        return self._emit("tanh", y, (a,), (y,))

    def sum(self, a: Var) -> Var:
        if getattr(a, "key", None) is not self._key:
            self._own(a, op="sum")
        return self._emit("sum", np.sum(a.value), (a,), (a.value.shape,))

    def sqnorm(self, a: Var) -> Var:
        """Sum of squared entries (scalar)."""
        if getattr(a, "key", None) is not self._key:
            self._own(a, op="sqnorm")
        return self._emit("sqnorm", _sqnorm(a.value), (a,), (a.value,))

    def clamp(self, a: Var, lo: float, hi: float) -> Var:
        if getattr(a, "key", None) is not self._key:
            self._own(a, op="clamp")
        y = _clamp(a.value, lo, hi)
        mask = (a.value > lo) & (a.value < hi)  # zero subgradient on boundary
        return self._emit("clamp", y, (a,), (mask.astype(np.float64),))

    def exp(self, a: Var) -> Var:
        if getattr(a, "key", None) is not self._key:
            self._own(a, op="exp")
        y = np.exp(a.value)
        return self._emit("exp", y, (a,), (y,))

    def log(self, a: Var) -> Var:
        if getattr(a, "key", None) is not self._key:
            self._own(a, op="log")
        return self._emit("log", _log(a.value), (a,), (a.value,))

    # -------------------------------------------------------------- backward

    def backward(self, output: Var, keep: tuple[Var, ...] = ()) -> dict[Var, np.ndarray]:
        """Reverse accumulation from a scalar output to every watched leaf
        and to each intermediate Var in `keep`, whose cotangent is reported
        as it stands once its node has been passed."""
        self._own(output, *keep, op="backward")
        if output.shape != ():
            raise ShapeError(f"backward: output must be scalar-shaped, "
                             f"got shape {output.shape}")
        grads: dict[Var, np.ndarray] = {output: np.asarray(1.0)}
        kept = set(keep)
        for node in reversed(self.nodes):
            g = grads.get(node) if node in kept else grads.pop(node, None)
            if g is None:
                continue
            for parent, pg in zip(node.parents, _VJP[node.op](node, g)):
                if pg is None:  # the rules give none for a constant operand
                    continue
                if parent in grads:
                    grads[parent] = grads[parent] + pg
                elif type(pg) is np.ndarray and pg.dtype is _F64:
                    grads[parent] = pg
                else:
                    grads[parent] = np.asarray(pg, dtype=np.float64)
        return {w: np.asarray(grads.get(w, np.zeros(w.shape)), dtype=np.float64)
                for w in (*self.watched, *keep)}


# Forward rules, one per primitive, over plain arrays: the shape and domain
# checks and the numpy expression that Tape and Values share.

def _add(a, b):
    if a.shape != b.shape:
        raise ShapeError(f"add: shapes {a.shape} and {b.shape} differ")
    return a + b


def _sub(a, b):
    if a.shape != b.shape:
        raise ShapeError(f"sub: shapes {a.shape} and {b.shape} differ")
    return a - b


def _scale(a, c):
    return float(c) * a


def _lincomb(a, ca, b, cb):
    if a.shape != b.shape:
        raise ShapeError(f"lincomb: shapes {a.shape} and {b.shape} differ")
    ca, cb = float(ca), float(cb)
    return (a if ca == 1.0 else ca * a) + cb * b


def _mul(a, b):
    if a.shape != b.shape and a.shape != () and b.shape != ():
        raise ShapeError(f"mul: shapes {a.shape} and {b.shape} are not "
                         "equal and neither is scalar")
    return a * b


def _affine(w, x, b):
    """w x + b. `np.dot` makes the same BLAS call as `@` on these 1-D and
    2-D float64 operands, with the same bits (tests/test_tape.py checks C-,
    F-ordered and transposed operands), at less fixed cost per call: on a
    2-core Xeon with numpy 2.4.6, 1.27 against 1.66 us for (64, 2) @ (2,)."""
    if w.ndim != 2 or x.ndim not in (1, 2) or w.shape[1] != x.shape[0]:
        raise ShapeError(f"affine: bad w @ x shapes: {w.shape} @ {x.shape}")
    y = np.dot(w, x)
    if b.shape == y.shape:
        return y + b
    if b.shape == y.shape[:1]:
        return y + b[:, None]
    raise ShapeError(f"affine: bias shape {b.shape} matches neither the "
                     f"product shape {y.shape} nor its rows")


def _clamp(a, lo, hi):
    lo, hi = float(lo), float(hi)
    if not lo <= hi:
        raise ValueError(f"clamp: lo={lo} > hi={hi}")
    return np.clip(a, lo, hi)


def _log(a):
    if np.any(a <= 0.0):
        raise ValueError("log: requires strictly positive entries")
    return np.log(a)


def _sqnorm(a):
    return np.sum(a * a)


class Values:
    """The Tape interface over plain float64 arrays, for value-only passes.

    Operands and results are arrays (or numpy scalars), not Vars. Each
    primitive runs the same checks and the same numpy expression as on a
    Tape, so every value is bit-identical to the recorded path; nothing is
    recorded, frozen or copied. Use the shared instance `VALUES`.
    """

    nodes = ()
    recording = False

    @staticmethod
    def constant(value) -> np.ndarray:
        return np.asarray(value, dtype=np.float64, order="C")

    @staticmethod
    def node_count() -> int:
        return 0

    def paused(self):
        return nullcontext(self)

    add = staticmethod(_add)
    sub = staticmethod(_sub)
    scale = staticmethod(_scale)
    lincomb = staticmethod(_lincomb)
    mul = staticmethod(_mul)
    affine = staticmethod(_affine)
    tanh = staticmethod(np.tanh)
    sum = staticmethod(np.sum)
    sqnorm = staticmethod(_sqnorm)
    clamp = staticmethod(_clamp)
    exp = staticmethod(np.exp)
    log = staticmethod(_log)


VALUES = Values()


class ConstantMemo:
    """The constants of a list of arrays, such as a network's weights, made
    once per tape: `of(tape, arrays)`. On VALUES they are the arrays
    themselves, which must be C-ordered float64 (`VALUES.constant(a) is a`).
    On a Tape they are made anew only for another tape or when an array in
    the list is replaced by another object. The memo holds the tape's key,
    never the tape, so a finished tape is freed at once.
    """

    __slots__ = ("_entry",)

    def __init__(self):
        self._entry = (None, (), [])  # (tape key, arrays, their constants)

    def of(self, tape, arrays):
        if tape is VALUES:
            return arrays
        key, held, constants = self._entry
        if (key is not tape._key or len(arrays) != len(held)
                or not all(map(operator.is_, arrays, held))):
            constants = [tape.constant(a) for a in arrays]
            self._entry = (tape._key, tuple(arrays), constants)
        return constants


# Backward rules, one per primitive: (node, grad_out) -> per-parent grads,
# None for a parent that is not live. A unary node always has a live parent.

def _vjp_add(node, g):
    a, b = node.parents
    return g if a.live else None, g if b.live else None


def _vjp_sub(node, g):
    a, b = node.parents
    return g if a.live else None, -g if b.live else None


def _vjp_scale(node, g):
    (c,) = node.saved
    return (c * g,)


def _vjp_lincomb(node, g):
    ca, cb = node.saved
    a, b = node.parents
    return ((g if ca == 1.0 else ca * g) if a.live else None,
            cb * g if b.live else None)


def _vjp_mul(node, g):
    a, b = node.saved
    pa, pb = node.parents
    ga = g * b if pa.live else None
    gb = g * a if pb.live else None
    if ga is not None and a.shape == () and ga.shape != ():
        ga = np.sum(ga)
    if gb is not None and b.shape == () and gb.shape != ():
        gb = np.sum(gb)
    return ga, gb


def _vjp_affine(node, g):
    """g x^T and w^T g by `np.dot`, bit-identical to `@` as in `_affine`."""
    w, x, b_shape = node.saved
    pw, px, pb = node.parents
    gw = (np.outer(g, x) if x.ndim == 1 else np.dot(g, x.T)) if pw.live else None
    gb = (g if b_shape == g.shape else np.sum(g, axis=1)) if pb.live else None
    return gw, np.dot(w.T, g) if px.live else None, gb


def _vjp_tanh(node, g):
    (y,) = node.saved
    return (g * (1.0 - y * y),)


def _vjp_sum(node, g):
    (shape,) = node.saved
    return (g * np.ones(shape),)


def _vjp_sqnorm(node, g):
    (a,) = node.saved
    return (2.0 * g * a,)


def _vjp_clamp(node, g):
    (mask,) = node.saved
    return (g * mask,)


def _vjp_exp(node, g):
    (y,) = node.saved
    return (g * y,)


def _vjp_log(node, g):
    (a,) = node.saved
    return (g / a,)


_VJP = {
    "add": _vjp_add,
    "sub": _vjp_sub,
    "scale": _vjp_scale,
    "lincomb": _vjp_lincomb,
    "mul": _vjp_mul,
    "affine": _vjp_affine,
    "tanh": _vjp_tanh,
    "sum": _vjp_sum,
    "sqnorm": _vjp_sqnorm,
    "clamp": _vjp_clamp,
    "exp": _vjp_exp,
    "log": _vjp_log,
}
