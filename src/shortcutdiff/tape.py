"""Reverse-mode autodiff over dense float64 arrays.

The tape records one node per primitive application. A node is the `Var`
of its result, which also holds the op, the parents and the arrays saved
for the backward pass, so recording makes one object per node. Every
dense product is one primitive, `mlp`: a whole tanh MLP is one node, a
one-layer `mlp` is `w x + b`, and constant weights may be plain arrays,
so they make no handles. `lincomb` is a DDIM step's glue, with scalar or
per-column coefficients. A tape built with `recording=False` records no
node. `node_count` counts nodes, not the bytes they hold.

A tape serves the objectives without a numpy twin (a few nodes at any N)
and the references that numpy twins match bit for bit: `VelocityField`'s
default `window` and `block` for a `DenoiserField`'s twins,
`Objective.gradient` for the twins of the quadratic target, the RBF reward
and the classifier margin, and `model.dsm_loss_var` for
`model.dsm_gradient`, so DSM training records no tape.

`Values` (shared as `VALUES`) presents the same primitives over plain
float64 arrays, with the same checks and numpy expressions and without
handles, nodes or copies. Code written once against the tape interface
(the network, the objectives, the DDIM step) evaluates values through it.
"""

from __future__ import annotations

import numpy as np


class ShapeError(ValueError):
    """Raised when operand shapes do not conform to a primitive's rule."""


_F64 = np.dtype(np.float64)


def _freeze(value) -> np.ndarray:
    # C order as on VALUES: np.dot of an F-ordered w can differ in the last bits
    if type(value) is np.ndarray and value.dtype is _F64:
        flags = value.flags
        if not flags.writeable and flags.c_contiguous:
            return value  # already immutable; sharing it is safe
    arr = np.array(value, dtype=np.float64, copy=True, order="C")
    if arr.dtype is not _F64:  # an unpickled array keeps a float64 of its own
        arr = arr.view(_F64)
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

    # ------------------------------------------------------------- recording

    def _own(self, *vars_: Var, op: str):
        for v in vars_:
            if not isinstance(v, Var):
                raise TypeError(f"{op}: expected Var, got {type(v).__name__}")
            if v.key is not self._key:
                raise ValueError(f"{op}: operand belongs to a different tape")

    def _emit(self, op: str, value, parents: tuple[Var, ...], saved: tuple) -> Var:
        # op results are freshly allocated by numpy; freeze without copying
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
    # Each checks its operands with one `_own` call before it computes or
    # records anything. Objective graphs and the references record a few
    # nodes per call, so the check keeps no fast path.

    def add(self, a: Var, b: Var) -> Var:
        self._own(a, b, op="add")
        return self._emit("add", _add(a.value, b.value), (a, b), ())

    def sub(self, a: Var, b: Var) -> Var:
        self._own(a, b, op="sub")
        return self._emit("sub", _sub(a.value, b.value), (a, b), ())

    def scale(self, a: Var, c: float) -> Var:
        self._own(a, op="scale")
        return self._emit("scale", _scale(a.value, c), (a,), (float(c),))

    def lincomb(self, a: Var, ca: float, b: Var, cb: float) -> Var:
        """ca a + cb b for operands of one shape. A coefficient is a float
        or a 0-d array, or a (C,) array, one per column of (·, C) operands;
        each multiplies as given, also ca = 1, whose product is a bit for
        bit. A DDIM step's glue is two of these."""
        self._own(a, b, op="lincomb")
        return self._emit("lincomb", _lincomb(a.value, ca, b.value, cb), (a, b), (ca, cb))

    def mul(self, a: Var, b: Var) -> Var:
        """Elementwise product; one operand may be scalar-shaped."""
        self._own(a, b, op="mul")
        return self._emit("mul", _mul(a.value, b.value), (a, b), (a.value, b.value))

    def mlp(self, x: Var, ws: list) -> Var:
        """A tanh MLP as one node: `_mlp` of x and ws = [W1, b1, ..., WL, bL].
        x is a Var; each entry of ws is a Var or a plain array, taken as
        `constant` takes it, so constant weights make no handles. The node
        saves each layer's weight and input, (W1, x, W2, h1, ...)."""
        self._own(x, op="mlp")
        live, arrays = x.live, []
        for w in ws:
            if type(w) is np.ndarray:
                arrays.append(_freeze(w))
            else:
                self._own(w, op="mlp")
                arrays.append(w.value)
                live = live or w.live
        saved = []
        y = _mlp(x.value, arrays, saved)
        for h in (y, *saved[3::2]):  # the output and hidden activations, made here
            h.setflags(write=False)
        if live and self.recording:
            out = Var(self._key, y, True, "mlp", (x, *ws), tuple(saved))
            self.nodes.append(out)
            return out
        return Var(self._key, y, False)

    def tanh(self, a: Var) -> Var:
        self._own(a, op="tanh")
        y = np.tanh(a.value)
        return self._emit("tanh", y, (a,), (y,))

    def sum(self, a: Var) -> Var:
        self._own(a, op="sum")
        return self._emit("sum", np.sum(a.value), (a,), (a.value.shape,))

    def sqnorm(self, a: Var) -> Var:
        """Sum of squared entries (scalar)."""
        self._own(a, op="sqnorm")
        return self._emit("sqnorm", _sqnorm(a.value), (a,), (a.value,))

    def clamp(self, a: Var, lo: float, hi: float) -> Var:
        self._own(a, op="clamp")
        y = _clamp(a.value, lo, hi)
        mask = (a.value > lo) & (a.value < hi)  # zero subgradient on boundary
        return self._emit("clamp", y, (a,), (mask.astype(np.float64),))

    def exp(self, a: Var) -> Var:
        self._own(a, op="exp")
        y = np.exp(a.value)
        return self._emit("exp", y, (a,), (y,))

    def log(self, a: Var) -> Var:
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
        for node in reversed(self.nodes):
            g = grads.get(node)
            if g is None:
                continue
            for parent, pg in zip(node.parents, _VJP[node.op](node, g)):
                if pg is None:  # the rules give none for a constant operand
                    continue
                if parent in grads:
                    grads[parent] = grads[parent] + pg
                else:
                    grads[parent] = np.asarray(pg, dtype=np.float64)
        out = {}
        for w in (*self.watched, *keep):
            g = grads.get(w)
            out[w] = np.zeros(w.shape) if g is None else np.asarray(g, dtype=np.float64)
        return out


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
    shape = a.shape
    if shape != b.shape:
        raise ShapeError(f"lincomb: shapes {shape} and {b.shape} differ")
    try:
        y = ca * a + cb * b
        if y.shape == shape:
            return y
    except ValueError:  # coefficients that do not broadcast against the operands
        pass
    raise ShapeError(f"lincomb: coefficients of shapes {np.shape(ca)} and "
                     f"{np.shape(cb)} change the operands' shape {shape}")


def _mul(a, b):
    if a.shape != b.shape and a.shape != () and b.shape != ():
        raise ShapeError(f"mul: shapes {a.shape} and {b.shape} are not "
                         "equal and neither is scalar")
    return a * b


def _mlp(x, ws, saved=None):
    """tanh(... tanh(W1 x + b1) ...) with no tanh after the last layer, for
    ws = [W1, b1, ..., WL, bL] and x (k,) or (k, n); one layer is W1 x + b1.
    A bias is (h,), added to every column, or the product's shape, like b1
    at per-column times. `saved`, when given, receives each layer's weight
    and input.

    `w.dot(x)` makes the same BLAS call as `@` on these 1-D and 2-D float64
    operands, with the same bits (tests/test_tape.py checks C-, F-ordered
    and transposed operands), at less fixed cost per call: on a 2-core Xeon
    with numpy 2.4.6, 1.27 against 1.66 us for (64, 2) @ (2,). The method is
    `np.dot`'s C function without its `__array_function__` dispatch, which
    costs another 0.2 us. The checks read `ndim` and `len`, not `shape`,
    which builds a tuple on every access, and leave the inner dimension to
    `dot`."""
    if x.ndim not in (1, 2) or len(ws) < 2 or len(ws) % 2:
        raise ShapeError(f"mlp: needs a (k,) or (k, n) input and [W1, b1, ..., WL, bL], "
                         f"got {x.shape} and {len(ws)} arrays")
    columns = x.ndim == 2
    layers = iter(ws)
    left = len(ws) // 2
    for w, b in zip(layers, layers):
        if w.ndim != 2:
            raise ShapeError(f"mlp: weight {w.shape} is not a matrix")
        if saved is not None:
            saved += (w, x)
        try:
            y = w.dot(x)  # fresh, so the bias and tanh may write into it
        except ValueError:
            raise ShapeError(f"mlp: weight {w.shape} does not take an input of "
                             f"shape {x.shape}") from None
        if b.ndim == 1 and len(b) == len(y):
            y += b[:, None] if columns else b
        elif b.shape == y.shape:
            y += b
        else:
            raise ShapeError(f"mlp: bias {b.shape} matches neither the product "
                             f"shape {y.shape} nor its rows")
        left -= 1
        x = np.tanh(y, y) if left else y
    return x


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

    @staticmethod
    def constant(value) -> np.ndarray:
        return np.asarray(value, dtype=np.float64, order="C")

    add = staticmethod(_add)
    sub = staticmethod(_sub)
    scale = staticmethod(_scale)
    lincomb = staticmethod(_lincomb)
    mul = staticmethod(_mul)
    mlp = staticmethod(_mlp)
    tanh = staticmethod(np.tanh)
    sum = staticmethod(np.sum)
    sqnorm = staticmethod(_sqnorm)
    clamp = staticmethod(_clamp)
    exp = staticmethod(np.exp)
    log = staticmethod(_log)


VALUES = Values()


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
    return ca * g if a.live else None, cb * g if b.live else None


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


def _mlp_pullback(saved, live, g):
    """The array rule of `mlp`'s VJP: the cotangents of [x, W1, b1, ...,
    WL, bL] from `_mlp`'s `saved` arrays, a live flag per operand and the
    output's cotangent g, None where an operand is not live. Layer by layer
    from the top: g x^T (by `np.multiply.outer` for a 1-D x), g itself for
    a bias, and W^T g times tanh's 1 - h^2 below, all with `np.dot` as in
    `_mlp`. A layer's input cotangent is formed only while a live operand
    lies below it. `_vjp_mlp` runs it on a node; a `DenoiserField`'s
    window and block run it on a call's saved arrays."""
    lowest = (live.index(True) - 1) // 2  # the lowest live layer; -1 for x
    grads = [None] * len(live)
    for i in range(len(saved) // 2 - 1, max(lowest, 0) - 1, -1):
        w, x = saved[2 * i], saved[2 * i + 1]
        if live[2 * i + 1]:
            grads[2 * i + 1] = np.multiply.outer(g, x) if x.ndim == 1 else np.dot(g, x.T)
        if live[2 * i + 2]:
            grads[2 * i + 2] = g
        if i > lowest:
            g = np.dot(w.T, g)
            if i:
                g = g * (1.0 - x * x)  # x is the tanh output of the layer below
            else:
                grads[0] = g
    return grads


def _fold_biases(grads, operands):
    """`_mlp_pullback`'s grads for the operands [x, W1, b1, ..., WL, bL]
    (arrays or Vars), with the cotangent of a (h,) bias, which `_mlp` adds
    to every column, summed over the columns."""
    for j in range(2, len(grads), 2):
        if grads[j] is not None and operands[j].shape != grads[j].shape:
            grads[j] = np.sum(grads[j], axis=1)
    return grads


def _vjp_mlp(node, g):
    """`_mlp_pullback` on the node, with its biases folded."""
    parents = node.parents
    live = [getattr(p, "live", False) for p in parents]  # a plain array is constant
    return _fold_biases(_mlp_pullback(node.saved, live, g), parents)


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
    "mlp": _vjp_mlp,
    "tanh": _vjp_tanh,
    "sum": _vjp_sum,
    "sqnorm": _vjp_sqnorm,
    "clamp": _vjp_clamp,
    "exp": _vjp_exp,
    "log": _vjp_log,
}

PRIMITIVES = tuple(_VJP)  # the names a Tape and VALUES both present
