"""Differentiable objectives over generated samples, plus the frozen toy
classifier used by the evasion task.

Each objective builds a scalar tape expression, which `Objective.value`
evaluates on VALUES. Samples are columns: an objective scores one sample
(d,) or a block (d, B) of samples, one per column, in a number of tape
nodes that does not depend on B. A single-sample objective scores a block
as the mean of its per-column values; a batch objective (moment matching)
couples the columns. `Objective.build_rows` is the one place that hands
samples to an objective. `Clamped` scores an objective on samples clamped
to [-1, 1].

`Objective.gradient(x0)` gives every gradient engine (dJ/dx_0, J). By
default it records `build_rows` on a tape of its own and runs its backward
pass. The quadratic target, the RBF reward and the classifier margin run
numpy twins instead: their forward arrays and a pullback by the tape's own
rules in the tape's order, with the tape's bits and no tape. Their `build`
stays the twins' reference. A subclass that builds J anew and has no
`gradient` of its own takes the tape's.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .optim import AdamState, adam_step, flatten, unflatten
from .tape import VALUES, Tape, Var, _mlp, _mlp_pullback, _mul, _sub

KINDS = ("quadratic-target", "moment-match", "rbf-reward",
         "classifier-margin", "composite")

PROB_CLIP = 1e-12  # keeps cross-entropy finite when the logit saturates
ACCURACY_FLOOR = 0.95  # the least training accuracy of a fitted classifier


class Objective:
    batch = False

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # a twin differentiates its own class's J, not a subclass's new one
        builds = {"build", "build_batch", "build_rows"} & set(vars(cls))
        if builds and "gradient" not in vars(cls):
            cls.gradient = Objective.gradient

    def build(self, tape: Tape, x: Var) -> Var:
        """J of one sample (d,), or the mean J of a block (d, B)."""
        raise NotImplementedError

    def build_batch(self, tape: Tape, x: Var) -> Var:
        """J of the columns of a (d, B) block, scored jointly."""
        raise NotImplementedError

    def build_rows(self, tape: Tape, x: Var) -> Var:
        """J of the samples in x, one sample (d,) or a block (d, B) with one
        sample per column: a batch objective scores the columns jointly, a
        single-sample objective scores the mean of its per-column values."""
        if x.shape[1:] == (0,):
            raise ValueError(f"{type(self).__name__}: empty batch of samples")
        return self.build_batch(tape, x) if self.batch else self.build(tape, x)

    def value(self, x: np.ndarray) -> float:
        """J of one sample (d,) or of B samples as rows (B, d)."""
        return float(self.build_rows(VALUES, VALUES.constant(np.atleast_2d(x).T)))

    def gradient(self, x0: np.ndarray) -> tuple[np.ndarray, float]:
        """(dJ/dx_0 as a (d, B) block, J) for x_0 holding B samples as rows,
        (d,) or (B, d): `build_rows` on a tape of its own and its backward
        pass, the reference of the numpy twins."""
        tape = Tape()
        x = tape.variable(np.atleast_2d(x0).T)
        j = self.build_rows(tape, x)
        return tape.backward(j)[x], float(j.value)

    def _columns(self, x0: np.ndarray) -> np.ndarray:
        """A twin's x: the samples of x_0 as the columns of a C-ordered
        (d, B) block, as a Tape's leaf holds them; an empty batch raises as
        in `build_rows`."""
        x = np.ascontiguousarray(np.atleast_2d(x0).T, dtype=np.float64)
        if x.shape[1:] == (0,):
            raise ValueError(f"{type(self).__name__}: empty batch of samples")
        return x


def eval_objective(objective: Objective, x: np.ndarray) -> float:
    """Evaluate on a sample (d,) or batch (B, d), enforcing arity."""
    x = np.asarray(x, dtype=np.float64)
    if objective.batch and x.ndim != 2:
        raise ValueError(f"{type(objective).__name__} needs a batch of samples")
    return objective.value(x)


def _column_sqdist(tape: Tape, x: Var, center: np.ndarray) -> Var:
    """||x_b - center||^2 of each column b: (1,) for one sample, (1, B) for
    a block; the sum over the rows is a constant ones row."""
    shift = np.multiply.outer(center, np.ones(x.shape[1:]))
    ones, zero = np.ones((1, x.shape[0])), np.zeros(1)
    diff = tape.sub(x, tape.constant(shift))
    return tape.mlp(tape.mul(diff, diff), [ones, zero])


def _column_sqdist_vjp(x: np.ndarray, center: np.ndarray):
    """`_column_sqdist` on arrays: (its (1, B) values, the pullback of their
    cotangent to x's), by the tape's sub, mul and ones-row `_mlp`."""
    diff = _sub(x, np.multiply.outer(center, np.ones(x.shape[1:])))
    saved = []
    sqdist = _mlp(_mul(diff, diff), [np.ones((1, x.shape[0])), np.zeros(1)], saved)

    def pullback(g):
        g = _mlp_pullback(saved, [True, False, False], g)[0] * diff
        return g + g  # the mul's two operands are both diff

    return sqdist, pullback


def _mean(tape: Tape, per_column: Var, scale: float = 1.0) -> Var:
    """scale times the mean of per-column values, (1,) or (1, B)."""
    return tape.scale(tape.sum(per_column), scale / per_column.shape[-1])


def _mean_vjp(per_column: np.ndarray, scale: float = 1.0) -> tuple[float, np.ndarray]:
    """`_mean` on arrays: (its value, the cotangent of per_column)."""
    c = float(scale / per_column.shape[-1])
    return float(c * np.sum(per_column)), np.full(per_column.shape, c)


@dataclass
class QuadraticTarget(Objective):
    """0.5 ||x - target||^2."""

    target: np.ndarray

    def build(self, tape, x):
        return _mean(tape, _column_sqdist(tape, x, self.target), 0.5)

    def gradient(self, x0):
        sqdist, pullback = _column_sqdist_vjp(self._columns(x0), self.target)
        j, g = _mean_vjp(sqdist, 0.5)
        return pullback(g), j


@dataclass
class RbfReward(Objective):
    """-exp(-||x - center||^2 / (2 width^2)); minimum -1 at the center."""

    center: np.ndarray
    width: float = 0.5

    def __post_init__(self):
        if self.width <= 0:
            raise ValueError("width must be positive")

    def build(self, tape, x):
        z = tape.scale(_column_sqdist(tape, x, self.center), -0.5 / (self.width ** 2))
        return _mean(tape, tape.exp(z), -1.0)

    def gradient(self, x0):
        sqdist, pullback = _column_sqdist_vjp(self._columns(x0), self.center)
        c = float(-0.5 / (self.width ** 2))
        y = np.exp(c * sqdist)
        j, g = _mean_vjp(y, -1.0)
        return pullback(c * (g * y)), j


@dataclass
class MomentMatch(Objective):
    """Squared distance between batch and reference (mean, second moment).

    The 2D stand-in for feature-statistics style losses: order 1 matches
    means only, order 2 (default) also matches E[x x^T].
    """

    reference: np.ndarray
    order: int = 2
    batch = True

    def __post_init__(self):
        self.reference = np.atleast_2d(np.asarray(self.reference, dtype=np.float64))
        if self.order not in (1, 2):
            raise ValueError("order must be 1 or 2")

    def build(self, tape, x):
        raise ValueError("moment-match is a batch objective; use build_batch")

    def build_batch(self, tape, x):
        """x is a (d, B) block; each moment is a one-layer `mlp` whose
        weight is a (·, B) block, applied to the constant column weights
        1/B, less the reference moment as the bias."""
        dim, n = x.shape
        col_mean = tape.constant(np.full(n, 1.0 / n))
        ref_mean = self.reference.mean(axis=0)
        loss = tape.sqnorm(tape.mlp(col_mean, [x, -ref_mean]))
        if self.order == 2:
            # row j·d + k of the (d², B) product holds x_j x_k of each column
            zeros = np.zeros(dim * dim)
            eye = np.eye(dim)
            x_j = tape.mlp(x, [np.repeat(eye, dim, axis=0), zeros])
            x_k = tape.mlp(x, [np.tile(eye, (dim, 1)), zeros])
            ref_mom = (self.reference[:, :, None] * self.reference[:, None, :]).mean(axis=0)
            mom = tape.mlp(col_mean, [tape.mul(x_j, x_k), -ref_mom.ravel()])
            loss = tape.add(loss, tape.sqnorm(mom))
        return loss


@dataclass
class ToyClassifier:
    """Frozen two-class classifier: logistic or one-hidden-layer tanh MLP.

    The output layer is held as an `mlp` layer, w (1, k) and b (1,), so one
    call scores a sample (d,) or a block (d, B) of samples as columns.
    A 1-D output weight and a scalar bias are reshaped on construction; the
    weights must be finite and their shapes must agree. They are held as
    read-only C-ordered float64 copies, which a call hands to `mlp` as
    its constant weights.
    """

    weights: list[np.ndarray]  # logistic: [w, b]; mlp: [W1, b1, w2, b2]
    accuracy: float = 1.0

    def __post_init__(self):
        if len(self.weights) not in (2, 4):
            raise ValueError(f"{len(self.weights)} weight arrays; expected 2 "
                             "(logistic) or 4 (one hidden layer)")
        ws = [np.array(w, dtype=np.float64, order="C") for w in self.weights]
        ws[-2], ws[-1] = np.atleast_2d(ws[-2]), np.atleast_1d(ws[-1])
        if not self.hidden:
            want = [(1, ws[0].shape[-1]), (1,)]
        elif ws[0].ndim == 2:
            width = ws[0].shape[0]
            want = [ws[0].shape, (width,), (1, width), (1,)]
        else:
            raise ValueError(f"weights[0] has shape {ws[0].shape}; expected "
                             "a (hidden, d) matrix")
        for i, (w, shape) in enumerate(zip(ws, want)):
            if w.shape != shape:
                raise ValueError(f"weights[{i}] has shape {w.shape}; expected {shape}")
            if not np.all(np.isfinite(w)):
                raise ValueError(f"weights[{i}] has non-finite entries")
            w.flags.writeable = False
        self.weights = ws

    @property
    def hidden(self) -> bool:
        return len(self.weights) == 4

    def build_logit(self, tape: Tape, x: Var) -> Var:
        """The logit of each column of x: (1,) for a sample (d,), (1, B) for
        a block (d, B), as one `mlp` node (one layer for the logistic, two
        for the hidden layer)."""
        return tape.mlp(x, self.weights)

    def logit(self, x: np.ndarray):
        """The logit of a sample (d,), or the (B,) logits of rows (B, d)."""
        return self.build_logit(VALUES, VALUES.constant(np.asarray(x).T))[0]

    def predict(self, x: np.ndarray):
        return (self.logit(x) > 0.0).astype(np.int64)


def _cross_entropy(tape: Tape, logit: Var, labels) -> Var:
    """-log p(label) of each column of the logit, p = sigmoid(logit), built
    from tanh and log; labels is one 0/1 label or one per column."""
    labels = np.broadcast_to(labels, logit.shape)
    half = tape.scale(tape.tanh(tape.scale(logit, 0.5)), 0.5)
    p = tape.add(half, tape.constant(np.full(logit.shape, 0.5)))
    # p where the label is 1 and 1 - p where it is 0, both exact
    p_label = tape.add(tape.mul(p, tape.constant(2.0 * labels - 1.0)),
                       tape.constant(1.0 - labels))
    safe = tape.clamp(p_label, PROB_CLIP, 1.0 - PROB_CLIP)
    return tape.scale(tape.log(safe), -1.0)


@dataclass
class ClassifierMargin(Objective):
    """Cross-entropy of the frozen classifier at the sample.

    evade=False fits toward the true label; evade=True negates the loss so
    that minimizing drives the sample across the decision boundary.
    """

    classifier: ToyClassifier
    label: int
    evade: bool = False

    def __post_init__(self):
        if not isinstance(self.label, (int, np.integer)) or self.label not in (0, 1):
            raise ValueError(f"a classifier-margin label is 0 or 1, got {self.label!r}")

    def build(self, tape, x):
        ce = _cross_entropy(tape, self.classifier.build_logit(tape, x), self.label)
        return _mean(tape, ce, -1.0 if self.evade else 1.0)

    def gradient(self, x0):
        """`build`'s nodes on arrays: the logit's `_mlp` with its saves,
        `_cross_entropy` (log needs no check past the clamp) and `_mean`,
        then back through each in turn and `_mlp_pullback` with x alone live."""
        ws, saved = self.classifier.weights, []
        logit = _mlp(self._columns(x0), ws, saved)
        sign, lo, hi = 2.0 * self.label - 1.0, PROB_CLIP, 1.0 - PROB_CLIP
        t = np.tanh(0.5 * logit)
        p_label = (0.5 * t + 0.5) * sign + (1.0 - self.label)
        safe = np.clip(p_label, lo, hi)
        j, g = _mean_vjp(-1.0 * np.log(safe), -1.0 if self.evade else 1.0)
        g = -1.0 * g / safe * ((p_label > lo) & (p_label < hi))
        g = 0.5 * (0.5 * (g * sign) * (1.0 - t * t))
        return _mlp_pullback(saved, [True] + [False] * len(ws), g)[0], j


@dataclass
class Composite(Objective):
    """mix * metric + (1 - mix) * squared distance to a reference sample."""

    metric: Objective
    reference: np.ndarray
    mix: float = 0.5

    def __post_init__(self):
        if not 0.0 <= self.mix <= 1.0:
            raise ValueError(f"mix weight must be in [0, 1], got {self.mix}")
        if self.metric.batch:
            raise ValueError("composite requires a single-sample metric")

    def build(self, tape, x):
        fid = _mean(tape, _column_sqdist(tape, x, self.reference), 1.0 - self.mix)
        return tape.add(tape.scale(self.metric.build(tape, x), self.mix), fid)


class Clamped(Objective):
    """`inner` scored on samples clamped to [-1, 1]."""

    def __init__(self, inner: Objective):
        self.inner = inner
        self.batch = inner.batch

    @staticmethod
    def clamp(tape: Tape, x: Var) -> Var:
        return tape.clamp(x, -1.0, 1.0)

    def build_rows(self, tape, x):
        return self.inner.build_rows(tape, self.clamp(tape, x))


# --------------------------------------------------------------- classifier

class ClassifierAccuracyError(RuntimeError):
    """Training accuracy came out below the required floor."""


def train_toy_classifier(points: np.ndarray, labels: np.ndarray,
                         hidden: int = 0, steps: int = 600, batch: int = 64,
                         lr: float = 0.05, seed: int = 0) -> ToyClassifier:
    """Fit the frozen classifier; deterministic given seed. Flags (raises)
    when training accuracy misses `ACCURACY_FLOOR`."""
    points = np.asarray(points, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    rng = np.random.Generator(np.random.PCG64(seed))
    dim = points.shape[1]
    if hidden:
        weights = [rng.standard_normal((hidden, dim)) / np.sqrt(dim),
                   np.zeros(hidden),
                   rng.standard_normal((1, hidden)) / np.sqrt(hidden),
                   np.zeros(1)]
    else:
        weights = [rng.standard_normal((1, dim)) / np.sqrt(dim), np.zeros(1)]
    flat = flatten(weights)
    adam = AdamState(flat.size, lr=lr)

    for _ in range(steps):
        idx = rng.integers(0, points.shape[0], size=batch)
        tape = Tape()
        theta = [tape.variable(w) for w in weights]
        logit = tape.mlp(tape.constant(points[idx].T), theta)
        grads = tape.backward(_mean(tape, _cross_entropy(tape, logit, labels[idx])))
        flat = adam_step(adam, flat, flatten([grads[v] for v in theta]))
        weights = unflatten(flat, weights)

    clf = ToyClassifier(weights)
    clf.accuracy = float(np.mean(clf.predict(points) == labels))
    if clf.accuracy < ACCURACY_FLOOR:
        raise ClassifierAccuracyError(
            f"classifier reached {clf.accuracy:.3f} accuracy, below the "
            f"{ACCURACY_FLOOR:.2f} floor")
    return clf


def save_classifier(path, clf: ToyClassifier) -> None:
    payload = {"accuracy": clf.accuracy,
               "weights": [w.tolist() for w in clf.weights]}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True)
        fh.write("\n")


def load_classifier(path) -> ToyClassifier:
    """The classifier saved at path. A file that is not JSON with a
    "weights" list of 2 or 4 finite arrays of agreeing shapes raises a
    ValueError naming the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        if not isinstance(payload, dict) or "weights" not in payload:
            raise ValueError("missing key 'weights'")
        return ToyClassifier([np.asarray(w, dtype=np.float64) for w in payload["weights"]],
                             float(payload.get("accuracy", 1.0)))
    except (TypeError, ValueError) as exc:
        raise ValueError(f"classifier file {path}: {exc}") from None


# ------------------------------------------------------------------ factory

def make_objective(kind: str, **kw) -> Objective:
    """The objective of `kind` from its class's keywords, points as float64;
    a keyword the caller does not give takes the class's default."""
    classes = dict(zip(KINDS, (QuadraticTarget, MomentMatch, RbfReward,
                               ClassifierMargin, Composite)))
    if kind not in classes:
        raise ValueError(f"unknown objective kind {kind!r}; expected one of {KINDS}")
    for key in {"target", "center", "reference"} & set(kw):
        kw[key] = np.asarray(kw[key], dtype=np.float64)
    return classes[kind](**kw)
