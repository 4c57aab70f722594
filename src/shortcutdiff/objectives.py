"""Differentiable objectives over generated samples, plus the frozen toy
classifier used by the evasion task.

Each objective builds a scalar tape expression so every gradient engine
can differentiate through it. Batch objectives (moment matching) couple a
whole set of samples. `Objective.build_rows` is the one place that hands
samples to an objective: a batch objective scores every row jointly, and
a single-sample one scores the mean of its per-row values. `Clamped`
scores an objective on samples clamped to [-1, 1].
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .optim import AdamState, adam_step, unflatten
from .tape import VALUES, Tape, Var

KINDS = ("quadratic-target", "moment-match", "rbf-reward",
         "classifier-margin", "composite")

PROB_CLIP = 1e-12  # keeps cross-entropy finite when the logit saturates


class Objective:
    batch = False

    def build(self, tape: Tape, x: Var) -> Var:
        raise NotImplementedError

    def build_batch(self, tape: Tape, xs: list[Var]) -> Var:
        raise NotImplementedError

    def build_rows(self, tape: Tape, xs: list[Var]) -> Var:
        """J of the B samples xs: a batch objective scores them jointly, a
        single-sample objective scores the mean of its B per-row values."""
        if not xs:
            raise ValueError(f"{type(self).__name__}: empty batch of samples")
        if self.batch:
            return self.build_batch(tape, xs)
        total = self.build(tape, xs[0])
        for x in xs[1:]:
            total = tape.add(total, self.build(tape, x))
        return tape.scale(total, 1.0 / len(xs))

    def value(self, x: np.ndarray) -> float:
        x = VALUES.constant(x)
        return float(self.build_rows(VALUES, list(np.atleast_2d(x))))


def eval_objective(objective: Objective, x: np.ndarray) -> float:
    """Evaluate on a sample (d,) or batch (B, d), enforcing arity."""
    x = np.asarray(x, dtype=np.float64)
    if objective.batch and x.ndim != 2:
        raise ValueError(f"{type(objective).__name__} needs a batch of samples")
    return objective.value(x)


@dataclass
class QuadraticTarget(Objective):
    """0.5 ||x - target||^2."""

    target: np.ndarray

    def build(self, tape, x):
        diff = tape.sub(x, tape.constant(self.target))
        return tape.scale(tape.sqnorm(diff), 0.5)


@dataclass
class RbfReward(Objective):
    """-exp(-||x - center||^2 / (2 width^2)); minimum -1 at the center."""

    center: np.ndarray
    width: float = 0.5

    def __post_init__(self):
        if self.width <= 0:
            raise ValueError("width must be positive")

    def build(self, tape, x):
        diff = tape.sub(x, tape.constant(self.center))
        z = tape.scale(tape.sqnorm(diff), -0.5 / (self.width ** 2))
        return tape.scale(tape.exp(z), -1.0)


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

    def _component(self, tape, x, j, dim):
        basis = np.zeros(dim)
        basis[j] = 1.0
        return tape.sum(tape.mul(x, tape.constant(basis)))

    def build_batch(self, tape, xs):
        dim = xs[0].shape[0]
        inv = 1.0 / len(xs)

        total = xs[0]
        for x in xs[1:]:
            total = tape.add(total, x)
        mean = tape.scale(total, inv)
        ref_mean = self.reference.mean(axis=0)
        loss = tape.sqnorm(tape.sub(mean, tape.constant(ref_mean)))

        if self.order == 2:
            ref_mom = (self.reference[:, :, None] * self.reference[:, None, :]).mean(axis=0)
            for j in range(dim):
                for k in range(j, dim):
                    prods = None
                    for x in xs:
                        p = tape.mul(self._component(tape, x, j, dim),
                                     self._component(tape, x, k, dim))
                        prods = p if prods is None else tape.add(prods, p)
                    diff = tape.sub(tape.scale(prods, inv),
                                    tape.constant(ref_mom[j, k]))
                    weight = 1.0 if j == k else 2.0  # symmetric off-diagonals
                    loss = tape.add(loss, tape.scale(tape.mul(diff, diff), weight))
        return loss


@dataclass
class ToyClassifier:
    """Frozen two-class classifier: logistic or one-hidden-layer tanh MLP."""

    weights: list[np.ndarray]  # logistic: [w, b]; mlp: [W1, b1, w2, b2]
    accuracy: float = 1.0

    @property
    def hidden(self) -> bool:
        return len(self.weights) == 4

    def build_logit(self, tape: Tape, x: Var, theta: list[Var] | None = None) -> Var:
        ws = theta if theta is not None else [tape.constant(w) for w in self.weights]
        if self.hidden:
            h = tape.tanh(tape.affine(ws[0], x, ws[1]))
            return tape.add(tape.sum(tape.mul(h, ws[2])), ws[3])
        return tape.add(tape.sum(tape.mul(ws[0], x)), ws[1])

    def logit(self, x: np.ndarray) -> float:
        return float(self.build_logit(VALUES, VALUES.constant(x)))

    def predict(self, x: np.ndarray) -> int:
        return int(self.logit(x) > 0.0)


def _cross_entropy(tape: Tape, logit: Var, label: int) -> Var:
    """-log p(label) with p = sigmoid(logit), built from tanh and log."""
    half = tape.scale(tape.tanh(tape.scale(logit, 0.5)), 0.5)
    p = tape.add(half, tape.constant(0.5))
    p_label = p if label == 1 else tape.sub(tape.constant(1.0), p)
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

    def build(self, tape, x):
        ce = _cross_entropy(tape, self.classifier.build_logit(tape, x), self.label)
        return tape.scale(ce, -1.0) if self.evade else ce


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
        fid = tape.sqnorm(tape.sub(x, tape.constant(self.reference)))
        return tape.add(tape.scale(self.metric.build(tape, x), self.mix),
                        tape.scale(fid, 1.0 - self.mix))


class Clamped(Objective):
    """`inner` scored on samples clamped to [-1, 1]."""

    def __init__(self, inner: Objective):
        self.inner = inner
        self.batch = inner.batch

    @staticmethod
    def clamp(tape: Tape, x: Var) -> Var:
        return tape.clamp(x, -1.0, 1.0)

    def build(self, tape, x):
        return self.inner.build(tape, self.clamp(tape, x))

    def build_batch(self, tape, xs):
        return self.inner.build_batch(tape, [self.clamp(tape, x) for x in xs])


# --------------------------------------------------------------- classifier

class ClassifierAccuracyError(RuntimeError):
    """Training accuracy came out below the required floor."""


def train_toy_classifier(points: np.ndarray, labels: np.ndarray,
                         hidden: int = 0, steps: int = 600, batch: int = 64,
                         lr: float = 0.05, seed: int = 0,
                         floor: float = 0.95) -> ToyClassifier:
    """Fit the frozen classifier; deterministic given seed. Flags (raises)
    when training accuracy misses the floor."""
    points = np.asarray(points, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    rng = np.random.Generator(np.random.PCG64(seed))
    dim = points.shape[1]
    if hidden:
        weights = [rng.standard_normal((hidden, dim)) / np.sqrt(dim),
                   np.zeros(hidden),
                   rng.standard_normal(hidden) / np.sqrt(hidden),
                   np.zeros(())]
    else:
        weights = [rng.standard_normal(dim) / np.sqrt(dim), np.zeros(())]
    clf = ToyClassifier(weights)
    flat = np.concatenate([w.ravel() for w in clf.weights])
    adam = AdamState(flat.size, lr=lr)

    for _ in range(steps):
        idx = rng.integers(0, points.shape[0], size=batch)
        tape = Tape()
        theta = [tape.variable(w) for w in clf.weights]
        loss = None
        for i in idx:
            logit = clf.build_logit(tape, tape.constant(points[i]), theta)
            ce = _cross_entropy(tape, logit, int(labels[i]))
            loss = ce if loss is None else tape.add(loss, ce)
        loss = tape.scale(loss, 1.0 / batch)
        grads = tape.backward(loss)
        gflat = np.concatenate([grads[v].ravel() for v in theta])
        flat = adam_step(adam, flat, gflat)
        clf = ToyClassifier(unflatten(flat, clf.weights))

    preds = np.array([clf.predict(p) for p in points])
    clf.accuracy = float(np.mean(preds == labels))
    if clf.accuracy < floor:
        raise ClassifierAccuracyError(
            f"classifier reached {clf.accuracy:.3f} accuracy, below the "
            f"{floor:.2f} floor")
    return clf


def save_classifier(path, clf: ToyClassifier) -> None:
    payload = {"accuracy": clf.accuracy,
               "weights": [w.tolist() for w in clf.weights]}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True)
        fh.write("\n")


def load_classifier(path) -> ToyClassifier:
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    weights = [np.asarray(w, dtype=np.float64) for w in payload["weights"]]
    if len(weights) not in (2, 4):
        raise ValueError(f"classifier file has {len(weights)} weight arrays; "
                         "expected 2 (logistic) or 4 (one hidden layer)")
    return ToyClassifier(weights, float(payload.get("accuracy", 1.0)))


# ------------------------------------------------------------------ factory

def make_objective(kind: str, **kw) -> Objective:
    if kind == "quadratic-target":
        return QuadraticTarget(np.asarray(kw["target"], dtype=np.float64))
    if kind == "rbf-reward":
        return RbfReward(np.asarray(kw["center"], dtype=np.float64),
                         float(kw.get("width", 0.5)))
    if kind == "moment-match":
        return MomentMatch(kw["reference"], int(kw.get("order", 2)))
    if kind == "classifier-margin":
        return ClassifierMargin(kw["classifier"], int(kw["label"]),
                                bool(kw.get("evade", False)))
    if kind == "composite":
        return Composite(kw["metric"], np.asarray(kw["reference"], dtype=np.float64),
                         float(kw.get("mix", 0.5)))
    raise ValueError(f"unknown objective kind {kind!r}; expected one of {KINDS}")
