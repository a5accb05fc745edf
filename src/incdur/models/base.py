"""Uniform fit/predict contract shared by all baseline learners."""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np

TASKS = ("regression", "classification")
TARGET_TRANSFORMS = ("none", "log1p")


class ModelError(ValueError):
    pass


def _check_count(name, value):
    if value < 1:
        raise ModelError(f"{name} must be >= 1, got {value}")


def _check_rate(name, value):
    if not 0.0 < value <= 1.0:
        raise ModelError(f"{name} must be in (0, 1], got {value}")


@dataclass(frozen=True)
class TreeParams:
    max_depth: int = 6  # 0 means a single-leaf tree
    min_samples_leaf: int = 1

    def __post_init__(self):
        if self.max_depth < 0:
            raise ModelError("max_depth must be >= 0")
        _check_count("min_samples_leaf", self.min_samples_leaf)


@dataclass(frozen=True)
class BoostParams:
    n_rounds: int = 100
    learning_rate: float = 0.1
    max_depth: int = 3
    min_samples_leaf: int = 1
    subsample: float = 1.0
    colsample: float = 1.0
    reg_lambda: float = 1.0  # second-order variant only
    gamma: float = 0.0       # second-order variant only
    min_child_weight: float = 0.0
    goss: tuple[float, float] | None = None  # (top_fraction a, other_fraction b)

    def __post_init__(self):
        _check_count("n_rounds", self.n_rounds)
        if self.max_depth < 0:
            raise ModelError("max_depth must be >= 0")
        _check_count("min_samples_leaf", self.min_samples_leaf)
        _check_rate("learning_rate", self.learning_rate)
        _check_rate("subsample", self.subsample)
        _check_rate("colsample", self.colsample)
        if self.reg_lambda < 0 or self.gamma < 0:
            raise ModelError("lambda and gamma must be >= 0")
        if self.goss is not None:
            a, b = self.goss
            if not (0.0 < a < 1.0 and 0.0 < b <= 1.0 - a):
                raise ModelError("goss fractions must satisfy 0<a<1, 0<b<=1-a")


@dataclass(frozen=True)
class ForestParams:
    n_trees: int = 100
    max_depth: int = 8
    min_samples_leaf: int = 1
    bootstrap_fraction: float = 1.0
    bootstrap: bool = True
    feature_fraction: float | None = None  # default: sqrt(m)/m per split

    def __post_init__(self):
        _check_count("n_trees", self.n_trees)
        _check_count("max_depth", self.max_depth)
        _check_count("min_samples_leaf", self.min_samples_leaf)
        _check_rate("bootstrap_fraction", self.bootstrap_fraction)
        if self.feature_fraction is not None:
            _check_rate("feature_fraction", self.feature_fraction)


@dataclass(frozen=True)
class KnnParams:
    k: int = 5

    def __post_init__(self):
        _check_count("k", self.k)


@dataclass(frozen=True)
class LinearParams:
    ridge: float = 0.0

    def __post_init__(self):
        if self.ridge < 0:
            raise ModelError("ridge must be >= 0")


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-np.clip(z, -35.0, 35.0)))


def sigmoid_proba(scores):
    """Class probabilities from raw scores (rows, 1 or classes): the sigmoid
    pair for one column, else one-vs-rest sigmoids normalised over classes."""
    p = _sigmoid(scores)
    if p.shape[1] == 1:
        return np.column_stack([1.0 - p[:, 0], p[:, 0]])
    total = p.sum(axis=1, keepdims=True)
    total[total == 0] = 1.0
    return p / total


def vote_shares(labels, n_classes, axis):
    """Each class's share of the integer class ``labels`` along ``axis``,
    with the classes on a new last axis."""
    votes = np.sum(labels[..., None] == np.arange(n_classes), axis=axis)
    return votes / labels.shape[axis]


class OneClass:
    """The inner model of a classifier fitted on one class."""

    @staticmethod
    def predict_values(values):
        return np.ones((values.shape[0], 1))


def as_values(X) -> np.ndarray:
    """``X`` as a float matrix; a 1-D ``X`` is one row."""
    values = np.asarray(X, dtype=float)
    return values.reshape(1, -1) if values.ndim == 1 else values


DRAW_BLOCK = 16  # raw words a replay reads at a time


class RawDraws:
    """Replays three calls of one PCG64 ``Generator`` from its raw 64-bit
    words, bit for bit: ``integers(k)`` for 1 < k < 2**32 (``bounded``),
    ``random()`` and ``np.sort(choice(m, k, replace=False))``
    (``sorted_choice``), with numpy's own methods.

    numpy bounds an integer by Lemire's method on 32-bit halves of words
    (the low half, then the high half, held over in the bit generator's
    ``has_uint32`` / ``uinteger`` buffer); a double is a whole word's top 53
    bits. Words come ``DRAW_BLOCK`` at a time from ``random_raw``, so the
    generator runs ahead: call ``sync`` before anything else draws from it.
    """

    def __init__(self, rng):
        self.bits = rng.bit_generator
        self.state = self.bits.state
        self.has, self.half = self.state["has_uint32"], self.state["uinteger"]
        self.read = 0
        self.block = iter(())
        self.next = self.block.__next__

    def _refill(self):
        self.block = iter(self.bits.random_raw(DRAW_BLOCK).tolist())
        self.next = self.block.__next__
        self.read += DRAW_BLOCK
        return self.next()

    def bounded(self, k):
        """``rng.integers(k)``: the high half of a 32-bit draw times k, drawn
        again while the low half falls below 2**32 mod k (which is below k,
        so a low half of at least k needs no modulo)."""
        while True:
            if self.has:
                self.has = 0
                x = self.half * k
            else:
                try:
                    word = self.next()
                except StopIteration:
                    word = self._refill()
                self.has, self.half = 1, word >> 32
                x = (word & 0xFFFFFFFF) * k
            if x & 0xFFFFFFFF >= k or x & 0xFFFFFFFF >= (1 << 32) % k:
                return x >> 32

    def random(self):
        """``rng.random()``."""
        try:
            word = self.next()
        except StopIteration:
            word = self._refill()
        return (word >> 11) * 2.0**-53

    def sorted_choice(self, m, k):
        """``np.sort(rng.choice(m, k, replace=False))`` as a list, 1 <= k <= m."""
        if m > 10000 and k > m // 50:  # numpy shuffles the tail of arange(m)
            pool = list(range(m))
            for i in range(m - 1, max(m - k, 1) - 1, -1):
                j = self.bounded(i + 1)
                pool[i], pool[j] = pool[j], pool[i]
            return sorted(pool[m - k:])
        chosen = set()  # Floyd's algorithm
        for j in range(m - k, m):
            pick = self.bounded(j + 1) if j else 0
            chosen.add(j if pick in chosen else pick)
        for i in range(k - 1, 0, -1):  # the shuffle after it, undone by sorting
            self.bounded(i + 1)
        return sorted(chosen)

    def sync(self):
        """Leave the generator where numpy's own calls would have: the saved
        state, advanced by the words used, then the half-word buffer, which
        ``advance`` clears."""
        self.bits.state = self.state
        self.bits.advance(self.read - operator.length_hint(self.block))
        state = self.bits.state
        state["has_uint32"], state["uinteger"] = self.has, self.half
        self.bits.state = state


@dataclass(frozen=True)
class TrainedModel:
    """Immutable fitted model with a pure, deterministic predict that takes
    matrices of the fitted width, ``n_features`` columns, only.

    ``inner.predict_values(values)`` answers both tasks: regression values
    (in the transformed target space) or class probabilities."""

    kind: str
    task: str
    inner: object = field(compare=False)
    n_features: int
    target_transform: str = "none"
    classes: np.ndarray | None = None
    params: object = None

    def __post_init__(self):
        if self.task not in TASKS:
            raise ModelError(f"unknown task {self.task!r}")
        if self.target_transform not in TARGET_TRANSFORMS:
            raise ModelError(f"unknown transform {self.target_transform!r}")

    def check_width(self, X) -> np.ndarray:
        """``X`` as a float matrix, rejected unless it has the fitted width."""
        values = as_values(X)
        if values.shape[1] != self.n_features:
            raise ModelError(
                f"expected {self.n_features} features, got {values.shape[1]}"
            )
        return values

    def predict(self, X) -> np.ndarray:
        out = self.inner.predict_values(self.check_width(X))
        if self.task == "regression":
            return self.from_raw(out)
        return self.classes[np.argmax(out, axis=1)]

    def from_raw(self, raw) -> np.ndarray:
        """Regression predictions from the learner's raw outputs: undoes the
        target transform."""
        return np.expm1(raw) if self.target_transform == "log1p" else raw

    def predict_proba(self, X) -> np.ndarray:
        if self.task != "classification":
            raise ModelError("predict_proba requires a classification model")
        return self.inner.predict_values(self.check_width(X))


def prepare_targets(y, task, target_transform):
    """Return (fit targets, classes). Regression applies the transform here."""
    y = np.asarray(y)
    if task == "regression":
        y = y.astype(float)
        if target_transform == "log1p":
            if np.any(y < 0):
                raise ModelError("log1p transform requires y >= 0")
            y = np.log1p(y)
        return y, None
    # np.unique's sorted distinct labels, without its numpy.ma import
    ordered = np.sort(y)
    classes = ordered[np.append(True, ordered[1:] != ordered[:-1])]
    index = {c: i for i, c in enumerate(classes.tolist())}
    y_idx = np.array([index[v] for v in y.tolist()], dtype=int)
    return y_idx, classes
