"""Uniform fit/predict contract shared by all baseline learners."""

from __future__ import annotations

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
