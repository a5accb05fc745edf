"""Uniform fit/predict contract shared by all baseline learners."""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

MODEL_KINDS = ("gbt", "gbt-reg", "random-forest", "knn", "linear", "tree")
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


PARAM_TYPES = {
    "tree": TreeParams,
    "gbt": BoostParams,
    "gbt-reg": BoostParams,
    "random-forest": ForestParams,
    "knn": KnnParams,
    "linear": LinearParams,
}


def make_params(kind: str, **kwargs):
    if kind not in PARAM_TYPES:
        raise ModelError(f"unknown model kind {kind!r}")
    return PARAM_TYPES[kind](**kwargs)


def params_to_dict(params) -> dict:
    return {f.name: getattr(params, f.name) for f in fields(params)}


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-np.clip(z, -35.0, 35.0)))


def as_values(X, feature_names=None):
    """Accept an EncodedMatrix or a plain array; optionally validate names."""
    names = getattr(X, "feature_names", None)
    values = getattr(X, "values", X)
    values = np.asarray(values, dtype=float)
    if values.ndim == 1:
        values = values.reshape(1, -1)
    if feature_names is not None and names is not None and tuple(names) != tuple(
        feature_names
    ):
        raise ModelError("feature names do not match the model's training snapshot")
    if feature_names is not None and values.shape[1] != len(feature_names):
        raise ModelError(
            f"expected {len(feature_names)} features, got {values.shape[1]}"
        )
    return values


@dataclass(frozen=True)
class TrainedModel:
    """Immutable fitted model with a pure, deterministic predict."""

    kind: str
    task: str
    inner: object = field(compare=False)
    feature_names: tuple[str, ...] | None = None
    target_transform: str = "none"
    classes: np.ndarray | None = None
    params: object = None

    def __post_init__(self):
        if self.task not in TASKS:
            raise ModelError(f"unknown task {self.task!r}")
        if self.target_transform not in TARGET_TRANSFORMS:
            raise ModelError(f"unknown transform {self.target_transform!r}")

    def predict(self, X) -> np.ndarray:
        values = as_values(X, self.feature_names)
        if self.task == "regression":
            return self.from_raw(self.inner.predict_values(values))
        probs = self.inner.predict_proba_values(values)
        return self.classes[np.argmax(probs, axis=1)]

    def from_raw(self, raw) -> np.ndarray:
        """Regression predictions from the learner's raw outputs: undoes the
        target transform."""
        return np.expm1(raw) if self.target_transform == "log1p" else raw

    def predict_proba(self, X) -> np.ndarray:
        if self.task != "classification":
            raise ModelError("predict_proba requires a classification model")
        values = as_values(X, self.feature_names)
        return self.inner.predict_proba_values(values)


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
    classes = np.unique(y)
    index = {c: i for i, c in enumerate(classes.tolist())}
    y_idx = np.array([index[v] for v in y.tolist()], dtype=int)
    return y_idx, classes
