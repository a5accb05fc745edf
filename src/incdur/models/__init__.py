"""Baseline learners behind one fit entry point.

``fit_model`` is the only way to fit a learner. It fills in default params,
checks the inputs (``|y| = rows(X) >= 2``), prepares the targets (class
indices, or the target transform for regression), calls the kind's fitter
and wraps the result in a ``TrainedModel``. ``KINDS`` is the one table of
model kinds: each maps to its params dataclass and its learner's ``fit``. Each learner module holds only
its algorithm: ``fit(values, targets, n_classes, params, seed)`` returns the
inner predictor, with ``n_classes`` 0 for regression; a classifier fitted on
one class (a sequential fold can hold one) predicts it, with probability 1,
whatever its kind. Every inner predictor answers ``predict_values(values)``:
regression values or class probabilities.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from . import boosting, cart, forest, knn, linear
from .base import (
    BoostParams,
    ForestParams,
    KnnParams,
    LinearParams,
    ModelError,
    OneClass,
    TrainedModel,
    TreeParams,
    as_values,
    prepare_targets,
)

__all__ = [
    "KINDS",
    "MODEL_KINDS",
    "TreeParams",
    "BoostParams",
    "ForestParams",
    "KnnParams",
    "LinearParams",
    "ModelError",
    "TrainedModel",
    "make_params",
    "fit_model",
]

#: Model kind -> (its params dataclass, its learner's ``fit``).
KINDS = {
    "gbt": (BoostParams, boosting.fit),
    "gbt-reg": (BoostParams, partial(boosting.fit, second_order=True)),
    "random-forest": (ForestParams, forest.fit),
    "knn": (KnnParams, knn.fit),
    "linear": (LinearParams, linear.fit),
    "tree": (TreeParams, cart.fit),
}
MODEL_KINDS = tuple(KINDS)


def make_params(kind: str, **kwargs):
    if kind not in KINDS:
        raise ModelError(f"unknown model kind {kind!r}")
    return KINDS[kind][0](**kwargs)


def fit_model(
    kind: str,
    X,
    y,
    params=None,
    task: str = "regression",
    target_transform: str = "none",
    seed: int = 0,
) -> TrainedModel:
    """Fit any model kind; classification ignores ``target_transform``."""
    if kind not in KINDS:
        raise ModelError(f"unknown model kind {kind!r}")
    params = params or make_params(kind)
    values = as_values(X)
    y = np.asarray(y)
    if y.shape[0] != values.shape[0] or values.shape[0] < 2:
        raise ModelError("need |y| = rows(X) >= 2")
    targets, classes = prepare_targets(y, task, target_transform)
    n_classes = 0 if classes is None else len(classes)
    if n_classes == 1:  # every kind: the one class, with probability 1
        inner = OneClass()
    else:
        inner = KINDS[kind][1](values, targets, n_classes, params, seed)
    return TrainedModel(
        kind=kind,
        task=task,
        inner=inner,
        n_features=values.shape[1],
        target_transform=target_transform if task == "regression" else "none",
        classes=classes,
        params=params,
    )
