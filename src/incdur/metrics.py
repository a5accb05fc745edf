"""Evaluation metrics for the classification and regression experiments."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ConfusionCounts",
    "confusion_counts",
    "classification_metrics",
    "f1_macro",
    "mape",
    "metric_value",
    "rmse",
]


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


def confusion_counts(actual, predicted, positive_label) -> ConfusionCounts:
    actual = np.asarray(actual)
    predicted = np.asarray(predicted)
    if actual.shape != predicted.shape:
        raise ValueError("actual and predicted must have equal length")
    pos_a = actual == positive_label
    pos_p = predicted == positive_label
    return ConfusionCounts(
        tp=int(np.sum(pos_a & pos_p)),
        fp=int(np.sum(~pos_a & pos_p)),
        tn=int(np.sum(~pos_a & ~pos_p)),
        fn=int(np.sum(pos_a & ~pos_p)),
    )


def classification_metrics(actual, predicted, positive_label) -> dict:
    """Precision, recall, accuracy and F1 for one positive class.

    Zero-denominator convention: precision/recall are 0 when their
    denominator is 0, and F1 is 0 when precision + recall is 0.
    """
    c = confusion_counts(actual, predicted, positive_label)
    if c.total == 0:
        raise ValueError("need at least one evaluated pair")
    precision = c.tp / (c.tp + c.fp) if (c.tp + c.fp) > 0 else 0.0
    recall = c.tp / (c.tp + c.fn) if (c.tp + c.fn) > 0 else 0.0
    accuracy = (c.tp + c.tn) / c.total
    f1 = (
        2.0 * precision * recall / (precision + recall)
        if (precision + recall) > 0
        else 0.0
    )
    return {
        "precision": precision,
        "recall": recall,
        "accuracy": accuracy,
        "f1": f1,
    }


def f1_macro(actual, predicted, classes) -> float:
    """Unweighted mean of one-vs-all F1 scores over ``classes``."""
    classes = list(classes)
    if not classes:
        raise ValueError("classes must be non-empty")
    scores = [classification_metrics(actual, predicted, c)["f1"] for c in classes]
    return float(np.mean(scores))


def mape(actual, predicted) -> float:
    """Mean absolute percentage error, as a percentage.

    All actual values must be strictly positive; zero-duration records are
    excluded upstream (see :func:`mape_excluding_zero`).
    """
    actual = np.asarray(actual, dtype=float)
    predicted = np.asarray(predicted, dtype=float)
    if actual.shape != predicted.shape:
        raise ValueError("actual and predicted must have equal length")
    if actual.size == 0:
        raise ValueError("need at least one pair")
    if np.any(actual <= 0):
        raise ValueError("mape requires strictly positive actual values")
    return float(np.mean(np.abs(actual - predicted) / actual)) * 100.0


def mape_excluding_zero(actual, predicted) -> tuple[float, int]:
    """MAPE over the pairs with actual > 0, plus the excluded-pair count."""
    actual = np.asarray(actual, dtype=float)
    predicted = np.asarray(predicted, dtype=float)
    keep = actual > 0
    excluded = int(np.sum(~keep))
    if not np.any(keep):
        raise ValueError("all actual values are zero; mape undefined")
    return mape(actual[keep], predicted[keep]), excluded


def rmse(actual, predicted) -> float:
    actual = np.asarray(actual, dtype=float)
    predicted = np.asarray(predicted, dtype=float)
    if actual.shape != predicted.shape:
        raise ValueError("actual and predicted must have equal length")
    if actual.size == 0:
        raise ValueError("need at least one pair")
    return float(np.sqrt(np.mean((actual - predicted) ** 2)))


def metric_value(name, actual, predicted) -> float:
    """A named metric: "rmse", "mape" over the pairs with actual > 0, or
    "f1" with class 0 as the positive class."""
    if name == "rmse":
        return rmse(actual, predicted)
    if name == "mape":
        return mape_excluding_zero(actual, predicted)[0]
    if name == "f1":
        return classification_metrics(actual, predicted, positive_label=0)["f1"]
    raise ValueError(f"unknown metric {name!r}")
