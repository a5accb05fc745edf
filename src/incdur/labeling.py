"""Duration-to-class mappings and the classification experiment sweeps."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._parallel import parallel_map
from .cv import cross_val_predict, derive_seed
from .dataset import Dataset, ecdf_at, encode
from .metrics import classification_metrics, f1_macro

__all__ = [
    "MultiClassThresholds",
    "binary_labels",
    "subset_rows",
    "multiclass_labels",
    "mutcd_labels",
    "threshold_sweep",
    "quantile_grid",
    "ldo_hdo_sweep",
    "DEFAULT_TC",
    "DEFAULT_TC_VALUES",
]

#: Default short/long-term threshold, minutes: the paper's 40-45 min split.
DEFAULT_TC = 45.0

#: Default varying-threshold set: every 5 minutes from 20 to 70.
DEFAULT_TC_VALUES = tuple(range(20, 75, 5))

#: Models scoring below this F1 are flagged in sweep reports.
MIN_ACCEPTABLE_F1 = 0.75

MUTCD_MINOR_BELOW = 30.0
MUTCD_MAJOR_ABOVE = 120.0


@dataclass(frozen=True)
class MultiClassThresholds:
    t1: float
    t2: float

    def __post_init__(self):
        if not 0 < self.t1 < self.t2:
            raise ValueError("need 0 < t1 < t2")


def binary_labels(durations, tc: float) -> np.ndarray:
    """0 for short-term (y <= tc), 1 for long-term (y > tc)."""
    if tc <= 0:
        raise ValueError("tc must be > 0")
    d = np.asarray(durations, dtype=float)
    return (d > tc).astype(int)


def subset_rows(durations, tc: float) -> tuple[np.ndarray, ...]:
    """Row ids of all records, of short-term subset A and of long-term B."""
    labels = binary_labels(durations, tc)
    return (np.arange(labels.shape[0]), np.flatnonzero(labels == 0),
            np.flatnonzero(labels == 1))


def multiclass_labels(durations, thresholds: MultiClassThresholds) -> np.ndarray:
    """0 for y <= t1, 1 for t1 < y < t2, 2 for y >= t2."""
    d = np.asarray(durations, dtype=float)
    labels = np.ones(d.shape[0], dtype=int)
    labels[d <= thresholds.t1] = 0
    labels[d >= thresholds.t2] = 2
    return labels


def mutcd_labels(durations) -> np.ndarray:
    """MUTCD duration classes: minor (< 30 min), intermediate (30 min to
    2 h inclusive), major (> 2 h)."""
    d = np.asarray(durations, dtype=float)
    out = np.where(
        d < MUTCD_MINOR_BELOW,
        "minor",
        np.where(d > MUTCD_MAJOR_ABOVE, "major", "intermediate"),
    )
    return out.astype(object)


def _sweep_cell(values, labels, kind, cv, seed, tc):
    counts = np.bincount(labels, minlength=2)
    if counts.min() < 2 or labels.shape[0] < cv:
        return {"tc": tc, "model": kind, "evaluable": False}
    pred = cross_val_predict(
        kind, values, labels, cv, task="classification",
        seed=derive_seed(seed, int(tc * 100)),
    )
    # positive class: short-term incidents (class 0)
    m = classification_metrics(labels, pred, positive_label=0)
    return {
        "tc": tc,
        "model": kind,
        "evaluable": True,
        "precision": m["precision"],
        "recall": m["recall"],
        "accuracy": m["accuracy"],
        "f1": m["f1"],
        "meets_f1_gate": m["f1"] >= MIN_ACCEPTABLE_F1,
    }


def threshold_sweep(
    dataset: Dataset,
    models=("tree",),
    tc_values=DEFAULT_TC_VALUES,
    cv: int = 5,
    seed: int = 0,
    workers: int = 1,
) -> list[dict]:
    """Binary classification metrics per (threshold, model) cell.

    Cells with fewer than 2 records in a class, or fewer records than
    ``cv`` folds, are marked unevaluable rather than failing the sweep. Row
    order is fixed: ascending tc, then model order as given.
    """
    values = encode(dataset)

    def cell(tc_kind):
        tc, kind = tc_kind
        labels = binary_labels(dataset.durations, tc)
        return _sweep_cell(values, labels, kind, cv, seed, tc)

    cells = [(float(tc), kind) for tc in tc_values for kind in models]
    rows = parallel_map(cell, cells, workers)
    for row in rows:
        row["class_balance"] = ecdf_at(dataset.durations, row["tc"])
    return rows


def _grid_cell(values, durations, q1, q2, kind, cv, seed):
    t1 = float(np.quantile(durations, q1))
    t2 = float(np.quantile(durations, q2))
    cell = {"q1": q1, "q2": q2, "t1": t1, "t2": t2, "model": kind}
    if not 0 < t1 < t2 or durations.shape[0] < cv:
        cell["evaluable"] = False
        return cell
    labels = multiclass_labels(durations, MultiClassThresholds(t1, t2))
    pred = cross_val_predict(
        kind, values, labels, cv, task="classification",
        seed=derive_seed(seed, int(q1 * 100), int(q2 * 100)),
    )
    cell["evaluable"] = True
    cell["f1_macro"] = f1_macro(labels, pred, sorted(set(labels.tolist())))
    return cell


def quantile_grid(
    dataset: Dataset,
    model: str = "tree",
    q1_range=tuple(np.arange(1, 9) / 10),
    q2_range=tuple(np.arange(2, 10) / 10),
    cv: int = 5,
    seed: int = 0,
    workers: int = 1,
) -> list[dict]:
    """3-class F1-macro over a grid of (q1, q2) duration-quantile splits.

    Cells with q1 >= q2 are skipped; degenerate thresholds (t1 == t2 on
    heavily tied data) and fewer records than ``cv`` folds are flagged
    unevaluable.
    """
    values = encode(dataset)
    cells = [(float(q1), float(q2)) for q1 in q1_range for q2 in q2_range if q1 < q2]
    return parallel_map(
        lambda q: _grid_cell(values, dataset.durations, *q, model, cv, seed),
        cells, workers,
    )


def ldo_hdo_sweep(
    dataset: Dataset,
    model: str = "tree",
    thresholds=(0, 5, 10, 15, 20),
    tc: float = DEFAULT_TC,
    cv: int = 5,
    seed: int = 0,
) -> list[dict]:
    """Low-duration-outlier removal sweep.

    For each threshold t (ascending), drop records with duration < t,
    re-run the binary classification at ``tc`` and report the remaining
    fraction and F1. Rows removing more than half the data are flagged.
    """
    thresholds = list(thresholds)
    if any(b < a for a, b in zip(thresholds, thresholds[1:])):
        raise ValueError("ldo thresholds must be ascending")
    n = len(dataset)
    rows = []
    for t in thresholds:
        keep = np.flatnonzero(dataset.durations >= t)
        remaining = keep.shape[0] / n
        row = {
            "ldo_threshold": float(t),
            "remaining_fraction": remaining,
            "flagged": remaining < 0.5,
        }
        if keep.shape[0] >= 4:
            (cell,) = threshold_sweep(dataset.subset(keep), (model,), (tc,), cv, seed)
            row["f1"] = cell.get("f1")
            row["evaluable"] = cell["evaluable"]
        else:
            row["evaluable"] = False
        rows.append(row)
    return rows
