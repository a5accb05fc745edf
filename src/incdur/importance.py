"""Model-agnostic feature importance: permutation screening and
Monte-Carlo Shapley value sampling, with per-duration-subset rankings.

Permutation importance draws one ``rng.permutation(n)`` per column and
repeat, column by column, and scores each shuffled copy. For a tree
regressor it walks the rows through every tree once and keeps the leaf
payloads (trees × rows floats); a shuffled copy then goes only through the
trees that split on the shuffled column, since no other tree's leaves can
change, and the learner's combine step and target transform finish the
prediction exactly as ``TrainedModel.predict`` does. Every other model
predicts each shuffled copy in full.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .cv import derive_seed
from .dataset import Dataset, encode
from .metrics import metric_value
from .models import TrainedModel, fit_model
from .models.base import as_values

__all__ = [
    "ERROR_METRICS",
    "ImportanceReport",
    "permutation_importance",
    "shapley_sampling",
    "subset_importance",
]

SUBSET_TAGS = ("all", "A", "B")
MIN_SUBSET_SIZE = 20

#: Error metrics, where lower is better: their permutation score is the
#: error increase caused by shuffling, so larger means more important. They
#: are the only metrics ``subset_importance`` takes, as it fits regressors.
ERROR_METRICS = ("rmse", "mape")


@dataclass(frozen=True)
class ImportanceReport:
    """Per-feature scores with ranks 1..M (1 = most important)."""

    rows: tuple[dict, ...]
    method: str  # permutation | shapley-sampling
    subset: str  # all | A | B
    notes: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        ranks = sorted(r["rank"] for r in self.rows)
        if ranks != list(range(1, len(self.rows) + 1)):
            raise ValueError("ranks must be a permutation of 1..M")
        if not all(math.isfinite(r["score"]) for r in self.rows):
            raise ValueError("scores must be finite")


def _build_report(names, scores, method, subset, importance_key, notes=None):
    order = np.argsort(-np.asarray(importance_key), kind="stable")
    ranks = np.empty(len(names), dtype=int)
    ranks[order] = np.arange(1, len(names) + 1)
    rows = tuple(
        {"name": names[j], "score": float(scores[j]), "rank": int(ranks[j])}
        for j in range(len(names))
    )
    return ImportanceReport(
        rows=rows, method=method, subset=subset, notes=notes or {}
    )


def _predictors(model: TrainedModel, values):
    """(baseline predictions, predict(shuffled, j)), both bit-identical to
    ``model.predict``; for a tree regressor ``predict`` re-walks only the
    trees that split on column j."""
    inner = model.inner
    if model.task != "regression" or not hasattr(inner, "combine"):
        return model.predict(values), lambda shuffled, j: model.predict(shuffled)
    packed = inner.packed
    leaves = packed.stacked(values)
    uses = packed.split_columns(values.shape[1])

    def finish(payloads):
        return model.from_raw(packed.reduce_stacked(payloads, inner.combine))

    baseline = finish(leaves)

    def predict(shuffled, j):
        trees = np.flatnonzero(uses[:, j])
        if trees.size == 0:
            return baseline
        # walk, then copy: the walk's temporaries and the copy never coexist
        walked = list(packed.leaves(shuffled, trees))
        payloads = leaves.copy()
        for rows, leaf in walked:
            payloads[trees, rows] = leaf
        return finish(payloads)

    return baseline, predict


def permutation_importance(
    model: TrainedModel,
    X,
    y,
    metric: str = "rmse",
    n_repeats: int = 5,
    seed: int = 0,
    subset: str = "all",
) -> ImportanceReport:
    """score_j = mean over repeats of metric(column j shuffled) - baseline.

    For error metrics a positive score means the feature matters; for
    higher-is-better metrics the sign flips, and ranking accounts for it.
    Tree regressors re-walk only the trees that split on the shuffled
    column; every other model predicts each shuffled copy in full.
    """
    if n_repeats < 1:
        raise ValueError(f"n_repeats must be >= 1, got {n_repeats}")
    values = as_values(X, model.feature_names)
    y = np.asarray(y)
    baseline_pred, predict = _predictors(model, values)
    baseline = metric_value(metric, y, baseline_pred)
    rng = np.random.default_rng(seed)
    m = values.shape[1]
    scores = np.zeros(m)
    for j in range(m):
        total = 0.0
        for _ in range(n_repeats):
            shuffled = values.copy()
            shuffled[:, j] = values[rng.permutation(values.shape[0]), j]
            total += metric_value(metric, y, predict(shuffled, j))
        scores[j] = total / n_repeats - baseline
    importance_key = scores if metric in ERROR_METRICS else -scores
    names = list(model.feature_names or (f"x{j}" for j in range(m)))
    return _build_report(
        names, scores, "permutation", subset, importance_key,
        notes={"baseline": baseline, "metric": metric},
    )


def _coalition_value(predict, record, background, mask) -> float:
    """Mean prediction with masked-off features replaced by each
    background row in turn."""
    rows = np.repeat(record[None, :], background.shape[0], axis=0)
    hidden = ~mask
    rows[:, hidden] = background[:, hidden]
    return float(np.mean(predict(rows)))


def _shapley_exhaustive(predict, record, background, m):
    cache = {}

    def value(mask_key, mask):
        if mask_key not in cache:
            cache[mask_key] = _coalition_value(predict, record, background, mask)
        return cache[mask_key]

    contributions = np.zeros(m)
    count = 0
    for perm in itertools.permutations(range(m)):
        mask = np.zeros(m, dtype=bool)
        prev = value(0, mask)
        key = 0
        for j in perm:
            mask[j] = True
            key |= 1 << j
            cur = value(key, mask)
            contributions[j] += cur - prev
            prev = cur
        count += 1
    return contributions / count


def shapley_sampling(
    model: TrainedModel,
    X,
    background,
    record,
    n_samples: int = 2000,
    seed: int = 0,
) -> np.ndarray:
    """Per-feature Shapley contributions for one record.

    Hidden features are substituted with background values. Contributions
    sum to f(record) - mean f(background) within Monte-Carlo tolerance;
    when n_samples covers all M! feature orderings the enumeration is
    exhaustive (full background averaging per coalition) and the sum rule
    holds exactly.
    """
    del X  # the schema is carried by the trained model
    background = np.asarray(background, dtype=float)
    record = np.asarray(record, dtype=float)
    if background.ndim != 2 or background.shape[0] == 0:
        raise ValueError("background must be a non-empty 2-D row sample")
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    m = record.shape[0]

    def predict(rows):
        return np.asarray(model.predict(rows), dtype=float)

    if n_samples >= math.factorial(m):
        return _shapley_exhaustive(predict, record, background, m)

    rng = np.random.default_rng(seed)
    contributions = np.zeros(m)
    # Batch all (M+1) coalition rows per sampled permutation into one
    # predict call to keep tree/boosting models fast.
    for _ in range(n_samples):
        perm = rng.permutation(m)
        bg = background[int(rng.integers(0, background.shape[0]))]
        rows = np.empty((m + 1, m))
        current = bg.copy()
        rows[0] = current
        for step, j in enumerate(perm, start=1):
            current = current.copy()
            current[j] = record[j]
            rows[step] = current
        preds = predict(rows)
        contributions[perm] += np.diff(preds)
    return contributions / n_samples


def subset_importance(
    dataset: Dataset,
    tc: float,
    model_kind: str,
    model_params=None,
    metric: str = "rmse",
    n_repeats: int = 5,
    seed: int = 0,
    target_transform: str = "none",
) -> dict[str, ImportanceReport]:
    """Independent importance reports on all data, the short-term subset A
    (duration <= tc) and the long-term subset B. Subsets smaller than 20
    records are flagged in the report notes."""
    if tc <= 0:
        raise ValueError("tc must be > 0")
    if metric not in ERROR_METRICS:
        raise ValueError(
            f"metric must be one of {', '.join(ERROR_METRICS)} for the "
            f"regression models subset importance fits, got {metric!r}"
        )
    enc = encode(dataset)
    values = enc.values
    durations = dataset.durations
    index_sets = {
        "all": np.arange(len(dataset)),
        "A": np.flatnonzero(durations <= tc),
        "B": np.flatnonzero(durations > tc),
    }
    reports = {}
    for tag in SUBSET_TAGS:
        rows = index_sets[tag]
        if rows.shape[0] < 2:
            raise ValueError(f"subset {tag} has fewer than 2 records")
        model = fit_model(
            model_kind,
            values[rows],
            durations[rows],
            params=model_params,
            task="regression",
            target_transform=target_transform,
            seed=derive_seed(seed, SUBSET_TAGS.index(tag)),
        )
        report = permutation_importance(
            model,
            values[rows],
            durations[rows],
            metric=metric,
            n_repeats=n_repeats,
            seed=derive_seed(seed, 100 + SUBSET_TAGS.index(tag)),
            subset=tag,
        )
        notes = dict(report.notes)
        notes["n_records"] = int(rows.shape[0])
        notes["flagged_small"] = rows.shape[0] < MIN_SUBSET_SIZE
        rows_named = tuple(
            {**row, "name": enc.feature_names[j]}
            for j, row in enumerate(report.rows)
        )
        reports[tag] = ImportanceReport(
            rows=rows_named, method=report.method, subset=tag, notes=notes
        )
    return reports
