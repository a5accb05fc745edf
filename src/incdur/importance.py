"""Model-agnostic feature importance: permutation screening and
Monte-Carlo Shapley value sampling, with per-duration-subset rankings.

Permutation importance draws one ``rng.permutation(n)`` per column and
repeat, column by column, and scores each shuffled copy. For a tree
regressor it walks the rows through every tree once and keeps each row
chunk's leaf payloads (trees × rows floats in all). A shuffled chunk goes
only through the trees that split on the shuffled column, since no other
tree's leaves can change, into a copy of the chunk's payloads; the combine
step and target transform finish it as ``TrainedModel.predict`` does.
Every other model predicts each shuffled copy in full.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .cv import derive_seed
from .dataset import Dataset, Encoder
from .labeling import DEFAULT_TC, subset_rows
from .metrics import metric_value
from .models import TrainedModel, fit_model
from .models.tree import TreeModel

__all__ = [
    "ERROR_METRICS",
    "MIN_SUBSET_SIZE",
    "SUBSET_TAGS",
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


def _predictors(model: TrainedModel, values):
    """(baseline predictions, predict(shuffled, j)), both bit-identical to
    ``model.predict``; for a tree regressor ``predict`` re-walks only the
    trees that split on column j."""
    inner = model.inner
    if model.task != "regression" or not isinstance(inner, TreeModel):
        return model.predict(values), lambda shuffled, j: model.predict(shuffled)
    packed = inner.packed
    chunks = list(packed.leaves(values))  # the row chunks ``reduce`` combines
    uses = packed.split_columns(values.shape[1])
    baseline = model.from_raw(np.concatenate([inner.combine(c) for _, c in chunks]))

    def predict(shuffled, j):
        trees = np.flatnonzero(uses[:, j])
        if trees.size == 0:
            return baseline

        def rewalked(rows, leaf):
            # fewer trees walk the chunk in one piece; walk, then copy, so
            # the walk's temporaries and the copy never coexist
            ((_, walked),) = packed.leaves(shuffled[rows], trees)
            payloads = leaf.copy()
            payloads[trees] = walked
            return inner.combine(payloads)

        return model.from_raw(np.concatenate([rewalked(*c) for c in chunks]))

    return baseline, predict


def permutation_importance(
    model: TrainedModel,
    X,
    y,
    metric: str = "rmse",
    n_repeats: int = 5,
    seed: int = 0,
    subset: str = "all",
    names=None,
) -> ImportanceReport:
    """score_j = mean over repeats of metric(column j shuffled) - baseline.

    For error metrics a positive score means the feature matters; for
    higher-is-better metrics the sign flips, and ranking accounts for it.
    Tree regressors re-walk only the trees that split on the shuffled
    column; every other model predicts each shuffled copy in full. Feature
    j is named ``names[j]``, ``x{j}`` by default.
    """
    if n_repeats < 1:
        raise ValueError(f"n_repeats must be >= 1, got {n_repeats}")
    values = model.check_width(X)
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
    order = np.argsort(-importance_key, kind="stable")
    ranks = np.empty(m, dtype=int)
    ranks[order] = np.arange(1, m + 1)
    names = names or [f"x{j}" for j in range(m)]
    rows = tuple(
        {"name": names[j], "score": float(scores[j]), "rank": int(ranks[j])}
        for j in range(m)
    )
    return ImportanceReport(rows=rows, method="permutation", subset=subset,
                            notes={"baseline": baseline, "metric": metric})


def _shapley_exhaustive(predict, record, background, m):
    cache = {}

    def value(mask_key, mask):
        """Mean prediction with the masked-off features taken from each
        background row in turn."""
        if mask_key not in cache:
            rows = np.where(mask, record, background)
            cache[mask_key] = float(np.mean(predict(rows)))
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
        # row s takes the record's values at the first s features of perm
        mask = np.argsort(perm) < np.arange(m + 1)[:, None]
        rows = np.where(mask, record, bg)
        preds = predict(rows)
        contributions[perm] += np.diff(preds)
    return contributions / n_samples


def subset_importance(
    dataset: Dataset,
    tc: float = DEFAULT_TC,
    model: str = "tree",
    model_params=None,
    metric: str = "rmse",
    n_repeats: int = 5,
    seed: int = 0,
    target_transform: str = "none",
) -> dict[str, ImportanceReport]:
    """Independent importance reports on all data, the short-term subset A
    (duration <= tc) and the long-term subset B. Subsets smaller than 20
    records are flagged in the report notes."""
    index_sets = dict(zip(SUBSET_TAGS, subset_rows(dataset.durations, tc)))
    if metric not in ERROR_METRICS:
        raise ValueError(
            f"metric must be one of {', '.join(ERROR_METRICS)} for the "
            f"regression models subset importance fits, got {metric!r}"
        )
    encoder = Encoder.fit(dataset)
    values = encoder.transform(dataset)
    durations = dataset.durations
    reports = {}
    for tag in SUBSET_TAGS:
        rows = index_sets[tag]
        if rows.shape[0] < 2:
            raise ValueError(f"subset {tag} has fewer than 2 records")
        fitted = fit_model(
            model,
            values[rows],
            durations[rows],
            params=model_params,
            task="regression",
            target_transform=target_transform,
            seed=derive_seed(seed, SUBSET_TAGS.index(tag)),
        )
        report = permutation_importance(
            fitted,
            values[rows],
            durations[rows],
            metric=metric,
            n_repeats=n_repeats,
            seed=derive_seed(seed, 100 + SUBSET_TAGS.index(tag)),
            subset=tag,
            names=encoder.feature_names,
        )
        reports[tag] = replace(report, notes={
            **report.notes, "n_records": int(rows.shape[0]),
            "flagged_small": rows.shape[0] < MIN_SUBSET_SIZE,
        })
    return reports
