"""Randomised hyper-parameter search and the intra/extra joint
optimisation of model and outlier-removal hyper-parameters.

Extra mode removes outliers once from the train/test part before fold
rotation; intra mode removes them from the training folds of every split,
never touching the test fold. Outliers are scored on features and duration
jointly. Every draw folds through ``cv.cross_val_predict`` and is scored on
its concatenated out-of-fold predictions.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import asdict, dataclass, field

import numpy as np

from ._parallel import parallel_map
from .cv import cross_val_predict, derive_seed, holdout_split
from .dataset import Dataset, encode
from .labeling import binary_labels
from .metrics import metric_value
from .models import ModelError, fit_model, make_params
from .outliers import (MAX_ORM_PERCENT, OrmError, OrmParams, remove_top_percent,
                       score_with)

__all__ = [
    "HyperSpace",
    "HyperDraw",
    "IeoResult",
    "DEFAULT_MODEL_SPACE",
    "sample_draw",
    "run_ieo",
    "iteration_curve",
]

MODES = ("none", "intra", "extra")
METRICS = ("mape", "rmse", "f1")

#: The ranges both boosting kinds draw; gbt-reg adds its regularisers.
_BOOST_SPACE = {
    "n_rounds": ("int", 20, 200),
    "learning_rate": ("log", 0.01, 0.3),
    "max_depth": ("int", 2, 6),
    "subsample": ("float", 0.5, 1.0),
    "colsample": ("float", 0.5, 1.0),
}

#: Range kinds: ("int", lo, hi) inclusive, ("float", lo, hi) uniform,
#: ("log", lo, hi) log-uniform for scale-like parameters.
DEFAULT_MODEL_SPACE = {
    "tree": {
        "max_depth": ("int", 2, 10),
        "min_samples_leaf": ("int", 1, 10),
    },
    "gbt": _BOOST_SPACE,
    # sample_draw sorts the names, so key order moves no draw
    "gbt-reg": {**_BOOST_SPACE, "reg_lambda": ("log", 0.01, 10.0),
                "gamma": ("float", 0.0, 1.0)},
    "random-forest": {
        "n_trees": ("int", 20, 150),
        "max_depth": ("int", 3, 12),
        "bootstrap_fraction": ("float", 0.5, 1.0),
    },
    "knn": {
        "k": ("int", 1, 25),
    },
    "linear": {
        "ridge": ("log", 1e-6, 10.0),
    },
}


class TuningError(ValueError):
    pass


class DrawFailed(RuntimeError):
    """Removal left fewer records than folds: the draw fails, not the run."""


@dataclass(frozen=True)
class HyperSpace:
    """Joint space: per-kind model ranges plus the ORM ranges.

    The removal-percent grid is mode dependent: {0, 1%, ..., 5%} for extra
    and {0, 1/F, ..., F/F} * 5% for intra, keeping removed amounts
    comparable between the two placements.
    """

    model_space: dict = field(default_factory=lambda: dict(DEFAULT_MODEL_SPACE))
    orm_methods: tuple[str, ...] = ("isolation-forest", "lof")
    max_percent: float = MAX_ORM_PERCENT
    if_n_trees: tuple[int, int] = (50, 150)
    if_subsample: tuple[int, int] = (64, 256)
    lof_k: tuple[int, int] = (5, 35)

    def percent_grid(self, mode: str, folds: int) -> list[float]:
        if mode == "extra":
            return [i * 0.01 for i in range(int(self.max_percent * 100) + 1)]
        if mode == "intra":
            # min: for some folds, such as 3, F * 5% / F rounds above 5%
            return [min(i * self.max_percent / folds, self.max_percent)
                    for i in range(folds + 1)]
        return [0.0]


@dataclass(frozen=True)
class HyperDraw:
    model_params: object
    orm_params: OrmParams
    draw_index: int


@dataclass(frozen=True)
class IeoResult:
    model_kind: str
    mode: str
    metric: str
    trace: tuple[dict, ...]
    best: dict
    oof_indices: np.ndarray
    oof_predictions: np.ndarray
    validation_indices: np.ndarray
    validation_predictions: np.ndarray
    validation_metric: float
    warnings: tuple[str, ...] = ()


def _sample_value(rng, spec):
    kind = spec[0]
    if kind == "int":
        return int(rng.integers(spec[1], spec[2] + 1))
    if kind == "float":
        return float(rng.uniform(spec[1], spec[2]))
    if kind == "log":
        return float(np.exp(rng.uniform(np.log(spec[1]), np.log(spec[2]))))
    raise TuningError(f"unknown range kind {kind!r}")


def sample_draw(
    space: HyperSpace,
    model: str,
    mode: str,
    folds: int,
    seed: int,
    draw_index: int,
) -> HyperDraw:
    """Deterministic function of (seed, draw_index): uniform per dimension,
    log-uniform for scale-like parameters."""
    if model not in space.model_space:
        raise TuningError(f"no ranges declared for model kind {model!r}")
    rng = np.random.default_rng([seed & 0xFFFFFFFF, draw_index])
    ranges = space.model_space[model]
    sampled = {name: _sample_value(rng, ranges[name]) for name in sorted(ranges)}
    model_params = make_params(model, **sampled)

    method = space.orm_methods[int(rng.integers(0, len(space.orm_methods)))]
    grid = space.percent_grid(mode, folds)
    percent = grid[int(rng.integers(0, len(grid)))]
    orm_params = OrmParams(
        method=method,
        percent_removed=percent,
        if_n_trees=_sample_value(rng, ("int", *space.if_n_trees)),
        if_subsample=_sample_value(rng, ("int", *space.if_subsample)),
        lof_k=_sample_value(rng, ("int", *space.lof_k)),
    )
    return HyperDraw(model_params, orm_params, draw_index)


def _apply_orm(orm_matrix, indices, orm_params, seed):
    """Indices kept after removing the configured percent of outliers.
    A draw whose percent floors to no record scores nothing."""
    if int(orm_params.percent_removed * indices.shape[0]) == 0:
        return indices, 0
    scores = score_with(orm_params, orm_matrix[indices], seed=seed)
    kept_local = remove_top_percent(scores, orm_params.percent_removed)
    return indices[kept_local], indices.shape[0] - kept_local.shape[0]


def _evaluate_draw(draw, values, y, orm_matrix, train_part, model, task,
                   metric, folds, mode, seed, target_transform):
    """(kept rows, their out-of-fold predictions, the draw's scored trace
    fields). The folds rotate over the kept rows; each fits with
    ``derive_seed(derive_seed(seed, draw_index), k)``, so a draw that
    removes nothing reproduces plain cross-validation bit-identically."""
    kept, removed_extra = train_part, 0
    if mode == "extra":
        kept, removed_extra = _apply_orm(
            orm_matrix, train_part, draw.orm_params,
            derive_seed(seed, draw.draw_index, 9001),
        )
    if kept.shape[0] < folds:
        raise DrawFailed(f"outlier removal left {kept.shape[0]} records, "
                         f"fewer than {folds} folds")

    removed_per_fold = []

    def train_rows(train, k):
        removed = 0
        if mode == "intra":
            # intra mode keeps rows 0..cut-1, so fold rows are dataset rows
            train, removed = _apply_orm(
                orm_matrix, train, draw.orm_params,
                derive_seed(seed, draw.draw_index, k),
            )
        removed_per_fold.append(removed)
        return train

    oof = cross_val_predict(
        model, values[kept], y[kept], folds, params=draw.model_params,
        task=task, target_transform=target_transform,
        seed=derive_seed(seed, draw.draw_index), train_rows=train_rows,
    )
    return kept, oof, {
        "metric_value": metric_value(metric, y[kept], oof),
        "removed_extra": removed_extra,
        "removed_per_fold": removed_per_fold,
    }


def run_ieo(
    dataset: Dataset,
    model: str = "tree",
    folds: int = 5,
    mode: str = "none",
    iterations: int = 250,
    seed: int = 0,
    target_transform: str = "none",
    space: HyperSpace | None = None,
    metric: str = "mape",
    tc: float | None = None,
    workers: int = 1,
) -> IeoResult:
    """Joint random search over model and ORM hyper-parameters.

    Each draw is scored on concatenated out-of-fold predictions over the
    sequential 80% train/test part; the best draw is refit on the
    ORM-filtered train/test part and evaluated on the held-out 20%
    validation part. Extra mode refits on the rows the draw kept; intra
    mode scores the whole train/test part anew. Failed draws score as
    infinitely bad and keep their reason as the trace entry's ``error``.

    ``metric``="f1" switches to binary classification of durations at
    threshold ``tc``, which only f1 takes; "mape"/"rmse" run regression on
    raw durations. When the search part holds one class, every draw scores
    the same f1, and the result's ``warnings`` say so.
    """
    if folds < 2:
        raise TuningError("folds must be >= 2")
    if iterations < 1:
        raise TuningError("iterations must be >= 1")
    if mode not in MODES:
        raise TuningError(f"unknown mode {mode!r}")
    if metric not in METRICS:
        raise TuningError(f"unknown metric {metric!r}")
    if (tc is None) == (metric == "f1"):
        raise TuningError("metric 'f1' needs a threshold tc; no other metric takes one")
    space = space or HyperSpace()
    values = encode(dataset)
    durations = dataset.durations
    n = len(dataset)
    if n < 10:
        raise TuningError("need at least 10 records")

    task = "classification" if metric == "f1" else "regression"
    y = binary_labels(durations, tc) if task == "classification" else durations

    train_part, valid_part = holdout_split(n)
    if train_part.shape[0] < folds:
        raise TuningError(f"ieo search part holds {train_part.shape[0]} records, "
                          f"fewer than its {folds} folds")
    warnings = []
    classes = set(y[train_part].tolist()) if task == "classification" else ()
    if len(classes) == 1:
        (label,) = classes
        warnings.append(
            f"ieo search part holds only class {label} "
            f"({'long' if label else 'short'}-term at tc={float(tc)}): "
            "every draw scores the same f1, so the search cannot rank them"
        )
    orm_matrix = np.hstack([values, durations[:, None]])

    def eval_one(it):
        draw = sample_draw(space, model, mode, folds, seed, it)
        entry = {
            "draw_index": it,
            "model_params": asdict(draw.model_params),
            "orm_method": draw.orm_params.method,
            "orm_percent": draw.orm_params.percent_removed,
        }
        try:
            kept, oof, scored = _evaluate_draw(
                draw, values, y, orm_matrix, train_part, model, task,
                metric, folds, mode, seed, target_transform,
            )
            scored["failed"] = False
        except (DrawFailed, ModelError, OrmError) as exc:
            kept = oof = None
            scored = {"metric_value": float("-inf" if metric == "f1" else "inf"),
                      "failed": True, "removed_extra": 0,
                      "removed_per_fold": [0] * folds, "error": str(exc)}
        return draw, kept, oof, {**entry, **scored}

    evaluated = parallel_map(eval_one, range(iterations), workers)
    ok = [e for e in evaluated if not e[3]["failed"]]
    if not ok:
        reasons = Counter(e[3]["error"] for e in evaluated)  # in draw order
        raise TuningError("all draws failed: " + "; ".join(
            f"{reason} ({count} draw{'s' * (count > 1)})"
            for reason, count in reasons.items()
        ))
    # min keeps the first of equal keys: ties go to the lower draw_index
    sign = -1 if metric == "f1" else 1
    best_draw, oof_indices, oof_predictions, best_row = min(
        ok, key=lambda e: sign * e[3]["metric_value"]
    )

    final_train = oof_indices
    if mode == "intra":
        final_train, _ = _apply_orm(
            orm_matrix, train_part, best_draw.orm_params,
            derive_seed(seed, best_draw.draw_index, 9002),
        )
    final_model = fit_model(
        model, values[final_train], y[final_train],
        params=best_draw.model_params, task=task,
        target_transform=target_transform,
        seed=derive_seed(seed, best_draw.draw_index, 9003),
    )
    valid_pred = final_model.predict(values[valid_part])

    return IeoResult(
        model_kind=model,
        mode=mode,
        metric=metric,
        trace=tuple(e[3] for e in evaluated),
        best=best_row,
        oof_indices=oof_indices,
        oof_predictions=oof_predictions,
        validation_indices=valid_part,
        validation_predictions=valid_pred,
        validation_metric=metric_value(metric, y[valid_part], valid_pred),
        warnings=tuple(warnings),
    )


def iteration_curve(
    dataset: Dataset,
    models=("tree",),
    iteration_counts=tuple(range(25, 251, 25)),
    folds: int = 5,
    seed: int = 0,
    metric: str = "mape",
    space: HyperSpace | None = None,
    target_transform: str = "none",
    workers: int = 1,
) -> list[dict]:
    """Best random-search metric at each iteration budget. Draw i depends
    only on (seed, i), so each model runs one search at the largest budget,
    and budget c reads the lowest metric among its first c draws: a c-draw
    search's best, or inf when those draws all failed."""
    counts = [int(count) for count in iteration_counts]
    if not counts:
        return []
    if min(counts) < 1:
        raise TuningError("iterations must be >= 1")
    rows = []
    for kind in models:
        result = run_ieo(
            dataset, kind, folds=folds, iterations=max(counts), seed=seed,
            target_transform=target_transform, space=space, metric=metric,
            workers=workers,
        )
        best = np.minimum.accumulate([e["metric_value"] for e in result.trace])
        rows.extend({"model": kind, "iterations": count,
                     "best_metric": float(best[count - 1])} for count in counts)
    return rows
