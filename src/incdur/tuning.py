"""Randomised hyper-parameter search and the intra/extra joint
optimisation of model and outlier-removal hyper-parameters.

Extra mode removes outliers once from the train/test part before fold
rotation; intra mode removes them from the training folds of every split,
never touching the test fold. Outliers are scored on features and duration
jointly. Draw scoring uses the concatenated out-of-fold predictions.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ._parallel import parallel_map
from .cv import derive_seed, fold_indexes, holdout_split
from .dataset import Dataset, encode
from .labeling import binary_labels
from .metrics import metric_value
from .models import ModelError, fit_model, make_params, params_to_dict
from .outliers import (MAX_ORM_PERCENT, OrmError, OrmParams, remove_top_percent,
                       score_with)

__all__ = [
    "HyperSpace",
    "HyperDraw",
    "CvPlan",
    "IeoResult",
    "DEFAULT_MODEL_SPACE",
    "fold_indexes",
    "sample_draw",
    "run_ieo",
    "iteration_curve",
]

MODES = ("none", "intra", "extra")
METRICS = ("mape", "rmse", "f1")

#: Range kinds: ("int", lo, hi) inclusive, ("float", lo, hi) uniform,
#: ("log", lo, hi) log-uniform for scale-like parameters.
DEFAULT_MODEL_SPACE = {
    "tree": {
        "max_depth": ("int", 2, 10),
        "min_samples_leaf": ("int", 1, 10),
    },
    "gbt": {
        "n_rounds": ("int", 20, 200),
        "learning_rate": ("log", 0.01, 0.3),
        "max_depth": ("int", 2, 6),
        "subsample": ("float", 0.5, 1.0),
        "colsample": ("float", 0.5, 1.0),
    },
    "gbt-reg": {
        "n_rounds": ("int", 20, 200),
        "learning_rate": ("log", 0.01, 0.3),
        "max_depth": ("int", 2, 6),
        "subsample": ("float", 0.5, 1.0),
        "colsample": ("float", 0.5, 1.0),
        "reg_lambda": ("log", 0.01, 10.0),
        "gamma": ("float", 0.0, 1.0),
    },
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
    """A draw left a fold untrainable; scored as infinitely bad, not fatal."""


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
            return [i * self.max_percent / folds for i in range(folds + 1)]
        return [0.0]


@dataclass(frozen=True)
class HyperDraw:
    model_params: object
    orm_params: OrmParams
    draw_index: int


@dataclass(frozen=True)
class CvPlan:
    n_folds: int = 5
    mode: str = "none"
    iterations: int = 250
    seed: int = 0
    target_transform: str = "none"

    def __post_init__(self):
        if self.n_folds < 2:
            raise TuningError("n_folds must be >= 2")
        if self.iterations < 1:
            raise TuningError("iterations must be >= 1")
        if self.mode not in MODES:
            raise TuningError(f"unknown mode {self.mode!r}")


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


def _sample_value(rng, spec):
    kind = spec[0]
    if kind == "int":
        return int(rng.integers(spec[1], spec[2] + 1))
    if kind == "float":
        return float(rng.uniform(spec[1], spec[2]))
    if kind == "log":
        return float(np.exp(rng.uniform(np.log(spec[1]), np.log(spec[2]))))
    if kind == "choice":
        return spec[1][int(rng.integers(0, len(spec[1])))]
    raise TuningError(f"unknown range kind {kind!r}")


def sample_draw(
    space: HyperSpace,
    model_kind: str,
    mode: str,
    folds: int,
    seed: int,
    draw_index: int,
) -> HyperDraw:
    """Deterministic function of (seed, draw_index): uniform per dimension,
    log-uniform for scale-like parameters."""
    if model_kind not in space.model_space:
        raise TuningError(f"no ranges declared for model kind {model_kind!r}")
    rng = np.random.default_rng([seed & 0xFFFFFFFF, draw_index])
    ranges = space.model_space[model_kind]
    sampled = {name: _sample_value(rng, ranges[name]) for name in sorted(ranges)}
    model_params = make_params(model_kind, **sampled)

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


def _selection_key(metric, value):
    return -value if metric == "f1" else value


def _apply_orm(orm_matrix, indices, orm_params, seed):
    """Indices kept after removing the configured percent of outliers."""
    if orm_params.percent_removed <= 0 or indices.shape[0] < 3:
        return indices, 0
    scores = score_with(orm_params, orm_matrix[indices], seed=seed)
    kept_local = remove_top_percent(scores, orm_params.percent_removed)
    return indices[kept_local], indices.shape[0] - kept_local.shape[0]


def _evaluate_draw(
    values, y, orm_matrix, train_part, draw, plan, model_kind, task, metric
):
    kept = train_part
    removed_extra = 0
    if plan.mode == "extra":
        kept, removed_extra = _apply_orm(
            orm_matrix,
            train_part,
            draw.orm_params,
            derive_seed(plan.seed, draw.draw_index, 9001),
        )
    m = kept.shape[0]
    if m < plan.n_folds:
        raise DrawFailed("outlier removal left fewer records than folds")

    oof = np.empty(m, dtype=float if task == "regression" else int)
    removed_per_fold = []
    # Per-draw base seed; fold k fits with derive_seed(base, k), the same
    # keying cross_val_predict uses, so a draw with no removal reproduces
    # plain cross-validation bit-identically.
    base_seed = derive_seed(plan.seed, draw.draw_index)
    for k in range(plan.n_folds):
        train_local, test_local = fold_indexes(m, plan.n_folds, k)
        train_idx = kept[train_local]
        removed = 0
        if plan.mode == "intra":
            train_idx, removed = _apply_orm(
                orm_matrix,
                train_idx,
                draw.orm_params,
                derive_seed(plan.seed, draw.draw_index, k),
            )
        removed_per_fold.append(removed)
        if train_idx.shape[0] < 2:
            raise DrawFailed("fold left with < 2 training records")
        model = fit_model(
            model_kind,
            values[train_idx],
            y[train_idx],
            params=draw.model_params,
            task=task,
            target_transform=plan.target_transform,
            seed=derive_seed(base_seed, k),
        )
        oof[test_local] = model.predict(values[kept[test_local]])

    score = metric_value(metric, y[kept], oof)
    return {
        "oof_indices": kept,
        "oof_predictions": oof,
        "metric_value": score,
        "removed_extra": removed_extra,
        "removed_per_fold": removed_per_fold,
    }


def run_ieo(
    dataset: Dataset,
    model_kind: str = "tree",
    plan: CvPlan = CvPlan(),
    space: HyperSpace | None = None,
    metric: str = "mape",
    tc: float | None = None,
    workers: int = 1,
) -> IeoResult:
    """Joint random search over model and ORM hyper-parameters.

    Each draw is scored on concatenated out-of-fold predictions over the
    sequential 80% train/test part; the best draw is refit on the
    ORM-filtered train/test part and evaluated on the held-out 20%
    validation part. Failed draws score as infinitely bad.

    ``metric``="f1" switches to binary classification of durations at
    threshold ``tc``; "mape"/"rmse" run regression on raw durations.
    """
    if metric not in METRICS:
        raise TuningError(f"unknown metric {metric!r}")
    space = space or HyperSpace()
    enc = encode(dataset)
    values = enc.values
    durations = dataset.durations
    n = len(dataset)
    if n < 10:
        raise TuningError("need at least 10 records")

    task = "classification" if metric == "f1" else "regression"
    if task == "classification":
        if tc is None:
            raise TuningError("metric 'f1' requires a threshold tc")
        y = binary_labels(durations, tc)
    else:
        y = durations

    train_part, valid_part = holdout_split(n)
    orm_matrix = np.hstack([values, durations[:, None]])

    def eval_one(it):
        draw = sample_draw(
            space, model_kind, plan.mode, plan.n_folds, plan.seed, it
        )
        try:
            outcome = _evaluate_draw(
                values, y, orm_matrix, train_part, draw, plan,
                model_kind, task, metric,
            )
            failed = False
        except (DrawFailed, ModelError, OrmError) as exc:
            outcome = {
                "oof_indices": None,
                "oof_predictions": None,
                "metric_value": float("inf") if metric != "f1" else float("-inf"),
                "removed_extra": 0,
                "removed_per_fold": [0] * plan.n_folds,
                "error": str(exc),
            }
            failed = True
        return draw, outcome, failed

    evaluated = parallel_map(eval_one, range(plan.iterations), workers)

    trace = []
    best_entry = None
    best_key = None
    for draw, outcome, failed in evaluated:
        entry = {
            "draw_index": draw.draw_index,
            "metric_value": outcome["metric_value"],
            "failed": failed,
            "model_params": params_to_dict(draw.model_params),
            "orm_method": draw.orm_params.method,
            "orm_percent": draw.orm_params.percent_removed,
            "removed_extra": outcome["removed_extra"],
            "removed_per_fold": list(outcome["removed_per_fold"]),
        }
        trace.append(entry)
        if failed:
            continue
        key = _selection_key(metric, outcome["metric_value"])
        if best_key is None or key < best_key:  # ties keep the lower draw_index
            best_key = key
            best_entry = (draw, outcome, entry)

    if best_entry is None:
        raise TuningError("all draws failed")
    best_draw, best_outcome, best_row = best_entry

    final_train, _ = _apply_orm(
        orm_matrix,
        train_part,
        best_draw.orm_params if plan.mode != "none" else
        OrmParams(percent_removed=0.0),
        derive_seed(plan.seed, best_draw.draw_index, 9002),
    )
    final_model = fit_model(
        model_kind,
        values[final_train],
        y[final_train],
        params=best_draw.model_params,
        task=task,
        target_transform=plan.target_transform,
        seed=derive_seed(plan.seed, best_draw.draw_index, 9003),
    )
    valid_pred = final_model.predict(values[valid_part])
    valid_metric = metric_value(metric, y[valid_part], valid_pred)

    return IeoResult(
        model_kind=model_kind,
        mode=plan.mode,
        metric=metric,
        trace=tuple(trace),
        best=best_row,
        oof_indices=best_outcome["oof_indices"],
        oof_predictions=best_outcome["oof_predictions"],
        validation_indices=valid_part,
        validation_predictions=valid_pred,
        validation_metric=valid_metric,
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
    """Best random-search metric as a function of iteration budget, with
    wall-clock per evaluation point."""
    rows = []
    for kind in models:
        for count in iteration_counts:
            plan = CvPlan(
                n_folds=folds,
                mode="none",
                iterations=int(count),
                seed=seed,
                target_transform=target_transform,
            )
            start = time.perf_counter()
            result = run_ieo(
                dataset, kind, plan, space=space, metric=metric, workers=workers
            )
            elapsed = time.perf_counter() - start
            rows.append(
                {
                    "model": kind,
                    "iterations": int(count),
                    "best_metric": result.best["metric_value"],
                    "wall_clock_s": elapsed,
                }
            )
    return rows
