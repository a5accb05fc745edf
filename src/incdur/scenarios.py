"""Extrapolation scenarios across duration regimes, quantiled
time-folding, and the pipeline/fusion composite models.

Records are split at a duration threshold by ``binary_labels``: subset A
(label 0) holds the short-term records, duration <= tc, and subset B
(label 1) the long-term rest. A scenario X-to-Y trains on subset X and
evaluates on subset Y; same-population scenarios use cross-validation
instead, since train and test must stay disjoint. The pipeline routes each
record to a subset regressor by a classifier's label; fusion extends it
with an all-data regressor and a meta-regressor over the four base outputs.
``fit_pipeline`` and ``fit_fusion`` take the base kinds as one tuple:
classifier, regressor A, regressor B and, for fusion, the all-data
regressor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._parallel import parallel_map
from .cv import cross_val_predict, derive_seed, fold_indexes, holdout_split
from .dataset import Dataset, Encoder, encode
from .labeling import DEFAULT_TC, binary_labels, subset_rows
from .metrics import mape_excluding_zero, rmse
from .models import TrainedModel, fit_model

__all__ = [
    "SCENARIOS",
    "SCENARIO_NAMES",
    "PipelineModel",
    "FusionModel",
    "run_scenario",
    "scenario_table",
    "quantiled_time_folding",
    "fit_pipeline",
    "fit_fusion",
    "fusion_table",
]

#: Scenario name -> (training rows, test rows), each "All", "A" or "B".
SCENARIOS = {
    "AlltoAll": ("All", "All"),
    "AtoA": ("A", "A"),
    "AtoB": ("A", "B"),
    "BtoA": ("B", "A"),
    "BtoB": ("B", "B"),
    "AlltoA": ("All", "A"),
    "AlltoB": ("All", "B"),
}
SCENARIO_NAMES = tuple(SCENARIOS)


class ScenarioError(ValueError):
    pass


def _encode_on(dataset: Dataset, fit_indices: np.ndarray) -> np.ndarray:
    """Encode all rows with an encoder fitted on the training population,
    so categorical levels unseen in training map to the missing indicator."""
    return Encoder.fit(dataset.subset(fit_indices)).transform(dataset)


def _errors(actual, predictions) -> dict:
    """The error columns of a table row: MAPE, RMSE and test size."""
    mape, excluded = mape_excluding_zero(actual, predictions)
    return {"mape": mape, "rmse": rmse(actual, predictions),
            "mape_excluded_zeros": excluded, "n_test": int(actual.shape[0])}


def run_scenario(
    dataset: Dataset,
    name: str,
    model: str,
    tc: float = DEFAULT_TC,
    folds: int = 10,
    seed: int = 0,
    target_transform: str = "none",
    model_params=None,
) -> dict:
    """MAPE/RMSE and per-record predictions for one train/test scenario.

    A scenario whose source is its target or all records cross-validates
    over the source and scores the test records in the target; a
    cross-subset scenario (AtoB, BtoA) fits once on the full source subset
    and predicts the target. A cross-validated source must hold at least
    ``folds`` records, and every subset the scenario uses at least one.
    """
    if name not in SCENARIOS:
        raise ScenarioError(f"unknown scenario {name!r}")
    durations = dataset.durations
    rows = dict(zip(("All", "A", "B"), subset_rows(durations, tc)))
    source, target = SCENARIOS[name]
    cross_validated = source in (target, "All")
    for subset in (source, target):
        count = rows[subset].shape[0]
        if cross_validated and subset == source and count < folds:
            raise ScenarioError(
                f"scenario {name} cross-validates subset {subset}, which holds "
                f"{count} records, fewer than its {folds} folds"
            )
        if count == 0:
            raise ScenarioError(
                f"scenario {name} requires a non-empty subset {subset}"
            )
    train = rows[source]
    values = _encode_on(dataset, train)
    if cross_validated:
        oof = cross_val_predict(
            model,
            values[train],
            durations[train],
            folds,
            params=model_params,
            task="regression",
            target_transform=target_transform,
            seed=seed,
        )
        keep = np.isin(train, rows[target])
        test_indices = train[keep]
        predictions = oof[keep]
    else:
        fitted = fit_model(
            model,
            values[train],
            durations[train],
            params=model_params,
            task="regression",
            target_transform=target_transform,
            seed=derive_seed(seed, 0),
        )
        test_indices = rows[target]
        predictions = fitted.predict(values[test_indices])

    return {
        "scenario": name,
        "model": model,
        "tc": tc,
        **_errors(durations[test_indices], predictions),
        "test_indices": test_indices,
        "predictions": predictions,
    }


def scenario_table(
    dataset: Dataset,
    models=("tree",),
    tc: float = DEFAULT_TC,
    folds: int = 10,
    seed: int = 0,
    target_transform: str = "none",
    names=SCENARIO_NAMES,
    workers: int = 1,
) -> list[dict]:
    """One row per (scenario, model), in fixed order, without index arrays."""
    cells = [(name, kind) for name in names for kind in models]
    rows = parallel_map(
        lambda cell: run_scenario(dataset, *cell, tc=tc, folds=folds, seed=seed,
                                  target_transform=target_transform),
        cells, workers,
    )
    return [
        {k: v for k, v in row.items() if k not in ("test_indices", "predictions")}
        for row in rows
    ]


def quantiled_time_folding(
    dataset: Dataset,
    model: str,
    n_groups: int = 10,
    model_params=None,
    seed: int = 0,
    target_transform: str = "none",
) -> list[dict]:
    """Per-duration-regime error: sort by duration, cut into equal
    contiguous groups, train on the other groups and report each group's
    RMSE."""
    n = len(dataset)
    if n < n_groups:
        raise ScenarioError("need at least n_groups records")
    order = np.argsort(dataset.durations, kind="stable")
    values = encode(dataset)[order]
    durations = dataset.durations[order]
    pred = cross_val_predict(
        model, values, durations, n_groups, params=model_params,
        task="regression", target_transform=target_transform, seed=seed,
    )
    rows = []
    for g in range(n_groups):
        test = fold_indexes(n, n_groups, g)[1]
        rows.append({
            "group": g,
            "duration_min": float(durations[test].min()),
            "duration_max": float(durations[test].max()),
            "n": int(test.shape[0]),
            "rmse": rmse(durations[test], pred[test]),
        })
    return rows


@dataclass(frozen=True)
class PipelineModel:
    """Classifier routes each record to the subset-specialised regressor."""

    encoder: Encoder
    classifier: TrainedModel
    regressor_a: TrainedModel
    regressor_b: TrainedModel

    def predict(self, dataset: Dataset) -> np.ndarray:
        values = self.encoder.transform(dataset)
        out = self.regressor_a.predict(values)
        long_term = self.classifier.predict(values) == 1
        if long_term.any():
            out = out.copy()
            out[long_term] = self.regressor_b.predict(values[long_term])
        return out


@dataclass(frozen=True)
class FusionModel(PipelineModel):
    """Meta-regressor over the (class, regA, regB, regAll) base predictions
    that varied out of fold, the ``meta_columns``."""

    regressor_all: TrainedModel
    meta: TrainedModel
    meta_columns: np.ndarray  # bool, one per base model

    def predict(self, dataset: Dataset) -> np.ndarray:
        bases = (self.classifier, self.regressor_a, self.regressor_b,
                 self.regressor_all)
        meta_x = _meta_features(bases, self.encoder.transform(dataset))
        return self.meta.predict(np.ascontiguousarray(meta_x[:, self.meta_columns]))


def _fit_bases(kinds, values, durations, labels, rows, seed, target_transform):
    """Fit one model per kind on a row subset: the classifier, the two
    subset regressors and, given a fourth kind, the all-data regressor."""
    a_rows = rows[labels[rows] == 0]
    b_rows = rows[labels[rows] == 1]
    if a_rows.shape[0] < 2 or b_rows.shape[0] < 2:
        raise ScenarioError(
            "both duration subsets need at least 2 training records"
        )
    fits = [
        (rows, labels, "classification"),
        (a_rows, durations, "regression"),
        (b_rows, durations, "regression"),
        (rows, durations, "regression"),
    ]
    return [
        fit_model(kind, values[fit_rows], y[fit_rows], task=task,
                  target_transform=target_transform, seed=derive_seed(seed, key))
        for key, (kind, (fit_rows, y, task)) in enumerate(zip(kinds, fits), 1)
    ]


def fit_pipeline(
    dataset: Dataset,
    kinds,
    tc: float = DEFAULT_TC,
    seed: int = 0,
    target_transform: str = "none",
) -> PipelineModel:
    encoder = Encoder.fit(dataset)
    bases = _fit_bases(kinds, encoder.transform(dataset), dataset.durations,
                       binary_labels(dataset.durations, tc),
                       np.arange(len(dataset)), seed, target_transform)
    return PipelineModel(encoder, *bases)


def _meta_features(bases, values) -> np.ndarray:
    """One column per base model: class, regA, regB, regAll."""
    return np.column_stack([m.predict(values).astype(float) for m in bases])


def fit_fusion(
    dataset: Dataset,
    kinds,
    tc: float = DEFAULT_TC,
    folds: int = 5,
    seed: int = 0,
    meta: str = "linear",
    target_transform: str = "none",
) -> FusionModel:
    """Meta-features are generated out-of-fold: the base models scoring a
    training record never saw it, so the meta-regressor is not trained on
    in-sample base predictions. A meta column that is constant out of fold
    (say, every record classed long-term) is left out, since the meta
    model's intercept already holds a constant column. The dataset must
    hold at least ``folds`` records."""
    n = len(dataset)
    if n < folds:
        raise ScenarioError(
            f"fusion holds {n} training records, fewer than its {folds} folds"
        )
    encoder = Encoder.fit(dataset)
    values = encoder.transform(dataset)
    durations = dataset.durations
    labels = binary_labels(durations, tc)

    meta_x = np.empty((n, 4))
    for k in range(folds):
        train, test = fold_indexes(n, folds, k)
        bases = _fit_bases(kinds, values, durations, labels, train,
                           derive_seed(seed, 10, k), target_transform)
        meta_x[test] = _meta_features(bases, values[test])

    columns = (meta_x != meta_x[:1]).any(axis=0)
    meta_model = fit_model(
        meta, np.ascontiguousarray(meta_x[:, columns]), durations,
        task="regression", target_transform=target_transform,
        seed=derive_seed(seed, 20),
    )
    bases = _fit_bases(kinds, values, durations, labels, np.arange(n), seed,
                       target_transform)
    return FusionModel(encoder, *bases, meta_model, columns)


def fusion_table(
    dataset: Dataset,
    classifier: str = "gbt",
    regressor_a: str = "gbt",
    regressor_b: str = "gbt",
    regressor_all: str = "gbt",
    meta: str = "linear",
    target_transform: str = "none",
    tc: float = DEFAULT_TC,
    folds: int = 5,
    seed: int = 0,
) -> list[dict]:
    """Fusion, pipeline and one all-data regressor, fitted on the training
    part of a holdout split and scored on its test part: one row each."""
    train_idx, test_idx = holdout_split(len(dataset))
    train, test = dataset.subset(train_idx), dataset.subset(test_idx)
    kinds = (classifier, regressor_a, regressor_b, regressor_all)
    fusion = fit_fusion(train, kinds, tc, folds, seed=derive_seed(seed, 1),
                        meta=meta, target_transform=target_transform)
    pipeline = fit_pipeline(train, kinds[:3], tc, seed=derive_seed(seed, 2),
                            target_transform=target_transform)
    single = fit_model(
        regressor_all, fusion.encoder.transform(train), train.durations,
        task="regression", target_transform=target_transform,
        seed=derive_seed(seed, 3),
    )
    predictions = {
        "fusion": fusion.predict(test),
        "pipeline": pipeline.predict(test),
        "single": single.predict(fusion.encoder.transform(test)),
    }
    return [{"model": name, **_errors(test.durations, pred)}
            for name, pred in predictions.items()]
