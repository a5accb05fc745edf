"""Extrapolation scenarios across duration regimes, quantiled
time-folding, and the pipeline/fusion composite models.

Records are split at a duration threshold into subset A (short-term,
duration <= tc) and subset B (long-term). A scenario X-to-Y trains on
subset X and evaluates on subset Y; same-population scenarios use
cross-validation instead, since train and test must stay disjoint.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._parallel import parallel_map
from .cv import cross_val_predict, derive_seed, fold_indexes
from .dataset import Dataset, Encoder
from .labeling import DEFAULT_TC, binary_labels
from .metrics import mape_excluding_zero, rmse
from .models import TrainedModel, fit_model
from .tuning import CvPlan

__all__ = [
    "SCENARIOS",
    "SCENARIO_NAMES",
    "SCENARIO_PLAN",
    "AbSplit",
    "ScenarioSpec",
    "FusionConfig",
    "PipelineModel",
    "FusionModel",
    "split_ab",
    "run_scenario",
    "scenario_table",
    "quantiled_time_folding",
    "fit_pipeline",
    "predict_pipeline",
    "fit_fusion",
    "predict_fusion",
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

#: Scenarios cross-validate over 10 folds, where ``CvPlan`` defaults to 5.
SCENARIO_PLAN = CvPlan(n_folds=10)


class ScenarioError(ValueError):
    pass


@dataclass(frozen=True)
class AbSplit:
    """Duration-threshold split: A holds durations <= tc, B the rest."""

    tc: float
    a_indices: np.ndarray
    b_indices: np.ndarray

    @property
    def a_empty(self) -> bool:
        return self.a_indices.shape[0] == 0

    @property
    def b_empty(self) -> bool:
        return self.b_indices.shape[0] == 0


@dataclass(frozen=True)
class ScenarioSpec:
    name: str
    tc: float
    model_kind: str
    plan: CvPlan = SCENARIO_PLAN
    model_params: object = None

    def __post_init__(self):
        if self.name not in SCENARIO_NAMES:
            raise ScenarioError(f"unknown scenario {self.name!r}")
        if self.tc <= 0:
            raise ScenarioError("tc must be > 0")


@dataclass(frozen=True)
class FusionConfig:
    """Base-model kinds for the composite models. The pipeline uses the
    classifier plus the two subset regressors; fusion adds the all-data
    regressor and a meta-regressor over the 4 base outputs."""

    classifier_kind: str = "gbt"
    regressor_a_kind: str = "gbt"
    regressor_b_kind: str = "gbt"
    regressor_all_kind: str = "gbt"
    meta_kind: str = "linear"
    target_transform: str = "none"


def split_ab(dataset: Dataset, tc: float) -> AbSplit:
    """Partition record indices at the duration threshold (<= tc goes to A)."""
    if tc <= 0:
        raise ScenarioError("tc must be > 0")
    durations = dataset.durations
    a = np.flatnonzero(durations <= tc)
    b = np.flatnonzero(durations > tc)
    return AbSplit(tc=float(tc), a_indices=a, b_indices=b)


def _encode_on(dataset: Dataset, fit_indices: np.ndarray) -> np.ndarray:
    """Encode all rows with an encoder fitted on the training population,
    so categorical levels unseen in training map to the missing indicator."""
    encoder = Encoder().fit(dataset.subset(fit_indices))
    return encoder.transform(dataset).values


def run_scenario(dataset: Dataset, spec: ScenarioSpec) -> dict:
    """MAPE/RMSE and per-record predictions for one train/test scenario.

    A scenario whose source is its target or all records cross-validates
    over the source and scores the test records in the target; a
    cross-subset scenario (AtoB, BtoA) fits once on the full source subset
    and predicts the target.
    """
    split = split_ab(dataset, spec.tc)
    plan = spec.plan
    durations = dataset.durations
    rows = {"All": np.arange(len(dataset)), "A": split.a_indices,
            "B": split.b_indices}
    source, target = SCENARIOS[spec.name]
    for subset in (source, target):
        if rows[subset].shape[0] == 0:
            raise ScenarioError(
                f"scenario {spec.name} requires a non-empty subset {subset}"
            )
    train = rows[source]
    values = _encode_on(dataset, train)
    if source in (target, "All"):
        oof = cross_val_predict(
            spec.model_kind,
            values[train],
            durations[train],
            plan.n_folds,
            params=spec.model_params,
            task="regression",
            target_transform=plan.target_transform,
            seed=plan.seed,
        )
        keep = np.isin(train, rows[target])
        test_indices = train[keep]
        predictions = oof[keep]
    else:
        model = fit_model(
            spec.model_kind,
            values[train],
            durations[train],
            params=spec.model_params,
            task="regression",
            target_transform=plan.target_transform,
            seed=derive_seed(plan.seed, 0),
        )
        test_indices = rows[target]
        predictions = model.predict(values[test_indices])

    actual = durations[test_indices]
    mape, excluded = mape_excluding_zero(actual, predictions)
    return {
        "scenario": spec.name,
        "model": spec.model_kind,
        "tc": spec.tc,
        "mape": mape,
        "rmse": rmse(actual, predictions),
        "mape_excluded_zeros": excluded,
        "n_test": int(test_indices.shape[0]),
        "test_indices": test_indices,
        "predictions": predictions,
    }


def scenario_table(
    dataset: Dataset,
    models=("tree",),
    tc: float = DEFAULT_TC,
    plan: CvPlan = SCENARIO_PLAN,
    scenarios=SCENARIO_NAMES,
    workers: int = 1,
) -> list[dict]:
    """One row per (scenario, model), in fixed order, without index arrays."""
    specs = [
        ScenarioSpec(name=name, tc=tc, model_kind=kind, plan=plan)
        for name in scenarios
        for kind in models
    ]
    rows = parallel_map(lambda s: run_scenario(dataset, s), specs, workers)
    return [
        {k: v for k, v in row.items() if k not in ("test_indices", "predictions")}
        for row in rows
    ]


def quantiled_time_folding(
    dataset: Dataset,
    model_kind: str,
    n_groups: int = 10,
    model_params=None,
    seed: int = 0,
    target_transform: str = "none",
    workers: int = 1,
) -> list[dict]:
    """Per-duration-regime error: sort by duration, cut into equal
    contiguous groups, train on the other groups and report each group's
    RMSE."""
    n = len(dataset)
    if n < n_groups:
        raise ScenarioError("need at least n_groups records")
    order = np.argsort(dataset.durations, kind="stable")
    values = _encode_on(dataset, np.arange(n))[order]
    durations = dataset.durations[order]

    def one_group(g):
        train, test = fold_indexes(n, n_groups, g)
        model = fit_model(
            model_kind,
            values[train],
            durations[train],
            params=model_params,
            task="regression",
            target_transform=target_transform,
            seed=derive_seed(seed, g),
        )
        pred = model.predict(values[test])
        return {
            "group": g,
            "duration_min": float(durations[test].min()),
            "duration_max": float(durations[test].max()),
            "n": int(test.shape[0]),
            "rmse": rmse(durations[test], pred),
        }

    return parallel_map(one_group, range(n_groups), workers)


@dataclass(frozen=True)
class PipelineModel:
    """Classifier routes each record to the subset-specialised regressor."""

    tc: float
    encoder: Encoder
    classifier: TrainedModel
    regressor_a: TrainedModel
    regressor_b: TrainedModel


@dataclass(frozen=True)
class FusionModel:
    """Meta-regressor over (class, regA, regB, regAll) base predictions."""

    tc: float
    encoder: Encoder
    classifier: TrainedModel
    regressor_a: TrainedModel
    regressor_b: TrainedModel
    regressor_all: TrainedModel
    meta: TrainedModel


def _as_matrix(model, X) -> np.ndarray:
    if isinstance(X, Dataset):
        return model.encoder.transform(X).values
    return np.asarray(X, dtype=float)


def _fit_bases(config, values, durations, labels, rows, tc, seed):
    """Fit the classifier and the two subset regressors on a row subset."""
    d = durations[rows]
    a_rows = rows[d <= tc]
    b_rows = rows[d > tc]
    if a_rows.shape[0] < 2 or b_rows.shape[0] < 2:
        raise ScenarioError(
            "both duration subsets need at least 2 training records"
        )
    classifier = fit_model(
        config.classifier_kind, values[rows], labels[rows],
        task="classification", seed=derive_seed(seed, 1),
    )
    reg_a = fit_model(
        config.regressor_a_kind, values[a_rows], durations[a_rows],
        task="regression", target_transform=config.target_transform,
        seed=derive_seed(seed, 2),
    )
    reg_b = fit_model(
        config.regressor_b_kind, values[b_rows], durations[b_rows],
        task="regression", target_transform=config.target_transform,
        seed=derive_seed(seed, 3),
    )
    return classifier, reg_a, reg_b


def _fit_fusion_bases(config, values, durations, labels, rows, tc, seed):
    """The pipeline's three bases plus the all-data regressor."""
    bases = _fit_bases(config, values, durations, labels, rows, tc, seed)
    reg_all = fit_model(
        config.regressor_all_kind, values[rows], durations[rows],
        task="regression", target_transform=config.target_transform,
        seed=derive_seed(seed, 4),
    )
    return (*bases, reg_all)


def fit_pipeline(
    dataset: Dataset, config: FusionConfig, tc: float = DEFAULT_TC, seed: int = 0
) -> PipelineModel:
    split = split_ab(dataset, tc)
    if split.a_empty or split.b_empty:
        raise ScenarioError("pipeline needs both duration subsets non-empty")
    encoder = Encoder().fit(dataset)
    values = encoder.transform(dataset).values
    labels = binary_labels(dataset.durations, tc)
    classifier, reg_a, reg_b = _fit_bases(
        config, values, dataset.durations, labels,
        np.arange(len(dataset)), tc, seed,
    )
    return PipelineModel(
        tc=float(tc), encoder=encoder,
        classifier=classifier, regressor_a=reg_a, regressor_b=reg_b,
    )


def predict_pipeline(model: PipelineModel, X) -> np.ndarray:
    values = _as_matrix(model, X)
    cls = model.classifier.predict(values)
    out = model.regressor_a.predict(values)
    long_term = cls == 1
    if long_term.any():
        out = out.copy()
        out[long_term] = model.regressor_b.predict(values[long_term])
    return out


def _meta_features(classifier, reg_a, reg_b, reg_all, values) -> np.ndarray:
    return np.column_stack(
        [
            classifier.predict(values).astype(float),
            reg_a.predict(values),
            reg_b.predict(values),
            reg_all.predict(values),
        ]
    )


def fit_fusion(
    dataset: Dataset,
    config: FusionConfig,
    tc: float = DEFAULT_TC,
    folds: int = 5,
    seed: int = 0,
) -> FusionModel:
    """Meta-features are generated out-of-fold: the base models scoring a
    training record never saw it, so the meta-regressor is not trained on
    in-sample base predictions."""
    split = split_ab(dataset, tc)
    if split.a_empty or split.b_empty:
        raise ScenarioError("fusion needs both duration subsets non-empty")
    encoder = Encoder().fit(dataset)
    values = encoder.transform(dataset).values
    durations = dataset.durations
    labels = binary_labels(durations, tc)
    n = len(dataset)

    meta_x = np.empty((n, 4))
    for k in range(folds):
        train, test = fold_indexes(n, folds, k)
        bases = _fit_fusion_bases(
            config, values, durations, labels, train, tc, derive_seed(seed, 10, k)
        )
        meta_x[test] = _meta_features(*bases, values[test])

    meta = fit_model(
        config.meta_kind, meta_x, durations,
        task="regression", target_transform=config.target_transform,
        seed=derive_seed(seed, 20),
    )
    classifier, reg_a, reg_b, reg_all = _fit_fusion_bases(
        config, values, durations, labels, np.arange(n), tc, seed
    )
    return FusionModel(
        tc=float(tc), encoder=encoder,
        classifier=classifier, regressor_a=reg_a, regressor_b=reg_b,
        regressor_all=reg_all, meta=meta,
    )


def predict_fusion(model: FusionModel, X) -> np.ndarray:
    values = _as_matrix(model, X)
    meta_x = _meta_features(
        model.classifier, model.regressor_a, model.regressor_b,
        model.regressor_all, values,
    )
    return model.meta.predict(meta_x)
