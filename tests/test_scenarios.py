"""Extrapolation scenarios, quantiled time-folding, pipeline and fusion."""

from collections import Counter

import numpy as np
import pytest

from incdur.dataset import (Dataset, Encoder, FeatureColumn, FeatureSchema,
                            PlantedEffect, SynthConfig, encode, synthesize)
from incdur.importance import subset_importance
from incdur.labeling import binary_labels
from incdur.metrics import rmse
from incdur.models import TreeParams, fit_model
from incdur.scenarios import (
    SCENARIO_NAMES,
    ScenarioError,
    fit_fusion,
    fit_pipeline,
    fusion_table,
    quantiled_time_folding,
    run_scenario,
    scenario_table,
)


def leaked_dataset(n=200, seed=0, low=1.0, high=200.0):
    rng = np.random.default_rng(seed)
    durations = rng.uniform(low, high, size=n)
    schema = FeatureSchema(columns=(FeatureColumn("leak", "numeric"),))
    return Dataset(schema=schema, rows=tuple((float(d),) for d in durations),
                   durations=durations)


def run_tree(ds, name, tc=45.0, folds=5, seed=0):
    return run_scenario(ds, name, "tree", tc=tc, folds=folds, seed=seed,
                        model_params=TreeParams(max_depth=8))


def subset_rows(ds, tc=45.0):
    """Indices of subset A (duration <= tc) and subset B."""
    labels = binary_labels(ds.durations, tc)
    return np.flatnonzero(labels == 0), np.flatnonzero(labels == 1)


# ---------------------------------------------------------------------------
# The short/long split
# ---------------------------------------------------------------------------


def test_duration_equal_to_tc_is_short_term_everywhere(monkeypatch):
    base = leaked_dataset(n=60, seed=1)
    at_tc = 7
    durations = base.durations.copy()
    durations[at_tc] = 45.0
    ds = Dataset(schema=base.schema, rows=base.rows, durations=durations)

    # scenarios: A holds the record, so AtoB does not test it and BtoA does
    assert at_tc not in run_tree(ds, "AtoB")["test_indices"]
    assert at_tc in run_tree(ds, "BtoA")["test_indices"]

    # pipeline: the subset-A regressor trains on it
    trained = []

    def spy(kind, X, y, *args, **kwargs):
        trained.append(np.asarray(y).tolist())
        return fit_model(kind, X, y, *args, **kwargs)

    monkeypatch.setattr("incdur.scenarios.fit_model", spy)
    fit_pipeline(TREE_KINDS[:3], encode(ds), ds.durations, tc=45.0)
    _, regressor_a_y, regressor_b_y = trained
    assert 45.0 in regressor_a_y and 45.0 not in regressor_b_y

    # importance: subset A counts it
    reports = subset_importance(ds, tc=45.0, n_repeats=1)
    assert reports["A"].notes["n_records"] == np.sum(durations <= 45.0)
    assert reports["B"].notes["n_records"] == np.sum(durations > 45.0)


# ---------------------------------------------------------------------------
# run_scenario
# ---------------------------------------------------------------------------


def test_unknown_scenario_rejected():
    with pytest.raises(ScenarioError):
        run_scenario(leaked_dataset(n=20), "AtoC", "tree")


def test_cross_subset_train_test_construction():
    ds = leaked_dataset(n=150, seed=4)
    a_rows, b_rows = subset_rows(ds)
    result = run_tree(ds, "AtoB")
    assert result["test_indices"].tolist() == b_rows.tolist()
    result = run_tree(ds, "BtoA")
    assert result["test_indices"].tolist() == a_rows.tolist()


def test_allto_subset_test_records_in_target():
    ds = leaked_dataset(n=150, seed=5)
    a_rows, b_rows = subset_rows(ds)
    res_a = run_tree(ds, "AlltoA")
    assert np.isin(res_a["test_indices"], a_rows).all()
    res_b = run_tree(ds, "AlltoB")
    assert np.isin(res_b["test_indices"], b_rows).all()
    assert res_a["n_test"] + res_b["n_test"] == 150


def test_leaked_duration_mape_near_zero_all_scenarios():
    # the linear model recovers duration = leak exactly and, unlike trees,
    # extrapolates across subsets, so every scenario including the
    # cross-subset ones collapses to near-zero error
    ds = leaked_dataset(n=300, seed=6)
    for name in SCENARIO_NAMES:
        result = run_scenario(ds, name, "linear", tc=45.0, folds=5, seed=0)
        assert result["mape"] < 5.0, name


def test_scenario_requires_nonempty_subsets():
    ds = leaked_dataset(n=50, seed=7, low=1.0, high=20.0)  # everything <= 45
    with pytest.raises(ScenarioError):
        run_tree(ds, "AtoB")
    with pytest.raises(ScenarioError):
        run_tree(ds, "BtoB")


def test_cross_validated_scenario_needs_a_record_per_fold():
    ds = leaked_dataset(n=60, seed=9)
    tc = float(np.sort(ds.durations)[-9])  # 8 long-term records
    with pytest.raises(ScenarioError, match="BtoB cross-validates subset B, "
                       "which holds 8 records, fewer than its 10 folds"):
        scenario_table(ds, ["tree"], tc=tc)


def test_scenario_table_shape_and_worker_invariance():
    ds = leaked_dataset(n=120, seed=8)
    a = scenario_table(ds, ["tree"], tc=45.0, folds=4, seed=0, workers=1)
    b = scenario_table(ds, ["tree"], tc=45.0, folds=4, seed=0, workers=8)
    assert a == b
    assert [r["scenario"] for r in a] == list(SCENARIO_NAMES)
    assert all("predictions" not in r for r in a)


# ---------------------------------------------------------------------------
# Quantiled time-folding
# ---------------------------------------------------------------------------


def test_qtf_group_count_and_sizes():
    ds = leaked_dataset(n=103, seed=9)
    rows = quantiled_time_folding(ds, "tree", n_groups=10)
    assert len(rows) == 10
    sizes = [r["n"] for r in rows]
    assert sum(sizes) == 103
    assert max(sizes) - min(sizes) <= 1
    # groups are duration-sorted and contiguous
    for prev, cur in zip(rows, rows[1:]):
        assert prev["duration_max"] <= cur["duration_min"]


def test_qtf_constant_durations_zero_rmse():
    schema = FeatureSchema(columns=(FeatureColumn("x", "numeric"),))
    ds = Dataset(schema=schema, rows=tuple((float(i),) for i in range(40)),
                 durations=np.full(40, 7.0))
    rows = quantiled_time_folding(ds, "tree", n_groups=4)
    assert all(r["rmse"] == pytest.approx(0.0, abs=1e-9) for r in rows)


def test_qtf_long_tail_top_group_worst():
    ds = synthesize(SynthConfig(n=1500, seed=10, mu=np.log(40), sigma=1.0))
    rows = quantiled_time_folding(ds, "tree", n_groups=10,
                                  model_params=TreeParams(max_depth=4))
    errors = [r["rmse"] for r in rows]
    assert errors[-1] == max(errors)


# ---------------------------------------------------------------------------
# Pipeline
# ---------------------------------------------------------------------------

TREE_KINDS = ("tree",) * 4


def test_pipeline_routes_class0_to_regressor_a():
    ds = leaked_dataset(n=200, seed=11)
    values = encode(ds)
    model = fit_pipeline(TREE_KINDS[:3], values, ds.durations, tc=45.0)
    cls = model.classifier.predict(values)
    out = model.predict(values)
    reg_a = model.regressor_a.predict(values)
    reg_b = model.regressor_b.predict(values)
    assert np.array_equal(out[cls == 0], reg_a[cls == 0])
    assert np.array_equal(out[cls == 1], reg_b[cls == 1])


def test_pipeline_refuses_empty_subset():
    ds = leaked_dataset(n=50, seed=12, low=1.0, high=20.0)
    with pytest.raises(ScenarioError):
        fit_pipeline(TREE_KINDS[:3], encode(ds), ds.durations, tc=10_000.0)


def test_pipeline_with_oracle_classifier_mixes_subset_errors():
    # the leaked feature makes the classifier and both regressors near
    # perfect, so the composite error collapses towards zero
    ds = leaked_dataset(n=300, seed=13)
    values = encode(ds)
    model = fit_pipeline(TREE_KINDS[:3], values, ds.durations, tc=45.0)
    pred = model.predict(values)
    assert rmse(ds.durations, pred) < 0.1 * ds.durations.std()


def test_pipeline_fits_only_the_three_models_it_keeps(monkeypatch):
    kinds = []

    def spy(kind, *args, **kwargs):
        kinds.append(kind)
        return fit_model(kind, *args, **kwargs)

    monkeypatch.setattr("incdur.scenarios.fit_model", spy)
    bases = ("tree", "linear", "tree", "random-forest")
    ds = leaked_dataset(n=120, seed=14)
    values = encode(ds)
    fit_pipeline(bases[:3], values, ds.durations, tc=45.0)
    assert kinds == ["tree", "linear", "tree"]
    kinds.clear()
    fit_fusion(bases, values, ds.durations, tc=45.0, folds=2, meta="linear")
    # three folds' worth of four bases (two out-of-fold, one full) and the meta
    assert kinds.count("random-forest") == 3 and len(kinds) == 13


# ---------------------------------------------------------------------------
# Fusion
# ---------------------------------------------------------------------------


def test_fusion_meta_features_have_four_columns():
    ds = leaked_dataset(n=200, seed=14)
    model = fit_fusion(TREE_KINDS, encode(ds), ds.durations, tc=45.0)
    assert model.meta.inner.coefs.shape[0] == 4


def test_fusion_leaves_out_a_meta_column_constant_out_of_fold():
    # 12 of 150 records are short-term, and every out-of-fold class is long:
    # with the intercept, that column made the linear meta-model singular
    ds = synthesize(SynthConfig(n=150, seed=1, mu=3.9, sigma=0.9, effects=(
        PlantedEffect("x1", "numeric", slope=1.5),
        PlantedEffect("f", "boolean", multiplier=2.0),
    )))
    values = encode(ds)
    model = fit_fusion(("random-forest", "gbt", "gbt", "gbt"), values,
                       ds.durations, tc=40, folds=3)
    assert model.meta_columns.tolist() == [False, True, True, True]
    assert model.meta.n_features == 3
    assert np.isfinite(model.predict(values)).all()


def test_fusion_needs_a_training_record_per_fold():
    # the holdout split trains on 24 of the 30 records
    with pytest.raises(ScenarioError, match="fusion holds 24 training records, "
                       "fewer than its 40 folds"):
        fusion_table(leaked_dataset(n=30, seed=17), folds=40)


def test_fusion_table_fits_and_applies_one_encoder(monkeypatch):
    calls = Counter()
    fit, transform = Encoder.fit.__func__, Encoder.transform

    def counted_fit(cls, dataset):
        calls["fit"] += 1
        return fit(cls, dataset)

    def counted_transform(self, dataset):
        calls["transform"] += 1
        return transform(self, dataset)

    monkeypatch.setattr(Encoder, "fit", classmethod(counted_fit))
    monkeypatch.setattr(Encoder, "transform", counted_transform)
    fusion_table(leaked_dataset(n=120, seed=18), "tree", "tree", "tree", "tree",
                 folds=2)
    assert calls == {"fit": 1, "transform": 1}


def test_fusion_not_much_worse_than_single_model():
    rng = np.random.default_rng(15)
    per_seed = []
    for seed in range(5):
        train = synthesize(SynthConfig(n=600, seed=20 + seed,
                                       mu=np.log(40), sigma=0.9))
        test = synthesize(SynthConfig(n=300, seed=120 + seed,
                                      mu=np.log(40), sigma=0.9))
        encoder = Encoder.fit(train)
        fusion = fit_fusion(TREE_KINDS, encoder.transform(train),
                            train.durations, tc=45.0, seed=seed)
        single = fusion.regressor_all
        test_values = encoder.transform(test)
        fusion_rmse = rmse(test.durations, fusion.predict(test_values))
        single_rmse = rmse(test.durations, single.predict(test_values))
        per_seed.append(fusion_rmse <= single_rmse * 1.10)
    assert sum(per_seed) >= 3


def test_fusion_exploits_perfect_meta_column():
    # when one meta column already solves the task, the linear meta-model
    # recovers it: fusion error stays within 1% of that column's error
    ds = leaked_dataset(n=400, seed=16)
    values = encode(ds)
    model = fit_fusion(TREE_KINDS, values, ds.durations, tc=45.0)
    reg_all_rmse = rmse(ds.durations, model.regressor_all.predict(values))
    fusion_rmse = rmse(ds.durations, model.predict(values))
    assert fusion_rmse <= reg_all_rmse + 0.01 * max(reg_all_rmse, 1.0)
