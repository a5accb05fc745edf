"""Extrapolation scenarios, quantiled time-folding, pipeline and fusion."""

import numpy as np
import pytest

from incdur.dataset import Dataset, FeatureColumn, FeatureSchema, SynthConfig, synthesize
from incdur.metrics import rmse
from incdur.models import TreeParams, fit_model
from incdur.scenarios import (
    SCENARIO_NAMES,
    FusionConfig,
    ScenarioError,
    ScenarioSpec,
    fit_fusion,
    fit_pipeline,
    predict_fusion,
    predict_pipeline,
    quantiled_time_folding,
    run_scenario,
    scenario_table,
    split_ab,
)
from incdur.tuning import CvPlan


def leaked_dataset(n=200, seed=0, low=1.0, high=200.0):
    rng = np.random.default_rng(seed)
    durations = rng.uniform(low, high, size=n)
    schema = FeatureSchema(columns=(FeatureColumn("leak", "numeric"),))
    return Dataset(schema=schema, rows=tuple((float(d),) for d in durations),
                   durations=durations)


def tree_spec(name, tc=45.0, folds=5, seed=0):
    return ScenarioSpec(name=name, tc=tc, model_kind="tree",
                        plan=CvPlan(n_folds=folds, seed=seed),
                        model_params=TreeParams(max_depth=8))


# ---------------------------------------------------------------------------
# split_ab
# ---------------------------------------------------------------------------


def test_split_ab_boundary():
    ds = leaked_dataset(n=3, seed=1)
    object.__setattr__(ds, "durations", np.array([10.0, 45.0, 50.0]))
    split = split_ab(ds, 45.0)
    assert split.a_indices.tolist() == [0, 1]
    assert split.b_indices.tolist() == [2]
    assert not split.a_empty and not split.b_empty


def test_split_ab_empty_flag():
    ds = leaked_dataset(n=10, seed=2, low=1.0, high=20.0)
    split = split_ab(ds, 10_000.0)
    assert split.b_empty
    assert split.a_indices.shape[0] == 10


def test_split_ab_partition():
    ds = leaked_dataset(n=100, seed=3)
    split = split_ab(ds, 60.0)
    union = np.union1d(split.a_indices, split.b_indices)
    assert union.tolist() == list(range(100))
    assert np.intersect1d(split.a_indices, split.b_indices).size == 0


# ---------------------------------------------------------------------------
# run_scenario
# ---------------------------------------------------------------------------


def test_unknown_scenario_rejected():
    with pytest.raises(ScenarioError):
        ScenarioSpec(name="AtoC", tc=45.0, model_kind="tree")


def test_cross_subset_train_test_construction():
    ds = leaked_dataset(n=150, seed=4)
    split = split_ab(ds, 45.0)
    result = run_scenario(ds, tree_spec("AtoB"))
    assert result["test_indices"].tolist() == split.b_indices.tolist()
    result = run_scenario(ds, tree_spec("BtoA"))
    assert result["test_indices"].tolist() == split.a_indices.tolist()


def test_allto_subset_test_records_in_target():
    ds = leaked_dataset(n=150, seed=5)
    split = split_ab(ds, 45.0)
    res_a = run_scenario(ds, tree_spec("AlltoA"))
    assert np.isin(res_a["test_indices"], split.a_indices).all()
    res_b = run_scenario(ds, tree_spec("AlltoB"))
    assert np.isin(res_b["test_indices"], split.b_indices).all()
    assert res_a["n_test"] + res_b["n_test"] == 150


def test_leaked_duration_mape_near_zero_all_scenarios():
    # the linear model recovers duration = leak exactly and, unlike trees,
    # extrapolates across subsets, so every scenario including the
    # cross-subset ones collapses to near-zero error
    ds = leaked_dataset(n=300, seed=6)
    for name in SCENARIO_NAMES:
        spec = ScenarioSpec(name=name, tc=45.0, model_kind="linear",
                            plan=CvPlan(n_folds=5, seed=0))
        assert run_scenario(ds, spec)["mape"] < 5.0, name


def test_scenario_requires_nonempty_subsets():
    ds = leaked_dataset(n=50, seed=7, low=1.0, high=20.0)  # everything <= 45
    with pytest.raises(ScenarioError):
        run_scenario(ds, tree_spec("AtoB"))
    with pytest.raises(ScenarioError):
        run_scenario(ds, tree_spec("BtoB"))


def test_scenario_table_shape_and_worker_invariance():
    ds = leaked_dataset(n=120, seed=8)
    plan = CvPlan(n_folds=4, seed=0)
    a = scenario_table(ds, ["tree"], tc=45.0, plan=plan, workers=1)
    b = scenario_table(ds, ["tree"], tc=45.0, plan=plan, workers=8)
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

TREE_CONFIG = FusionConfig(
    classifier_kind="tree", regressor_a_kind="tree", regressor_b_kind="tree",
    regressor_all_kind="tree", meta_kind="linear",
)


def test_pipeline_routes_class0_to_regressor_a():
    ds = leaked_dataset(n=200, seed=11)
    model = fit_pipeline(ds, TREE_CONFIG, tc=45.0)
    values = model.encoder.transform(ds).values
    cls = model.classifier.predict(values)
    out = predict_pipeline(model, ds)
    reg_a = model.regressor_a.predict(values)
    reg_b = model.regressor_b.predict(values)
    assert np.array_equal(out[cls == 0], reg_a[cls == 0])
    assert np.array_equal(out[cls == 1], reg_b[cls == 1])


def test_pipeline_refuses_empty_subset():
    ds = leaked_dataset(n=50, seed=12, low=1.0, high=20.0)
    with pytest.raises(ScenarioError):
        fit_pipeline(ds, TREE_CONFIG, tc=10_000.0)


def test_pipeline_with_oracle_classifier_mixes_subset_errors():
    # the leaked feature makes the classifier and both regressors near
    # perfect, so the composite error collapses towards zero
    ds = leaked_dataset(n=300, seed=13)
    model = fit_pipeline(ds, TREE_CONFIG, tc=45.0)
    pred = predict_pipeline(model, ds)
    assert rmse(ds.durations, pred) < 0.1 * ds.durations.std()


def test_pipeline_fits_only_the_three_models_it_keeps(monkeypatch):
    kinds = []

    def spy(kind, *args, **kwargs):
        kinds.append(kind)
        return fit_model(kind, *args, **kwargs)

    monkeypatch.setattr("incdur.scenarios.fit_model", spy)
    config = FusionConfig(
        classifier_kind="tree", regressor_a_kind="linear", regressor_b_kind="tree",
        regressor_all_kind="random-forest", meta_kind="linear",
    )
    fit_pipeline(leaked_dataset(n=120, seed=14), config, tc=45.0)
    assert kinds == ["tree", "linear", "tree"]
    kinds.clear()
    fit_fusion(leaked_dataset(n=120, seed=14), config, tc=45.0, folds=2)
    # three folds' worth of four bases (two out-of-fold, one full) and the meta
    assert kinds.count("random-forest") == 3 and len(kinds) == 13


# ---------------------------------------------------------------------------
# Fusion
# ---------------------------------------------------------------------------


def test_fusion_meta_features_have_four_columns():
    ds = leaked_dataset(n=200, seed=14)
    model = fit_fusion(ds, TREE_CONFIG, tc=45.0)
    assert model.meta.inner.coefs.shape[0] == 4


def test_fusion_not_much_worse_than_single_model():
    rng = np.random.default_rng(15)
    per_seed = []
    for seed in range(5):
        train = synthesize(SynthConfig(n=600, seed=20 + seed,
                                       mu=np.log(40), sigma=0.9))
        test = synthesize(SynthConfig(n=300, seed=120 + seed,
                                      mu=np.log(40), sigma=0.9))
        fusion = fit_fusion(train, TREE_CONFIG, tc=45.0, seed=seed)
        single = fusion.regressor_all
        test_values = fusion.encoder.transform(test).values
        fusion_rmse = rmse(test.durations, predict_fusion(fusion, test))
        single_rmse = rmse(test.durations, single.predict(test_values))
        per_seed.append(fusion_rmse <= single_rmse * 1.10)
    assert sum(per_seed) >= 3


def test_fusion_exploits_perfect_meta_column():
    # when one meta column already solves the task, the linear meta-model
    # recovers it: fusion error stays within 1% of that column's error
    ds = leaked_dataset(n=400, seed=16)
    model = fit_fusion(ds, TREE_CONFIG, tc=45.0)
    values = model.encoder.transform(ds).values
    reg_all_rmse = rmse(ds.durations, model.regressor_all.predict(values))
    fusion_rmse = rmse(ds.durations, predict_fusion(model, ds))
    assert fusion_rmse <= reg_all_rmse + 0.01 * max(reg_all_rmse, 1.0)
