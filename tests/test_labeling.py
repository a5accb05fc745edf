"""Duration-to-class mappings and classification sweeps."""

import numpy as np
import pytest

from incdur.dataset import Dataset, FeatureColumn, FeatureSchema, SynthConfig, ecdf_at, synthesize
from incdur.labeling import (
    DEFAULT_TC_VALUES,
    MultiClassThresholds,
    binary_labels,
    ldo_hdo_sweep,
    multiclass_labels,
    mutcd_labels,
    quantile_grid,
    subset_rows,
    threshold_sweep,
)


def leaked_dataset(copies=3, seed=0):
    """Duration itself is the only feature, so a split-based model separates
    the classes perfectly. Durations are ``copies`` shuffled copies of the
    integer grid 1..200: with cv == copies every sequential training fold
    contains every distinct value, so out-of-fold predictions are exact."""
    rng = np.random.default_rng(seed)
    grid = np.arange(1.0, 201.0)
    durations = np.concatenate([rng.permutation(grid) for _ in range(copies)])
    schema = FeatureSchema(columns=(FeatureColumn("leak", "numeric"),))
    return Dataset(
        schema=schema,
        rows=tuple((float(d),) for d in durations),
        durations=durations,
    )


def test_binary_labels_boundary():
    assert binary_labels([10, 45, 50], tc=45).tolist() == [0, 0, 1]


def test_subset_rows_split_at_tc():
    every, short, long = subset_rows([50, 10, 45, 46], tc=45)
    assert (every.tolist(), short.tolist(), long.tolist()) == ([0, 1, 2, 3], [1, 2], [0, 3])


def test_binary_labels_all_short():
    assert binary_labels([1, 2, 3], tc=10).tolist() == [0, 0, 0]


def test_binary_labels_fraction_equals_ecdf():
    ds = synthesize(SynthConfig(n=2000, seed=1, mu=np.log(40), sigma=0.7))
    labels = binary_labels(ds.durations, 40.0)
    assert (labels == 0).mean() == ecdf_at(ds.durations, 40.0)


def test_multiclass_boundaries():
    th = MultiClassThresholds(t1=20.0, t2=60.0)
    assert multiclass_labels([20.0], th).tolist() == [0]
    assert multiclass_labels([60.0], th).tolist() == [2]
    assert multiclass_labels([30.0], th).tolist() == [1]
    with pytest.raises(ValueError):
        MultiClassThresholds(t1=60.0, t2=20.0)


def test_labels_monotone_in_duration():
    th = MultiClassThresholds(t1=20.0, t2=60.0)
    d = np.linspace(0, 100, 51)
    multi = multiclass_labels(d, th)
    binary = binary_labels(d, 45.0)
    assert (np.diff(multi) >= 0).all()
    assert (np.diff(binary) >= 0).all()


def test_mutcd_labels():
    assert mutcd_labels([25.0]).tolist() == ["minor"]
    assert mutcd_labels([30.0, 120.0]).tolist() == ["intermediate", "intermediate"]
    assert mutcd_labels([500.0]).tolist() == ["major"]


def test_threshold_sweep_default_has_11_thresholds():
    assert DEFAULT_TC_VALUES == tuple(range(20, 75, 5))
    ds = leaked_dataset(copies=3)
    rows = threshold_sweep(ds, ["tree"], cv=3)
    assert len(rows) == 11
    assert sorted({r["tc"] for r in rows}) == [float(t) for t in DEFAULT_TC_VALUES]


def test_threshold_sweep_leaked_feature_is_perfect():
    ds = leaked_dataset(copies=3)
    rows = threshold_sweep(ds, ["tree"], cv=3)
    for r in rows:
        assert r["evaluable"]
        assert r["f1"] == pytest.approx(1.0)
        assert r["meets_f1_gate"]


def test_threshold_sweep_class_balance_is_ecdf():
    ds = leaked_dataset(copies=3, seed=2)
    rows = threshold_sweep(ds, ["tree"], tc_values=(30, 50), cv=3)
    for r in rows:
        assert r["class_balance"] == ecdf_at(ds.durations, r["tc"])


def test_threshold_sweep_unevaluable_cell_flagged():
    ds = leaked_dataset(copies=3, seed=3)
    # tc above every duration leaves class 1 empty
    rows = threshold_sweep(ds, ["tree"], tc_values=(10_000,), cv=3)
    assert rows[0]["evaluable"] is False


def test_sweep_cells_with_fewer_rows_than_folds_are_unevaluable():
    durations = np.array([1.0, 2, 3, 4, 5, 6, 20, 30, 60, 90])
    schema = FeatureSchema(columns=(FeatureColumn("leak", "numeric"),))
    ds = Dataset(schema=schema, rows=tuple((float(d),) for d in durations),
                 durations=durations)
    # at threshold 10, four rows remain: two in each class, fewer than 5 folds
    rows = ldo_hdo_sweep(ds, "tree", thresholds=[0, 10], tc=45.0, cv=5)
    assert [r["evaluable"] for r in rows] == [True, False]
    (row,) = threshold_sweep(ds, ["tree"], tc_values=(10,), cv=12)
    assert row["evaluable"] is False
    (cell,) = quantile_grid(ds, "tree", q1_range=(0.3,), q2_range=(0.6,), cv=12)
    assert cell["evaluable"] is False


def long_tail_dataset(seed=0):
    """50 records, short but for the last three (80, 90 and 100 minutes):
    at tc=45 the fifth of five sequential folds trains on one class."""
    rng = np.random.default_rng(seed)
    durations = rng.uniform(5.0, 40.0, size=50)
    durations[-3:] = (80.0, 90.0, 100.0)
    schema = FeatureSchema(columns=(FeatureColumn("x", "numeric"),))
    return Dataset(schema=schema, rows=tuple((v,) for v in rng.normal(size=50).tolist()),
                   durations=durations)


@pytest.mark.parametrize("kind", ["gbt", "linear", "tree"])
def test_threshold_sweep_survives_a_one_class_training_fold(kind):
    (row,) = threshold_sweep(long_tail_dataset(), [kind], tc_values=(45,), cv=5)
    assert row["evaluable"] and 0.0 <= row["f1"] <= 1.0


def test_threshold_sweep_worker_invariant():
    ds = leaked_dataset(copies=3, seed=4)
    a = threshold_sweep(ds, ["tree", "knn"], tc_values=(30, 45, 60), cv=3)
    b = threshold_sweep(ds, ["tree", "knn"], tc_values=(30, 45, 60), cv=3,
                        workers=8)
    assert a == b


def test_quantile_grid_cell_count_and_perfect_leak():
    ds = leaked_dataset(copies=3, seed=5)
    rows = quantile_grid(ds, "tree", cv=3)
    assert len(rows) == 36  # (q1, q2) pairs with q1 < q2 from 8 x 8 ranges
    for r in rows:
        assert r["evaluable"]
        assert r["f1_macro"] == pytest.approx(1.0)


def test_quantile_grid_thresholds_are_quantiles():
    ds = leaked_dataset(copies=3, seed=6)
    rows = quantile_grid(ds, "tree", q1_range=(0.3,), q2_range=(0.6,), cv=3)
    assert len(rows) == 1
    assert rows[0]["t1"] == pytest.approx(float(np.quantile(ds.durations, 0.3)))
    assert rows[0]["t2"] == pytest.approx(float(np.quantile(ds.durations, 0.6)))


def test_ldo_hdo_sweep():
    rng = np.random.default_rng(7)
    durations = np.concatenate([np.zeros(15), rng.uniform(1, 200, 85)])
    schema = FeatureSchema(columns=(FeatureColumn("leak", "numeric"),))
    ds = Dataset(schema=schema, rows=tuple((float(d),) for d in durations),
                 durations=durations)
    rows = ldo_hdo_sweep(ds, "tree", thresholds=[0, 1, 150], tc=45.0, cv=3)
    assert rows[0]["remaining_fraction"] == 1.0
    assert rows[1]["remaining_fraction"] == pytest.approx(0.85)
    assert rows[2]["flagged"]  # removes well over half the data
    with pytest.raises(ValueError):
        ldo_hdo_sweep(ds, "tree", thresholds=[5, 1])
