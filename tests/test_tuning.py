"""Fold construction, random draws, and the intra/extra joint optimisation."""

import inspect

import numpy as np
import pytest

from incdur.cv import cross_val_predict, derive_seed, fold_indexes
from incdur.dataset import (Dataset, FeatureColumn, FeatureSchema, PlantedEffect,
                            SynthConfig, encode, synthesize)
from incdur.metrics import mape_excluding_zero
from incdur.models import ModelError, fit_model
from incdur.outliers import MAX_ORM_PERCENT, OrmError, score_with
from incdur.tuning import (
    HyperSpace,
    TuningError,
    iteration_curve,
    run_ieo,
    sample_draw,
)

FIXED_TREE = {"tree": {"max_depth": ("int", 4, 4), "min_samples_leaf": ("int", 1, 1)}}


def fixed_space(max_percent=0.05):
    """Single-point model ranges so draws differ only in ORM settings."""
    return HyperSpace(
        model_space=FIXED_TREE,
        orm_methods=("isolation-forest",),
        max_percent=max_percent,
        if_n_trees=(30, 30),
        if_subsample=(64, 64),
        lof_k=(10, 10),
    )


def make_data(n=500, seed=0, corrupt=0.0):
    return synthesize(
        SynthConfig(n=n, seed=seed, mu=np.log(40), sigma=0.7,
                    corrupt_fraction=corrupt, corrupt_multiplier=30.0)
    )


# ---------------------------------------------------------------------------
# Folds and seeds
# ---------------------------------------------------------------------------


def test_fold_indexes_example():
    train, test = fold_indexes(500, 5, 0)
    assert test.tolist() == list(range(0, 100))
    train, test = fold_indexes(500, 5, 1)
    assert test.tolist() == list(range(100, 200))
    assert train.tolist() == list(range(0, 100)) + list(range(200, 500))


def test_fold_indexes_partition():
    n, folds = 103, 5
    seen = []
    for k in range(folds):
        train, test = fold_indexes(n, folds, k)
        assert np.intersect1d(train, test).size == 0
        assert np.union1d(train, test).tolist() == list(range(n))
        seen.extend(test.tolist())
    assert sorted(seen) == list(range(n))


def test_fold_indexes_n_equals_folds():
    for k in range(4):
        _, test = fold_indexes(4, 4, k)
        assert test.tolist() == [k]


def test_fold_indexes_rejects_bad_args():
    with pytest.raises(ValueError):
        fold_indexes(3, 5, 0)
    with pytest.raises(ValueError):
        fold_indexes(10, 5, 5)


def test_derive_seed_stable():
    assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)
    assert derive_seed(1, 2, 3) != derive_seed(1, 3, 2)


# ---------------------------------------------------------------------------
# Draw sampling
# ---------------------------------------------------------------------------


def test_sample_draw_deterministic():
    space = HyperSpace()
    a = sample_draw(space, "gbt", "extra", 5, seed=3, draw_index=7)
    b = sample_draw(space, "gbt", "extra", 5, seed=3, draw_index=7)
    assert a == b
    c = sample_draw(space, "gbt", "extra", 5, seed=3, draw_index=8)
    assert a != c


def test_sample_draw_degenerate_ranges():
    draw = sample_draw(fixed_space(), "tree", "none", 5, seed=0, draw_index=0)
    assert draw.model_params.max_depth == 4
    assert draw.model_params.min_samples_leaf == 1
    assert draw.orm_params.percent_removed == 0.0


def test_sample_draw_respects_ranges():
    space = HyperSpace()
    for i in range(30):
        draw = sample_draw(space, "gbt", "extra", 5, seed=1, draw_index=i)
        p = draw.model_params
        assert 20 <= p.n_rounds <= 200
        assert 0.01 <= p.learning_rate <= 0.3
        assert 0.0 <= draw.orm_params.percent_removed <= 0.05


def test_percent_grids():
    space = HyperSpace()
    assert space.percent_grid("extra", 5) == [0.0, 0.01, 0.02, 0.03, 0.04, 0.05]
    intra = space.percent_grid("intra", 5)
    assert intra == pytest.approx([0.0, 0.01, 0.02, 0.03, 0.04, 0.05])
    assert space.percent_grid("none", 5) == [0.0]
    assert len(space.percent_grid("intra", 10)) == 11
    # F * 5% / F rounds above 5% for these F, which OrmParams would reject
    for folds in (3, 6, 12):
        assert space.percent_grid("intra", folds)[-1] == MAX_ORM_PERCENT


# ---------------------------------------------------------------------------
# run_ieo
# ---------------------------------------------------------------------------


def test_ieo_extra_percent_zero_equals_plain_cv():
    ds = make_data(n=250, seed=4)
    result = run_ieo(ds, "tree", folds=5, mode="extra", iterations=1, seed=11,
                     space=fixed_space(max_percent=0.0))
    assert result.best["orm_percent"] == 0.0

    values = encode(ds)
    n_tr = int(0.8 * len(ds))
    draw_seed = derive_seed(11, 0)
    plain = cross_val_predict(
        "tree", values[:n_tr], ds.durations[:n_tr], 5,
        params=sample_draw(fixed_space(), "tree", "extra", 5, 11, 0).model_params,
        seed=draw_seed,
    )
    assert result.oof_indices.tolist() == list(range(n_tr))
    assert np.array_equal(result.oof_predictions, plain)


def test_ieo_intra_extra_removed_counts_comparable():
    ds = make_data(n=500, seed=5)
    folds = 5
    space = fixed_space()
    intra = run_ieo(ds, "tree", folds=folds, mode="intra", iterations=6, seed=2,
                    space=space)
    extra = run_ieo(ds, "tree", folds=folds, mode="extra", iterations=6, seed=2,
                    space=space)
    for row_i, row_e in zip(intra.trace, extra.trace):
        # same (seed, draw_index) => same sampled percent in both modes
        assert row_i["orm_percent"] == pytest.approx(row_e["orm_percent"])
        for per_fold in row_i["removed_per_fold"]:
            assert abs(row_e["removed_extra"] - per_fold) <= folds


def test_ieo_intra_never_removes_test_fold_records():
    ds = make_data(n=300, seed=6)
    result = run_ieo(ds, "tree", folds=5, mode="intra", iterations=3, seed=3,
                     space=fixed_space())
    n_tr = int(0.8 * len(ds))
    # intra mode keeps the whole train/test part in the out-of-fold vector
    assert result.oof_indices.tolist() == list(range(n_tr))
    assert result.oof_predictions.shape[0] == n_tr


def test_ieo_best_is_trace_minimum():
    ds = make_data(n=250, seed=7)
    result = run_ieo(ds, "tree", folds=4, mode="extra", iterations=8, seed=9,
                     space=fixed_space())
    ok = [r for r in result.trace if not r["failed"]]
    best_value = min(r["metric_value"] for r in ok)
    assert result.best["metric_value"] == best_value
    candidates = [r["draw_index"] for r in ok if r["metric_value"] == best_value]
    assert result.best["draw_index"] == min(candidates)


def test_ieo_deterministic_and_worker_invariant():
    ds = make_data(n=250, seed=8)
    plan = dict(folds=4, mode="intra", iterations=5, seed=1, space=fixed_space())
    a = run_ieo(ds, "tree", workers=1, **plan)
    b = run_ieo(ds, "tree", workers=8, **plan)
    assert a.trace == b.trace
    assert np.array_equal(a.oof_predictions, b.oof_predictions)
    assert np.array_equal(a.validation_predictions, b.validation_predictions)


def test_ieo_validation_part_held_out():
    ds = make_data(n=200, seed=9)
    result = run_ieo(ds, "tree", folds=4, mode="extra", iterations=2, seed=4,
                     space=fixed_space())
    n_tr = int(0.8 * len(ds))
    assert result.validation_indices.tolist() == list(range(n_tr, len(ds)))
    assert np.intersect1d(result.oof_indices, result.validation_indices).size == 0
    mape, _ = mape_excluding_zero(
        ds.durations[result.validation_indices], result.validation_predictions
    )
    assert result.validation_metric == pytest.approx(mape)


def test_ieo_extra_refit_trains_on_the_draws_rows():
    ds = make_data(n=250, seed=7)
    result = run_ieo(ds, "tree", folds=4, mode="extra", iterations=8, seed=9,
                     space=fixed_space())
    i = result.best["draw_index"]
    assert result.best["removed_extra"] > 0
    values = encode(ds)
    refit = fit_model(
        "tree", values[result.oof_indices], ds.durations[result.oof_indices],
        params=sample_draw(fixed_space(), "tree", "extra", 4, 9, i).model_params,
        seed=derive_seed(9, i, 9003),
    )
    assert np.array_equal(result.validation_predictions,
                          refit.predict(values[result.validation_indices]))


def test_ieo_f1_metric_requires_tc():
    ds = make_data(n=200, seed=10)
    plan = dict(folds=4, iterations=2, seed=5, space=fixed_space())
    with pytest.raises(ValueError):
        run_ieo(ds, "tree", metric="f1", **plan)
    result = run_ieo(ds, "tree", metric="f1", tc=40.0, **plan)
    assert 0.0 <= result.best["metric_value"] <= 1.0


def test_ieo_f1_search_survives_one_class_training_folds():
    # only the last three of 50 records are long-term at tc=45, so every
    # training fold of the sequential 80% search part holds one class
    rng = np.random.default_rng(0)
    durations = rng.uniform(5.0, 40.0, size=50)
    durations[-3:] = (80.0, 90.0, 100.0)
    ds = Dataset(schema=FeatureSchema(columns=(FeatureColumn("x", "numeric"),)),
                 rows=tuple((v,) for v in rng.normal(size=50).tolist()),
                 durations=durations)
    result = run_ieo(ds, "gbt", folds=5, iterations=2, metric="f1", tc=45)
    assert not any(entry["failed"] for entry in result.trace)
    assert result.validation_predictions.tolist() == [0] * 10


@pytest.mark.parametrize("tc, warned", [(45, True), (20, False)])
def test_ieo_f1_warns_when_the_search_part_holds_one_class(tc, warned):
    # the 50-row case above: at tc=45 the sequential 80% search part holds
    # class 0 alone, at tc=20 both classes
    rng = np.random.default_rng(0)
    durations = rng.uniform(5.0, 40.0, size=50)
    durations[-3:] = (80.0, 90.0, 100.0)
    ds = Dataset(schema=FeatureSchema(columns=(FeatureColumn("x", "numeric"),)),
                 rows=tuple((v,) for v in rng.normal(size=50).tolist()),
                 durations=durations)
    result = run_ieo(ds, "gbt", folds=5, iterations=2, metric="f1", tc=tc)
    assert result.warnings == ((
        "ieo search part holds only class 0 (short-term at tc=45.0): every "
        "draw scores the same f1, so the search cannot rank them",
    ) if warned else ())


def test_ieo_log1p_constant_duration_round_trip():
    ds = make_data(n=100, seed=11)
    const = ds.subset(np.arange(len(ds)))
    object.__setattr__(const, "durations", np.full(len(ds), 25.0))
    result = run_ieo(const, "tree", folds=4, iterations=1, seed=6,
                     target_transform="log1p", space=fixed_space())
    assert np.allclose(result.oof_predictions, 25.0, atol=1e-9)


def test_ieo_corruption_intra_if_not_worse_than_none():
    none_scores, intra_scores = [], []
    for seed in range(20):
        ds = make_data(n=300, seed=100 + seed, corrupt=0.03)
        space = fixed_space()
        base = run_ieo(ds, "tree", folds=5, mode="none", iterations=2, seed=seed,
                       space=space)
        intra = run_ieo(ds, "tree", folds=5, mode="intra", iterations=6,
                        seed=seed, space=space)
        none_scores.append(base.best["metric_value"])
        intra_scores.append(intra.best["metric_value"])
    assert np.median(intra_scores) <= np.median(none_scores)


def test_iteration_curve_monotone_and_timed():
    ds = make_data(n=150, seed=12)
    rows = iteration_curve(ds, ["tree"], iteration_counts=(2, 4, 6), folds=4,
                           seed=3, space=fixed_space())
    assert [r["iterations"] for r in rows] == [2, 4, 6]
    best = [r["best_metric"] for r in rows]
    assert best[0] >= best[1] >= best[2]
    assert all(r["wall_clock_s"] > 0 for r in rows)


def test_iteration_curve_default_schedule():
    default = inspect.signature(iteration_curve).parameters["iteration_counts"].default
    assert default == (25, 50, 75, 100, 125, 150, 175, 200, 225, 250)


# ---------------------------------------------------------------------------
# Failed draws
# ---------------------------------------------------------------------------


def _fail_first_fit(monkeypatch, exc):
    """Make the first model fit of a search raise ``exc``."""
    import incdur.cv as cv

    real, calls = cv.fit_model, []

    def fit_model(*args, **kwargs):
        calls.append(1)
        if len(calls) == 1:
            raise exc
        return real(*args, **kwargs)

    monkeypatch.setattr(cv, "fit_model", fit_model)


@pytest.mark.parametrize("exc", [ModelError("bad fit"), OrmError("bad scores")])
def test_ieo_documented_errors_fail_the_draw(monkeypatch, exc):
    _fail_first_fit(monkeypatch, exc)
    result = run_ieo(make_data(n=200, seed=12), "tree", folds=4, mode="intra",
                     iterations=3, seed=2, space=fixed_space())
    assert [r["failed"] for r in result.trace] == [True, False, False]
    assert result.trace[0]["error"] == str(exc)
    assert all("error" not in r for r in result.trace[1:])


def test_ieo_all_draws_failed_names_each_reason_once(monkeypatch):
    import incdur.cv as cv

    reasons = iter(["second reason", "first reason", "second reason"])

    def fit_model(*args, **kwargs):  # each draw fails at its first fit
        raise ModelError(next(reasons))

    monkeypatch.setattr(cv, "fit_model", fit_model)
    with pytest.raises(TuningError) as info:
        run_ieo(make_data(n=200, seed=12), "tree", folds=4, iterations=3, seed=2,
                space=fixed_space())
    assert str(info.value) == (
        "all draws failed: second reason (2 draws); first reason (1 draw)"
    )


def test_ieo_with_more_folds_than_search_records_says_so():
    # the search part holds 24 of the 30 records, fewer than 30 folds
    with pytest.raises(TuningError, match=r"^ieo search part holds 24 records, "
                       r"fewer than its 30 folds$"):
        run_ieo(make_data(n=30, seed=13), "tree", folds=30, iterations=3)


def one_per_fold_data():
    """25 records, so the search part holds 20: one per fold at 20 folds."""
    return synthesize(SynthConfig(n=25, seed=13, mu=3.5, sigma=0.8, effects=(
        PlantedEffect("x", "numeric", slope=1.0),)))


def test_ieo_extra_removal_below_the_fold_count_names_the_counts():
    trace = run_ieo(one_per_fold_data(), "tree", folds=20, mode="extra",
                    iterations=12).trace
    # draw 9 removes 5% of 20 records by Isolation Forest
    assert trace[9]["error"] == "outlier removal left 19 records, fewer than 20 folds"


def test_ieo_draw_that_removes_no_record_scores_no_outliers(monkeypatch):
    scored = []

    def spy(orm_params, X, seed=0):
        scored.append(X.shape[0])
        return score_with(orm_params, X, seed=seed)

    monkeypatch.setattr("incdur.tuning.score_with", spy)
    trace = run_ieo(one_per_fold_data(), "tree", folds=20, mode="extra",
                    iterations=12).trace
    # 1-4% of 20 records floors to none: such a LOF draw with k >= 20 used
    # to fail; only the two 5% draws (3 and 9) remove a record
    assert scored == [20, 20]
    assert [e["draw_index"] for e in trace if e["failed"]] == [3, 9]


def test_ieo_plain_value_error_propagates(monkeypatch):
    _fail_first_fit(monkeypatch, ValueError("programming error"))
    with pytest.raises(ValueError, match="programming error"):
        run_ieo(make_data(n=200, seed=12), "tree", folds=4, mode="intra",
                iterations=3, seed=2, space=fixed_space())


@pytest.mark.parametrize("arg, value", [
    ("folds", 1), ("iterations", 0), ("mode", "sideways"), ("metric", "mae"),
])
def test_ieo_rejects_bad_arguments(arg, value):
    with pytest.raises(TuningError, match=arg):
        run_ieo(make_data(n=50, seed=13), "tree", **{arg: value})


@pytest.mark.parametrize("metric", ["mape", "rmse"])
def test_ieo_tc_only_with_f1(metric):
    with pytest.raises(TuningError, match="tc"):
        run_ieo(make_data(n=50, seed=13), "tree", metric=metric, tc=45.0)
