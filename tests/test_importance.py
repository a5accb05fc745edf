"""Permutation importance and Monte-Carlo Shapley values."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from incdur.dataset import PlantedEffect, SynthConfig, synthesize
from incdur.importance import (
    ImportanceReport,
    _predictors,
    permutation_importance,
    shapley_sampling,
    subset_importance,
)
from incdur.metrics import metric_value
from incdur.models import (
    BoostParams,
    ForestParams,
    LinearParams,
    ModelError,
    TrainedModel,
    TreeParams,
    fit_model,
)
from incdur.models.tree import PackedTrees


def row(report, name):
    """The report row of one feature, looked up by name."""
    (found,) = (r for r in report.rows if r["name"] == name)
    return found


def linear_problem(seed=0, n=200, m=3):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, m))
    beta = np.arange(1, m + 1, dtype=float)
    y = X @ beta
    return X, y, beta


# ---------------------------------------------------------------------------
# Permutation importance
# ---------------------------------------------------------------------------


def test_report_requires_rank_permutation():
    with pytest.raises(ValueError):
        ImportanceReport(
            rows=({"name": "a", "score": 0.0, "rank": 1},
                  {"name": "b", "score": 0.0, "rank": 1}),
            method="permutation", subset="all",
        )


def test_unused_feature_scores_near_zero():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(300, 2))
    y = 5.0 * X[:, 0]  # feature 1 independent of the target
    model = fit_model("tree", X, y, params=TreeParams(max_depth=3))
    report = permutation_importance(model, X, y, metric="rmse", n_repeats=5,
                                    seed=0)
    baseline = report.notes["baseline"]
    assert abs(row(report, "x1")["score"]) < 0.01 * max(baseline, 1.0)
    assert row(report, "x0")["rank"] == 1


def test_leaked_target_ranks_first():
    rng = np.random.default_rng(2)
    noise = rng.normal(size=(200, 2))
    y = rng.uniform(1, 100, size=200)
    X = np.column_stack([noise, y])
    model = fit_model("tree", X, y, params=TreeParams(max_depth=8))
    report = permutation_importance(model, X, y, metric="rmse", seed=1)
    assert row(report, "x2")["rank"] == 1


def test_duplicated_feature_shares_importance():
    X, y, _ = linear_problem(seed=3, m=2)
    unique_model = fit_model("linear", X, y)
    unique = row(permutation_importance(unique_model, X, y, seed=2), "x1")["score"]
    X_dup = np.column_stack([X, X[:, 1]])  # feature 2 duplicates feature 1
    dup_model = fit_model("linear", X_dup, y, params=LinearParams(ridge=1e-6))
    report = permutation_importance(dup_model, X_dup, y, seed=2)
    assert row(report, "x1")["score"] <= unique + 1e-9
    assert row(report, "x2")["score"] <= unique + 1e-9


def test_permutation_deterministic_under_seed():
    X, y, _ = linear_problem(seed=4)
    model = fit_model("tree", X, y)
    a = permutation_importance(model, X, y, seed=5)
    b = permutation_importance(model, X, y, seed=5)
    assert a.rows == b.rows


def test_permutation_takes_names_and_checks_width():
    X, y, _ = linear_problem(seed=4)
    model = fit_model("tree", X, y)
    names = [f"f{j}" for j in range(X.shape[1])]
    named = permutation_importance(model, X, y, seed=5, names=names)
    plain = permutation_importance(model, X, y, seed=5)
    assert [r["name"] for r in named.rows] == names
    assert [r["name"] for r in plain.rows] == [f"x{j}" for j in range(X.shape[1])]
    assert [(r["score"], r["rank"]) for r in named.rows] == [
        (r["score"], r["rank"]) for r in plain.rows
    ]
    with pytest.raises(ModelError, match="expected"):
        permutation_importance(model, X[:, 1:], y)


def test_permutation_rejects_fewer_than_one_repeat():
    X, y, _ = linear_problem(seed=4)
    model = fit_model("linear", X, y)
    for n_repeats in (0, -2):
        with pytest.raises(ValueError, match="n_repeats"):
            permutation_importance(model, X, y, n_repeats=n_repeats)


# ---------------------------------------------------------------------------
# Tree path: only the trees that split on the shuffled column are re-walked
# ---------------------------------------------------------------------------

#: Small ensembles, so every tree kind fits in well under a second.
SMALL_PARAMS = {
    "gbt": BoostParams(n_rounds=30, max_depth=3),
    "gbt-reg": BoostParams(n_rounds=30, max_depth=3),
    "random-forest": ForestParams(n_trees=30, max_depth=4),
    "tree": TreeParams(max_depth=4),
}


def plain_importance(model, X, y, metric, n_repeats, seed):
    """Scores from one full ``predict`` per shuffled copy, with the same rng
    draws and arithmetic as ``permutation_importance``."""
    baseline = metric_value(metric, y, model.predict(X))
    rng = np.random.default_rng(seed)
    scores = []
    for j in range(X.shape[1]):
        total = 0.0
        for _ in range(n_repeats):
            shuffled = X.copy()
            shuffled[:, j] = X[rng.permutation(X.shape[0]), j]
            total += metric_value(metric, y, model.predict(shuffled))
        scores.append(total / n_repeats - baseline)
    return scores


def tree_problem(seed=0, n=150, m=4, nan_share=0.05):
    """Positive targets from the first two columns; NaN cells everywhere."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, m))
    y = np.exp(1.0 + 0.6 * X[:, 0] - 0.4 * X[:, 1 % m]) + rng.random(n)
    X[rng.random(X.shape) < nan_share] = np.nan
    return X, y


def assert_matches_plain(model, X, y, metric="rmse", n_repeats=2, seed=3):
    """Per-shuffle predictions and the whole report equal the plain loop's."""
    baseline, predict = _predictors(model, X)
    assert np.array_equal(baseline, model.predict(X))
    rng = np.random.default_rng(seed)
    for j in range(X.shape[1]):
        shuffled = X.copy()
        shuffled[:, j] = X[rng.permutation(X.shape[0]), j]
        assert np.array_equal(predict(shuffled, j), model.predict(shuffled))
    report = permutation_importance(model, X, y, metric=metric,
                                    n_repeats=n_repeats, seed=seed)
    assert [r["score"] for r in report.rows] == plain_importance(
        model, X, y, metric, n_repeats, seed
    )


@pytest.mark.parametrize("metric", ["rmse", "mape"])
@pytest.mark.parametrize("transform", ["none", "log1p"])
@pytest.mark.parametrize("kind", sorted(SMALL_PARAMS))
def test_tree_path_matches_one_predict_per_shuffle(kind, transform, metric):
    X, y = tree_problem()
    model = fit_model(kind, X, y, params=SMALL_PARAMS[kind],
                      target_transform=transform, seed=5)
    assert_matches_plain(model, X, y, metric=metric)


def test_tree_path_skips_a_column_no_tree_splits_on_but_draws_for_it():
    X, y = tree_problem(seed=1, m=3)
    X = np.column_stack([np.full(X.shape[0], 2.0), X])  # constant: never split
    model = fit_model("gbt", X, y, params=SMALL_PARAMS["gbt"])
    uses = model.inner.packed.split_columns(X.shape[1])
    assert not uses[:, 0].any() and uses[:, 1].any()
    baseline, predict = _predictors(model, X)
    assert predict(X[::-1].copy(), 0) is baseline
    # the later columns' scores depend on the draws made for column 0
    assert_matches_plain(model, X, y, n_repeats=3)


@pytest.mark.parametrize(
    "kind, params",
    [("gbt", BoostParams(n_rounds=5, max_depth=0)),
     ("gbt-reg", BoostParams(n_rounds=5, max_depth=0)),
     ("tree", TreeParams(max_depth=0))],
)
def test_tree_path_single_leaf_trees(kind, params):
    X, y = tree_problem(seed=2)
    model = fit_model(kind, X, y, params=params)
    assert not model.inner.packed.split_columns(X.shape[1]).any()
    assert_matches_plain(model, X, y)


@pytest.mark.parametrize("kind", sorted(SMALL_PARAMS))
def test_tree_path_one_repeat_one_feature(kind):
    X, y = tree_problem(seed=3, m=1, nan_share=0.2)
    model = fit_model(kind, X, y, params=SMALL_PARAMS[kind], seed=1)
    assert_matches_plain(model, X, y, n_repeats=1)


def test_tree_path_one_row_in_the_last_chunk():
    # a real-size chunk: 100 trees leave one row in the second walk chunk
    X, y = tree_problem(seed=4, n=PackedTrees.CHUNK_CELLS // 100 + 1, m=2)
    model = fit_model("gbt", X, y, params=BoostParams(n_rounds=100, max_depth=2))
    assert_matches_plain(model, X, y, n_repeats=1)


@pytest.mark.parametrize("kind", sorted(SMALL_PARAMS))
def test_tree_path_one_row_in_the_last_chunk_of_small_chunks(kind, monkeypatch):
    # a forest's mean sums a one-row chunk pairwise, a wider one tree by tree
    monkeypatch.setattr(PackedTrees, "CHUNK_CELLS", 90)
    model = fit_model(kind, *tree_problem(seed=5), params=SMALL_PARAMS[kind])
    trees = model.inner.packed.roots.shape[0]
    X, y = tree_problem(seed=6, n=2 * (90 // trees) + 1)
    assert_matches_plain(model, X, y)


@pytest.mark.parametrize(
    "kind, task, predicts",
    [("gbt", "regression", 0), ("random-forest", "regression", 0),
     ("gbt", "classification", 9), ("tree", "classification", 9),
     ("knn", "regression", 9), ("linear", "regression", 9)],
)
def test_only_tree_regressors_skip_the_full_predict(kind, task, predicts,
                                                    monkeypatch):
    # classifiers, kNN and linear models: one predict for the baseline and
    # one per shuffled copy (4 columns x 2 repeats)
    X, y = tree_problem(seed=7, nan_share=0.0)
    labels = (y > np.median(y)).astype(int) if task == "classification" else y
    model = fit_model(kind, X, labels, task=task)
    calls = []
    full_predict = TrainedModel.predict
    monkeypatch.setattr(TrainedModel, "predict",
                        lambda self, X: calls.append(1) or full_predict(self, X))
    metric = "rmse" if task == "regression" else "f1"
    permutation_importance(model, X, labels, metric=metric, n_repeats=2)
    assert len(calls) == predicts


def test_tree_path_peak_memory_stays_near_the_plain_loop():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(500, 6))
    y = np.abs(X @ np.arange(1.0, 7.0)) + rng.random(500)
    model = fit_model("gbt", X, y)  # 100 trees

    def peak(run):
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    tree_path = peak(lambda: permutation_importance(model, X, y, n_repeats=2))
    plain = peak(lambda: plain_importance(model, X, y, "rmse", 2, 0))
    # the kept payloads add about a fifth of one full walk's temporaries
    assert tree_path <= 1.25 * plain


def peak_bytes(run):
    """The peak of traced allocations while ``run()`` runs."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_tree_path_peak_memory_grows_only_by_the_kept_payloads():
    # past the plain loop's peak, the tree path holds the baseline leaf
    # payloads (8 bytes a tree and row) and one chunk's substituted copy
    n = 12_000
    rng = np.random.default_rng(9)
    X = rng.normal(size=(n, 6))
    y = np.abs(X @ np.arange(1.0, 7.0)) + rng.random(n)
    model = fit_model("gbt", X, y)  # 100 trees
    trees = model.inner.packed.roots.shape[0]
    tree_path = peak_bytes(lambda: permutation_importance(model, X, y, n_repeats=2))
    plain = peak_bytes(lambda: plain_importance(model, X, y, "rmse", 2, 0))
    kept = 8 * trees * n + 8 * PackedTrees.CHUNK_CELLS
    assert tree_path <= plain + kept + (1 << 20)


# ---------------------------------------------------------------------------
# Shapley sampling
# ---------------------------------------------------------------------------


def test_shapley_single_feature_exact():
    X = np.arange(20, dtype=float).reshape(-1, 1)
    y = 3.0 * X[:, 0]
    model = fit_model("linear", X, y)
    background = X[:10]
    record = X[15]
    contrib = shapley_sampling(model, background, record, n_samples=10)
    expected = model.predict(record.reshape(1, -1))[0] - model.predict(
        background
    ).mean()
    assert contrib.shape == (1,)
    assert contrib[0] == pytest.approx(expected, abs=1e-9)


def test_shapley_linear_closed_form_monte_carlo():
    X, y, beta = linear_problem(seed=6, n=400, m=4)
    model = fit_model("linear", X, y)
    background = X[:100]
    record = X[200]
    contrib = shapley_sampling(model, background, record,
                               n_samples=2000, seed=3)
    closed = beta * (record - background.mean(axis=0))
    scale = np.abs(closed).max()
    assert np.all(np.abs(contrib - closed) <= 0.05 * scale)


def test_shapley_exhaustive_efficiency_exact():
    rng = np.random.default_rng(7)
    for m in (2, 3, 4, 5):
        X = rng.normal(size=(60, m))
        y = rng.normal(size=60)
        model = fit_model("tree", X, y, params=TreeParams(max_depth=4))
        background = X[:15]
        record = X[30]
        contrib = shapley_sampling(model, background, record,
                                   n_samples=math.factorial(m))
        expected_sum = (
            model.predict(record.reshape(1, -1))[0]
            - model.predict(background).mean()
        )
        assert abs(contrib.sum() - expected_sum) < 1e-6


class _SymmetricModel:
    """Prediction function exactly symmetric in features 0 and 1."""

    def predict(self, rows):
        rows = np.asarray(rows, dtype=float)
        return rows[:, 0] + rows[:, 1] + 0.5 * rows[:, 2] ** 2


def test_shapley_exhaustive_symmetry():
    # two features that enter every coalition identically get equal values
    rng = np.random.default_rng(8)
    base = rng.normal(size=80)
    X = np.column_stack([base, base, rng.normal(size=80)])
    background = X[:20]
    record = X[40].copy()
    contrib = shapley_sampling(_SymmetricModel(), background, record,
                               n_samples=math.factorial(3))
    assert contrib[0] == pytest.approx(contrib[1], abs=1e-9)


def test_shapley_exhaustive_matches_direct_enumeration():
    # independent oracle: average marginal contributions over explicit
    # permutations with full background averaging per coalition
    rng = np.random.default_rng(9)
    m = 3
    X = rng.normal(size=(40, m))
    y = rng.normal(size=40)
    model = fit_model("tree", X, y, params=TreeParams(max_depth=3))
    background = X[:8]
    record = X[20]

    def coalition_value(mask):
        rows = np.repeat(record[None, :], background.shape[0], axis=0)
        rows[:, ~mask] = background[:, ~mask]
        return model.predict(rows).mean()

    expected = np.zeros(m)
    perms = list(itertools.permutations(range(m)))
    for perm in perms:
        mask = np.zeros(m, dtype=bool)
        prev = coalition_value(mask)
        for j in perm:
            mask[j] = True
            cur = coalition_value(mask)
            expected[j] += cur - prev
            prev = cur
    expected /= len(perms)

    got = shapley_sampling(model, background, record,
                           n_samples=math.factorial(m))
    assert np.allclose(got, expected, atol=1e-9)


# ---------------------------------------------------------------------------
# Subset importance
# ---------------------------------------------------------------------------


def test_subset_importance_planted_long_term_effect():
    # the boolean effect only multiplies records whose base duration is
    # already long, so it matters more in subset B than in subset A
    effects = (
        PlantedEffect("x", "numeric", 0.0, 1.0, slope=0.8),
        PlantedEffect("late", "boolean", true_rate=0.5, multiplier=4.0,
                      min_base_duration=45.0),
    )
    ds = synthesize(SynthConfig(n=2500, seed=10, mu=np.log(35), sigma=0.6,
                                effects=effects))
    reports = subset_importance(ds, tc=45.0, model="tree",
                                model_params=TreeParams(max_depth=5), seed=0)
    assert set(reports) == {"all", "A", "B"}
    assert row(reports["B"], "late")["rank"] < row(reports["A"], "late")["rank"]


def test_subset_importance_small_subset_flagged():
    ds = synthesize(SynthConfig(n=60, seed=11, mu=np.log(20), sigma=0.4))
    # a high tc leaves only a handful of long-term records
    tc = float(np.quantile(ds.durations, 0.9))
    reports = subset_importance(ds, tc=tc, model="tree", seed=1)
    assert reports["B"].notes["flagged_small"]
    assert not reports["all"].notes["flagged_small"]


@pytest.mark.parametrize("metric", ["f1", "mae"])
def test_subset_importance_rejects_non_regression_metrics(metric):
    ds = synthesize(SynthConfig(n=60, seed=11, mu=np.log(20), sigma=0.4))
    with pytest.raises(ValueError, match="metric"):
        subset_importance(ds, tc=20.0, model="tree", metric=metric)


def test_subset_importance_zero_feature_ranks_last():
    rng = np.random.default_rng(12)
    from incdur.dataset import Dataset, FeatureColumn, FeatureSchema

    n = 300
    x = rng.uniform(0, 1, n)
    durations = 10.0 + 100.0 * x
    schema = FeatureSchema(
        columns=(FeatureColumn("x", "numeric"), FeatureColumn("zero", "numeric"))
    )
    ds = Dataset(schema=schema,
                 rows=tuple((float(a), 0.0) for a in x),
                 durations=durations)
    reports = subset_importance(ds, tc=60.0, model="tree", seed=2)
    for tag in ("all", "A", "B"):
        assert row(reports[tag], "zero")["rank"] == 2
