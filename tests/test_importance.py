"""Permutation importance and Monte-Carlo Shapley values."""

import itertools
import math

import numpy as np
import pytest

from incdur.dataset import PlantedEffect, SynthConfig, synthesize
from incdur.importance import (
    ImportanceReport,
    permutation_importance,
    shapley_sampling,
    subset_importance,
)
from incdur.models import LinearParams, TreeParams, fit_model


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
    assert abs(report.score_of("x1")) < 0.01 * max(baseline, 1.0)
    assert report.rank_of("x0") == 1


def test_leaked_target_ranks_first():
    rng = np.random.default_rng(2)
    noise = rng.normal(size=(200, 2))
    y = rng.uniform(1, 100, size=200)
    X = np.column_stack([noise, y])
    model = fit_model("tree", X, y, params=TreeParams(max_depth=8))
    report = permutation_importance(model, X, y, metric="rmse", seed=1)
    assert report.rank_of("x2") == 1


def test_duplicated_feature_shares_importance():
    X, y, _ = linear_problem(seed=3, m=2)
    unique_model = fit_model("linear", X, y)
    unique = permutation_importance(unique_model, X, y, seed=2).score_of("x1")
    X_dup = np.column_stack([X, X[:, 1]])  # feature 2 duplicates feature 1
    dup_model = fit_model("linear", X_dup, y, params=LinearParams(ridge=1e-6))
    report = permutation_importance(dup_model, X_dup, y, seed=2)
    assert report.score_of("x1") <= unique + 1e-9
    assert report.score_of("x2") <= unique + 1e-9


def test_permutation_deterministic_under_seed():
    X, y, _ = linear_problem(seed=4)
    model = fit_model("tree", X, y)
    a = permutation_importance(model, X, y, seed=5)
    b = permutation_importance(model, X, y, seed=5)
    assert a.rows == b.rows


# ---------------------------------------------------------------------------
# Shapley sampling
# ---------------------------------------------------------------------------


def test_shapley_single_feature_exact():
    X = np.arange(20, dtype=float).reshape(-1, 1)
    y = 3.0 * X[:, 0]
    model = fit_model("linear", X, y)
    background = X[:10]
    record = X[15]
    contrib = shapley_sampling(model, None, background, record, n_samples=10)
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
    contrib = shapley_sampling(model, None, background, record,
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
        contrib = shapley_sampling(model, None, background, record,
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
    contrib = shapley_sampling(_SymmetricModel(), None, background, record,
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

    got = shapley_sampling(model, None, background, record,
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
    reports = subset_importance(ds, tc=45.0, model_kind="tree",
                                model_params=TreeParams(max_depth=5), seed=0)
    assert set(reports) == {"all", "A", "B"}
    assert reports["B"].rank_of("late") < reports["A"].rank_of("late")


def test_subset_importance_small_subset_flagged():
    ds = synthesize(SynthConfig(n=60, seed=11, mu=np.log(20), sigma=0.4))
    # a high tc leaves only a handful of long-term records
    tc = float(np.quantile(ds.durations, 0.9))
    reports = subset_importance(ds, tc=tc, model_kind="tree", seed=1)
    assert reports["B"].notes["flagged_small"]
    assert not reports["all"].notes["flagged_small"]


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
    reports = subset_importance(ds, tc=60.0, model_kind="tree", seed=2)
    for tag in ("all", "A", "B"):
        assert reports[tag].rank_of("zero") == 2
