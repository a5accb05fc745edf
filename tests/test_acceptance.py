"""End-to-end acceptance checks for the whole framework.

Each test asserts one of the framework's headline guarantees: exact metric
arithmetic, brute-force equivalence of the anomaly scorers and kNN, planted
outlier recovery, boosting convergence properties, joint-optimisation
correctness, extrapolation-scenario orderings on long-tail data, CLI
determinism, Shapley exactness, and the threshold-sweep contract. The San
Francisco check runs only when the prepared extract is present.
"""

import json
import math
import os

import numpy as np
import pytest

from incdur.cli import main
from incdur.cv import cross_val_predict, derive_seed
from incdur.dataset import (
    Dataset,
    FeatureColumn,
    FeatureSchema,
    PlantedEffect,
    SynthConfig,
    ecdf_at,
    encode,
    synthesize,
)
from incdur.labeling import (
    DEFAULT_TC_VALUES,
    MultiClassThresholds,
    binary_labels,
    multiclass_labels,
    threshold_sweep,
)
from incdur.metrics import classification_metrics, f1_macro, mape, rmse
from incdur.models import (
    BoostParams,
    KnnParams,
    TreeParams,
    fit_model,
)
from incdur.models.linear import logistic_loss, logistic_loss_grad
from incdur.outliers import OrmParams, isolation_forest_scores, lof_scores
from incdur.scenarios import run_scenario
from incdur.sf import load_sf_extract
from incdur.importance import shapley_sampling
from incdur.tuning import HyperSpace, run_ieo, sample_draw

TOL = 1e-9


# ---------------------------------------------------------------------------
# 1. Metric oracles: twelve hand-computed examples, exact to 1e-9
# ---------------------------------------------------------------------------


def test_criterion_1_metric_oracles():
    # classification_metrics
    perfect = classification_metrics([0, 1, 0], [0, 1, 0], positive_label=1)
    assert all(abs(perfect[k] - 1.0) < TOL
               for k in ("precision", "recall", "accuracy", "f1"))

    actual = [1] * 2 + [0] * 1 + [1] * 3 + [0] * 4
    predicted = [1] * 2 + [1] * 1 + [0] * 3 + [0] * 4
    m = classification_metrics(actual, predicted, positive_label=1)
    assert abs(m["precision"] - 2 / 3) < TOL
    assert abs(m["recall"] - 2 / 5) < TOL
    assert abs(m["f1"] - 0.5) < TOL
    assert abs(m["accuracy"] - 0.6) < TOL

    empty = classification_metrics([0, 0], [0, 0], positive_label=1)
    assert abs(empty["precision"]) < TOL
    assert abs(empty["recall"]) < TOL
    assert abs(empty["f1"]) < TOL
    assert abs(empty["accuracy"] - 1.0) < TOL

    # f1_macro
    assert abs(f1_macro([0, 1, 2], [0, 1, 2], classes=(0, 1, 2)) - 1.0) < TOL
    # symmetric confusion: tp = fp = fn = tn = 1 for both classes
    assert abs(f1_macro([0, 0, 1, 1], [0, 1, 0, 1], classes=(0, 1)) - 0.5) < TOL
    # everything predicted as one class on a balanced 3-class set
    assert abs(
        f1_macro([0, 1, 2], [0, 0, 0], classes=(0, 1, 2)) - 1 / 6
    ) < TOL

    # mape
    assert abs(mape([100.0], [110.0]) - 10.0) < TOL
    assert abs(mape([7.0, 9.0], [7.0, 9.0])) < TOL
    assert abs(mape([50.0, 200.0], [100.0, 100.0]) - 75.0) < TOL

    # rmse
    assert abs(rmse([1.0, 2.0], [1.0, 2.0])) < TOL
    assert abs(rmse([0.0, 0.0], [3.0, 4.0]) - math.sqrt(12.5)) < TOL
    assert abs(rmse([10.0], [13.0]) - 3.0) < TOL


# ---------------------------------------------------------------------------
# 2. Brute-force equivalence: LOF and kNN against naive references
# ---------------------------------------------------------------------------


def _lof_naive(values, k):
    n = values.shape[0]
    dist = np.sqrt(((values[:, None, :] - values[None, :, :]) ** 2).sum(axis=2))
    neighbours, k_distance = [], np.zeros(n)
    for a in range(n):
        others = sorted((b for b in range(n) if b != a),
                        key=lambda b: (dist[a, b], b))[:k]
        neighbours.append(others)
        k_distance[a] = dist[a, others[-1]]
    lrd = np.zeros(n)
    for a in range(n):
        mean_reach = float(np.mean(
            [max(k_distance[b], dist[a, b]) for b in neighbours[a]]
        ))
        lrd[a] = 1e12 if mean_reach == 0 else 1.0 / mean_reach
    return np.array(
        [np.mean([lrd[b] for b in neighbours[a]]) / lrd[a] for a in range(n)]
    )


def test_criterion_2_lof_matches_quadratic_reference():
    for seed in range(50):
        rng = np.random.default_rng(1000 + seed)
        n = int(rng.integers(10, 201))
        k = int(rng.integers(2, min(n, 12)))
        values = rng.normal(size=(n, int(rng.integers(1, 4))))
        got = lof_scores(values, k=k).scores
        assert np.max(np.abs(got - _lof_naive(values, k))) < TOL


def test_criterion_2_knn_matches_linear_scan():
    for seed in range(50):
        rng = np.random.default_rng(2000 + seed)
        n = int(rng.integers(10, 501))
        m = int(rng.integers(1, 5))
        k = int(rng.integers(1, min(n, 10)))
        X = rng.normal(size=(n, m))
        y = rng.normal(size=n)
        queries = rng.normal(size=(10, m))
        model = fit_model("knn", X, y, KnnParams(k=k))
        mean, std = X.mean(axis=0), X.std(axis=0)
        std = np.where(std == 0, 1.0, std)
        Xz, Qz = (X - mean) / std, (queries - mean) / std
        expected = np.array([
            y[np.argsort(np.sqrt(((Xz - q) ** 2).sum(axis=1)),
                         kind="stable")[:k]].mean()
            for q in Qz
        ])
        assert np.array_equal(model.predict(queries), expected)


# ---------------------------------------------------------------------------
# 3. Planted-outlier detection on a 2-D Gaussian
# ---------------------------------------------------------------------------


def _planted_gaussian(seed, n=500, n_out=5, radius=15.0):
    rng = np.random.default_rng(seed)
    inliers = rng.normal(size=(n, 2))
    angles = rng.uniform(0, 2 * np.pi, size=n_out)
    outliers = radius * np.column_stack([np.cos(angles), np.sin(angles)])
    values = np.vstack([inliers, outliers])
    return values, set(range(n, n + n_out))


def test_criterion_3_isolation_forest_finds_planted_outliers():
    hits = 0
    params = OrmParams(method="isolation-forest", if_n_trees=100,
                       if_subsample=256)
    for seed in range(100):
        values, planted = _planted_gaussian(seed)
        scores = isolation_forest_scores(values, params, seed=seed).scores
        top5 = set(np.argsort(-scores, kind="stable")[:5].tolist())
        hits += top5 == planted
    assert hits >= 95


def test_criterion_3_lof_finds_planted_outliers():
    hits = 0
    for seed in range(100):
        values, planted = _planted_gaussian(seed)
        scores = lof_scores(values, k=20).scores
        top5 = set(np.argsort(-scores, kind="stable")[:5].tolist())
        hits += top5 == planted
    assert hits >= 95


# ---------------------------------------------------------------------------
# 4. Boosting properties
# ---------------------------------------------------------------------------


def test_criterion_4_first_order_training_rmse_non_increasing():
    for seed in range(10):
        rng = np.random.default_rng(3000 + seed)
        X = rng.normal(size=(120, 4))
        y = X[:, 0] * 3 + np.sin(X[:, 1]) + rng.normal(scale=0.3, size=120)
        model = fit_model("gbt", X, y, BoostParams(n_rounds=200, learning_rate=0.1,
                                                   max_depth=3))
        score = np.full(X.shape[0], np.mean(y))  # add one tree at a time
        errors = [rmse(y, score)]
        ((_, per_tree),) = model.inner.packed.leaves(X)  # (trees, rows)
        for tree_values in per_tree:
            score = score + 0.1 * tree_values
            errors.append(rmse(y, score))
        assert errors[-1] == rmse(y, model.predict(X))
        assert all(b <= a + TOL for a, b in zip(errors, errors[1:]))


def test_criterion_4_second_order_leaf_weights_vanish_at_huge_lambda():
    rng = np.random.default_rng(3100)
    X = rng.normal(size=(100, 3))
    y = rng.normal(size=100)
    model = fit_model("gbt-reg", X, y,
                      BoostParams(n_rounds=5, max_depth=3, reg_lambda=1e9))
    assert np.max(np.abs(model.inner.packed.value)) < 1e-6  # splits hold 0


def test_criterion_4_logistic_gradient_matches_finite_differences():
    rng = np.random.default_rng(3200)
    values = rng.normal(size=(30, 3))
    y01 = (rng.random(30) > 0.5).astype(float)
    ridge = 0.1
    w = rng.normal(size=4)
    analytic = logistic_loss_grad(w, values, y01, ridge)
    eps = 1e-6
    for j in range(4):
        step = np.zeros(4)
        step[j] = eps
        numeric = (logistic_loss(w + step, values, y01, ridge)
                   - logistic_loss(w - step, values, y01, ridge)) / (2 * eps)
        assert abs(analytic[j] - numeric) / max(abs(numeric), 1e-8) < 1e-5


# ---------------------------------------------------------------------------
# 5. Intra/extra joint optimisation correctness
# ---------------------------------------------------------------------------

_FIXED_TREE = {"tree": {"max_depth": ("int", 4, 4),
                        "min_samples_leaf": ("int", 1, 1)}}


def _fixed_space(max_percent=0.05):
    return HyperSpace(model_space=_FIXED_TREE, orm_methods=("isolation-forest",),
                      max_percent=max_percent, if_n_trees=(30, 30),
                      if_subsample=(64, 64), lof_k=(10, 10))


def _synth(n, seed, corrupt=0.0):
    return synthesize(SynthConfig(n=n, seed=seed, mu=np.log(40), sigma=0.7,
                                  corrupt_fraction=corrupt,
                                  corrupt_multiplier=30.0))


def test_criterion_5_extra_zero_percent_reproduces_plain_cv():
    ds = _synth(250, seed=1)
    result = run_ieo(ds, "tree", folds=5, mode="extra", iterations=1, seed=17,
                     space=_fixed_space(max_percent=0.0))
    assert result.best["orm_percent"] == 0.0
    values = encode(ds)
    n_tr = int(0.8 * len(ds))
    draw = sample_draw(_fixed_space(), "tree", "extra", 5, 17, 0)
    plain = cross_val_predict("tree", values[:n_tr], ds.durations[:n_tr], 5,
                              params=draw.model_params,
                              seed=derive_seed(17, 0))
    assert np.array_equal(result.oof_predictions, plain)


def test_criterion_5_intra_extra_removed_counts_comparable():
    ds = _synth(500, seed=2)
    folds = 5
    intra = run_ieo(ds, "tree", folds=folds, mode="intra", iterations=6, seed=3,
                    space=_fixed_space())
    extra = run_ieo(ds, "tree", folds=folds, mode="extra", iterations=6, seed=3,
                    space=_fixed_space())
    for row_i, row_e in zip(intra.trace, extra.trace):
        assert row_i["orm_percent"] == pytest.approx(row_e["orm_percent"])
        for per_fold in row_i["removed_per_fold"]:
            assert abs(row_e["removed_extra"] - per_fold) <= folds


def test_criterion_5_corruption_intra_not_worse_than_none():
    none_scores, intra_scores = [], []
    for seed in range(20):
        ds = _synth(300, seed=500 + seed, corrupt=0.03)
        base = run_ieo(ds, "tree", folds=5, mode="none", iterations=2,
                       seed=seed, space=_fixed_space())
        intra = run_ieo(ds, "tree", folds=5, mode="intra", iterations=6,
                        seed=seed, space=_fixed_space())
        none_scores.append(base.best["metric_value"])
        intra_scores.append(intra.best["metric_value"])
    assert np.median(intra_scores) <= np.median(none_scores)


# ---------------------------------------------------------------------------
# 6. Extrapolation-scenario ordering on long-tail synthetic data
# ---------------------------------------------------------------------------


def test_criterion_6_scenario_mape_orderings():
    effects = (
        PlantedEffect("x1", "numeric", 0.0, 1.0, slope=2.0),
        PlantedEffect("peak", "boolean", true_rate=0.4, multiplier=3.0),
    )
    results = {name: [] for name in ("AtoA", "AlltoA", "BtoB", "AtoB")}
    for seed in range(10):
        ds = synthesize(SynthConfig(n=5000, seed=7000 + seed, mu=np.log(25),
                                    sigma=0.4, effects=effects))
        for name in results:
            result = run_scenario(ds, name, "tree", tc=45.0, folds=10, seed=seed,
                                  model_params=TreeParams(max_depth=6))
            results[name].append(result["mape"])
    assert np.median(results["AtoA"]) < np.median(results["AlltoA"])
    assert np.median(results["BtoB"]) < np.median(results["AtoB"])


# ---------------------------------------------------------------------------
# 7. San Francisco extract (skipped when the download is absent)
# ---------------------------------------------------------------------------

_SF_PATH = os.environ.get(
    "SF_EXTRACT",
    os.path.join(os.path.dirname(__file__), os.pardir, "data", "sf_extract.csv"),
)


@pytest.mark.skipif(
    not os.path.exists(_SF_PATH),
    reason=(
        "San Francisco extract not found; download the public countrywide "
        "accidents CSV and run prepare_sf_extract (see README), or point "
        "SF_EXTRACT at the prepared file"
    ),
)
def test_criterion_7_san_francisco_reproduction():
    ds = load_sf_extract(_SF_PATH)
    values = encode(ds)
    params = BoostParams(n_rounds=150, learning_rate=0.1, max_depth=4)

    # binary classification at Tc = 45, positive class = short-term (0)
    labels = binary_labels(ds.durations, 45.0)
    pred = cross_val_predict("gbt", values, labels, 10, params=params,
                             task="classification", seed=0)
    assert classification_metrics(labels, pred, positive_label=0)["f1"] >= 0.75

    # three classes split at the tercile thresholds
    th = MultiClassThresholds(
        t1=float(np.quantile(ds.durations, 1 / 3)),
        t2=float(np.quantile(ds.durations, 2 / 3)),
    )
    labels3 = multiclass_labels(ds.durations, th)
    pred3 = cross_val_predict("gbt", values, labels3, 10, params=params,
                              task="classification", seed=1)
    assert f1_macro(labels3, pred3, classes=(0, 1, 2)) >= 0.60

    # all-to-all regression with a log1p target transform
    result = run_scenario(ds, "AlltoAll", "gbt", tc=45.0, folds=10, seed=2,
                          target_transform="log1p", model_params=params)
    assert result["mape"] <= 45.0


# ---------------------------------------------------------------------------
# 8. CLI determinism across worker counts
# ---------------------------------------------------------------------------


def test_criterion_8_cli_metric_csvs_worker_invariant(tmp_path):
    cfg = {
        "seed": 5,
        "dataset": {"synth": {"n": 200, "mu": 3.7, "sigma": 0.8}},
        "sweep": {"models": ["tree", "knn"], "tc_values": [30, 45, 60], "cv": 4},
        "ieo": {"model": "tree", "mode": "intra", "iterations": 4, "folds": 4},
    }
    config = tmp_path / "config.json"
    config.write_text(json.dumps(cfg))
    for subcommand, artifact in (("sweep", "sweep.csv"), ("ieo", "ieo_trace.csv")):
        outputs = []
        for workers in ("1", "8"):
            out = tmp_path / f"{subcommand}_{workers}"
            assert main([subcommand, "--config", str(config), "--out", str(out),
                         "--workers", workers]) == 0
            outputs.append((out / artifact).read_bytes())
        assert outputs[0] == outputs[1]


# ---------------------------------------------------------------------------
# 9. Shapley checks
# ---------------------------------------------------------------------------


def test_criterion_9_exhaustive_efficiency_and_symmetry():
    rng = np.random.default_rng(4000)
    for m in (2, 3, 4, 5):
        X = rng.normal(size=(60, m))
        y = rng.normal(size=60)
        model = fit_model("tree", X, y, params=TreeParams(max_depth=4))
        background, record = X[:15], X[30]
        contrib = shapley_sampling(model, background, record,
                                   n_samples=math.factorial(m))
        expected_sum = (model.predict(record.reshape(1, -1))[0]
                        - model.predict(background).mean())
        assert abs(contrib.sum() - expected_sum) < TOL

    class SymmetricModel:
        def predict(self, rows):
            rows = np.asarray(rows, dtype=float)
            return rows[:, 0] + rows[:, 1] + 0.5 * rows[:, 2] ** 2

    base = rng.normal(size=60)
    X = np.column_stack([base, base, rng.normal(size=60)])
    contrib = shapley_sampling(SymmetricModel(), X[:15], X[30],
                               n_samples=math.factorial(3))
    assert contrib[0] == pytest.approx(contrib[1], abs=TOL)


def test_criterion_9_linear_contributions_within_five_percent():
    rng = np.random.default_rng(4100)
    X = rng.normal(size=(400, 4))
    beta = np.array([1.0, -2.0, 3.0, 0.5])
    model = fit_model("linear", X, X @ beta)
    background, record = X[:100], X[200]
    contrib = shapley_sampling(model, background, record,
                               n_samples=2000, seed=0)
    closed = beta * (record - background.mean(axis=0))
    assert np.all(np.abs(contrib - closed) <= 0.05 * np.abs(closed).max())


# ---------------------------------------------------------------------------
# 10. Threshold-sweep contract
# ---------------------------------------------------------------------------


def test_criterion_10_sweep_shape_balance_and_leak():
    # duration is the only feature; five shuffled copies of the integer grid
    # 1..200 ensure every sequential training fold sees every distinct value,
    # so the leaked split is learned exactly in each fold
    rng = np.random.default_rng(4200)
    grid = np.arange(1.0, 201.0)
    durations = np.concatenate([rng.permutation(grid) for _ in range(5)])
    schema = FeatureSchema(columns=(FeatureColumn("leak", "numeric"),))
    ds = Dataset(schema=schema, rows=tuple((float(d),) for d in durations),
                 durations=durations)
    rows = threshold_sweep(ds, ["tree"], cv=5)
    assert len(rows) == 11
    assert sorted({r["tc"] for r in rows}) == [float(t) for t in DEFAULT_TC_VALUES]
    for r in rows:
        assert r["class_balance"] == ecdf_at(ds.durations, r["tc"])
        assert r["f1"] == pytest.approx(1.0)
