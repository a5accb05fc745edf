"""Baseline learners: exact small-instance oracles and declared properties."""

import numpy as np
import pytest

from incdur.dataset import PlantedEffect, SynthConfig, encode, synthesize
from incdur.metrics import rmse
from incdur.models import (
    KINDS,
    BoostParams,
    ForestParams,
    KnnParams,
    LinearParams,
    ModelError,
    TreeParams,
    fit_model,
)
from incdur.models.base import prepare_targets
from incdur.models.boosting import _select_rows
from incdur.models.forest import _votes
from incdur.models.linear import logistic_loss, logistic_loss_grad
from incdur.models.tree import (
    Node,
    PackedTrees,
    TreeModel,
    grow_second_order_tree,
)


# ---------------------------------------------------------------------------
# Single CART
# ---------------------------------------------------------------------------


def test_tree_perfect_single_split():
    X = np.array([[0.0], [1.0]])
    y = np.array([0.0, 10.0])
    model = fit_model("tree", X, y, TreeParams(max_depth=1))
    assert model.predict(np.array([[0.2]]))[0] == 0.0
    assert model.predict(np.array([[0.5]]))[0] == 10.0
    assert model.predict(np.array([[0.9]]))[0] == 10.0


def test_tree_constant_target_is_single_leaf():
    X = np.arange(8, dtype=float).reshape(-1, 1)
    y = np.full(8, 3.5)
    model = fit_model("tree", X, y, TreeParams(max_depth=5))
    assert model.inner.packed.value.tolist() == [3.5]
    assert (model.predict(X) == 3.5).all()


def test_tree_step_function_depth_two_zero_mse():
    # 4 plateaus need exactly 3 splits, reachable at depth 2; plateau values
    # are chosen so the greedy root split separates {0,1} from {10,11}
    X = np.arange(8, dtype=float).reshape(-1, 1)
    y = np.array([0.0, 0.0, 1.0, 1.0, 10.0, 10.0, 11.0, 11.0])
    model = fit_model("tree", X, y, TreeParams(max_depth=2))
    assert np.array_equal(model.predict(X), y)


def test_tree_constant_feature_degenerate():
    X = np.ones((5, 1))
    y = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    model = fit_model("tree", X, y, TreeParams(max_depth=3))
    assert model.predict(X)[0] == pytest.approx(3.0)


def test_tree_classification_gini():
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.array([0, 0, 1, 1])
    model = fit_model("tree", X, y, TreeParams(max_depth=1), task="classification")
    assert model.predict(X).tolist() == [0, 0, 1, 1]
    proba = model.predict_proba(X)
    assert proba.shape == (4, 2)
    assert np.allclose(proba.sum(axis=1), 1.0)


def test_tree_split_tie_breaks_lower_feature_index():
    # identical columns: the split must use feature 0
    x = np.array([0.0, 1.0, 2.0, 3.0])
    X = np.column_stack([x, x])
    y = np.array([0.0, 0.0, 4.0, 4.0])
    model = fit_model("tree", X, y, TreeParams(max_depth=1))
    assert model.inner.packed.feature[0] == 0  # the root


# ---------------------------------------------------------------------------
# Boosting
# ---------------------------------------------------------------------------


def _random_regression(seed, n=80, m=4):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, m))
    y = X @ rng.normal(size=m) + 0.3 * rng.normal(size=n)
    return X, y


def test_gbt_one_round_depth0_predicts_mean():
    X, y = _random_regression(0)
    params = BoostParams(n_rounds=1, learning_rate=1.0, max_depth=0)
    for kind in ("gbt", "gbt-reg"):
        model = fit_model(kind, X, y, params)
        assert np.allclose(model.predict(X), np.mean(y), atol=1e-9)


def test_gbt_training_rmse_non_increasing():
    for seed in range(10):
        X, y = _random_regression(seed)
        model = fit_model("gbt", X, y, BoostParams(n_rounds=200, learning_rate=0.1,
                                                   max_depth=3))
        score = np.full(X.shape[0], np.mean(y))  # add one tree at a time
        errors = [rmse(y, score)]
        ((_, per_tree),) = model.inner.packed.leaves(X)  # (trees, rows)
        for tree_values in per_tree:
            score = score + 0.1 * tree_values
            errors.append(rmse(y, score))
        assert errors[-1] == rmse(y, model.predict(X))
        assert all(b <= a + 1e-9 for a, b in zip(errors, errors[1:]))


def test_second_order_leaf_weights_vanish_at_huge_lambda():
    X, y = _random_regression(1)
    model = fit_model(
        "gbt-reg", X, y,
        BoostParams(n_rounds=5, learning_rate=0.3, max_depth=3,
                    reg_lambda=1e9),
    )
    assert np.abs(model.inner.packed.value).max() < 1e-6  # splits hold 0
    assert np.allclose(model.predict(X), np.mean(y), atol=1e-4)


def test_second_order_leaf_weight_formula():
    # squared-error loss: g = pred - y, h = 1; first tree sees pred = mean(y)
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.array([0.0, 0.0, 8.0, 8.0])
    lam = 2.0
    g = np.full(4, np.mean(y)) - y
    tree = grow_second_order_tree(X, g, np.ones(4), max_depth=1,
                                  reg_lambda=lam, gamma=0.0)
    _, left, right = PackedTrees.from_nodes([tree]).value  # root, left, right
    assert left == pytest.approx(-g[:2].sum() / (2 + lam), abs=1e-12)
    assert right == pytest.approx(-g[2:].sum() / (2 + lam), abs=1e-12)


def test_second_order_gamma_blocks_weak_splits():
    X, y = _random_regression(2)
    model = fit_model(
        "gbt-reg", X, y,
        BoostParams(n_rounds=3, max_depth=3, learning_rate=0.5, gamma=1e12),
    )
    assert model.inner.packed.depth == 0  # every tree is one leaf


def test_goss_still_learns():
    X, y = _random_regression(3, n=300)
    params = BoostParams(n_rounds=80, learning_rate=0.1, max_depth=3,
                         goss=(0.2, 0.2))
    model = fit_model("gbt", X, y, params, seed=0)
    base = rmse(y, np.full_like(y, y.mean()))
    assert rmse(y, model.predict(X)) < 0.5 * base


def test_goss_keeps_the_largest_gradient_row_on_tiny_tables():
    # int(0.2 * 4) is 0 top rows and 0 sampled rows: a round grew on no rows
    X = np.random.default_rng(7).normal(size=(4, 3))
    y = np.array([1.0, 2.0, 4.0, 8.0])
    params = BoostParams(n_rounds=3, goss=(0.2, 0.2))
    rows, scale = _select_rows(y - y.mean(), params, np.random.default_rng(0))
    assert rows.tolist() == [3] and scale.tolist() == [1.0]
    proba = fit_model("gbt", X, y > 3.0, params, "classification").predict_proba(X)
    assert np.isfinite(proba).all()
    pred = fit_model("gbt-reg", X, y, params).predict(X)
    assert np.isfinite(pred).all() and not np.allclose(pred, y.mean())


def test_gbt_classification_separable():
    X = np.array([[0.0], [1.0], [2.0], [3.0], [10.0], [11.0], [12.0], [13.0]])
    y = np.array([0, 0, 0, 0, 1, 1, 1, 1])
    model = fit_model("gbt", X, y, BoostParams(n_rounds=20, max_depth=2,
                                               learning_rate=0.3),
                      task="classification")
    assert model.predict(X).tolist() == y.tolist()


def test_gbt_deterministic_under_seed():
    X, y = _random_regression(4, n=120)
    params = BoostParams(n_rounds=30, max_depth=3, subsample=0.7,
                         colsample=0.8, learning_rate=0.2)
    a = fit_model("gbt", X, y, params, seed=9).predict(X)
    b = fit_model("gbt", X, y, params, seed=9).predict(X)
    assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# Random forest
# ---------------------------------------------------------------------------


def test_forest_degenerate_equals_single_tree():
    X, y = _random_regression(5, n=60)
    forest = fit_model(
        "random-forest", X, y,
        ForestParams(n_trees=1, max_depth=4, bootstrap=False,
                     bootstrap_fraction=1.0, feature_fraction=1.0),
        seed=0,
    )
    tree = fit_model("tree", X, y, TreeParams(max_depth=4))
    assert np.allclose(forest.predict(X), tree.predict(X))


def test_forest_vote_tie_returns_lower_class():
    leaf0 = Node(value=np.array([5.0, 1.0]))
    leaf1 = Node(value=np.array([1.0, 5.0]))
    packed = PackedTrees.from_nodes([leaf0, leaf1])
    proba = TreeModel(packed, _votes).predict_values(np.zeros((1, 1)))
    assert proba.tolist() == [[0.5, 0.5]]
    # argmax of a tie picks index 0 -> class 0
    assert int(np.argmax(proba[0])) == 0


def test_forest_variance_shrinks_with_trees():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(150, 3))
    y = X[:, 0] + rng.normal(scale=0.5, size=150)
    query = np.zeros((1, 3))

    def spread(n_trees):
        preds = [
            fit_model(
                "random-forest", X, y, ForestParams(n_trees=n_trees, max_depth=5),
                seed=s,
            ).predict(query)[0]
            for s in range(50)
        ]
        return np.var(preds)

    assert spread(100) < spread(1)


def test_forest_classification_runs():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(90, 3))
    y = (X[:, 0] > 0).astype(int)
    model = fit_model("random-forest", X, y, ForestParams(n_trees=20, max_depth=4),
                      task="classification", seed=2)
    assert (model.predict(X) == y).mean() > 0.9


# ---------------------------------------------------------------------------
# kNN
# ---------------------------------------------------------------------------


def test_knn_k1_returns_matching_target():
    X = np.array([[0.0], [5.0], [10.0]])
    y = np.array([1.0, 2.0, 3.0])
    model = fit_model("knn", X, y, KnnParams(k=1))
    assert model.predict(np.array([[5.0]]))[0] == 2.0


def test_knn_k_equals_n_is_global_mean():
    X = np.array([[0.0], [5.0], [10.0]])
    y = np.array([1.0, 2.0, 6.0])
    model = fit_model("knn", X, y, KnnParams(k=3))
    assert model.predict(np.array([[-100.0]]))[0] == pytest.approx(3.0)


def test_knn_k_exceeding_n_rejected():
    with pytest.raises(ModelError):
        fit_model("knn", np.zeros((2, 1)), np.zeros(2), KnnParams(k=3))


def _knn_oracle(train, targets, query, k):
    """Independent linear scan with lower-index tie-breaking."""
    out = np.empty(query.shape[0])
    for i, q in enumerate(query):
        d = np.sqrt(((train - q) ** 2).sum(axis=1))
        nearest = np.argsort(d, kind="stable")[:k]
        out[i] = targets[nearest].mean()
    return out


def test_knn_matches_brute_force_oracle():
    for seed in range(50):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(10, 501))
        m = int(rng.integers(1, 5))
        k = int(rng.integers(1, min(n, 12)))
        X = rng.normal(size=(n, m))
        y = rng.normal(size=n)
        queries = rng.normal(size=(15, m))
        model = fit_model("knn", X, y, KnnParams(k=k))
        mean = X.mean(axis=0)
        std = np.where(X.std(axis=0) == 0, 1.0, X.std(axis=0))
        expected = _knn_oracle((X - mean) / std, y, (queries - mean) / std, k)
        assert np.array_equal(model.predict(queries), expected)


def test_knn_classification_majority_vote():
    X = np.array([[0.0], [0.1], [0.2], [10.0]])
    y = np.array([0, 0, 1, 1])
    model = fit_model("knn", X, y, KnnParams(k=3), task="classification")
    assert model.predict(np.array([[0.05]]))[0] == 0


# ---------------------------------------------------------------------------
# Linear / logistic
# ---------------------------------------------------------------------------


def test_linear_exact_slope():
    X = np.arange(6, dtype=float).reshape(-1, 1)
    y = 2.0 * X[:, 0]
    model = fit_model("linear", X, y, LinearParams(ridge=0.0))
    assert model.inner.coefs[0] == pytest.approx(2.0, abs=1e-9)
    assert model.inner.intercept == pytest.approx(0.0, abs=1e-9)


def test_linear_orthogonal_target_gives_intercept_mean():
    X = np.array([[1.0], [-1.0], [1.0], [-1.0]])
    y = np.array([5.0, 5.0, 5.0, 5.0])
    model = fit_model("linear", X, y, LinearParams(ridge=0.0))
    assert model.inner.coefs[0] == pytest.approx(0.0, abs=1e-9)
    assert model.inner.intercept == pytest.approx(5.0, abs=1e-9)


def test_linear_singular_fits_minimum_norm():
    X = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
    y = np.array([1.0, 2.0, 3.0])
    model = fit_model("linear", X, y, LinearParams(ridge=0.0))
    beta = np.linalg.pinv(np.hstack([np.ones((3, 1)), X])) @ y
    assert np.allclose([model.inner.intercept, *model.inner.coefs], beta,
                       rtol=0, atol=1e-12)
    assert np.allclose(model.inner.coefs, [0.5, 0.5], rtol=0, atol=1e-12)
    assert np.allclose(model.predict(X), y, rtol=0, atol=1e-12)
    model = fit_model("linear", X, y, LinearParams(ridge=1e-6))
    assert np.allclose(model.predict(X), y, atol=1e-3)


@pytest.mark.parametrize("seed", [21, 22, 23, 24])
def test_linear_one_hot_table_fits_minimum_norm(seed):
    # the indicators sum to the intercept column, so the ridge-free normal
    # equations are singular: solving them raises at seed 21 and offsets the
    # intercept by hundreds at seeds 22-24
    ds = synthesize(SynthConfig(n=240, seed=seed, mu=3.6, sigma=0.8, effects=(
        PlantedEffect("x", "numeric", slope=1.0),
        PlantedEffect("flag", "boolean", multiplier=2.0),
        PlantedEffect("road", "categorical", levels=("a", "b", "c", "d"),
                      multipliers=(1.0, 1.5, 0.7, 1.2)),
    )))
    X, y = encode(ds), ds.durations
    model = fit_model("linear", X, y, LinearParams(ridge=0.0))
    aug = np.hstack([np.ones((y.size, 1)), X])
    beta = np.linalg.pinv(aug) @ y
    assert np.allclose([model.inner.intercept, *model.inner.coefs], beta,
                       rtol=0, atol=1e-9)
    assert np.allclose(model.predict(X), aug @ beta, rtol=0, atol=1e-9)


def test_linear_matches_lstsq_oracle():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(40, 3))
    y = rng.normal(size=40)
    model = fit_model("linear", X, y, LinearParams(ridge=0.0))
    aug = np.hstack([np.ones((40, 1)), X])
    beta, *_ = np.linalg.lstsq(aug, y, rcond=None)
    assert np.allclose([model.inner.intercept, *model.inner.coefs], beta,
                       atol=1e-9)


def test_logistic_separable_two_points():
    X = np.array([[-1.0], [1.0]])
    y = np.array([0, 1])
    model = fit_model("linear", X, y, LinearParams(ridge=0.0), task="classification")
    proba = model.predict_proba(X)
    assert proba[0, 1] < 0.5 < proba[1, 1]
    assert model.predict(X).tolist() == [0, 1]


def test_logistic_gradient_matches_finite_differences():
    rng = np.random.default_rng(3)
    for _ in range(5):
        values = rng.normal(size=(20, 3))
        y01 = (rng.random(20) > 0.5).astype(float)
        ridge = float(rng.uniform(0, 0.5))
        w = rng.normal(size=4)
        analytic = logistic_loss_grad(w, values, y01, ridge)
        eps = 1e-6
        for j in range(4):
            step = np.zeros(4)
            step[j] = eps
            numeric = (
                logistic_loss(w + step, values, y01, ridge)
                - logistic_loss(w - step, values, y01, ridge)
            ) / (2 * eps)
            denom = max(abs(numeric), 1e-8)
            assert abs(analytic[j] - numeric) / denom < 1e-5


# ---------------------------------------------------------------------------
# Shared contract
# ---------------------------------------------------------------------------

ALL_KINDS = ("tree", "gbt", "gbt-reg", "random-forest", "knn", "linear")


def test_log1p_round_trip_on_constant_target():
    X = np.arange(10, dtype=float).reshape(-1, 1)
    y = np.zeros(10)
    model = fit_model("tree", X, y, target_transform="log1p")
    assert np.allclose(model.predict(X), 0.0, atol=1e-9)
    y2 = np.full(10, 17.0)
    model2 = fit_model("linear", X, y2, target_transform="log1p")
    assert np.allclose(model2.predict(X), 17.0, atol=1e-9)


def test_predict_is_pure():
    X, y = _random_regression(8)
    model = fit_model("gbt", X, y, seed=5)
    assert np.array_equal(model.predict(X), model.predict(X))


SMALL_PARAMS = {
    "tree": TreeParams(max_depth=2),
    "gbt": BoostParams(n_rounds=3),
    "gbt-reg": BoostParams(n_rounds=3),
    "random-forest": ForestParams(n_trees=3),
    "knn": KnnParams(k=1),
    "linear": LinearParams(ridge=0.1),
}


@pytest.mark.parametrize("task", ["regression", "classification"])
@pytest.mark.parametrize("kind", ALL_KINDS)
def test_fit_model_is_the_one_fit_contract(kind, task):
    rng = np.random.default_rng(3)
    X = rng.normal(size=(12, 2))
    if task == "regression":
        y = rng.uniform(1.0, 50.0, size=12)
    else:
        y = np.tile(["long", "mid", "short"], 4)
    params = SMALL_PARAMS[kind]
    with pytest.raises(ModelError, match=r"rows\(X\) >= 2"):
        fit_model(kind, X, y[:-1], params, task)
    # kNN included: a 1-row fit is rejected even when k = 1 would fit
    with pytest.raises(ModelError, match=r"rows\(X\) >= 2"):
        fit_model(kind, X[:1], y[:1], params, task)
    with pytest.raises(ModelError, match="unknown model kind"):
        fit_model(kind + "-x", X, y, params, task)
    model = fit_model(kind, X, y, params, task, target_transform="log1p", seed=1)
    assert model.kind == kind
    assert model.params is params
    assert model.n_features == 2
    expected = "log1p" if task == "regression" else "none"
    assert model.target_transform == expected
    assert model.predict(X).shape == (12,)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_predict_rejects_other_widths(kind):
    rng = np.random.default_rng(4)
    X = rng.normal(size=(12, 4))
    y = rng.uniform(1.0, 50.0, size=12)
    regressor = fit_model(kind, X, y, SMALL_PARAMS[kind])
    classifier = fit_model(kind, X, y > 25.0, SMALL_PARAMS[kind], "classification")
    for width in (3, 5):
        for predict in (regressor.predict, classifier.predict,
                        classifier.predict_proba):
            with pytest.raises(ModelError, match=f"expected 4 features, got {width}"):
                predict(np.ones((2, width)))


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_one_class_fit_predicts_that_class_with_probability_one(kind):
    # a sequential training fold of a skewed table can hold one class only
    X = np.random.default_rng(5).normal(size=(12, 3))
    model = fit_model(kind, X, np.full(12, "long"), SMALL_PARAMS[kind],
                      "classification")
    assert model.predict(X).tolist() == ["long"] * 12
    assert np.array_equal(model.predict_proba(X), np.ones((12, 1)))


@pytest.mark.parametrize("task", ["regression", "classification"])
@pytest.mark.parametrize("kind", KINDS)
def test_zero_column_fit_predicts_a_constant(kind, task):
    # a fusion meta-learner gets no columns when every base column is constant
    X = np.empty((20, 0))
    y = np.random.default_rng(6).uniform(1.0, 50.0, size=20)
    model = fit_model(kind, X, y if task == "regression" else y > 25.0, task=task)
    pred = model.predict(X)
    assert pred.shape == (20,) and (pred == pred[0]).all()
    if task == "classification":
        proba = model.predict_proba(X)
        assert np.isfinite(proba).all() and (proba == proba[0]).all()
    else:
        assert np.isfinite(pred).all()


@pytest.mark.parametrize(
    "labels",
    [[3, -1, 3, 0, -1], [1.0, 0.0, 2.0, 2.0], ["bb", "a", "ccc", "a"], [True, False, True],
     [7, 7]],
)
def test_class_labels_equal_np_unique(labels):
    y = np.array(labels)
    y_idx, classes = prepare_targets(y, "classification", "none")
    assert classes.dtype == np.unique(y).dtype
    assert np.array_equal(classes, np.unique(y))
    assert np.array_equal(classes[y_idx], y)
