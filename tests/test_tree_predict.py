"""The stacked flat-array traversal against a plain row-by-row Node walk.

Every tree ensemble and Isolation Forest predict through
``PackedTrees.leaves``; each test here compares its output bit for bit
(``np.array_equal``) with a reference that walks linked ``Node`` trees one
row at a time in plain Python and combines the trees in the same order. A
fitted model holds only its packed arrays, so ``_nodes`` reads its trees
back into ``Node`` form, one node at a time. Isolation Forest grows straight
into flat arrays, so its reference also keeps the recursive ``Node`` builder
it replaced.
"""

import math

import numpy as np
import pytest

from incdur.models import (
    BoostParams,
    ForestParams,
    TreeParams,
    fit_model,
)
from incdur.models.boosting import _sigmoid
from incdur.models.tree import Node, PackedTrees, predict_tree
from incdur.outliers import OrmParams, _avg_path_length, isolation_forest_scores


def _nodes(packed):
    """Each packed tree as a linked ``Node`` tree: node ``i`` goes to
    ``child[2 * i + 1]`` (left) and ``child[2 * i]`` (right), or is a leaf
    whose children are itself."""

    def node(i):
        right, left = packed.child[2 * i], packed.child[2 * i + 1]
        if left == i:
            return Node(value=packed.value[i])
        return Node(feature=int(packed.feature[i]), threshold=float(packed.threshold[i]),
                    left=node(left), right=node(right))

    return [node(root) for root in packed.roots.tolist()]


def _walk(node, row):
    while not node.is_leaf:
        node = node.left if row[node.feature] < node.threshold else node.right
    return node.value


def _tree_ref(node, X):
    return np.array([_walk(node, row) for row in X], dtype=float).reshape(
        (X.shape[0],) + np.shape(_walk(node, np.zeros(X.shape[1])))
    )


def _booster_ref(trees, base, learning_rate, X):
    score = np.full(X.shape[0], base)
    for tree in trees:
        score = score + learning_rate * _tree_ref(tree, X)
    return score


def _log_odds(y01):
    """The classification base score from the training labels."""
    p0 = float(np.clip(np.mean(y01), 1e-6, 1.0 - 1e-6))
    return float(np.log(p0 / (1.0 - p0)))


def _forest_reg_ref(trees, X):
    return np.stack([_tree_ref(t, X) for t in trees]).reshape(
        len(trees), X.shape[0]
    ).mean(axis=0)


def _forest_clf_ref(trees, n_classes, X):
    votes = np.zeros((X.shape[0], n_classes))
    for tree in trees:
        picked = np.argmax(_tree_ref(tree, X).reshape(X.shape[0], n_classes), axis=1)
        votes[np.arange(X.shape[0]), picked] += 1.0
    return votes / len(trees)


def _data(seed, n=120, m=5, nan_share=0.0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, m))
    y = X[:, 0] * 3.0 - X[:, 1] ** 2 + rng.normal(scale=0.3, size=n)
    if nan_share:
        X[rng.random((n, m)) < nan_share] = np.nan
    return X, y


def _queries(seed, m=5):
    """Query sets covering 0 rows, 1 row, NaN cells and a plain batch."""
    X, _ = _data(seed + 100, n=60, m=m, nan_share=0.2)
    return [X[:0], X[:1], X, np.full((3, m), np.nan)]


def _labels(y, k):
    return np.digitize(y, np.quantile(y, np.linspace(0, 1, k + 1)[1:-1]))


GBT_PARAMS = [
    BoostParams(n_rounds=25, max_depth=3),
    BoostParams(n_rounds=20, max_depth=4, colsample=0.6, subsample=0.8),
    BoostParams(n_rounds=15, max_depth=3, goss=(0.2, 0.3)),
    BoostParams(n_rounds=5, max_depth=3, gamma=1e12),
]


@pytest.mark.parametrize(
    "kind", ["gbt", "gbt-reg"], ids=["first-order", "second-order-regularised"]
)
@pytest.mark.parametrize("params", GBT_PARAMS)
def test_gbt_regression_matches_node_walk(kind, params):
    X, y = _data(0)
    model = fit_model(kind, X, y, params, seed=3)
    trees = _nodes(model.inner.packed)
    assert len(trees) == params.n_rounds
    for Q in _queries(0):
        ref = _booster_ref(trees, np.mean(y), params.learning_rate, Q)
        assert np.array_equal(model.predict(Q), ref)


@pytest.mark.parametrize(
    "kind", ["gbt", "gbt-reg"], ids=["first-order", "second-order-regularised"]
)
@pytest.mark.parametrize("n_classes", [2, 4])
def test_gbt_classification_matches_node_walk(kind, n_classes):
    X, y = _data(1)
    labels = _labels(y, n_classes)
    params = BoostParams(n_rounds=15, max_depth=3, colsample=0.6)
    model = fit_model(kind, X, labels, params, task="classification", seed=5)
    classes = [1] if n_classes == 2 else range(n_classes)
    trees, rounds = _nodes(model.inner.packed), params.n_rounds
    assert len(trees) == rounds * len(classes)
    # each class's rounds follow the previous class's
    per_class = [trees[i * rounds:(i + 1) * rounds] for i in range(len(classes))]
    for Q in _queries(1):
        scores = np.column_stack([
            _sigmoid(_booster_ref(trees, _log_odds(labels == c), 0.1, Q))
            for c, trees in zip(classes, per_class)
        ])
        if n_classes == 2:
            ref = np.column_stack([1.0 - scores[:, 0], scores[:, 0]])
        else:
            total = scores.sum(axis=1, keepdims=True)
            total[total == 0] = 1.0
            ref = scores / total
        assert np.array_equal(model.predict_proba(Q), ref)


def test_gbt_colsample_remaps_features_to_global_columns():
    X, y = _data(2, m=8)
    model = fit_model("gbt", X, y, BoostParams(n_rounds=30, colsample=0.4), seed=1)
    used = {int(f) for f in model.inner.packed.feature}
    assert max(used) > 2  # a 3-column subset has local ids 0..2 only
    Q = _queries(2, m=8)[2]
    ref = _booster_ref(_nodes(model.inner.packed), np.mean(y), 0.1, Q)
    assert np.array_equal(model.predict(Q), ref)


def test_random_forest_regression_matches_node_walk():
    X, y = _data(3)
    model = fit_model("random-forest", X, y, ForestParams(n_trees=30, max_depth=5),
                      seed=2)
    trees = _nodes(model.inner.packed)
    for Q in _queries(3):
        assert np.array_equal(model.predict(Q), _forest_reg_ref(trees, Q))


def test_random_forest_classification_matches_node_walk():
    X, y = _data(4)
    labels = _labels(y, 3)
    model = fit_model(
        "random-forest", X, labels, ForestParams(n_trees=30, max_depth=5),
        task="classification", seed=2,
    )
    for Q in _queries(4):
        ref = _forest_clf_ref(_nodes(model.inner.packed), 3, Q)
        assert np.array_equal(model.predict_proba(Q), ref)


def test_cart_regression_and_classification_match_node_walk():
    X, y = _data(5)
    reg = fit_model("tree", X, y, TreeParams(max_depth=6))
    clf = fit_model("tree", X, _labels(y, 3), TreeParams(max_depth=4),
                    task="classification")
    for Q in _queries(5):
        assert np.array_equal(reg.predict(Q), _tree_ref(_nodes(reg.inner.packed)[0], Q))
        dist = _tree_ref(_nodes(clf.inner.packed)[0], Q).reshape(Q.shape[0], 3)
        ref = dist / dist.sum(axis=1, keepdims=True)
        assert np.array_equal(clf.predict_proba(Q), ref)


def test_single_leaf_trees():
    X, _ = _data(6)
    y = np.full(X.shape[0], 2.5)
    for model in (
        fit_model("tree", X, y, TreeParams(max_depth=4)),
        fit_model("random-forest", X, y, ForestParams(n_trees=5), seed=0),
        fit_model("gbt", X, y, BoostParams(n_rounds=4)),
    ):
        assert model.inner.packed.depth == 0
        for Q in _queries(6):
            assert np.array_equal(model.predict(Q), np.full(Q.shape[0], 2.5))


def test_nan_goes_right():
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.array([0.0, 0.0, 5.0, 5.0])
    model = fit_model("tree", X, y, TreeParams(max_depth=1))
    assert _nodes(model.inner.packed)[0].right.value == 5.0
    assert np.array_equal(model.predict(np.array([[np.nan]])), [5.0])


def test_chunk_boundary(monkeypatch):
    X, y = _data(8, n=200)
    model = fit_model("gbt", X, y, BoostParams(n_rounds=7, max_depth=3), seed=0)
    Q = _queries(8)[2]
    whole = model.predict(Q)
    # 7 trees x 5 rows per chunk: 60 rows cross eleven chunk boundaries
    monkeypatch.setattr(PackedTrees, "CHUNK_CELLS", 35)
    assert np.array_equal(model.predict(Q), whole)
    ref = _booster_ref(_nodes(model.inner.packed), np.mean(y), 0.1, Q)
    assert np.array_equal(model.predict(Q), ref)
    tree = _nodes(model.inner.packed)[0]
    assert np.array_equal(predict_tree(tree, Q), _tree_ref(tree, Q))
    forest = fit_model("random-forest", X, y, ForestParams(n_trees=7, max_depth=4),
                       seed=0)
    ref = _forest_reg_ref(_nodes(forest.inner.packed), Q)
    assert np.array_equal(forest.predict(Q), ref)
    labels = _labels(y, 3)
    forest = fit_model(
        "random-forest", X, labels, ForestParams(n_trees=7, max_depth=4),
        task="classification", seed=0,
    )
    ref = _forest_clf_ref(_nodes(forest.inner.packed), 3, Q)
    assert np.array_equal(forest.predict_proba(Q), ref)


def _build_isolation_tree(values, idx, depth, depth_limit, rng):
    """Frozen recursive builder: random split, leaves hold depth + c(size)."""
    if depth < depth_limit and idx.shape[0] > 1:
        sub = values[idx]
        lo = sub.min(axis=0)
        hi = sub.max(axis=0)
        usable = np.flatnonzero(hi > lo)
        if usable.size:
            feat = int(rng.choice(usable))
            try:
                split = float(rng.uniform(lo[feat], hi[feat]))
            except OverflowError:
                # uniform refuses an infinite range; apply its formula by hand
                low, high = float(lo[feat]), float(hi[feat])
                split = low + (high - low) * rng.random()
            mask = sub[:, feat] < split
            if mask.any() and not mask.all():
                below = (depth + 1, depth_limit, rng)
                return Node(
                    feature=feat,
                    threshold=split,
                    left=_build_isolation_tree(values, idx[mask], *below),
                    right=_build_isolation_tree(values, idx[~mask], *below),
                )
    return Node(value=depth + _avg_path_length(idx.shape[0]))


def _if_reference(values, params, seed):
    """Isolation Forest scores with each path length walked row by row."""
    n = values.shape[0]
    psi = min(params.if_subsample, n)
    depth_limit = int(math.ceil(math.log2(max(2, psi))))
    rng = np.random.default_rng(seed)
    paths = np.zeros(n)
    for _ in range(params.if_n_trees):
        sample = rng.choice(n, size=psi, replace=False)
        tree = _build_isolation_tree(values, sample, 0, depth_limit, rng)
        paths += _tree_ref(tree, values)
    return np.power(2.0, -(paths / params.if_n_trees) / _avg_path_length(psi))


@pytest.mark.parametrize("n", [2, 7, 300, 3000])
def test_isolation_forest_matches_node_walk(n):
    # 3000 rows x 100 trees crosses the default chunk boundary
    values, _ = _data(9, n=n, m=4)
    params = OrmParams(if_n_trees=100, if_subsample=64)
    scores = isolation_forest_scores(values, params, seed=4)
    assert np.array_equal(scores.scores, _if_reference(values, params, 4))


# 40 distinct rows three times each; 32-row subsamples, so depth limit 5
_DUPLICATES_AT_LIMIT = (
    np.repeat(_data(15, n=40, m=2)[0], 3, axis=0),
    OrmParams(if_n_trees=20, if_subsample=32),
)


def _if_cases():
    grid = np.random.default_rng(10).integers(0, 4, size=(80, 3)).astype(float)
    mixed = _data(11, n=50, m=3)[0]
    mixed[:, 1] = 7.0
    yield "constant columns", np.ones((40, 3)), OrmParams(if_n_trees=20)
    yield "one varying column", mixed, OrmParams(if_n_trees=30, if_subsample=16)
    yield "duplicate rows", np.vstack([grid[:10]] * 6), OrmParams(if_n_trees=30)
    yield "integer grid ties", grid, OrmParams(if_n_trees=30, if_subsample=32)
    yield "psi=2", _data(12, n=40, m=2)[0], OrmParams(if_n_trees=50, if_subsample=2)
    yield "n=2", np.array([[0.0, 1.0], [1.0, 1.0]]), OrmParams(if_n_trees=10)
    yield "psi > n", _data(13, n=20, m=3)[0], OrmParams(if_n_trees=25, if_subsample=256)
    yield "nan cells", _data(14, n=60, m=3, nan_share=0.2)[0], OrmParams(if_n_trees=25)
    yield "duplicates at the depth limit", *_DUPLICATES_AT_LIMIT
    yield "psi = n", _data(16, n=64, m=3)[0], OrmParams(if_n_trees=25, if_subsample=64)
    zeros = _data(17, n=60, m=3)[0]
    zeros[:, 0] = np.where(zeros[:, 0] > 0, 0.0, -0.0)  # signed zeros only: constant
    zeros[::3, 1] = -0.0
    zeros[1::3, 1] = 0.0
    yield "signed zeros", zeros, OrmParams(if_n_trees=25)
    infs = _data(18, n=60, m=3)[0]
    infs[::5, 0] = np.inf  # -inf and +inf in a node: the split is NaN, a leaf
    infs[2::5, 0] = -np.inf
    infs[1::7, 2] = np.inf  # +inf among numbers: the split can be +inf
    yield "infinite cells", infs, OrmParams(if_n_trees=25, if_subsample=32)
    all_nan = _data(19, n=50, m=3)[0]
    all_nan[:, 1] = np.nan
    yield "all-NaN column", all_nan, OrmParams(if_n_trees=25)
    one = np.column_stack([np.ones(40), _data(20, n=40, m=2)[0][:, 0], np.full(40, 3.0)])
    yield "one usable column", one, OrmParams(if_n_trees=25)


@pytest.mark.parametrize("case", list(_if_cases()), ids=lambda case: case[0])
def test_isolation_forest_edge_cases_match_recursive_builder(case):
    _, values, params = case
    for seed in range(3):
        scores = isolation_forest_scores(values, params, seed=seed)
        assert np.array_equal(scores.scores, _if_reference(values, params, seed))


def _rows_left_at_limit(node, depth, depth_limit):
    """Leaves at the depth limit holding more than one row (value > depth)."""
    if node.is_leaf:
        return int(depth == depth_limit and node.value > depth)
    return sum(_rows_left_at_limit(side, depth + 1, depth_limit)
               for side in (node.left, node.right))


def test_duplicate_case_reaches_the_depth_limit_with_several_rows():
    values, params = _DUPLICATES_AT_LIMIT
    rng = np.random.default_rng(0)
    sample = rng.choice(values.shape[0], size=params.if_subsample, replace=False)
    tree = _build_isolation_tree(values, sample, 0, 5, rng)
    assert _rows_left_at_limit(tree, 0, 5) > 0


def test_integers_with_one_choice_draws_nothing():
    # the grower skips rng.integers when one column is usable
    rng = np.random.default_rng(21)
    state = rng.bit_generator.state
    assert rng.integers(1) == 0
    assert rng.bit_generator.state == state
