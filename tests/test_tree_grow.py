"""The presorted growers against a frozen per-node-argsort reference.

``_ref_*`` below keep the earlier split scans and recursion: each node
re-sorts every candidate feature of its own rows and scans one feature at a
time. The grower in ``models.tree`` sorts each feature once per fit and
filters those orders down the tree; the forest grower in ``models.forest``
grows all its trees together, one node of each per pass, straight into
``PackedTrees``, and ``ref_forest_fit`` keeps the per-tree forest loop it
replaced, driving the reference growers. Every test here asks for trees
whose packed ``roots``, ``feature``, ``threshold``, ``child`` and ``value``
arrays are equal (``PackedTrees.from_nodes`` packs ``Node`` trees): the same
shape, split features, bit-identical thresholds and leaf values.
"""

import tracemalloc
import warnings
from functools import partial

import numpy as np
import pytest

from incdur.models import KINDS, BoostParams, ForestParams, fit_model
from incdur.models import boosting, forest
from incdur.models.tree import (
    Node,
    PackedTrees,
    TreeModel,
    grow_gini_tree,
    grow_mse_tree,
    grow_second_order_tree,
    leaf_values,
    predict_tree,
)


def _ref_split_mse(X, y, min_leaf, features):
    n = y.shape[0]
    best = None
    sse_parent = float(np.sum(y * y) - np.sum(y) ** 2 / n)
    for j in features:
        order = np.argsort(X[:, j], kind="mergesort")
        xs = X[order, j]
        ys = y[order]
        if xs[0] == xs[-1]:
            continue
        csum = np.cumsum(ys)[:-1]
        csq = np.cumsum(ys * ys)[:-1]
        n_left = np.arange(1, n)
        n_right = n - n_left
        valid = (xs[:-1] < xs[1:]) & (n_left >= min_leaf) & (n_right >= min_leaf)
        if not np.any(valid):
            continue
        total, total_sq = csum[-1] + ys[-1], csq[-1] + ys[-1] ** 2
        sse = csq - csum**2 / n_left + (total_sq - csq) - (total - csum) ** 2 / n_right
        sse = np.where(valid, sse, np.inf)
        i = int(np.argmin(sse))
        gain = sse_parent - float(sse[i])
        if gain > 1e-12 and (best is None or gain > best[0] + 1e-12):
            best = (gain, int(j), float((xs[i] + xs[i + 1]) / 2.0))
    return best


def _ref_split_gini(X, onehot, min_leaf, features):
    n = onehot.shape[0]
    counts = onehot.sum(axis=0)
    parent_score = float(np.sum(counts**2) / n)
    best = None
    for j in features:
        order = np.argsort(X[:, j], kind="mergesort")
        xs = X[order, j]
        if xs[0] == xs[-1]:
            continue
        cum = np.cumsum(onehot[order], axis=0)[:-1]
        n_left = np.arange(1, n)
        n_right = n - n_left
        valid = (xs[:-1] < xs[1:]) & (n_left >= min_leaf) & (n_right >= min_leaf)
        if not np.any(valid):
            continue
        score = (
            np.sum(cum**2, axis=1) / n_left
            + np.sum((counts - cum) ** 2, axis=1) / n_right
        )
        score = np.where(valid, score, -np.inf)
        i = int(np.argmax(score))
        gain = float(score[i]) - parent_score
        if gain > 1e-12 and (best is None or gain > best[0] + 1e-12):
            best = (gain, int(j), float((xs[i] + xs[i + 1]) / 2.0))
    return best


def _ref_split_second_order(X, g, h, reg_lambda, gamma, min_leaf, min_child_weight, features):
    n = g.shape[0]
    G, H = float(np.sum(g)), float(np.sum(h))
    parent = G * G / (H + reg_lambda)
    best = None
    for j in features:
        order = np.argsort(X[:, j], kind="mergesort")
        xs = X[order, j]
        if xs[0] == xs[-1]:
            continue
        gl = np.cumsum(g[order])[:-1]
        hl = np.cumsum(h[order])[:-1]
        n_left = np.arange(1, n)
        n_right = n - n_left
        valid = (
            (xs[:-1] < xs[1:])
            & (n_left >= min_leaf)
            & (n_right >= min_leaf)
            & (hl >= min_child_weight)
            & (H - hl >= min_child_weight)
        )
        if not np.any(valid):
            continue
        gain = 0.5 * (
            gl**2 / (hl + reg_lambda) + (G - gl) ** 2 / (H - hl + reg_lambda) - parent
        ) - gamma
        gain = np.where(valid, gain, -np.inf)
        i = int(np.argmax(gain))
        if gain[i] > 0.0 and (best is None or gain[i] > best[0] + 1e-12):
            best = (float(gain[i]), int(j), float((xs[i] + xs[i + 1]) / 2.0))
    return best


def _ref_candidates(m, feature_fraction, rng):
    if feature_fraction is None or feature_fraction >= 1.0 or rng is None:
        return np.arange(m)
    k = max(1, int(round(feature_fraction * m)))
    return np.sort(rng.choice(m, size=k, replace=False))


def _ref_build(X, max_depth, min_leaf, feature_fraction, rng, leaf, find, pure=None):
    def build(idx, depth):
        if depth >= max_depth or idx.shape[0] < 2 * min_leaf or (pure and pure(idx)):
            return Node(value=leaf(idx))
        feats = _ref_candidates(X.shape[1], feature_fraction, rng)
        found = find(idx, feats)
        if found is None:
            return Node(value=leaf(idx))
        _, j, thr = found
        mask = X[idx, j] < thr
        if not mask.any() or mask.all():
            return Node(value=leaf(idx))
        return Node(
            feature=j,
            threshold=thr,
            left=build(idx[mask], depth + 1),
            right=build(idx[~mask], depth + 1),
        )

    return build(np.arange(X.shape[0]), 0)


def ref_mse_tree(X, y, max_depth, min_samples_leaf=1, feature_fraction=None, rng=None):
    return _ref_build(
        X, max_depth, min_samples_leaf, feature_fraction, rng,
        leaf=lambda idx: float(np.mean(y[idx])),
        find=lambda idx, feats: _ref_split_mse(X[idx], y[idx], min_samples_leaf, feats),
    )


def ref_gini_tree(
    X, y_idx, n_classes, max_depth, min_samples_leaf=1, feature_fraction=None, rng=None
):
    onehot = np.zeros((y_idx.shape[0], n_classes))
    onehot[np.arange(y_idx.shape[0]), y_idx] = 1.0
    return _ref_build(
        X, max_depth, min_samples_leaf, feature_fraction, rng,
        leaf=lambda idx: onehot[idx].sum(axis=0),
        find=lambda idx, feats: _ref_split_gini(X[idx], onehot[idx], min_samples_leaf, feats),
        pure=lambda idx: np.count_nonzero(onehot[idx].sum(axis=0)) <= 1,
    )


def ref_second_order_tree(
    X, g, h, max_depth, reg_lambda, gamma, min_samples_leaf=1,
    min_child_weight=0.0, feature_fraction=None, rng=None,
):
    return _ref_build(
        X, max_depth, min_samples_leaf, feature_fraction, rng,
        leaf=lambda idx: -float(np.sum(g[idx])) / (float(np.sum(h[idx])) + reg_lambda),
        find=lambda idx, feats: _ref_split_second_order(
            X[idx], g[idx], h[idx], reg_lambda, gamma,
            min_samples_leaf, min_child_weight, feats,
        ),
    )


def _matrix(rng, n, m):
    """Continuous, tied (rounded), binary and constant columns, some NaN cells."""
    X = rng.normal(size=(n, m)) * rng.uniform(0.1, 100.0, size=m)
    kinds = rng.integers(0, 4, size=m)
    X[:, kinds == 1] = np.round(X[:, kinds == 1] / 10.0)
    X[:, kinds == 2] = rng.integers(0, 2, size=(n, int(np.sum(kinds == 2))))
    X[:, kinds == 3] = 7.0
    if rng.random() < 0.3:
        X[rng.random(size=(n, m)) < 0.05] = np.nan
    return X


def _case(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.choice([2, 3, 5, 17, 60, 150]))
    m = int(rng.integers(1, 7))
    X = _matrix(rng, n, m)
    kw = dict(max_depth=int(rng.integers(0, 9)), min_samples_leaf=int(rng.integers(1, 6)))
    return rng, X, kw


def _packed(trees):
    """``PackedTrees`` as they are, or ``Node`` trees (one or a list) packed."""
    if isinstance(trees, PackedTrees):
        return trees
    return PackedTrees.from_nodes(trees if isinstance(trees, list) else [trees])


def same_trees(a, b):
    """Exact tree check: ``a`` and ``b`` (``PackedTrees``, a ``Node`` or a list
    of them) have equal ``roots``, ``feature``, ``threshold``, ``child`` and
    ``value`` arrays, and the same depth."""
    pa, pb = _packed(a), _packed(b)
    return pa.depth == pb.depth and all(
        np.array_equal(getattr(pa, k), getattr(pb, k))
        for k in ("roots", "feature", "threshold", "child", "value")
    )


def _both(grow, ref, args, kw):
    """Both growers grow the same tree."""
    return same_trees(grow(*args, **kw), ref(*args, **kw))


SEEDS = range(300)


def test_mse_trees_match_reference():
    for seed in SEEDS:
        rng, X, kw = _case(seed)
        y = rng.normal(size=X.shape[0]) * 10.0 ** rng.integers(-2, 4)
        if rng.random() < 0.3:
            y = np.round(y)
        assert _both(grow_mse_tree, ref_mse_tree, (X, y), kw), seed


def test_gini_trees_match_reference():
    for seed in SEEDS:
        rng, X, kw = _case(seed)
        n_classes = int(rng.integers(1, 10))
        y_idx = rng.integers(0, n_classes, size=X.shape[0])
        assert _both(grow_gini_tree, ref_gini_tree, (X, y_idx, n_classes), kw), seed


def test_second_order_trees_match_reference():
    for seed in SEEDS:
        rng, X, kw = _case(seed)
        n = X.shape[0]
        g = rng.normal(size=n)
        h = rng.uniform(0.01, 0.25, size=n) if rng.random() < 0.5 else np.ones(n)
        kw.update(
            reg_lambda=float(rng.choice([0.0, 1.0, 5.0])),
            gamma=float(rng.choice([0.0, 0.0, 0.1, 2.0])),
            min_child_weight=float(rng.choice([0.0, 0.5, 3.0])),
        )
        assert _both(grow_second_order_tree, ref_second_order_tree, (X, g, h), kw), seed


def test_mse_parent_total_rounds_like_the_scalar_square():
    # targets whose scalar ``v ** 2`` differs from ``v * v`` in the last bit;
    # twin columns give equal partitions whose gains differ only by rounding
    pool = np.random.default_rng(0).normal(size=100_000) * 1e4
    pool = pool[[np.float64(v) ** 2 != v * v for v in pool]]
    for seed in range(60):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=40)
        upper = a > np.median(a)
        X = np.column_stack([a, upper + rng.uniform(0, 0.5, 40), rng.normal(size=40)])
        y = rng.choice(pool, 40)
        assert same_trees(grow_mse_tree(X, y, 3), ref_mse_tree(X, y, 3)), seed


def test_edge_cases_match_reference():
    X = np.array([[1.0, 5.0], [2.0, 5.0]])
    y = np.array([3.0, -1.0])
    y_idx = np.array([1, 1])
    for depth in (0, 3):
        assert same_trees(grow_mse_tree(X, y, depth), ref_mse_tree(X, y, depth))
        assert same_trees(
            grow_second_order_tree(X, y, np.ones(2), depth, 1.0, 0.0),
            ref_second_order_tree(X, y, np.ones(2), depth, 1.0, 0.0),
        )
        for labels in (y_idx, np.array([0, 1])):
            got = grow_gini_tree(X, labels, 2, depth)
            assert same_trees(got, ref_gini_tree(X, labels, 2, depth))
    tree = grow_gini_tree(X, y_idx, 2, 3)
    assert tree.is_leaf and np.array_equal(tree.value, [0.0, 2.0])
    tree = grow_mse_tree(X, y, 3)
    assert not tree.is_leaf and tree.feature == 0


def _adjacent_doubles(rng, n, m):
    """Columns of a few adjacent doubles: the midpoint of 1.0 and the next
    double rounds down onto 1.0, the next midpoint rounds up."""
    grid = [1.0]
    for _ in range(4):
        grid.append(np.nextafter(grid[-1], 2.0))
    return np.array(grid)[rng.integers(0, len(grid), size=(n, m))]


def test_midpoint_rounding_onto_the_lower_value_matches_reference():
    lo = 1.0
    hi = np.nextafter(lo, 2.0)
    assert (lo + hi) / 2.0 == lo
    # the best cut lies between lo and hi, but its threshold is lo itself, so
    # the lo rows go right: only the 0.0 rows go left, and in the Gini tree's
    # right child the same cut sends no row left, so it stays a leaf
    X = np.array([0.0, 0.0, 0.0, lo, lo, lo, hi, hi, hi, 2.0, 2.0])[:, None]
    y = np.array([4.0, 4.0, 4.0, 5.0, 5.0, 5.0, 9.0, 9.0, 9.0, 9.0, 9.0])
    labels = np.array([0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1])
    tree = grow_mse_tree(X, y, 3)
    assert tree.threshold == lo and tree.left.is_leaf and tree.left.value == 4.0
    assert same_trees(tree, ref_mse_tree(X, y, 3))
    tree = grow_gini_tree(X, labels, 2, 3)
    assert tree.threshold == lo and tree.right.is_leaf
    assert np.array_equal(tree.right.value, [3.0, 5.0])
    assert same_trees(tree, ref_gini_tree(X, labels, 2, 3))
    for seed in range(100):
        rng = np.random.default_rng(seed)
        n = int(rng.choice([4, 12, 40]))
        X = _adjacent_doubles(rng, n, int(rng.integers(1, 4)))
        y = rng.normal(size=n)
        labels = rng.integers(0, 3, size=n)
        leaf = int(rng.integers(1, 3))
        assert same_trees(
            grow_mse_tree(X, y, 4, leaf), ref_mse_tree(X, y, 4, leaf)
        ), seed
        assert same_trees(
            grow_gini_tree(X, labels, 3, 4, leaf), ref_gini_tree(X, labels, 3, 4, leaf)
        ), seed


def test_infinite_cells_split_into_a_leaf_without_warnings():
    # -inf and +inf have no midpoint: the only cut between distinct values
    # makes a leaf, where it used to warn and then fail to broadcast
    X = np.array([[-np.inf], [-np.inf], [np.inf], [np.inf], [np.nan]])
    y = np.array([0.0, 0.0, 10.0, 10.0, 5.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert grow_mse_tree(X, y, 2).is_leaf
        for kind in ("tree", "gbt", "gbt-reg", "random-forest"):
            pred = fit_model(kind, X, y, task="regression").predict(X)
            assert np.isfinite(pred).all() and np.ptp(pred) == 0.0, kind
            labels = fit_model(kind, X, y > 5, task="classification").predict(X)
            assert labels.tolist() == [False] * 5, kind


def test_gini_many_classes_and_pure_children_match_reference():
    pure = 0
    for seed in range(60):
        rng = np.random.default_rng(seed)
        n = int(rng.choice([6, 30, 90]))
        n_classes = int(rng.integers(3, 8))
        # classes drawn from a subset, so some are absent from the whole fit
        y_idx = rng.choice(rng.permutation(n_classes)[: max(3, n_classes - 2)], size=n)
        X = _matrix(rng, n, 3)
        # a column ordered by class: cuts on it leave pure children
        X[:, 0] = y_idx * 10.0 + rng.integers(0, 3, size=n)
        depth = int(rng.integers(1, 8))
        tree = grow_gini_tree(X, y_idx, n_classes, depth)
        assert same_trees(tree, ref_gini_tree(X, y_idx, n_classes, depth)), seed
        pure += sum(np.count_nonzero(v) == 1 for v in leaf_values(tree))
    assert pure > 100


def test_grown_leaf_values_equal_the_walk_on_training_rows():
    # an all-row boosting round takes its training scores from ``fitted``
    # ties, NaN cells, depth 0-8, min_samples_leaf 1-5
    cases = [_case(seed) for seed in SEEDS]
    for seed in range(100):
        rng = np.random.default_rng(seed)
        X = _adjacent_doubles(rng, int(rng.choice([4, 12, 40])), int(rng.integers(1, 4)))
        cases.append((rng, X, dict(max_depth=4, min_samples_leaf=int(rng.integers(1, 3)))))
    seen = set()
    for rng, X, kw in cases:
        n = X.shape[0]
        y = rng.normal(size=n) * 10.0 ** rng.integers(-2, 4)
        g, h = rng.normal(size=n), rng.uniform(0.01, 0.25, size=n)
        growers = (
            (grow_mse_tree, (y,), {}),
            (grow_second_order_tree, (g, h), dict(reg_lambda=1.0, gamma=0.0)),
        )
        for grow, args, extra in growers:
            fitted = np.full(n, np.nan)
            tree = grow(X, *args, **kw, **extra, fitted=fitted)
            assert np.array_equal(fitted, predict_tree(tree, X))
        seen.update({
            "nan": bool(np.isnan(X).any()),
            "depth 0": kw["max_depth"] == 0,
            "min leaf > 1": kw["min_samples_leaf"] > 1,
            "split": not tree.is_leaf,
        }.items())
    assert all((name, True) in seen for name in ("nan", "depth 0", "min leaf > 1", "split"))


@pytest.mark.parametrize(
    "params, walks",
    [
        (BoostParams(n_rounds=6, max_depth=3), 0),
        (BoostParams(n_rounds=6, max_depth=3, colsample=0.5), 0),
        (BoostParams(n_rounds=6, max_depth=3, subsample=0.7), 6),
        (BoostParams(n_rounds=6, max_depth=3, goss=(0.2, 0.3)), 6),
    ],
)
@pytest.mark.parametrize("kind", ["gbt", "gbt-reg"])
def test_only_row_sampled_rounds_walk_the_training_rows(monkeypatch, kind, params, walks):
    calls = []

    def counting(tree, X):
        calls.append(X.shape[0])
        return predict_tree(tree, X)

    monkeypatch.setattr(boosting, "predict_tree", counting)
    rng = np.random.default_rng(3)
    X = rng.normal(size=(80, 4))
    y = X[:, 0] + rng.normal(size=80)
    fit_model(kind, X, y, params, task="regression", seed=1)
    assert calls == [80] * walks


def _ignoring_presort(ref):
    """The reference grower, taking and ignoring the fit's presort, and
    filling the boosting loop's ``fitted`` by walking its tree over ``X``."""

    def grow(X, *args, presort=None, fitted=None, **kw):
        tree = ref(X, *args, **kw)
        if fitted is not None:
            fitted[:] = predict_tree(tree, X)
        return tree

    return grow


def ref_forest_fit(values, targets, n_classes, params, seed):
    """The per-tree forest loop, frozen: each tree grows alone, by the
    reference growers, on its sample rows, with its own feature-draw rng; the
    forest rng draws each tree's rows and then its seed, tree after tree."""
    rng = np.random.default_rng(seed)
    n, m = values.shape
    frac = params.feature_fraction
    if frac is None:
        frac = max(1.0 / m, np.sqrt(m) / m)
    if n_classes:
        grow = partial(ref_gini_tree, n_classes=n_classes)
    else:
        grow = ref_mse_tree
    trees = []
    for _ in range(params.n_trees):
        size = max(2, int(params.bootstrap_fraction * n))
        if params.bootstrap:
            rows = np.sort(rng.integers(0, n, size=size))
        else:
            rows = np.sort(rng.permutation(n)[:size]) if size < n else np.arange(n)
        tree_rng = np.random.default_rng(rng.integers(0, 2**63))
        trees.append(grow(
            values[rows], targets[rows], max_depth=params.max_depth,
            min_samples_leaf=params.min_samples_leaf, feature_fraction=frac,
            rng=tree_rng,
        ))
    return TreeModel(PackedTrees.from_nodes(trees),
                     forest._votes if n_classes else forest._mean)


def _fitted(model, X):
    """The fit's packed trees and its outputs on ``X``: ``predict``, and
    ``predict_proba`` for a classifier. A booster's outputs also check its
    base score and learning rate."""
    outputs = [model.predict(X)]
    if model.task == "classification":
        outputs.append(model.predict_proba(X))
    return model.inner.packed, outputs


def _fit_both(monkeypatch, kind, X, y, params, task):
    """The fit grows the same trees and gives the same outputs with the
    reference growers patched in (the frozen per-tree loop for a forest)."""
    got_trees, got = _fitted(fit_model(kind, X, y, params, task=task, seed=5), X)
    monkeypatch.setitem(KINDS, "random-forest", (ForestParams, ref_forest_fit))
    monkeypatch.setattr(boosting, "grow_mse_tree", _ignoring_presort(ref_mse_tree))
    monkeypatch.setattr(
        boosting, "grow_second_order_tree", _ignoring_presort(ref_second_order_tree)
    )
    want_trees, want = _fitted(fit_model(kind, X, y, params, task=task, seed=5), X)
    monkeypatch.undo()
    return same_trees(got_trees, want_trees) and all(
        np.array_equal(g, w) for g, w in zip(got, want)
    )


@pytest.mark.parametrize(
    "kind, params, task",
    [
        ("random-forest", ForestParams(n_trees=8, max_depth=6), "regression"),
        ("random-forest", ForestParams(n_trees=8, max_depth=6, min_samples_leaf=3), "classification"),
        ("gbt", BoostParams(n_rounds=15, max_depth=4, subsample=0.7, colsample=0.6), "regression"),
        ("gbt", BoostParams(n_rounds=15, max_depth=3, goss=(0.2, 0.3)), "classification"),
        ("gbt-reg", BoostParams(n_rounds=15, max_depth=4, colsample=0.5, gamma=0.05,
                                min_child_weight=1.0), "regression"),
        ("gbt-reg", BoostParams(n_rounds=15, max_depth=3, subsample=0.8, goss=(0.3, 0.2),
                                reg_lambda=2.0), "classification"),
    ],
)
def test_fitted_ensembles_match_reference_growers(monkeypatch, kind, params, task):
    rng = np.random.default_rng(11)
    X = _matrix(rng, 120, 5)
    X[np.isnan(X)] = 0.0
    y = X[:, 0] * 3.0 + rng.normal(size=120) * 5.0
    if task == "classification":
        y = np.digitize(y, np.quantile(y, [0.33, 0.66])) if kind == "random-forest" else (y > 0)
        y = y.astype(int)
    assert _fit_both(monkeypatch, kind, X, y, params, task)


@pytest.mark.parametrize(
    "kind, params, task",
    [
        ("gbt", BoostParams(n_rounds=12, max_depth=3), "regression"),
        ("gbt", BoostParams(n_rounds=12, max_depth=4, subsample=0.6), "regression"),
        ("gbt", BoostParams(n_rounds=12, max_depth=3, colsample=0.5), "regression"),
        ("gbt", BoostParams(n_rounds=12, max_depth=3, goss=(0.2, 0.3), colsample=0.7),
         "classification"),
        ("gbt-reg", BoostParams(n_rounds=12, max_depth=4, subsample=0.7, colsample=0.6,
                                min_child_weight=0.5, min_samples_leaf=2), "regression"),
        ("gbt-reg", BoostParams(n_rounds=12, max_depth=3, goss=(0.3, 0.2)),
         "classification"),
    ],
)
def test_boosting_presort_matches_reference_growers(monkeypatch, kind, params, task):
    # one presort per fit, filtered to each round's rows and columns, grows
    # the trees a per-round sort would; NaN cells and ties stay in
    rng = np.random.default_rng(23)
    X = rng.normal(size=(150, 6)) * 10.0
    X[:, 1:3] = np.round(X[:, 1:3] / 5.0)
    X[:, 3] = rng.integers(0, 2, size=150)
    X[rng.random(size=X.shape) < 0.08] = np.nan
    assert np.isnan(X).any(axis=0).all()
    y = np.nan_to_num(X[:, 0]) + 4.0 * np.nan_to_num(X[:, 1]) + rng.normal(size=150)
    if task == "classification":  # binary for gbt, three classes (one-vs-rest) for gbt-reg
        y = np.digitize(y, [0.0] if kind == "gbt" else [-5.0, 5.0])
    assert _fit_both(monkeypatch, kind, X, y, params, task)


@pytest.mark.parametrize(
    "params",
    [
        ForestParams(n_trees=3, max_depth=4),
        ForestParams(n_trees=3, max_depth=4, bootstrap=False, bootstrap_fraction=0.7),
    ],
)
def test_forest_presort_matches_reference_growers_on_16_bit_places(monkeypatch, params):
    # 300 rows: a row's place in a column's sort no longer fits in 8 bits;
    # ties, binary columns and NaN cells stay in
    rng = np.random.default_rng(31)
    X = _matrix(rng, 300, 4)
    X[rng.random(size=X.shape) < 0.05] = np.nan
    y = np.nan_to_num(X[:, 0]) + rng.normal(size=300)
    assert _fit_both(monkeypatch, "random-forest", X, y, params, "regression")


def _forest_case(seed):
    """A table, prepared targets, their class count (0: regression) and
    forest params, drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    n = int(rng.choice([2, 3, 9, 40, 120, 300]))
    m = int(rng.integers(1, 9))
    X = _matrix(rng, n, m)
    if rng.random() < 0.2:  # infinite cells
        X[rng.random(size=(n, m)) < 0.05] = rng.choice([-np.inf, np.inf])
    n_classes = int(rng.choice([0, 0, 2, 3, 9]))
    if n_classes:
        y = rng.integers(0, n_classes, size=n)
        y[:2] = [0, 1]  # at least two classes
    else:
        y = rng.normal(size=n) * 10.0 ** rng.integers(-2, 4)
        if rng.random() < 0.3:  # tied targets
            y = np.round(y)
    r = rng.random()
    frac = None if r < 0.3 else 1.0 if r < 0.4 else float(rng.uniform(0.2, 1.0))
    params = ForestParams(
        n_trees=int(rng.integers(1, 31)) if n < 300 else 4,
        max_depth=int(rng.integers(1, 13)),
        min_samples_leaf=int(rng.choice([1, 1, 2, 5, n])),
        bootstrap=bool(rng.random() < 0.7),
        bootstrap_fraction=float(rng.choice([1.0, 1.0, 0.6])),
        feature_fraction=frac,
    )
    return rng, X, y, n_classes, params


def test_forest_grows_the_trees_of_the_per_tree_loop():
    seen = set()
    for seed in range(150):
        rng, X, y, n_classes, params = _forest_case(seed)
        got = forest.fit(X, y, n_classes, params, seed)
        want = ref_forest_fit(X, y, n_classes, params, seed)
        assert same_trees(got.packed, want.packed), seed
        Q = np.concatenate([X, _matrix(rng, 20, X.shape[1])])
        assert np.array_equal(got.predict_values(Q), want.predict_values(Q)), seed
        n, m = X.shape
        frac = params.feature_fraction
        seen.update({
            f"classes {n_classes}": True,
            f"bootstrap {params.bootstrap}": True,
            "fraction < 1": params.bootstrap_fraction < 1.0,
            f"features {'all' if frac is None or frac >= 1.0 else 'drawn'}": True,
            "default features": frac is None,
            "k rounds to m, still drawn": frac is not None and frac < 1.0
            and round(frac * m) == m > 1,
            "nan": bool(np.isnan(X).any()),
            "inf": bool(np.isinf(X).any()),
            "16-bit places": n > 256,
            "root leaf": params.min_samples_leaf == n > 2,
            "one tree": params.n_trees == 1,
            "depth 1": params.max_depth == 1,
            "depth 12": params.max_depth == 12,
            "split": got.packed.depth > 0,
        }.items())
    names = {name for name, hit in seen if hit}
    assert names >= {
        "classes 0", "classes 2", "classes 3", "classes 9", "bootstrap True",
        "bootstrap False", "fraction < 1", "features all", "features drawn",
        "default features", "k rounds to m, still drawn", "nan", "inf",
        "16-bit places", "root leaf", "one tree", "depth 1", "depth 12", "split",
    }, sorted(names)


def test_forest_fit_peak_memory_stays_below_the_per_tree_loop():
    # the per-tree forest loop that the batched grower replaced held every
    # tree as linked ``Node`` objects and then packed them: on this fit it
    # peaked at 3.50 MB (regression) and 2.50 MB (three classes) as
    # ``tracemalloc`` counts, with numpy 2.4; more trees in flight, or
    # larger scans, must not take more
    rng = np.random.default_rng(0)
    X = rng.normal(size=(160, 12))
    y = X[:, 0] * 2.0 + rng.normal(size=160)
    for task, labels, bound in (("regression", y, 3.50e6),
                                ("classification", np.digitize(y, [-1.0, 1.0]), 2.50e6)):
        fit_model("random-forest", X, labels, ForestParams(n_trees=2), task=task)  # warm
        params = ForestParams(n_trees=100)
        tracemalloc.start()
        try:
            fit_model("random-forest", X, labels, params, task=task, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound, (task, peak)
