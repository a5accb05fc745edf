"""Random forest: bagged CART trees with per-split feature subsampling."""

from __future__ import annotations

import numpy as np

from .base import ForestParams, vote_shares
from .tree import TreeModel, grow_gini_tree, grow_mse_tree


def _mean(leaf):
    return leaf.mean(axis=0)


def _votes(leaf):
    """Vote shares: each tree votes for its leaf's majority class, ties to
    the lower class index (the smaller label, since classes are sorted)."""
    return vote_shares(np.argmax(leaf, axis=2), leaf.shape[2], axis=0)


def fit(values, targets, n_classes, params: ForestParams, seed):
    """Bagged CART trees on prepared targets (``n_classes`` 0 means regression)."""
    rng = np.random.default_rng(seed)
    n, m = values.shape
    frac = params.feature_fraction
    if frac is None:
        frac = max(1.0 / m, np.sqrt(m) / m)

    # each row's place in every column's stable sort, once per fit, in the
    # smallest unsigned type that holds it (numpy sorts 8- and 16-bit keys by
    # radix); a sample's rows ascend, so the stable sort of its places is its
    # own stable argsort
    presort = np.argsort(values.T, axis=1, kind="mergesort")
    places = np.empty(presort.shape, dtype=np.min_scalar_type(n - 1))
    np.put_along_axis(places, presort, np.arange(n), axis=1)
    trees = []
    for _ in range(params.n_trees):
        size = max(2, int(params.bootstrap_fraction * n))
        if params.bootstrap:
            rows = np.sort(rng.integers(0, n, size=size))
        else:
            rows = np.sort(rng.permutation(n)[:size]) if size < n else np.arange(n)
        tree_rng = np.random.default_rng(rng.integers(0, 2**63))
        order = np.argsort(places[:, rows], axis=1, kind="stable")
        if n_classes == 0:
            tree = grow_mse_tree(
                values[rows], targets[rows], params.max_depth,
                params.min_samples_leaf, feature_fraction=frac, rng=tree_rng,
                presort=order,
            )
        else:
            tree = grow_gini_tree(
                values[rows], targets[rows], n_classes, params.max_depth,
                params.min_samples_leaf, feature_fraction=frac, rng=tree_rng,
                presort=order,
            )
        trees.append(tree)

    return TreeModel(trees, _votes if n_classes else _mean)
