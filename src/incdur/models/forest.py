"""Random forest: bagged CART trees with per-split feature subsampling."""

from __future__ import annotations

import numpy as np

from .base import ForestParams
from .tree import PackedTrees, grow_gini_tree, grow_mse_tree


class ForestRegressor:
    def __init__(self, trees):
        self.trees = list(trees)
        self.packed = PackedTrees.from_nodes(self.trees)

    @staticmethod
    def combine(leaf):
        return leaf.mean(axis=0)

    def predict_values(self, values):
        return self.packed.reduce(values, self.combine)


class ForestClassifier:
    """Majority vote; ties go to the lower class index (lexicographically
    smaller label, since classes are stored sorted)."""

    def __init__(self, trees, n_classes):
        self.trees = list(trees)
        self.n_classes = int(n_classes)
        self.packed = PackedTrees.from_nodes(self.trees)

    def predict_proba_values(self, values):
        votes = np.zeros((values.shape[0], self.n_classes))
        for rows, leaf in self.packed.leaves(values):
            picked = np.argmax(leaf, axis=2)[..., None]
            votes[rows] = np.sum(picked == np.arange(self.n_classes), axis=0)
        return votes / len(self.trees)


def fit(values, targets, n_classes, params: ForestParams, seed):
    """Bagged CART trees on prepared targets (``n_classes`` 0 means regression)."""
    rng = np.random.default_rng(seed)
    n, m = values.shape
    frac = params.feature_fraction
    if frac is None:
        frac = max(1.0 / m, np.sqrt(m) / m)

    trees = []
    for _ in range(params.n_trees):
        size = max(2, int(params.bootstrap_fraction * n))
        if params.bootstrap:
            rows = np.sort(rng.integers(0, n, size=size))
        else:
            rows = np.sort(rng.permutation(n)[:size]) if size < n else np.arange(n)
        tree_rng = np.random.default_rng(rng.integers(0, 2**63))
        if n_classes == 0:
            tree = grow_mse_tree(
                values[rows], targets[rows], params.max_depth,
                params.min_samples_leaf, feature_fraction=frac, rng=tree_rng,
            )
        else:
            tree = grow_gini_tree(
                values[rows], targets[rows], n_classes, params.max_depth,
                params.min_samples_leaf, feature_fraction=frac, rng=tree_rng,
            )
        trees.append(tree)

    if n_classes == 0:
        return ForestRegressor(trees)
    return ForestClassifier(trees, n_classes)
