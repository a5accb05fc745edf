"""Single CART: the base learner behind every ensemble."""

from __future__ import annotations

from .base import TreeParams
from .tree import TreeModel, grow_gini_tree, grow_mse_tree


def _leaf_value(leaf):
    """The one tree's leaf values."""
    return leaf[0]


def _distribution(leaf):
    """The one tree's leaf class counts, normalised."""
    return leaf[0] / leaf[0].sum(axis=1, keepdims=True)


def fit(values, targets, n_classes, params: TreeParams, seed):
    """Greedy binary CART minimising MSE (regression, ``n_classes`` 0) or Gini."""
    if n_classes == 0:
        tree = grow_mse_tree(values, targets, params.max_depth, params.min_samples_leaf)
        return TreeModel([tree], _leaf_value)
    tree = grow_gini_tree(
        values, targets, n_classes, params.max_depth, params.min_samples_leaf
    )
    return TreeModel([tree], _distribution)
