"""Single CART: the base learner behind every ensemble."""

from __future__ import annotations

from .base import TreeParams
from .tree import Node, PackedTrees, grow_gini_tree, grow_mse_tree


class TreeRegressor:
    def __init__(self, root: Node):
        self.root = root
        self.packed = PackedTrees.from_nodes([root])

    @staticmethod
    def combine(leaf):
        return leaf[0]

    def predict_values(self, values):
        return self.packed.reduce(values, self.combine)

    def to_dict(self):
        return {"type": "tree-regressor", "root": self.root.to_dict()}

    @staticmethod
    def from_dict(d):
        return TreeRegressor(Node.from_dict(d["root"]))


class TreeClassifier:
    def __init__(self, root: Node):
        self.root = root
        self.packed = PackedTrees.from_nodes([root])

    def predict_proba_values(self, values):
        dist = self.packed.stacked(values)[0]
        return dist / dist.sum(axis=1, keepdims=True)

    def to_dict(self):
        return {"type": "tree-classifier", "root": self.root.to_dict()}

    @staticmethod
    def from_dict(d):
        return TreeClassifier(Node.from_dict(d["root"]))


def fit(values, targets, n_classes, params: TreeParams, seed):
    """Greedy binary CART minimising MSE (regression, ``n_classes`` 0) or Gini."""
    if n_classes == 0:
        return TreeRegressor(
            grow_mse_tree(values, targets, params.max_depth, params.min_samples_leaf)
        )
    return TreeClassifier(
        grow_gini_tree(
            values, targets, n_classes, params.max_depth, params.min_samples_leaf
        )
    )
