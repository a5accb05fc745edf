"""Single CART fit wrappers (the base learner behind every ensemble)."""

from __future__ import annotations

import numpy as np

from .base import ModelError, TrainedModel, TreeParams, as_values, prepare_targets
from .tree import Node, PackedTrees, grow_gini_tree, grow_mse_tree


class TreeRegressor:
    def __init__(self, root: Node):
        self.root = root
        self.packed = PackedTrees.from_nodes([root])

    def predict_values(self, values):
        return self.packed.stacked(values)[0]

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


def fit_tree(
    X, y, params: TreeParams | None = None, task="regression", target_transform="none"
) -> TrainedModel:
    """Greedy binary CART minimising MSE (regression) or Gini (classification)."""
    params = params or TreeParams()
    values = as_values(X)
    y = np.asarray(y)
    if y.shape[0] != values.shape[0] or values.shape[0] < 2:
        raise ModelError("need |y| = rows(X) >= 2")
    targets, classes = prepare_targets(y, task, target_transform)
    if task == "regression":
        root = grow_mse_tree(
            values, targets, params.max_depth, params.min_samples_leaf
        )
        inner = TreeRegressor(root)
    else:
        root = grow_gini_tree(
            values, targets, len(classes), params.max_depth, params.min_samples_leaf
        )
        inner = TreeClassifier(root)
    return TrainedModel(
        kind="tree",
        task=task,
        inner=inner,
        feature_names=getattr(X, "feature_names", None),
        target_transform=target_transform if task == "regression" else "none",
        classes=classes,
        params=params,
    )
