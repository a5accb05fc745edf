"""CART trees: exhaustive split scan over sorted unique feature values.

Three growers share the same node structure: squared-error regression,
Gini classification, and second-order (gradient/hessian) trees used by the
regularised boosting variant. Split-gain ties break toward the lower
feature index, then the lower threshold.

Every tree model and Isolation Forest predict through ``PackedTrees``: the
trees, packed once into flat arrays with global node ids and self-looping
leaves, are walked together one depth level per step with ``np.take``, in
row chunks. Rows go left when ``x < threshold``, so NaN goes right.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Node",
    "grow_mse_tree",
    "grow_gini_tree",
    "grow_second_order_tree",
    "PackedTrees",
    "predict_tree",
    "leaf_values",
]


@dataclass
class Node:
    feature: int = -1
    threshold: float = 0.0
    left: "Node | None" = None
    right: "Node | None" = None
    value: np.ndarray | float | None = None  # leaf payload

    @property
    def is_leaf(self) -> bool:
        return self.left is None

    def to_dict(self) -> dict:
        if self.is_leaf:
            value = self.value
            if isinstance(value, np.ndarray):
                value = value.tolist()
            return {"value": value}
        return {
            "feature": int(self.feature),
            "threshold": float(self.threshold),
            "left": self.left.to_dict(),
            "right": self.right.to_dict(),
        }

    @staticmethod
    def from_dict(d: dict) -> "Node":
        if "value" in d:
            value = d["value"]
            if isinstance(value, list):
                value = np.asarray(value, dtype=float)
            return Node(value=value)
        return Node(
            feature=d["feature"],
            threshold=d["threshold"],
            left=Node.from_dict(d["left"]),
            right=Node.from_dict(d["right"]),
        )


def _candidate_features(m, feature_fraction, rng):
    if feature_fraction is None or feature_fraction >= 1.0 or rng is None:
        return np.arange(m)
    k = max(1, int(round(feature_fraction * m)))
    return np.sort(rng.choice(m, size=k, replace=False))


def _split_mask(x_col, threshold):
    return x_col < threshold


def _best_split_mse(X, y, min_leaf, features):
    """Return (score_reduction, feature, threshold) or None."""
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
        sse = (
            csq
            - csum**2 / n_left
            + (total_sq - csq)
            - (total - csum) ** 2 / n_right
        )
        sse = np.where(valid, sse, np.inf)
        i = int(np.argmin(sse))
        gain = sse_parent - float(sse[i])
        if gain > 1e-12 and (best is None or gain > best[0] + 1e-12):
            best = (gain, int(j), float((xs[i] + xs[i + 1]) / 2.0))
    return best


def _best_split_gini(X, onehot, min_leaf, features):
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


def _best_split_second_order(
    X, g, h, reg_lambda, gamma, min_leaf, min_child_weight, features
):
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
            gl**2 / (hl + reg_lambda)
            + (G - gl) ** 2 / (H - hl + reg_lambda)
            - parent
        ) - gamma
        gain = np.where(valid, gain, -np.inf)
        i = int(np.argmax(gain))
        if gain[i] > 0.0 and (best is None or gain[i] > best[0] + 1e-12):
            best = (float(gain[i]), int(j), float((xs[i] + xs[i + 1]) / 2.0))
    return best


def grow_mse_tree(X, y, max_depth, min_samples_leaf=1, feature_fraction=None, rng=None):
    """Greedy regression tree; leaves hold target means."""

    def build(idx, depth):
        ys = y[idx]
        if depth >= max_depth or idx.shape[0] < 2 * min_samples_leaf:
            return Node(value=float(np.mean(ys)))
        feats = _candidate_features(X.shape[1], feature_fraction, rng)
        found = _best_split_mse(X[idx], ys, min_samples_leaf, feats)
        if found is None:
            return Node(value=float(np.mean(ys)))
        _, j, thr = found
        mask = _split_mask(X[idx, j], thr)
        if not mask.any() or mask.all():
            return Node(value=float(np.mean(ys)))
        return Node(
            feature=j,
            threshold=thr,
            left=build(idx[mask], depth + 1),
            right=build(idx[~mask], depth + 1),
        )

    return build(np.arange(X.shape[0]), 0)


def grow_gini_tree(
    X, y_idx, n_classes, max_depth, min_samples_leaf=1, feature_fraction=None, rng=None
):
    """Greedy classification tree; leaves hold class-count distributions."""
    onehot = np.zeros((y_idx.shape[0], n_classes))
    onehot[np.arange(y_idx.shape[0]), y_idx] = 1.0

    def build(idx, depth):
        dist = onehot[idx].sum(axis=0)
        if (
            depth >= max_depth
            or idx.shape[0] < 2 * min_samples_leaf
            or np.count_nonzero(dist) <= 1
        ):
            return Node(value=dist)
        feats = _candidate_features(X.shape[1], feature_fraction, rng)
        found = _best_split_gini(X[idx], onehot[idx], min_samples_leaf, feats)
        if found is None:
            return Node(value=dist)
        _, j, thr = found
        mask = _split_mask(X[idx, j], thr)
        if not mask.any() or mask.all():
            return Node(value=dist)
        return Node(
            feature=j,
            threshold=thr,
            left=build(idx[mask], depth + 1),
            right=build(idx[~mask], depth + 1),
        )

    return build(np.arange(X.shape[0]), 0)


def grow_second_order_tree(
    X,
    g,
    h,
    max_depth,
    reg_lambda,
    gamma,
    min_samples_leaf=1,
    min_child_weight=0.0,
    feature_fraction=None,
    rng=None,
):
    """Second-order tree: leaf weight -G/(H+lambda), gamma-thresholded gains."""

    def leaf(idx):
        G, H = float(np.sum(g[idx])), float(np.sum(h[idx]))
        return Node(value=-G / (H + reg_lambda))

    def build(idx, depth):
        if depth >= max_depth or idx.shape[0] < 2 * min_samples_leaf:
            return leaf(idx)
        feats = _candidate_features(X.shape[1], feature_fraction, rng)
        found = _best_split_second_order(
            X[idx], g[idx], h[idx], reg_lambda, gamma,
            min_samples_leaf, min_child_weight, feats,
        )
        if found is None:
            return leaf(idx)
        _, j, thr = found
        mask = _split_mask(X[idx, j], thr)
        if not mask.any() or mask.all():
            return leaf(idx)
        return Node(
            feature=j,
            threshold=thr,
            left=build(idx[mask], depth + 1),
            right=build(idx[~mask], depth + 1),
        )

    return build(np.arange(X.shape[0]), 0)


class PackedTrees:
    """Trees packed once into flat node arrays, walked together by ``leaves``."""

    CHUNK_CELLS = 1 << 18  # (tree, row) cells walked per chunk

    def __init__(self, trees):
        feature, threshold, child, value, depths = [], [], [], [], []

        def add(node, depth):  # pre-order; returns the node's global id
            i = len(feature)
            feature.append(node.feature)
            threshold.append(node.threshold)
            child.extend((i, i))  # [right, left]: a leaf's children are itself
            value.append(node.value)
            depths.append(depth)
            if node.left is not None:
                child[2 * i] = add(node.right, depth + 1)
                child[2 * i + 1] = add(node.left, depth + 1)
                value[i] = 0.0 * value[child[2 * i + 1]]  # zeros, leaf-shaped
            return i

        self.roots = np.array([add(tree, 0) for tree in trees])
        self.depth = max(depths)
        self.feature = np.maximum(np.array(feature), 0)  # leaves read column 0
        self.threshold = np.array(threshold, dtype=float)
        self.child = np.array(child)  # go to child[2 * id + (x < threshold)]
        self.value = np.array(value, dtype=float)

    def leaves(self, X):
        """Yield (row slice, leaf payloads of shape (trees, rows[, width]))."""
        n, m = X.shape
        flat = np.ascontiguousarray(X, dtype=float).reshape(-1)
        step = max(1, self.CHUNK_CELLS // self.roots.shape[0])
        for start in range(0, max(n, 1), step):  # 0 rows: one empty chunk
            stop = min(n, start + step)
            node = np.repeat(self.roots[:, None], stop - start, axis=1)
            base = np.arange(start, stop) * m
            for _ in range(self.depth):
                x = np.take(flat, base + np.take(self.feature, node))
                go_left = x < np.take(self.threshold, node)
                node = np.take(self.child, 2 * node + go_left)
            yield slice(start, stop), np.take(self.value, node, axis=0)

    def leaf_sum(self, X, start=0.0, scale=1.0):
        """start + scale * leaf payload, added one tree at a time in tree order."""
        total = np.full(X.shape[0], start)
        for rows, leaf in self.leaves(X):
            part = total[rows]  # a view: adding to it fills total
            for tree_leaf in leaf:
                part += scale * tree_leaf
        return total

    def stacked(self, X):
        """All leaf payloads at once, (trees, rows[, width]); for few trees."""
        return np.concatenate([leaf for _, leaf in self.leaves(X)], axis=1)


def predict_tree(node: Node, X) -> np.ndarray:
    """Evaluate a tree on a matrix; leaf payloads may be scalar or vector."""
    return PackedTrees([node]).stacked(X)[0]


def leaf_values(node: Node) -> list:
    """All leaf payloads, left-to-right."""
    if node.is_leaf:
        return [node.value]
    return leaf_values(node.left) + leaf_values(node.right)
