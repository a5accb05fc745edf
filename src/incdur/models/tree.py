"""CART trees from one presorted grower, and a stacked flat-array predict.

``_grow`` sorts every feature once per fit (stable mergesort) and hands each
child the parent's sorted row ids filtered to the child's rows. At each node
a criterion callback turns those orders into cumulative statistics for all
candidate features at once: (sum y, sum y^2) for squared error, one-hot class
counts for Gini, (sum g, sum h) for second-order boosting trees. The trees
are bit-identical to a per-node re-sort and one-feature-at-a-time scan: a
filtered stable sort of ascending rows is the node's own stable sort, and a
cumsum along axis 1 adds in the same order as a 1-D cumsum. Split-gain ties
break toward the lower feature index, then the lower threshold.

Every tree model and Isolation Forest predict through ``PackedTrees``: the
trees, held as flat arrays with global node ids and self-looping leaves, are
walked together one depth level per step with ``np.take``, in row chunks.
``Node`` trees are packed once after fitting; Isolation Forest grows its
trees straight into the arrays. Rows go left when ``x < threshold``, so NaN
goes right.
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


def _grow(X, max_depth, min_leaf, feature_fraction, rng, leaf, score, min_gain,
          stop=None):
    """Grow one tree over columns sorted once; ``leaf`` and ``score`` take rows.

    ``score(idx, rows)`` gets the node's row ids (ascending) and, for each
    candidate feature, its row ids sorted by that feature, shape
    (features, n). It returns (scores of shape (features, n - 1), parent
    score): the split after sorted position i scores ``scores[:, i]``, and
    its gain is that minus the parent score.
    """
    m = X.shape[1]
    # row ids sorted by each feature; filtering keeps the stable per-node order
    sorted_rows = np.argsort(X.T, axis=1, kind="mergesort")

    def build(idx, order, depth):
        n = idx.shape[0]
        if depth >= max_depth or n < 2 * min_leaf or (stop is not None and stop(idx)):
            return Node(value=leaf(idx))
        feats = _candidate_features(m, feature_fraction, rng)
        rows = order[feats]
        xs = X[rows, feats[:, None]]
        scores, parent = score(idx, rows)
        lo, hi = min_leaf - 1, n - min_leaf  # both children keep min_leaf rows
        distinct = xs[:, lo:hi] < xs[:, lo + 1:hi + 1]
        scores = np.where(distinct, scores[:, lo:hi], -np.inf)
        best = f = None
        for c, gain in enumerate((scores.max(axis=1) - parent).tolist()):
            if gain > min_gain and (best is None or gain > best + 1e-12):
                best, f = gain, c  # ties go to the lower feature
        if best is None:
            return Node(value=leaf(idx))
        j, i = int(feats[f]), lo + int(scores[f].argmax())
        thr = float((xs[f, i] + xs[f, i + 1]) / 2.0)
        col = X[:, j]
        mask = col[idx] < thr
        if not mask.any() or mask.all():
            return Node(value=leaf(idx))
        go_left = col[order] < thr  # every row of order holds the same row ids
        return Node(
            feature=j,
            threshold=thr,
            left=build(idx[mask], order[go_left].reshape(m, -1), depth + 1),
            right=build(idx[~mask], order[~go_left].reshape(m, -1), depth + 1),
        )

    return build(np.arange(X.shape[0]), sorted_rows, 0)


def grow_mse_tree(X, y, max_depth, min_samples_leaf=1, feature_fraction=None, rng=None):
    """Greedy regression tree; leaves hold target means."""

    def score(idx, rows):
        ys, n = y[idx], idx.shape[0]
        sse_parent = float((ys * ys).sum() - ys.sum() ** 2 / n)
        ys = y[rows]
        csum = ys.cumsum(axis=1)[:, :-1]
        csq = (ys * ys).cumsum(axis=1)[:, :-1]
        n_left = np.arange(1, n)
        # float_power matches the scalar ``v ** 2``; ``**`` on arrays does not
        total = csum[:, -1:] + ys[:, -1:]
        total_sq = csq[:, -1:] + np.float_power(ys[:, -1:], 2)
        sse = (
            csq
            - csum**2 / n_left
            + (total_sq - csq)
            - (total - csum) ** 2 / (n - n_left)
        )
        return -sse, -sse_parent  # argmax keeps the first minimum of sse

    return _grow(
        X, max_depth, min_samples_leaf, feature_fraction, rng,
        leaf=lambda idx: float(y[idx].mean()), score=score, min_gain=1e-12,
    )


def grow_gini_tree(
    X, y_idx, n_classes, max_depth, min_samples_leaf=1, feature_fraction=None, rng=None
):
    """Greedy classification tree; leaves hold class-count distributions."""
    onehot = np.zeros((y_idx.shape[0], n_classes))
    onehot[np.arange(y_idx.shape[0]), y_idx] = 1.0

    def dist(idx):
        return np.bincount(y_idx[idx], minlength=n_classes).astype(float)

    def score(idx, rows):
        n, counts = idx.shape[0], dist(idx)
        cum = onehot[rows].cumsum(axis=1)[:, :-1]
        n_left = np.arange(1, n)
        gini = (
            (cum**2).sum(axis=2) / n_left
            + ((counts - cum) ** 2).sum(axis=2) / (n - n_left)
        )
        return gini, float((counts**2).sum() / n)

    return _grow(
        X, max_depth, min_samples_leaf, feature_fraction, rng,
        leaf=dist, score=score, min_gain=1e-12,
        stop=lambda idx: np.count_nonzero(dist(idx)) <= 1,
    )


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
        G, H = float(g[idx].sum()), float(h[idx].sum())
        return -G / (H + reg_lambda)

    def score(idx, rows):
        G, H = float(g[idx].sum()), float(h[idx].sum())
        parent = G * G / (H + reg_lambda)
        gl = g[rows].cumsum(axis=1)[:, :-1]
        hl = h[rows].cumsum(axis=1)[:, :-1]
        gain = 0.5 * (
            gl**2 / (hl + reg_lambda)
            + (G - gl) ** 2 / (H - hl + reg_lambda)
            - parent
        ) - gamma
        heavy = (hl >= min_child_weight) & (H - hl >= min_child_weight)
        return np.where(heavy, gain, -np.inf), 0.0

    return _grow(
        X, max_depth, min_samples_leaf, feature_fraction, rng,
        leaf=leaf, score=score, min_gain=0.0,
    )


class PackedTrees:
    """Trees as flat node arrays with global ids, walked together by ``leaves``.

    Node ``i`` splits on ``feature[i]`` at ``threshold[i]`` and goes to
    ``child[2 * i + (x < threshold)]``, so ``child`` holds [right, left]
    pairs; a leaf's children are itself and its payload is ``value[i]``.
    ``depth`` is the deepest leaf's depth, the number of steps a walk takes.
    """

    CHUNK_CELLS = 1 << 18  # (tree, row) cells walked per chunk

    def __init__(self, roots, feature, threshold, child, value, depth):
        self.roots = np.asarray(roots)
        self.depth = int(depth)
        self.feature = np.maximum(np.asarray(feature), 0)  # leaves read column 0
        self.threshold = np.asarray(threshold, dtype=float)
        self.child = np.asarray(child)
        self.value = np.asarray(value, dtype=float)

    @classmethod
    def from_nodes(cls, trees):
        """Pack linked ``Node`` trees, pre-order."""
        feature, threshold, child, value, depths = [], [], [], [], []

        def add(node, depth):  # returns the node's global id
            i = len(feature)
            feature.append(node.feature)
            threshold.append(node.threshold)
            child.extend((i, i))
            value.append(node.value)
            depths.append(depth)
            if node.left is not None:
                child[2 * i] = add(node.right, depth + 1)
                child[2 * i + 1] = add(node.left, depth + 1)
                value[i] = 0.0 * value[child[2 * i + 1]]  # zeros, leaf-shaped
            return i

        roots = [add(tree, 0) for tree in trees]
        return cls(roots, feature, threshold, child, value, max(depths))

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
    return PackedTrees.from_nodes([node]).stacked(X)[0]


def leaf_values(node: Node) -> list:
    """All leaf payloads, left-to-right."""
    if node.is_leaf:
        return [node.value]
    return leaf_values(node.left) + leaf_values(node.right)
