"""CART and boosted trees from one presorted grower, and one flat-array walk.

``_grow`` grows CART and boosting trees pre-order from every feature's
stable argsort, taken once per fit (boosting takes it once for all its
rounds and filters it to each round's rows and columns) and filtered to
each child's rows.
Given a ``fitted`` array, the grower writes each leaf's value into its rows'
slots: the tree's predictions on its training rows, with no walk. Each node
computes its statistics once, for the stop rule, the split score and the
leaf: (y, sum y) for squared error, class counts for Gini, (G, H) for
second-order boosting trees. A criterion callback turns the sorted orders of
all features into cumulative sums along axis 1 at once: (sum y,
sum y^2), the left counts of every class but the last (the last is the left
count minus the others, exact since counts are integers), or (sum g, sum h).
A split's left child holds the split feature's sorted rows below
``searchsorted(threshold)`` (values ascend, NaN last; a midpoint can round
onto the lower value), re-sorted by row id. The trees are bit-identical to a
per-node re-sort and one-feature-at-a-time scan: a filtered stable sort of
ascending rows is the node's own stable sort, and a cumsum along axis 1 adds
in the same order as a 1-D cumsum. Split-gain ties break toward the lower
feature index, then the lower threshold.

Every tree learner returns one ``TreeModel``: its ``PackedTrees`` and the
learner's ``combine`` step, which turns a row chunk's leaf payloads into
predictions. Random forests (``forest.fit``, which grows its trees together,
batched) and Isolation Forest grow their trees straight into
``PackedTrees``. CART and boosting still build ``Node`` trees and pack them
once (``PackedTrees.from_nodes``), only because the benchmark tracer counts
nodes from them. The packed trees, flat arrays with global node ids, each
tree's nodes pre-order with the left subtree first, and self-looping leaves,
are walked together one depth level per step with ``np.take``, in row chunks
that ``reduce`` combines. Rows go left when ``x < threshold``, so NaN goes
right. A walk may take a subset of the trees, so permutation importance
re-walks a chunk only through the trees that split on a shuffled column,
and combines it as ``reduce`` does.
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
    "TreeModel",
    "ordered_sum",
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


def _candidate_features(m, feature_fraction, rng):
    if feature_fraction is None or feature_fraction >= 1.0 or rng is None:
        return np.arange(m)
    k = max(1, int(round(feature_fraction * m)))
    return np.sort(rng.choice(m, size=k, replace=False))


def _grow(X, max_depth, min_leaf, stats, leaf, score, min_gain, stop=None,
          presort=None, fitted=None):
    """Grow one tree, pre-order, over columns sorted once.

    ``stats(idx)`` summarises a node's rows (ids ascending) once; ``stop``,
    ``leaf`` and ``score`` take that summary. ``score(s, rows)`` also gets,
    for each feature, the node's row ids sorted by that feature,
    shape (features, n). It returns (scores of shape (features, n - 1),
    parent score): the split after sorted position i scores ``scores[:, i]``,
    and its gain is that minus the parent score. ``presort`` is
    ``np.argsort(X.T, axis=1, kind="mergesort")`` when the caller holds it.
    ``fitted``, an array of one slot per row of ``X``, receives each row's
    leaf value: the tree's prediction on its training rows, with no walk.
    """
    n_rows, m = X.shape
    if presort is None:
        presort = np.argsort(X.T, axis=1, kind="mergesort")
    XT = np.ascontiguousarray(X.T)
    starts = np.arange(m)[:, None] * n_rows  # where each column of XT starts

    def make_leaf(idx, s):
        value = leaf(s)
        if fitted is not None:
            fitted[idx] = value
        return Node(value=value)

    def build(idx, order, depth):
        n = idx.shape[0]
        s = stats(idx)
        if depth >= max_depth or n < 2 * min_leaf or (stop is not None and stop(s)):
            return make_leaf(idx, s)
        xs = XT.take(order + starts)
        scores, parent = score(s, order)
        lo, hi = min_leaf - 1, n - min_leaf  # both children keep min_leaf rows
        distinct = xs[:, lo:hi] < xs[:, lo + 1:hi + 1]
        scores = np.where(distinct, scores[:, lo:hi], -np.inf)
        best = f = None
        for c, gain in enumerate((scores.max(axis=1) - parent).tolist()):
            if gain > min_gain and (best is None or gain > best + 1e-12):
                best, f = gain, c  # ties go to the lower feature
        if best is None:
            return make_leaf(idx, s)
        i = lo + int(scores[f].argmax())
        low, high = xs[f, i:i + 2].tolist()  # Python floats add without warnings
        thr = (low + high) / 2.0
        # rows with x < thr: values ascend, NaN last; the midpoint of two
        # adjacent doubles can round onto the lower one, a sum can overflow,
        # and -inf and +inf have no midpoint (NaN)
        k = int(xs[f].searchsorted(thr))
        if k == 0 or k == n or thr != thr:
            return make_leaf(idx, s)
        left = right = None  # children at max_depth are leaves: no orders
        if depth + 1 < max_depth:
            go_left = XT[f].take(order) < thr  # each row of order: the same ids
            left = order[go_left].reshape(m, -1)
            right = order[~go_left].reshape(m, -1)
        return Node(
            feature=f,
            threshold=thr,
            left=build(np.sort(order[f, :k]), left, depth + 1),
            right=build(np.sort(order[f, k:]), right, depth + 1),
        )

    return build(np.arange(n_rows), presort, 0)


def grow_mse_tree(X, y, max_depth, min_samples_leaf=1, presort=None, fitted=None):
    """Greedy regression tree; leaves hold target means."""

    def stats(idx):
        ys = y[idx]
        return ys, ys.sum()

    def score(s, rows):
        ys, total = s
        n = ys.shape[0]
        sse_parent = float((ys * ys).sum() - total**2 / n)
        ys = y[rows]
        # float_power matches the scalar ``v ** 2``; ``**`` on arrays does not
        last_sq = np.float_power(ys[:, -1:], 2)
        csum = ys.cumsum(axis=1)
        total, csum = csum[:, -1:], csum[:, :-1]
        csq = np.multiply(ys, ys, out=ys).cumsum(axis=1)[:, :-1]
        n_left = np.arange(1.0, n)
        # sse = csq - csum^2 / n_left + (total_sq - csq)
        #       - (total - csum)^2 / (n - n_left), in that order, in place
        sse = np.square(csum)
        sse /= n_left
        np.subtract(csq, sse, out=sse)
        right = (csq[:, -1:] + last_sq) - csq
        sse += right
        np.subtract(total, csum, out=right)
        np.square(right, out=right)
        right /= n_left[::-1]
        sse -= right
        # argmax keeps the first minimum of sse
        return np.negative(sse, out=sse), -sse_parent

    return _grow(
        X, max_depth, min_samples_leaf,
        stats=stats, leaf=lambda s: float(s[1] / s[0].shape[0]), score=score,
        min_gain=1e-12, presort=presort, fitted=fitted,
    )


def grow_gini_tree(X, y_idx, n_classes, max_depth, min_samples_leaf=1, presort=None):
    """Greedy classification tree; leaves hold class-count distributions."""
    # 0/1 columns of every class but the last, whose count is the rest
    member = [(y_idx == c).astype(float) for c in range(n_classes - 1)]

    def score(counts, rows):
        # class counts are integers, so every sum below is exact in any order
        n = rows.shape[1]
        n_left = np.arange(1.0, n)
        rows = rows[:, :-1]
        rest = n_left  # left count of the last class, once the others are off
        left_sq = right_sq = 0.0
        for c, column in enumerate(member):
            cum = column[rows].cumsum(axis=1)
            rest = rest - cum
            left_sq = left_sq + cum * cum
            right_sq = right_sq + (counts[c] - cum) ** 2
        gini = (left_sq + rest * rest) / n_left + (
            right_sq + (counts[-1] - rest) ** 2
        ) / (n - n_left)
        return gini, float((counts**2).sum() / n)

    return _grow(
        X, max_depth, min_samples_leaf,
        stats=lambda idx: np.bincount(y_idx[idx], minlength=n_classes),
        leaf=lambda counts: counts.astype(float), score=score, min_gain=1e-12,
        stop=lambda counts: np.count_nonzero(counts) <= 1, presort=presort,
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
    presort=None,
    fitted=None,
):
    """Second-order tree: leaf weight -G/(H+lambda), gamma-thresholded gains."""

    def score(s, rows):
        G, H = s
        parent = G * G / (H + reg_lambda)
        rows = rows[:, :-1]
        gl = g[rows].cumsum(axis=1)
        hl = h[rows].cumsum(axis=1)
        gain = 0.5 * (
            gl**2 / (hl + reg_lambda)
            + (G - gl) ** 2 / (H - hl + reg_lambda)
            - parent
        ) - gamma
        heavy = (hl >= min_child_weight) & (H - hl >= min_child_weight)
        return np.where(heavy, gain, -np.inf), 0.0

    return _grow(
        X, max_depth, min_samples_leaf,
        stats=lambda idx: (float(g[idx].sum()), float(h[idx].sum())),
        leaf=lambda s: -s[0] / (s[1] + reg_lambda), score=score, min_gain=0.0,
        presort=presort, fitted=fitted,
    )


class PackedTrees:
    """Trees as flat node arrays with global ids, walked together by ``leaves``.

    Node ``i`` splits on ``feature[i]`` at ``threshold[i]`` and goes to
    ``child[2 * i + (x < threshold)]``, so ``child`` holds [right, left]
    pairs; a leaf's children are itself and its payload is ``value[i]``.
    Each tree's nodes run from its root up to the next tree's root.
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
        """Pack linked ``Node`` trees, pre-order, left subtree first."""
        feature, threshold, child, value, depths = [], [], [], [], []

        def add(node, depth):  # returns the node's global id
            i = len(feature)
            feature.append(node.feature)
            threshold.append(node.threshold)
            child.extend((i, i))
            value.append(node.value)
            depths.append(depth)
            if node.left is not None:
                child[2 * i + 1] = add(node.left, depth + 1)
                child[2 * i] = add(node.right, depth + 1)
                value[i] = 0.0 * value[child[2 * i + 1]]  # zeros, leaf-shaped
            return i

        roots = [add(tree, 0) for tree in trees]
        return cls(roots, feature, threshold, child, value, max(depths))

    def leaves(self, X, trees=None):
        """Yield (row slice, leaf payloads of shape (trees, rows[, width]))
        per row chunk; 0 rows give one empty chunk.

        ``trees`` (tree indices) walks only those trees, in that order, in
        chunks of at least as many rows as a walk of all the trees.
        """
        roots = self.roots if trees is None else self.roots[trees]
        n, m = X.shape
        flat = np.ascontiguousarray(X, dtype=float).reshape(-1)
        step = max(1, self.CHUNK_CELLS // roots.shape[0])
        for start in range(0, max(n, 1), step):
            rows = slice(start, min(n, start + step))
            node = np.repeat(roots[:, None], rows.stop - rows.start, axis=1)
            base = np.arange(rows.start, rows.stop) * m
            for _ in range(self.depth):  # in-place steps: no extra temporaries
                at = np.take(self.feature, node)
                at += base
                go_left = np.take(flat, at) < np.take(self.threshold, node)
                node *= 2
                node += go_left
                node = np.take(self.child, node)
            yield rows, np.take(self.value, node, axis=0)

    def reduce(self, X, combine):
        """``combine(leaf payloads of a row chunk)`` per chunk, concatenated:
        one output (or one row of width outputs) per row of ``X``."""
        return np.concatenate([combine(leaf) for _, leaf in self.leaves(X)])

    def split_columns(self, m):
        """(trees, m) bool: whether tree t splits on column j at any node."""
        ids = np.arange(self.threshold.shape[0])
        split = self.child[0::2] != ids  # a leaf's children are itself
        tree = np.searchsorted(self.roots, ids, side="right") - 1
        uses = np.zeros((self.roots.shape[0], m), dtype=bool)
        uses[tree[split], self.feature[split]] = True
        return uses


class TreeModel:
    """A fitted tree learner: its ``PackedTrees`` and ``combine``, which maps
    a row chunk's leaf payloads (trees, rows[, width]) to the chunk's
    regression values or class probabilities."""

    def __init__(self, packed, combine):
        self.packed = packed
        self.combine = combine

    def predict_values(self, values):
        return self.packed.reduce(values, self.combine)


def ordered_sum(leaf, start=0.0, scale=1.0):
    """start + scale * leaf payloads (trees, rows), added one tree at a time
    in tree order."""
    total = np.full(leaf.shape[1], start)
    for tree_leaf in scale * leaf:  # scaling is elementwise: one call for all
        total += tree_leaf
    return total


def predict_tree(node: Node, X) -> np.ndarray:
    """Evaluate a tree on a matrix; leaf payloads may be scalar or vector."""
    return PackedTrees.from_nodes([node]).reduce(X, lambda leaf: leaf[0])


def leaf_values(node: Node) -> list:
    """All leaf payloads, left-to-right."""
    if node.is_leaf:
        return [node.value]
    return leaf_values(node.left) + leaf_values(node.right)
