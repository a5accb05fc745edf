"""Random forest: bagged CART trees with per-split feature subsampling.

``fit`` grows its trees together, straight into ``PackedTrees``, and each
tree is bit-identical to one grown alone on its sample with ``tree._grow``'s
split rules. Trees are admitted in tree order, at most one a pass, each
drawing its sample rows and then its seed from the forest rng, while their
sorted rows fit in ``CELLS``. Each pass pops the next pre-order node (left
subtree first) of every tree in flight; a node that may split draws its
candidate features from its own tree's rng, so every stream is drawn in a
lone tree's order. One vectorised scan then scores the popped nodes'
candidate features, laid end to end: Gini class counts by one cumsum less
each segment's prefix (integers, so exact), squared error by a cumsum along
each zero-padded segment row and a pairwise sum per node, a lone tree's
adds. A node carries its sample rows ascending (a row's copies together)
and, unless its children would sit at ``max_depth``, every column's stable
order of them, filtered down from the fit's one argsort.
"""

from __future__ import annotations

import numpy as np

from .base import ForestParams, vote_shares
from .tree import PackedTrees, TreeModel

CELLS = 1 << 19  # (tree, column, sample row) cells of sorted rows in flight


def _mean(leaf):
    return leaf.mean(axis=0)


def _votes(leaf):
    """Vote shares: each tree votes for its leaf's majority class, ties to
    the lower class index (the smaller label, since classes are sorted)."""
    return vote_shares(np.argmax(leaf, axis=2), leaf.shape[2], axis=0)


def _gini(y, n_classes):
    """(stats, scores) of Gini trees, whose leaves hold class counts."""
    member = [(y == c).astype(float) for c in range(n_classes - 1)]

    def stats(idx, sizes, may):
        owner = np.repeat(np.arange(len(idx)) * n_classes, sizes)
        counts = np.bincount(owner + y.take(np.concatenate(idx)),
                             minlength=len(idx) * n_classes).reshape(-1, n_classes)
        stop = np.count_nonzero(counts, axis=1) <= 1
        return counts.astype(float), (counts**2).sum(axis=1) / sizes, stop, counts

    def scores(rows, seg, pos, lens, starts, counts):
        n_left = pos + 1.0
        rest = n_left  # left count of the last class, once the others are off
        left_sq = right_sq = 0.0
        for c, column in enumerate(member):
            cum = column.take(rows).cumsum()
            cum -= np.append(0.0, cum)[starts].take(seg)  # the segments before
            rest = rest - cum
            left_sq = left_sq + cum * cum
            right_sq = right_sq + (counts[:, c].take(seg) - cum) ** 2
        with np.errstate(divide="ignore", invalid="ignore"):  # last rows
            return (left_sq + rest * rest) / n_left + (
                right_sq + (counts[:, -1].take(seg) - rest) ** 2
            ) / (lens.take(seg) - n_left)

    return stats, scores


def _mse(y):
    """(stats, scores) of squared-error trees, whose leaves hold means."""

    def stats(idx, sizes, may):
        leaf, parent = np.empty(len(idx)), np.zeros(len(idx))
        for i, rows in enumerate(idx):
            ys = y[rows]
            total = ys.sum()
            leaf[i] = total / rows.shape[0]
            if may[i]:
                parent[i] = -float((ys * ys).sum() - total**2 / rows.shape[0])
        return leaf, parent, np.zeros(len(idx), dtype=bool), None

    def scores(rows, seg, pos, lens, starts, _):
        ys = y.take(rows)
        at = seg * lens.max() + pos
        pad = np.zeros(lens.shape[0] * lens.max())
        pad[at] = ys
        pad = pad.reshape(lens.shape[0], -1)
        csum = pad.cumsum(axis=1).take(at)
        csq = np.multiply(pad, pad, out=pad).cumsum(axis=1).take(at)
        last = starts + lens - 1
        n_left = pos + 1.0
        # sse as a lone tree adds it, in place; float_power matches the
        # scalar ``v ** 2``, ``**`` on arrays does not
        right = (csq[last - 1] + np.float_power(ys[last], 2)).take(seg) - csq
        sse = np.square(csum)
        sse /= n_left
        np.subtract(csq, sse, out=sse)
        sse += right
        np.subtract(csum[last].take(seg), csum, out=right)
        np.square(right, out=right)
        with np.errstate(divide="ignore", invalid="ignore"):  # last rows
            right /= lens.take(seg) - n_left
        sse -= right
        return np.negative(sse, out=sse)

    return stats, scores


def _scan(x, n, k, min_leaf, scores, cand, draws, orders, sizes, base, counts):
    """The best cut of each candidate node: lists of its place among the
    popped nodes, its feature and its threshold."""
    if not cand.size:
        return (), (), ()
    rows = np.concatenate([orders[i][f].ravel() for i, f in zip(cand, draws)])
    lens = np.repeat(sizes[cand], k)
    starts = np.cumsum(lens) - lens
    seg = np.repeat(np.arange(lens.shape[0]), lens)
    pos = np.arange(rows.shape[0]) - starts.take(seg)
    feats = draws.ravel()
    xs = x.take(feats.take(seg) * n + rows)
    score = scores(rows, seg, pos, lens, starts,
                   None if counts is None else np.repeat(counts[cand], k, axis=0))
    # both children keep min_leaf rows; cut only between distinct values
    valid = (pos >= min_leaf - 1) & (pos < lens.take(seg) - min_leaf)
    valid[:-1] &= xs[:-1] < xs[1:]
    score[~valid] = -np.inf
    top = np.maximum.reduceat(score, starts)
    gains = top.reshape(-1, k) - base[cand, None]
    best, pick = np.full(cand.shape[0], np.nan), np.full(cand.shape[0], -1)
    for c in range(k):  # a gain over 1e-12 that beats the best by 1e-12:
        take = gains[:, c] > np.fmax(best + 1e-12, 1e-12)  # ties go lower
        best[take], pick[take] = gains[take, c], c
    at = np.flatnonzero(pick >= 0)
    chosen = at * k + pick[at]
    hits = np.flatnonzero(score == top.take(seg))
    first = hits[np.searchsorted(hits, starts[chosen])]  # argmax: the first
    low, high = xs[first].tolist(), xs[first + 1].tolist()
    thr = [(a + b) / 2.0 for a, b in zip(low, high)]  # Python floats: no warnings
    return cand[at].tolist(), feats[chosen].tolist(), thr


def fit(values, targets, n_classes, params: ForestParams, seed):
    """Bagged CART trees on prepared targets (``n_classes`` 0 means regression)."""
    rng = np.random.default_rng(seed)
    n, m = values.shape
    frac = params.feature_fraction
    if frac is None:
        frac = max(1.0 / m, np.sqrt(m) / m)
    k = max(1, int(round(frac * m))) if frac < 1.0 else m
    size = max(2, int(params.bootstrap_fraction * n))
    cap, min_leaf = params.max_depth, params.min_samples_leaf
    stats, scores = _gini(targets, n_classes) if n_classes else _mse(targets)
    x = values.T.ravel()  # x[f * n + row] is values[row, f]
    presort = np.argsort(values.T, axis=1, kind="mergesort")
    presort = presort.astype(np.min_scalar_type(n - 1))  # what the trees in flight hold
    admitted, active, log = 0, [], []  # a tree in flight: [number, rng, stack, nodes]
    while active or admitted < params.n_trees:
        if admitted < params.n_trees and len(active) < max(1, CELLS // (m * size)):
            if params.bootstrap:
                rows = np.sort(rng.integers(0, n, size=size))
            else:
                rows = np.sort(rng.permutation(n)[:size]) if size < n else np.arange(n)
            tree_rng = np.random.default_rng(rng.integers(0, 2**63))
            # each column's stable order of the sample: a row's copies together
            copies = np.bincount(rows, minlength=n)[presort].ravel()
            order = np.repeat(presort.ravel(), copies).reshape(m, size)
            # a node: (rows, orders or None, depth, its parent's child slot)
            active.append([admitted, tree_rng, [(rows, order, 0, -1)], 0])
            admitted += 1
        idx, orders, depth, slot = zip(*(t[2].pop() for t in active))
        sizes, depth = np.array([i.shape[0] for i in idx]), np.array(depth)
        may = (depth < cap) & (sizes >= 2 * min_leaf)
        leaf, base, stop, counts = stats(idx, sizes, may)
        cand = np.flatnonzero(may & ~stop)
        draws = np.tile(np.arange(m), (cand.size, 1))  # a row per candidate
        if frac < 1.0:  # k = m still draws
            draws = np.sort(np.array([active[i][1].choice(m, size=k, replace=False)
                                      for i in cand], dtype=int).reshape(-1, k), axis=1)
        feature, threshold = np.zeros(len(active), dtype=int), np.zeros(len(active))
        for i, j, thr in zip(*_scan(x, n, k, min_leaf, scores, cand, draws,
                                    orders, sizes, base, counts)):
            xj = x[j * n:(j + 1) * n]
            go = xj.take(idx[i]) < thr
            n_left = int(np.count_nonzero(go))
            if n_left == 0 or n_left == sizes[i] or thr != thr:
                continue  # the midpoint sends every row one way, or is NaN
            left = right = None  # children at max_depth carry no orders
            if depth[i] + 1 < cap:
                go_order = xj.take(orders[i]) < thr  # each row: the same rows
                left = orders[i][go_order].reshape(m, -1)
                right = orders[i][~go_order].reshape(m, -1)
            tree = active[i]
            tree[2] += [(idx[i][~go], right, depth[i] + 1, 2 * tree[3]),
                        (idx[i][go], left, depth[i] + 1, 2 * tree[3] + 1)]
            feature[i], threshold[i], leaf[i] = j, thr, 0.0
        log.append((np.array([(t[0], t[3]) for t in active]), np.array(slot),
                    depth, feature, threshold, leaf))
        if len(log) > 256:  # a few long arrays, not many short ones
            log = [tuple(np.concatenate(c) for c in zip(*log))]
        for t in active:
            t[3] += 1
        active = [t for t in active if t[2]]

    meta, slot, depth, feature, threshold, value = (np.concatenate(c) for c in zip(*log))
    tree, local = meta.T
    count = np.bincount(tree)
    roots = np.cumsum(count) - count
    ids = roots[tree] + local
    where = np.argsort(ids)
    child = np.repeat(np.arange(ids.shape[0]), 2)
    up = slot >= 0
    child[2 * roots[tree[up]] + slot[up]] = ids[up]
    packed = PackedTrees(roots, feature[where], threshold[where], child,
                         value[where], depth.max())
    return TreeModel(packed, _votes if n_classes else _mean)
