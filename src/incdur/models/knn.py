"""k-nearest neighbours on z-scored features with deterministic tie-breaks.

``nearest_rows`` is the neighbour search that kNN and LOF share: Euclidean
distances built in query-row blocks of at most ``BLOCK_CELLS`` (query, train)
cells, and from each block only the k nearest ids and their distances kept,
so memory grows with the query and train sizes, not their product, and not
with the feature count. A block's squared distances are summed one feature
at a time into (query, train) arrays (``_sum_squares``), in the order numpy's
pairwise summation adds a contiguous last axis, so every distance equals the
one ``((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)`` gives, bit for
bit, and so do the neighbours and their ties. A dot-product form
(|a|^2 - 2ab + |b|^2) is faster still but rounds differently and moves
ties. ``k_nearest`` picks the k nearest from a block by partition instead of
a full sort, with ties to the lower column.
"""

from __future__ import annotations

import numpy as np

from .base import KnnParams, ModelError, vote_shares

BLOCK_CELLS = 1 << 16  # (query, train) cells in one distance block


def k_nearest(dist, k):
    """Column ids of each row's k smallest entries, equal ones in column order.

    Equals ``np.argsort(dist, axis=1, kind="stable")[:, :k]`` for 1 <= k <=
    columns. ``np.partition`` finds each row's k-th smallest value; only the
    cells not above it are sorted, by (row, value, column). A row whose k-th
    value is NaN has fewer than k numbers, so all its cells are sorted: NaN
    sorts last in both orders.
    """
    kth = np.partition(dist, k - 1, axis=1)[:, k - 1 : k]
    rows, cols = np.nonzero(~(dist > kth))  # dist <= kth, or a NaN on either side
    # nonzero lists cells by (row, column) and lexsort is stable
    order = np.lexsort((dist[rows, cols], rows))
    counts = np.bincount(rows, minlength=dist.shape[0])  # at least k per row
    first = np.cumsum(counts) - counts
    return cols[order[first[:, None] + np.arange(k)]]


def _squares(block, train_t, f, out=None):
    """(query, train) array of squared differences in feature f."""
    out = np.subtract(block[:, f, None], train_t[f], out=out)
    return np.multiply(out, out, out=out)


def _sum_squares(block, train_t, start, stop, scratch):
    """Squared differences summed over features start..stop-1, per cell.

    The terms are added in numpy's pairwise order for a contiguous last axis
    of n terms: fewer than 8 left to right; 8 to 128 as 8 strided partial
    sums r_j = x_j + x_{j+8} + ..., combined as ((r0+r1)+(r2+r3)) +
    ((r4+r5)+(r6+r7)), then the last n % 8 terms left to right; more than
    128 as two halves split at n//2 - (n//2) % 8, each by these rules.
    ``scratch`` is a (query, train) buffer for the term being added.
    """
    n = stop - start
    if n > 128:
        half = start + n // 2 - (n // 2) % 8
        total = _sum_squares(block, train_t, start, half, scratch)
        total += _sum_squares(block, train_t, half, stop, scratch)
        return total
    if n == 0:
        return np.zeros(scratch.shape)
    if n < 8:
        tail = start + 1
        total = _squares(block, train_t, start)
    else:
        tail = stop - n % 8
        partial = []  # pending sums of the balanced tree over r0..r7
        for j in range(start, start + 8):
            r = _squares(block, train_t, j)
            for f in range(j + 8, tail, 8):
                r += _squares(block, train_t, f, scratch)
            partial.append(r)
            # r1 closes (r0+r1); r3 closes (r2+r3), then (r0+r1)+(r2+r3); ...
            done = j - start + 1
            while done % 2 == 0:
                right = partial.pop()
                partial[-1] += right
                done //= 2
        total = partial[0]
    for f in range(tail, stop):
        total += _squares(block, train_t, f, scratch)
    return total


def nearest_rows(queries, train, k, skip_self=False):
    """(ids, distances) of each query row's k nearest train rows, nearest first.

    Distance ties go to the lower train row. With ``skip_self`` the queries
    are the train rows themselves and no row is its own neighbour.
    """
    q = queries.shape[0]
    ids = np.empty((q, k), dtype=int)
    dist = np.empty((q, k))
    train_t = np.ascontiguousarray(train.T)
    step = max(1, BLOCK_CELLS // max(1, train.shape[0]))
    for start in range(0, q, step):
        block = queries[start : start + step]
        scratch = np.empty((block.shape[0], train.shape[0]))
        d = _sum_squares(block, train_t, 0, train.shape[1], scratch)
        np.sqrt(d, out=d)
        if skip_self:
            d[np.arange(d.shape[0]), np.arange(start, start + d.shape[0])] = np.inf
        nb = k_nearest(d, k)
        ids[start : start + d.shape[0]] = nb
        dist[start : start + d.shape[0]] = np.take_along_axis(d, nb, axis=1)
    return ids, dist


class KnnModel:
    """Stores the standardised training set; exact distance ties resolve to
    the lower training-row index (stable sort)."""

    def __init__(self, train, targets, k, mean, std, n_classes=0):
        self.train = train
        self.targets = targets
        self.k = int(k)
        self.mean = mean
        self.std = std
        self.n_classes = int(n_classes)

    def predict_values(self, values):
        """Mean neighbour target, or neighbour vote shares per class."""
        nb = nearest_rows((values - self.mean) / self.std, self.train, self.k)[0]
        near = self.targets[nb]
        if not self.n_classes:
            return near.mean(axis=1)
        return vote_shares(near, self.n_classes, axis=1)


def fit(values, targets, n_classes, params: KnnParams, seed):
    """Store the z-scored training rows (``n_classes`` 0 means regression)."""
    if params.k > values.shape[0]:
        raise ModelError(f"k={params.k} exceeds training size {values.shape[0]}")
    mean = values.mean(axis=0)
    std = values.std(axis=0)
    std = np.where(std == 0, 1.0, std)
    return KnnModel((values - mean) / std, targets, params.k, mean, std, n_classes)
