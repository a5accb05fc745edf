"""k-nearest neighbours on z-scored features with deterministic tie-breaks.

``nearest_rows`` is the neighbour search that kNN and LOF share: Euclidean
distances built in query-row blocks of at most ``BLOCK_CELLS`` (query, train,
feature) differences, and from each block only the k nearest ids and their
distances kept, so memory grows with the query and train sizes, not their
product times the feature count. ``k_nearest`` picks the k nearest from a
block by partition instead of a full sort, with ties to the lower column.
"""

from __future__ import annotations

import numpy as np

from .base import KnnParams, ModelError

BLOCK_CELLS = 1 << 20  # (query, train, feature) differences held at once


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


def nearest_rows(queries, train, k, skip_self=False):
    """(ids, distances) of each query row's k nearest train rows, nearest first.

    Distance ties go to the lower train row. With ``skip_self`` the queries
    are the train rows themselves and no row is its own neighbour.
    """
    q = queries.shape[0]
    ids = np.empty((q, k), dtype=int)
    dist = np.empty((q, k))
    step = max(1, BLOCK_CELLS // (train.shape[0] * max(1, train.shape[1])))
    for start in range(0, q, step):
        block = queries[start : start + step]
        d = np.sqrt(((block[:, None, :] - train[None, :, :]) ** 2).sum(axis=2))
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

    def _neighbours(self, values):
        return nearest_rows((values - self.mean) / self.std, self.train, self.k)[0]

    def predict_values(self, values):
        nb = self._neighbours(values)
        return self.targets[nb].mean(axis=1)

    def predict_proba_values(self, values):
        nb = self._neighbours(values)
        votes = np.zeros((values.shape[0], self.n_classes))
        for c in range(self.n_classes):
            votes[:, c] = (self.targets[nb] == c).sum(axis=1)
        return votes / self.k


def fit(values, targets, n_classes, params: KnnParams, seed):
    """Store the z-scored training rows (``n_classes`` 0 means regression)."""
    if params.k > values.shape[0]:
        raise ModelError(f"k={params.k} exceeds training size {values.shape[0]}")
    mean = values.mean(axis=0)
    std = values.std(axis=0)
    std = np.where(std == 0, 1.0, std)
    return KnnModel((values - mean) / std, targets, params.k, mean, std, n_classes)
