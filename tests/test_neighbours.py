"""The shared k-nearest search against a full stable argsort.

``k_nearest`` must equal ``np.argsort(dist, axis=1, kind="stable")[:, :k]``
exactly, and kNN predictions must equal the ones a full argsort of the whole
query-by-train distance matrix gives (``np.array_equal``).
"""

import tracemalloc

import numpy as np
import pytest

from incdur.models import KnnParams, fit_model
from incdur.models import knn
from incdur.models.knn import k_nearest, nearest_rows


def _stable(dist, k):
    return np.argsort(dist, axis=1, kind="stable")[:, :k]


def _full_distances(queries, train):
    """Frozen reference: sum the whole (query, train, feature) tensor."""
    return np.sqrt(((queries[:, None, :] - train[None, :, :]) ** 2).sum(axis=2))


def _grid_distances(seed, rows, cols):
    """Distances between integer-grid points: many exact ties."""
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 3, size=(rows, 2)).astype(float)
    b = rng.integers(0, 3, size=(cols, 2)).astype(float)
    return _full_distances(a, b)


@pytest.mark.parametrize("rows, cols", [(30, 30), (7, 40), (40, 7), (1, 5), (5, 1)])
def test_k_nearest_matches_stable_argsort_on_ties(rows, cols):
    for seed in range(10):
        dist = _grid_distances(seed, rows, cols)
        for k in sorted({1, min(2, cols), max(1, cols // 2), max(1, cols - 1), cols}):
            assert np.array_equal(k_nearest(dist, k), _stable(dist, k))


def test_k_nearest_with_inf_diagonal_and_nan_rows():
    for seed in range(10):
        dist = _grid_distances(seed, 25, 25)
        np.fill_diagonal(dist, np.inf)
        dist[3] = np.nan  # a row with no number at all
        dist[5, ::2] = np.nan  # a row whose k-th value is NaN for large k
        dist[7, 4] = np.nan  # one NaN cell in an otherwise numeric row
        dist[9, :20] = np.inf  # the k-th value is inf for k > 5
        for k in (1, 3, 12, 13, 20, 24, 25):
            assert np.array_equal(k_nearest(dist, k), _stable(dist, k))


def test_nearest_rows_across_blocks(monkeypatch):
    rng = np.random.default_rng(3)
    train = np.round(rng.normal(size=(60, 3)), 1)
    queries = np.round(rng.normal(size=(45, 3)), 1)
    full = _full_distances(queries, train)
    monkeypatch.setattr(knn, "BLOCK_CELLS", 60 * 4)  # 4 query rows a block
    ids, dist = nearest_rows(queries, train, 9)
    assert np.array_equal(ids, _stable(full, 9))
    assert np.array_equal(dist, np.take_along_axis(full, ids, axis=1))
    square = _full_distances(train, train)
    np.fill_diagonal(square, np.inf)
    ids, dist = nearest_rows(train, train, 9, skip_self=True)
    assert np.array_equal(ids, _stable(square, 9))
    assert np.array_equal(dist, np.take_along_axis(square, ids, axis=1))


def _awkward_rows(rng, rows, m):
    """Rows over six orders of magnitude, with NaN and +-inf cells."""
    X = np.round(rng.normal(size=(rows, m)), 1) * 10.0 ** rng.integers(-3, 4, size=m)
    if m:
        X[rng.random((rows, m)) < 0.03] = np.nan
        X[rng.random((rows, m)) < 0.03] = np.inf
        X[rng.random((rows, m)) < 0.03] = -np.inf
    return X


@pytest.mark.parametrize("widths", [range(0, 36), range(36, 72), range(72, 108),
                                    range(108, 141), (200, 257)], ids=str)
def test_nearest_rows_sums_features_in_numpys_order(monkeypatch, widths):
    # k = every train row, so every distance is compared, in every block
    monkeypatch.setattr(knn, "BLOCK_CELLS", 11 * 3)  # 3 query rows a block
    rng = np.random.default_rng(len(widths))
    for m in widths:
        train = _awkward_rows(rng, 11, m)
        train[5] = train[2]  # duplicate rows
        queries = _awkward_rows(rng, 13, m)
        queries[4] = train[7]
        with np.errstate(invalid="ignore"):  # inf - inf
            full = _full_distances(queries, train)
            ids, dist = nearest_rows(queries, train, 11)
            square = _full_distances(train, train)
            self_ids, self_dist = nearest_rows(train, train, 10, skip_self=True)
        assert np.array_equal(ids, _stable(full, 11))
        assert np.array_equal(dist, np.take_along_axis(full, ids, axis=1), equal_nan=True)
        np.fill_diagonal(square, np.inf)
        assert np.array_equal(self_ids, _stable(square, 10))
        assert np.array_equal(
            self_dist, np.take_along_axis(square, self_ids, axis=1), equal_nan=True
        )


def _knn_reference(model, Q):
    """Neighbours from one full distance matrix and a full stable argsort."""
    inner = model.inner
    q = (Q - inner.mean) / inner.std
    return _stable(_full_distances(q, inner.train), inner.k)


def _knn_data(seed, n=90, m=4):
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 3, size=(n, m)).astype(float)
    X = np.vstack([X, X[:15]])  # duplicate training rows
    y = X[:, 0] * 2.0 + rng.normal(size=X.shape[0])
    Q = rng.integers(0, 3, size=(40, m)).astype(float)
    return X, y, Q


@pytest.mark.parametrize("k", [1, 5, 105])
def test_knn_regression_matches_full_argsort(k):
    X, y, Q = _knn_data(0)
    model = fit_model("knn", X, y, KnnParams(k=k))
    nb = _knn_reference(model, Q)
    assert np.array_equal(model.inner.predict_values(Q), model.inner.targets[nb].mean(axis=1))


@pytest.mark.parametrize("k", [1, 7, 105])
def test_knn_classification_matches_full_argsort(k):
    X, y, Q = _knn_data(1)
    labels = np.digitize(y, np.quantile(y, [0.3, 0.6]))
    model = fit_model("knn", X, labels, KnnParams(k=k), task="classification")
    inner = model.inner
    nb = _knn_reference(model, Q)
    votes = np.stack([(inner.targets[nb] == c).sum(axis=1) for c in range(3)], axis=1)
    assert np.array_equal(inner.predict_values(Q), votes / k)


def test_knn_memory_grows_with_rows_not_rows_times_train_times_features():
    rng = np.random.default_rng(0)
    model = fit_model(
        "knn", rng.normal(size=(768, 13)), rng.normal(size=768), KnnParams(k=10)
    )
    Q = rng.normal(size=(3000, 13))
    tracemalloc.start()
    try:
        model.predict(Q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a block holds a few (query, train) arrays of BLOCK_CELLS cells; a query
    # chunk of 2M (query, train) pairs times 13 features is 200+ MB
    assert peak < 2 * 8 * knn.BLOCK_CELLS + 8 * 2**20


def test_knn_memory_does_not_grow_with_features():
    peaks = []
    for m in (13, 52):
        rng = np.random.default_rng(0)
        model = fit_model(
            "knn", rng.normal(size=(768, m)), rng.normal(size=768), KnnParams(k=10)
        )
        Q = rng.normal(size=(3000, m))
        tracemalloc.start()
        try:
            model.predict(Q)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # blocks are sized in (query, train) cells; only the standardised queries
    # and the transposed train rows grow with the width
    assert peaks[1] <= 1.5 * peaks[0]
