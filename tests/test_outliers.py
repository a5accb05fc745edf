"""Anomaly scoring oracles: hand-computed LOF, an independent O(n^2) LOF
reference, Isolation Forest behaviour, and the removal rule."""

import tracemalloc

import numpy as np
import pytest

from incdur.outliers import (
    AnomalyScores,
    OrmError,
    OrmParams,
    _avg_path_length,
    isolation_forest_scores,
    lof_scores,
    remove_top_percent,
    score_with,
)


# ---------------------------------------------------------------------------
# Reference LOF: plain nested loops, written independently of the library
# ---------------------------------------------------------------------------


def _lof_reference(values, k):
    n = values.shape[0]
    dist = np.zeros((n, n))
    for a in range(n):
        for b in range(n):
            dist[a, b] = np.sqrt(((values[a] - values[b]) ** 2).sum())
    neighbours = []
    k_distance = np.zeros(n)
    for a in range(n):
        others = [b for b in range(n) if b != a]
        others.sort(key=lambda b: (dist[a, b], b))
        nb = others[:k]
        neighbours.append(nb)
        k_distance[a] = dist[a, nb[-1]]
    lrd = np.zeros(n)
    for a in range(n):
        reach = [max(k_distance[b], dist[a, b]) for b in neighbours[a]]
        mean_reach = float(np.mean(reach))
        lrd[a] = 1e12 if mean_reach == 0 else 1.0 / mean_reach
    lof = np.zeros(n)
    for a in range(n):
        lof[a] = float(np.mean([lrd[b] for b in neighbours[a]])) / lrd[a]
    return lof


def test_lof_uniform_grid_interior_is_one():
    values = np.arange(10, dtype=float).reshape(-1, 1)
    scores = lof_scores(values, k=2).scores
    assert scores[5] == pytest.approx(1.0, abs=1e-9)


def test_lof_hand_computed_outlier():
    values = np.array([[0.0], [1.0], [2.0], [50.0]])
    scores = lof_scores(values, k=2).scores
    # lrd: 2/3, 1/2, 2/3, 1/48.5; LOF(50) = ((2/3 + 1/2)/2) * 48.5
    assert scores[3] == pytest.approx((7 / 12) * 48.5, abs=1e-9)
    assert int(np.argmax(scores)) == 3
    assert scores[3] > 1.0


def test_lof_matches_brute_force_reference():
    for seed in range(50):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(10, 201))
        m = int(rng.integers(1, 4))
        k = int(rng.integers(2, min(n, 15)))
        values = rng.normal(size=(n, m))
        got = lof_scores(values, k=k).scores
        want = _lof_reference(values, k)
        assert np.max(np.abs(got - want)) < 1e-9


def test_lof_duplicate_cluster_capped():
    values = np.vstack([np.zeros((4, 2)), np.ones((1, 2))])
    result = lof_scores(values, k=2)
    assert result.notes["lrd_capped"] >= 1
    assert np.all(np.isfinite(result.scores))


def test_lof_permutation_equivariant():
    rng = np.random.default_rng(1)
    values = rng.normal(size=(40, 2))
    perm = rng.permutation(40)
    a = lof_scores(values, k=5).scores
    b = lof_scores(values[perm], k=5).scores
    assert np.allclose(a[perm], b, atol=1e-12)


def _lof_full_tensor(values, k):
    """LOF from one (n, n, m) difference tensor, the unblocked formula."""
    n = values.shape[0]
    diff = values[:, None, :] - values[None, :, :]
    dist = np.sqrt((diff**2).sum(axis=2))
    np.fill_diagonal(dist, np.inf)
    order = np.argsort(dist, axis=1, kind="stable")[:, :k]
    rows = np.arange(n)[:, None]
    reach = np.maximum(dist[rows, order][:, -1][order], dist[rows, order])
    mean_reach = reach.mean(axis=1)
    lrd = np.where(mean_reach > 0, 1.0 / np.where(mean_reach > 0, mean_reach, 1.0), 1e12)
    return lrd[order].mean(axis=1) / lrd


def test_lof_blocked_distances_match_full_tensor():
    # 400 x 12: 1.92M (row, row, feature) cells, so the rows span two blocks
    for seed, (n, m) in enumerate([(400, 12), (300, 13), (97, 1)]):
        rng = np.random.default_rng(seed)
        values = np.round(rng.normal(size=(n, m)), 1)  # ties in distance
        got = lof_scores(values, k=7).scores
        assert np.array_equal(got, _lof_full_tensor(values, 7))


def test_lof_memory_grows_with_n_squared_not_times_features():
    n, m = 1500, 8
    values = np.random.default_rng(0).normal(size=(n, m))
    tracemalloc.start()
    try:
        lof_scores(values, k=10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # dist and its argsort are n^2 each; the full tensor alone is n^2 * m
    assert peak < 3 * n * n * 8 + 16 * 2**20


def test_lof_rejects_bad_k():
    values = np.zeros((5, 1))
    with pytest.raises(ValueError):
        lof_scores(values, k=1)
    with pytest.raises(ValueError):
        lof_scores(values, k=5)


@pytest.mark.parametrize("cell", [np.nan, np.inf, -np.inf])
def test_lof_rejects_non_finite_cells(cell):
    # a NaN row used to score as the strongest inlier; an infinite cell
    # warned twice before failing
    values = np.random.default_rng(8).normal(size=(30, 3))
    values[4, 1] = cell
    values[9, 2] = cell
    with pytest.raises(OrmError, match="2 non-finite cells"):
        lof_scores(values, k=5)


# ---------------------------------------------------------------------------
# Isolation Forest
# ---------------------------------------------------------------------------


def test_avg_path_length_values():
    assert _avg_path_length(1) == 0.0
    assert _avg_path_length(2) == 1.0
    assert _avg_path_length(100) > _avg_path_length(10) > _avg_path_length(3)


def test_if_two_points_symmetric():
    values = np.array([[0.0], [1.0]])
    scores = isolation_forest_scores(values, seed=0).scores
    assert scores[0] == pytest.approx(scores[1], abs=1e-12)


def test_if_planted_far_point_has_max_score():
    rng = np.random.default_rng(0)
    values = np.vstack([rng.normal(size=(500, 2)), [[100.0, 100.0]]])
    params = OrmParams(method="isolation-forest", if_n_trees=200)
    scores = isolation_forest_scores(values, params, seed=1).scores
    assert int(np.argmax(scores)) == 500
    assert 0.0 < scores.min() and scores.max() < 1.0


def test_if_duplicates_identical_scores():
    rng = np.random.default_rng(2)
    values = np.vstack([rng.normal(size=(30, 2))] * 2)
    scores = isolation_forest_scores(values, seed=3).scores
    assert np.allclose(scores[:30], scores[30:], atol=1e-12)


def test_if_deterministic_under_seed():
    rng = np.random.default_rng(4)
    values = rng.normal(size=(100, 3))
    a = isolation_forest_scores(values, seed=7).scores
    b = isolation_forest_scores(values, seed=7).scores
    assert np.array_equal(a, b)


def test_if_scale_invariant_ranking():
    agree = 0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        values = rng.normal(size=(80, 2))
        a = isolation_forest_scores(values, seed=seed).scores
        b = isolation_forest_scores(values * 10.0, seed=seed).scores
        rho = np.corrcoef(np.argsort(np.argsort(a)), np.argsort(np.argsort(b)))[0, 1]
        if rho >= 0.99:
            agree += 1
    assert agree >= 45


def test_if_removed_points_scatter_across_quartiles():
    # removing the top 10% from a log-normal sample touches >= 3 of the 4
    # duration quartiles (outliers are not just the longest incidents)
    rng = np.random.default_rng(5)
    durations = np.exp(rng.normal(3.5, 0.9, size=1000))
    features = rng.normal(size=(1000, 3))
    values = np.hstack([features, durations[:, None]])
    scores = isolation_forest_scores(values, seed=6)
    kept = remove_top_percent(scores, 0.10)
    removed = np.setdiff1d(np.arange(1000), kept)
    edges = np.quantile(durations, [0.25, 0.5, 0.75])
    quartile = np.searchsorted(edges, durations[removed])
    assert len(set(quartile.tolist())) >= 3


# ---------------------------------------------------------------------------
# Removal rule
# ---------------------------------------------------------------------------


def _scores(vals):
    return AnomalyScores(scores=np.asarray(vals, dtype=float), method="lof")


def test_remove_top_percent_basic():
    assert remove_top_percent(_scores([0.9, 0.1, 0.5]), 1 / 3).tolist() == [1, 2]


def test_remove_top_percent_zero_is_identity():
    assert remove_top_percent(_scores([3.0, 1.0, 2.0]), 0.0).tolist() == [0, 1, 2]


def test_remove_top_percent_floor_rule():
    kept = remove_top_percent(_scores(np.arange(1000)), 0.05)
    assert kept.shape[0] == 950


def test_remove_top_percent_tie_removes_lower_index():
    kept = remove_top_percent(_scores([1.0, 1.0, 0.0]), 1 / 3)
    assert kept.tolist() == [1, 2]


def test_orm_params_validation():
    with pytest.raises(ValueError):
        OrmParams(percent_removed=0.06)
    with pytest.raises(ValueError):
        OrmParams(method="dbscan")
    with pytest.raises(ValueError):
        OrmParams(lof_k=1)


def test_score_with_dispatch():
    rng = np.random.default_rng(8)
    values = rng.normal(size=(50, 2))
    assert score_with(OrmParams(method="lof", lof_k=5), values).method == "lof"
    assert (
        score_with(OrmParams(method="isolation-forest"), values, seed=1).method
        == "isolation-forest"
    )
