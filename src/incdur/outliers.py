"""Anomaly scoring (Isolation Forest, Local Outlier Factor) and
percentage-based record removal. Scores are higher-is-more-anomalous."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .models.base import as_values
from .models.tree import Node, PackedTrees

__all__ = [
    "AnomalyScores",
    "OrmError",
    "OrmParams",
    "isolation_forest_scores",
    "lof_scores",
    "remove_top_percent",
    "score_with",
]

MAX_ORM_PERCENT = 0.05
LRD_CAP = 1e12
LOF_BLOCK_CELLS = 1 << 20  # (row, row, feature) differences held at once

_EULER_GAMMA = 0.5772156649015329


class OrmError(ValueError):
    """Unscorable input: too few rows, k >= rows, or non-finite scores."""


@dataclass(frozen=True)
class AnomalyScores:
    scores: np.ndarray
    method: str  # isolation-forest | lof
    params: dict = field(default_factory=dict, compare=False)
    notes: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        scores = np.asarray(self.scores, dtype=float)
        object.__setattr__(self, "scores", scores)
        if not np.all(np.isfinite(scores)):
            raise OrmError("anomaly scores must be finite")


@dataclass(frozen=True)
class OrmParams:
    method: str = "isolation-forest"
    percent_removed: float = 0.02
    if_n_trees: int = 100
    if_subsample: int = 256
    lof_k: int = 20

    def __post_init__(self):
        if self.method not in ("isolation-forest", "lof"):
            raise ValueError(f"unknown ORM method {self.method!r}")
        if not 0.0 <= self.percent_removed <= MAX_ORM_PERCENT:
            raise ValueError(
                f"percent_removed must be in [0, {MAX_ORM_PERCENT}]"
            )
        if self.if_n_trees < 1 or self.if_subsample < 2:
            raise ValueError("need if_n_trees >= 1 and if_subsample >= 2")
        if self.lof_k < 2:
            raise ValueError("lof k must be >= 2")


def _avg_path_length(n) -> float:
    """Average unsuccessful-search path length in a BST of n points."""
    if n <= 1:
        return 0.0
    harmonic = math.log(n - 1) + _EULER_GAMMA if n > 2 else 1.0
    return 2.0 * harmonic - 2.0 * (n - 1) / n


def _build_isolation_tree(values, idx, depth, depth_limit, rng):
    """Random-split tree; a leaf holds its path length depth + c(size)."""
    if depth < depth_limit and idx.shape[0] > 1:
        sub = values[idx]
        lo = sub.min(axis=0)
        hi = sub.max(axis=0)
        usable = np.flatnonzero(hi > lo)
        if usable.size:
            feat = int(rng.choice(usable))
            split = float(rng.uniform(lo[feat], hi[feat]))
            mask = sub[:, feat] < split
            if mask.any() and not mask.all():
                below = (depth + 1, depth_limit, rng)
                return Node(
                    feature=feat,
                    threshold=split,
                    left=_build_isolation_tree(values, idx[mask], *below),
                    right=_build_isolation_tree(values, idx[~mask], *below),
                )
    return Node(value=depth + _avg_path_length(idx.shape[0]))


def isolation_forest_scores(
    X, params: OrmParams | None = None, seed: int = 0
) -> AnomalyScores:
    """Isolation Forest score 2^(-E[h(x)] / c(psi)), in (0, 1).

    Each tree is built on a random subsample of size psi with random
    feature/value splits; path depths are averaged across trees and
    normalised by the expected depth c(psi).
    """
    params = params or OrmParams(method="isolation-forest")
    values = as_values(X)
    n = values.shape[0]
    if n < 2:
        raise OrmError("need at least 2 rows to score")
    psi = min(params.if_subsample, n)
    depth_limit = int(math.ceil(math.log2(max(2, psi))))
    rng = np.random.default_rng(seed)

    trees = []
    for _ in range(params.if_n_trees):
        sample = rng.choice(n, size=psi, replace=False)
        trees.append(_build_isolation_tree(values, sample, 0, depth_limit, rng))
    avg_depth = PackedTrees(trees).leaf_sum(values) / params.if_n_trees
    scores = np.power(2.0, -avg_depth / _avg_path_length(psi))
    return AnomalyScores(
        scores=scores,
        method="isolation-forest",
        params={"n_trees": params.if_n_trees, "subsample": psi, "seed": seed},
    )


def lof_scores(X, k: int) -> AnomalyScores:
    """Classical Local Outlier Factor; ~1 for inliers, > 1 for outliers.

    Neighbourhoods are the k nearest points with exact distance ties broken
    by lower row index. Zero-distance neighbourhoods (duplicate clusters)
    get their local reachability density capped at a large finite constant;
    the cap count is reported in ``notes``.
    """
    values = as_values(X)
    n = values.shape[0]
    if not 2 <= k < n:
        raise OrmError("need 2 <= k < number of rows")

    dist = np.empty((n, n))
    step = max(1, LOF_BLOCK_CELLS // (n * max(1, values.shape[1])))
    for start in range(0, n, step):  # (row, row, feature) differences by block
        diff = values[start:start + step, None, :] - values[None, :, :]
        dist[start:start + step] = np.sqrt((diff**2).sum(axis=2))
    np.fill_diagonal(dist, np.inf)

    order = np.argsort(dist, axis=1, kind="stable")[:, :k]
    rows = np.arange(n)[:, None]
    k_distance = dist[rows, order][:, -1]

    reach = np.maximum(k_distance[order], dist[rows, order])
    mean_reach = reach.mean(axis=1)
    capped = int(np.sum(mean_reach == 0))
    lrd = np.where(mean_reach > 0, 1.0 / np.where(mean_reach > 0, mean_reach, 1.0), LRD_CAP)
    lof = lrd[order].mean(axis=1) / lrd
    return AnomalyScores(
        scores=lof,
        method="lof",
        params={"k": k},
        notes={"lrd_capped": capped},
    )


def remove_top_percent(scores: AnomalyScores, percent: float) -> np.ndarray:
    """Kept-index set after dropping the floor(percent * N) highest scores.

    Score ties are broken by removing the lower row index first. The kept
    set is returned sorted ascending.
    """
    if not 0.0 <= percent <= 1.0:
        raise ValueError("percent must be in [0, 1]")
    s = scores.scores
    n = s.shape[0]
    n_remove = int(percent * n)
    if n_remove == 0:
        return np.arange(n)
    order = np.argsort(-s, kind="stable")
    removed = set(order[:n_remove].tolist())
    return np.array([i for i in range(n) if i not in removed], dtype=int)


def score_with(params: OrmParams, X, seed: int = 0) -> AnomalyScores:
    """Score a matrix with the configured ORM method."""
    if params.method == "isolation-forest":
        return isolation_forest_scores(X, params, seed)
    return lof_scores(X, params.lof_k)
