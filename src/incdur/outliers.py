"""Anomaly scoring (Isolation Forest, Local Outlier Factor) and
percentage-based record removal. Scores are higher-is-more-anomalous.

Isolation Forest grows each tree iteratively, pre-order, straight into the
flat arrays that ``models.tree.PackedTrees`` walks, so scoring is one stacked
predict; each node carries its own rows and the rng draws stay in the order
of a recursive build. LOF finds neighbours with ``models.knn.nearest_rows``,
the blocked k-nearest search kNN uses: distances come in row blocks, and only
each row's k nearest ids and distances are kept.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .models.base import as_values
from .models.knn import nearest_rows
from .models.tree import PackedTrees, ordered_sum

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


def _grow_isolation_trees(values, n_trees, psi, rng):
    """Grow random-split trees straight into ``PackedTrees`` arrays.

    Each tree takes a subsample of psi rows, then splits pre-order, left
    subtree first: a uniform feature among those not constant in the node,
    then a uniform threshold in [min, max). A leaf holds its path length
    depth + c(size).
    """
    n = values.shape[0]
    depth_limit = int(math.ceil(math.log2(max(2, psi))))
    path_c = [_avg_path_length(size) for size in range(psi + 1)]
    feature, threshold, child, value, roots = [], [], [], [], []
    deepest = 0
    for _ in range(n_trees):
        roots.append(len(feature))
        sample = values[rng.choice(n, size=psi, replace=False)]
        stack = [(sample, 0, -1)]  # (node rows, depth, parent's child slot)
        while stack:
            rows, depth, slot = stack.pop()
            i = len(feature)
            if slot >= 0:
                child[slot] = i
            child += (i, i)
            size = rows.shape[0]
            if depth < depth_limit and size > 1:
                lo = np.minimum.reduce(rows)
                hi = np.maximum.reduce(rows)
                usable = (hi > lo).nonzero()[0]
                if usable.size:
                    # the same draws as rng.choice(usable) and
                    # rng.uniform(lo[feat], hi[feat]), without their overhead
                    feat = int(usable[rng.integers(usable.size)])
                    low = float(lo[feat])
                    split = low + (float(hi[feat]) - low) * rng.random()
                    mask = rows[:, feat] < split
                    if 0 < np.count_nonzero(mask) < size:
                        feature.append(feat)
                        threshold.append(split)
                        value.append(0.0)
                        stack.append((rows[~mask], depth + 1, 2 * i))
                        stack.append((rows[mask], depth + 1, 2 * i + 1))
                        continue
            feature.append(0)
            threshold.append(0.0)
            value.append(depth + path_c[size])
            deepest = max(deepest, depth)
    return PackedTrees(roots, feature, threshold, child, value, deepest)


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
    rng = np.random.default_rng(seed)
    trees = _grow_isolation_trees(values, params.if_n_trees, psi, rng)
    avg_depth = trees.reduce(values, ordered_sum) / params.if_n_trees
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

    order, dist = nearest_rows(values, values, k, skip_self=True)
    reach = np.maximum(dist[:, -1][order], dist)  # k-distance of the neighbour
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
    n_remove = int(percent * scores.scores.shape[0])
    return np.sort(np.argsort(-scores.scores, kind="stable")[n_remove:])


def score_with(params: OrmParams, X, seed: int = 0) -> AnomalyScores:
    """Score a matrix with the configured ORM method."""
    if params.method == "isolation-forest":
        return isolation_forest_scores(X, params, seed)
    return lof_scores(X, params.lof_k)
