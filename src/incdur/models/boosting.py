"""Gradient boosting: first-order residual fitting and a second-order
regularised variant (leaf weight -G/(H+lambda), gamma-thresholded split gain),
with optional gradient-based one-side sampling (GOSS)."""

from __future__ import annotations

import numpy as np

from .base import BoostParams, _sigmoid
from .tree import (
    Node,
    PackedTrees,
    grow_mse_tree,
    grow_second_order_tree,
    ordered_sum,
    predict_tree,
)


def _remap_features(node: Node, cols):
    if node.is_leaf:
        return
    node.feature = int(cols[node.feature])
    _remap_features(node.left, cols)
    _remap_features(node.right, cols)


def _select_rows(grad, params: BoostParams, rng):
    """Row selection for one round: GOSS or plain subsampling.

    Returns (row indices, gradient scale per selected row).
    """
    n = grad.shape[0]
    if params.goss is not None:
        a, b = params.goss
        order = np.argsort(-np.abs(grad), kind="mergesort")
        n_top = int(a * n)
        n_rest = int(b * n)
        top = order[:n_top]
        rest = order[n_top:]
        sampled = (
            rng.choice(rest, size=min(n_rest, rest.shape[0]), replace=False)
            if rest.shape[0]
            else rest
        )
        rows = np.sort(np.concatenate([top, sampled]))
        scale = np.ones(rows.shape[0])
        scale[np.isin(rows, sampled)] = (1.0 - a) / b
        return rows, scale
    if params.subsample < 1.0:
        m = max(1, int(params.subsample * n))
        rows = np.sort(rng.permutation(n)[:m])
        return rows, np.ones(rows.shape[0])
    return np.arange(n), np.ones(n)


def _select_cols(m, params: BoostParams, rng):
    if params.colsample >= 1.0:
        return np.arange(m)
    k = max(1, int(round(params.colsample * m)))
    return np.sort(rng.choice(m, size=k, replace=False))


def _fit_round(values, presort, grad, hess, params, second_order, rng):
    """Grow one tree on the current pseudo-targets; returns a global-index tree.

    ``presort`` is the stable argsort of every column of ``values``. A round
    on a subset keeps, per chosen column, its rows in that order and renumbers
    them by their place in the ascending ``rows``: the stable argsort of the
    submatrix.
    """
    rows, scale = _select_rows(grad, params, rng)
    n, m = values.shape
    cols = _select_cols(m, params, rng)
    if rows.shape[0] == n and cols.shape[0] == m:
        sub, order = values, presort
    else:
        sub = values[np.ix_(rows, cols)]
        local = np.full(n, -1)
        local[rows] = np.arange(rows.shape[0])
        order = local[presort[cols]]
        order = order[order >= 0].reshape(cols.shape[0], -1)
    if second_order:
        tree = grow_second_order_tree(
            sub,
            grad[rows] * scale,
            hess[rows] * scale,
            params.max_depth,
            params.reg_lambda,
            params.gamma,
            params.min_samples_leaf,
            params.min_child_weight,
            presort=order,
        )
    else:
        # fitting a regression tree to (scaled) residuals
        tree = grow_mse_tree(
            sub, -grad[rows] * scale, params.max_depth, params.min_samples_leaf,
            presort=order,
        )
    if cols.shape[0] < m:
        _remap_features(tree, cols)
    return tree


class _Booster:
    """A trained additive stage list: prediction = base + lr * sum(trees)."""

    def __init__(self, base_score, trees, learning_rate):
        self.base_score = float(base_score)
        self.trees = list(trees)
        self.learning_rate = float(learning_rate)
        self.packed = PackedTrees.from_nodes(self.trees)

    def combine(self, leaf):
        """Raw scores from a row chunk's leaf payloads (trees, rows)."""
        return ordered_sum(leaf, self.base_score, self.learning_rate)

    def score_values(self, values):
        return self.packed.reduce(values, self.combine)

    def staged_scores(self, values):
        """Cumulative raw scores after each round (round count + 1 entries)."""
        stages = np.full((len(self.trees) + 1, values.shape[0]), self.base_score)
        for rows, leaf in self.packed.leaves(values):
            for t, tree_leaf in enumerate(leaf):
                stages[t + 1, rows] = stages[t, rows] + self.learning_rate * tree_leaf
        return list(stages)


class BoostRegressor:
    def __init__(self, booster: _Booster):
        self.booster = booster
        self.packed = booster.packed
        self.combine = booster.combine

    def predict_values(self, values):
        return self.booster.score_values(values)

    def staged_predict_values(self, values):
        return self.booster.staged_scores(values)


class BoostBinaryClassifier:
    def __init__(self, booster: _Booster):
        self.booster = booster

    def predict_proba_values(self, values):
        p = _sigmoid(self.booster.score_values(values))
        return np.column_stack([1.0 - p, p])


class BoostOvRClassifier:
    """One binary booster per class; probabilities normalised over classes."""

    def __init__(self, boosters):
        self.boosters = list(boosters)

    def predict_proba_values(self, values):
        scores = np.column_stack(
            [_sigmoid(b.score_values(values)) for b in self.boosters]
        )
        total = scores.sum(axis=1, keepdims=True)
        total[total == 0] = 1.0
        return scores / total


def _boost_regression(values, presort, y, params, second_order, rng):
    base = float(np.mean(y))
    score = np.full(values.shape[0], base)
    trees = []
    for _ in range(params.n_rounds):
        grad = score - y  # d/dF of 0.5*(F - y)^2
        hess = np.ones_like(y)
        tree = _fit_round(values, presort, grad, hess, params, second_order, rng)
        trees.append(tree)
        score = score + params.learning_rate * predict_tree(tree, values)
    return _Booster(base, trees, params.learning_rate)


def _boost_binary(values, presort, y01, params, second_order, rng):
    p0 = float(np.clip(np.mean(y01), 1e-6, 1.0 - 1e-6))
    base = float(np.log(p0 / (1.0 - p0)))
    score = np.full(values.shape[0], base)
    trees = []
    for _ in range(params.n_rounds):
        p = _sigmoid(score)
        grad = p - y01
        hess = p * (1.0 - p)
        tree = _fit_round(values, presort, grad, hess, params, second_order, rng)
        trees.append(tree)
        score = score + params.learning_rate * predict_tree(tree, values)
    return _Booster(base, trees, params.learning_rate)


def fit(values, targets, n_classes, params: BoostParams, seed, second_order=False):
    """Boosted trees on prepared targets (``n_classes`` 0 means regression).

    ``second_order`` selects the regularised second-order objective instead
    of plain residual boosting; more than two classes fit one-vs-rest.
    """
    rng = np.random.default_rng(seed)
    presort = np.argsort(values.T, axis=1, kind="mergesort")  # once per fit
    if n_classes == 0:
        return BoostRegressor(
            _boost_regression(values, presort, targets, params, second_order, rng)
        )
    if n_classes == 2:
        return BoostBinaryClassifier(_boost_binary(
            values, presort, targets.astype(float), params, second_order, rng
        ))
    return BoostOvRClassifier([
        _boost_binary(
            values, presort, (targets == c).astype(float), params, second_order, rng
        )
        for c in range(n_classes)
    ])
