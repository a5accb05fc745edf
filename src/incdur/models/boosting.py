"""Gradient boosting: first-order residual fitting and a second-order
regularised variant (leaf weight -G/(H+lambda), gamma-thresholded split gain),
with optional gradient-based one-side sampling (GOSS).

Each round adds ``learning_rate`` times its tree's predictions on the
training rows to the raw scores. A round grown on every row (any column
subset) takes them from the grower, which writes each leaf's value into its
rows' slots of ``fitted``; a subsample or GOSS round walks every row through
its tree."""

from __future__ import annotations

from functools import partial

import numpy as np

from .base import BoostParams, _sigmoid, sigmoid_proba
from .tree import (
    Node,
    PackedTrees,
    TreeModel,
    _candidate_features,
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


def _fit_round(values, presort, grad, hess, params, second_order, rng):
    """Grow one tree on the current pseudo-targets; returns (a global-index
    tree, its predictions on every row of ``values``).

    ``presort`` is the stable argsort of every column of ``values``. A round
    on a subset keeps, per chosen column, its rows in that order and renumbers
    them by their place in the ascending ``rows``: the stable argsort of the
    submatrix.
    """
    rows, scale = _select_rows(grad, params, rng)
    n, m = values.shape
    fitted = np.empty(n) if rows.shape[0] == n else None  # rows == arange(n)
    cols = _candidate_features(m, params.colsample, rng)
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
            fitted=fitted,
        )
    else:
        # fitting a regression tree to (scaled) residuals
        tree = grow_mse_tree(
            sub, -grad[rows] * scale, params.max_depth, params.min_samples_leaf,
            presort=order, fitted=fitted,
        )
    if cols.shape[0] < m:
        _remap_features(tree, cols)
    if fitted is None:
        fitted = predict_tree(tree, values)
    return tree, fitted


def _class_proba(leaf, bases, rate):
    """Class probabilities from a chunk's leaf payloads: one raw score per
    class from its base and its consecutive, equal share of the trees."""
    scores = [
        ordered_sum(share, base, rate)
        for share, base in zip(np.split(leaf, len(bases)), bases)
    ]
    return sigmoid_proba(np.column_stack(scores))


def _squared_error(score, y):
    """Gradient and hessian of 0.5*(F - y)^2 in F."""
    return score - y, np.ones_like(y)


def _log_loss(score, y01):
    """Gradient and hessian of the log-loss in the log-odds F."""
    p = _sigmoid(score)
    return p - y01, p * (1.0 - p)


def _log_odds(y01):
    """The base raw score of 0/1 labels: their clipped mean's log-odds."""
    p0 = float(np.clip(np.mean(y01), 1e-6, 1.0 - 1e-6))
    return float(np.log(p0 / (1.0 - p0)))


def _boost(values, presort, y, base, gradients, params, second_order, rng):
    """The rounds' trees, from raw score ``base``; ``gradients(score, y)``
    gives each round's (gradient, hessian)."""
    score = np.full(values.shape[0], base)
    trees = []
    for _ in range(params.n_rounds):
        grad, hess = gradients(score, y)
        tree, fitted = _fit_round(values, presort, grad, hess, params, second_order, rng)
        trees.append(tree)
        score = score + params.learning_rate * fitted
    return trees


def fit(values, targets, n_classes, params: BoostParams, seed, second_order=False):
    """Boosted trees on prepared targets (``n_classes`` 0 means regression).

    ``second_order`` selects the regularised second-order objective instead
    of plain residual boosting. Two classes boost the log-odds of class 1;
    more fit one-vs-rest, each class's rounds after the previous class's.
    """
    rng = np.random.default_rng(seed)
    presort = np.argsort(values.T, axis=1, kind="mergesort")  # once per fit
    rate = float(params.learning_rate)

    def boost(y, base, gradients):
        return _boost(values, presort, y, base, gradients, params, second_order, rng)

    if n_classes == 0:
        base = float(np.mean(targets))
        packed = PackedTrees.from_nodes(boost(targets, base, _squared_error))
        return TreeModel(packed, partial(ordered_sum, start=base, scale=rate))
    classes = [1] if n_classes == 2 else range(n_classes)
    labels = [(targets == c).astype(float) for c in classes]
    bases = [_log_odds(y01) for y01 in labels]
    trees = [t for y01, base in zip(labels, bases) for t in boost(y01, base, _log_loss)]
    packed = PackedTrees.from_nodes(trees)
    return TreeModel(packed, partial(_class_proba, bases=bases, rate=rate))
