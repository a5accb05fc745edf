"""Linear least squares with ridge (minimum-norm when unpenalised and
rank-deficient), and logistic regression via gradient descent (converged at
gradient norm < 1e-6 or 10,000 iterations)."""

from __future__ import annotations

import numpy as np

from .base import LinearParams, ModelError, _sigmoid, sigmoid_proba

GRAD_TOL = 1e-6
MAX_ITERS = 10_000


class LinearRegressor:
    def __init__(self, intercept, coefs):
        self.intercept = float(intercept)
        self.coefs = np.asarray(coefs, dtype=float)

    def predict_values(self, values):
        return self.intercept + values @ self.coefs


class LogisticClassifier:
    """Binary or one-vs-rest multinomial logistic model."""

    def __init__(self, intercepts, coefs):
        self.intercepts = np.asarray(intercepts, dtype=float)  # (K,) or (1,)
        self.coefs = np.asarray(coefs, dtype=float)  # (K, m) or (1, m)

    def predict_values(self, values):
        return sigmoid_proba(values @ self.coefs.T + self.intercepts)


def logistic_loss_grad(weights, values, y01, ridge):
    """Mean log-loss gradient with L2 on the non-intercept weights.

    ``weights`` is [intercept, coefs...]; exposed for finite-difference checks.
    """
    n = values.shape[0]
    z = weights[0] + values @ weights[1:]
    p = _sigmoid(z)
    resid = p - y01
    grad = np.empty_like(weights)
    grad[0] = resid.mean()
    grad[1:] = values.T @ resid / n + ridge * weights[1:]
    return grad


def logistic_loss(weights, values, y01, ridge):
    z = weights[0] + values @ weights[1:]
    # log(1 + exp(-m)) with m = z for y=1 and -z for y=0, stable form
    margins = np.where(y01 > 0.5, z, -z)
    loss = np.mean(np.logaddexp(0.0, -margins))
    return loss + 0.5 * ridge * float(weights[1:] @ weights[1:])


def _fit_logistic_binary(values, y01, ridge):
    n, m = values.shape
    aug = np.hstack([np.ones((n, 1)), values])
    smax = np.linalg.norm(aug, 2)
    step = 1.0 / (smax**2 / (4.0 * n) + ridge + 1e-12)
    weights = np.zeros(m + 1)
    for _ in range(MAX_ITERS):
        grad = logistic_loss_grad(weights, values, y01, ridge)
        if np.linalg.norm(grad) < GRAD_TOL:
            break
        weights = weights - step * grad
    return weights


def fit(values, targets, n_classes, params: LinearParams, seed):
    """Least squares (``n_classes`` 0) or logistic, one-vs-rest past two classes."""
    if n_classes == 0:
        n, m = values.shape
        aug = np.hstack([np.ones((n, 1)), values])
        gram = aug.T @ aug
        if params.ridge > 0:
            penalty = np.eye(m + 1) * params.ridge
            penalty[0, 0] = 0.0  # intercept unpenalised
            gram = gram + penalty
        try:
            if params.ridge > 0 or np.linalg.matrix_rank(aug) == m + 1:
                beta = np.linalg.solve(gram, aug.T @ targets)
            else:  # e.g. one-hot levels that sum to the intercept column
                beta = np.linalg.lstsq(aug, targets, rcond=None)[0]
        except np.linalg.LinAlgError as exc:
            raise ModelError(f"linear least squares failed: {exc}") from None
        return LinearRegressor(beta[0], beta[1:])
    classes = [1] if n_classes == 2 else range(n_classes)
    rows = [
        _fit_logistic_binary(values, (targets == c).astype(float), params.ridge)
        for c in classes
    ]
    return LogisticClassifier([w[0] for w in rows], [w[1:] for w in rows])
