"""Sequential-block cross-validation primitives shared by all experiments."""

from __future__ import annotations

import numpy as np

from .models import fit_model

__all__ = ["fold_indexes", "holdout_split", "derive_seed", "cross_val_predict"]


def fold_indexes(n: int, folds: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Contiguous sequential folds: test block k, train = complement.

    Test blocks are [floor(k*n/F), floor((k+1)*n/F)); over all k they
    partition range(n) exactly.
    """
    if not 0 <= k < folds <= n:
        raise ValueError(f"need 0 <= k < folds <= n, got n={n} folds={folds} k={k}")
    start = (k * n) // folds
    stop = ((k + 1) * n) // folds
    test = np.arange(start, stop)
    train = np.concatenate([np.arange(0, start), np.arange(stop, n)])
    return train, test


def holdout_split(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The first 80% of the rows to train on, the last 20% held out."""
    cut = int(0.8 * n)
    return np.arange(cut), np.arange(cut, n)


def derive_seed(*keys) -> int:
    """Stable 64-bit seed from a key tuple (keeps parallel runs deterministic)."""
    return int(np.random.SeedSequence([int(k) & 0xFFFFFFFF for k in keys]).generate_state(1)[0])


def cross_val_predict(
    kind: str,
    values: np.ndarray,
    y: np.ndarray,
    folds: int,
    params=None,
    task: str = "regression",
    target_transform: str = "none",
    seed: int = 0,
    train_rows=None,
) -> np.ndarray:
    """Out-of-fold predictions over all n records (sequential folds). Fold
    k trains on ``train_rows(train, k)`` of its training rows, if given."""
    n = values.shape[0]
    y = np.asarray(y)
    out = None
    for k in range(folds):
        train, test = fold_indexes(n, folds, k)
        if train_rows is not None:
            train = train_rows(train, k)
        model = fit_model(
            kind,
            values[train],
            y[train],
            params=params,
            task=task,
            target_transform=target_transform,
            seed=derive_seed(seed, k),
        )
        pred = model.predict(values[test])
        if out is None:
            out = np.empty(n, dtype=pred.dtype)
        out[test] = pred
    return out
