"""Deterministic parallel map: results merge in input order regardless of
worker count, so experiment outputs do not depend on --workers.

Workers are forked processes. Each inherits the function and the items from
the parent, so only item indices and results cross the pipes, and the
function may be a closure.
"""

from __future__ import annotations

_TASK = None  # (fn, items) of the map in progress, inherited by the workers


def _call(i):
    fn, items = _TASK
    return fn(items[i])


def parallel_map(fn, items, workers: int = 1) -> list:
    global _TASK
    items = list(items)
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    # imported here: `multiprocessing.pool` takes ~20 ms to import, and most
    # runs use one worker
    import multiprocessing

    _TASK = (fn, items)
    try:
        with multiprocessing.get_context("fork").Pool(min(workers, len(items))) as pool:
            return pool.map(_call, range(len(items)), chunksize=1)
    finally:
        _TASK = None
