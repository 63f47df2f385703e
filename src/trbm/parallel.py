"""Deterministic worker-pool helper.

All parallelizable operations funnel through :func:`parallel_map`, which
preserves input order, so results are identical for any worker count.
"""

from __future__ import annotations

import os
# eager: a census pays for the pool at start-up, and tests patch this name
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Sequence


def workers(threads: int) -> int:
    """The number of processes :func:`parallel_map` may use: at most
    ``os.cpu_count()``."""
    return min(threads, os.cpu_count() or 1)


def parallel_map(fn: Callable, items: Sequence, threads: int = 1) -> list:
    """Order-preserving map, optionally fanned out over at most
    ``os.cpu_count()`` processes."""
    items = list(items)
    threads = workers(threads)
    if threads <= 1 or len(items) < 4 * threads:
        return [fn(x) for x in items]
    chunk = max(1, len(items) // (threads * 8))
    with ProcessPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items, chunksize=chunk))
