"""Deterministic helpers for optional thread parallelism.

Work items are always mapped in input order and merged in input order, so
results are byte-identical no matter how many workers run.  The thread pool
is imported only when more than one worker runs, so a serial process never
loads ``concurrent.futures``.
"""

from __future__ import annotations

import os
from typing import Callable, Iterable, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def ordered_map(fn: Callable[[T], R], items: Sequence[T] | Iterable[T], threads: int = 1) -> list[R]:
    """Apply fn to every item, preserving input order in the result list.

    The pool never has more workers than items or cores: ``pool.map`` submits
    every item at once, so an uncapped request would start one thread per item.
    """
    items = list(items)
    workers = min(threads, len(items), os.cpu_count() or 1)
    if workers <= 1:
        return [fn(x) for x in items]
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))
