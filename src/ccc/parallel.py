"""Deterministic helpers for optional thread parallelism.

Work items are merged in input order, so results are byte-identical no
matter how many workers run.  Workers are plain ``threading.Thread``s, so no
process loads ``concurrent.futures``.
"""

from __future__ import annotations

import os
import threading
from typing import Callable, Iterable, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")
W = TypeVar("W")


def ordered_map(
    fn: Callable[[W, T], R], items: Sequence[T] | Iterable[T], threads: int, workspace: Callable[[], W]
) -> list[R]:
    """fn(ws, item) for every item, in a list in input order.

    Each worker owns one ``ws = workspace()``, made in the calling thread
    before any worker starts, and worker j takes items j, j + workers, ...
    There are never more workers than items or cores, so a large request
    starts no more threads than can run.  An exception raised by fn is
    re-raised here once every worker has stopped: the one of the earliest item.
    """
    items = list(items)
    workers = min(threads, len(items), os.cpu_count() or 1)
    if workers <= 1:
        ws = workspace()
        return [fn(ws, x) for x in items]
    spaces = [workspace() for _ in range(workers)]
    results: list = [None] * len(items)
    errors: list[tuple[int, BaseException]] = []

    def work(j: int) -> None:
        for i in range(j, len(items), workers):
            try:
                results[i] = fn(spaces[j], items[i])
            except BaseException as exc:  # handed to the caller below
                errors.append((i, exc))
                return

    pool = [threading.Thread(target=work, args=(j,)) for j in range(workers)]
    for t in pool:
        t.start()
    for t in pool:
        t.join()
    if errors:
        raise min(errors, key=lambda e: e[0])[1]
    return results
