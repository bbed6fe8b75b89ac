import sys

import pytest

from ccc import parallel


def test_ordered_map_merges_in_input_order_and_raises_the_earliest_error(monkeypatch):
    monkeypatch.setattr(parallel.os, "cpu_count", lambda: 8)  # more workers than this machine may have
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible
    try:
        for threads in (8, 0):  # 0 is one worker per core
            made: list[int] = []
            out = parallel.ordered_map(lambda ws, x: (ws, x * x), range(200), threads, lambda: made.append(1) or len(made))
            assert [sq for _, sq in out] == [x * x for x in range(200)]
            # eight workspaces, one per worker, and worker j took items j, j + 8, ...
            assert made == [1] * 8 and [ws for ws, _ in out] == [x % 8 + 1 for x in range(200)]

        def fail(ws, x):
            if x in (37, 90):
                raise ValueError(x)
            return x

        with pytest.raises(ValueError, match="^37$"):
            parallel.ordered_map(fail, range(200), 8, lambda: None)
    finally:
        sys.setswitchinterval(interval)


def test_ordered_map_runs_serially_in_the_calling_thread(monkeypatch):
    monkeypatch.setattr(parallel.threading, "Thread", None)  # no thread may be made
    made: list[int] = []
    assert parallel.ordered_map(lambda ws, x: ws + x, [1, 2, 3], 1, lambda: made.append(1) or 10) == [11, 12, 13]
    assert made == [1]
