"""Fixed reference computations that measure how fast the machine runs now.

The reference machine is shared, and other tenants slow it down by up to 2x
for tens of seconds at a time.  The benchmark times these computations next
to the program's work and scales the program's times to a fixed machine
speed: a slower machine slows both alike and the factor cancels, while slower
program code is slower against an unchanged reference and shows in full.
Nothing here depends on ``ccc``, and it never changes with the program.

Each kind of work slows by its own factor, so each is scaled by a reference
of its own kind:

* ``python_s``: small pure-Python objects, attribute reads and a set of
  tuples, like the program's library calls (the sweep-small chains).
* a fresh ``python3 perfbench/reference.py`` process, timed from outside:
  its start-up (interpreter, ``import numpy``) is the reference for the CLI
  set-up time, and the numpy loop it then runs, timed inside, is the
  reference for the CLI items of ``nsm``, whose decoder is such a loop.

The nominal values are the references' times on the reference machine
(2-core Xeon VM) when nothing slows it.
"""

from __future__ import annotations

import gc
import math
import time

PYTHON_NOMINAL_S = 0.0013
STARTUP_NOMINAL_S = 0.16
NUMPY_NOMINAL_S = 0.16
NUMPY_REPEATS = 30


class _Cell:
    __slots__ = ("word", "level")

    def __init__(self, word: int, level: int):
        self.word = word
        self.level = level


def python_kernel() -> int:
    cells = []
    for i in range(3000):
        cell = _Cell(i, (i * 7) % 13)
        cells.append(cell if cell.level > 3 else _Cell(cell.word, cell.level + 1))
    return len({(c.word & 63, c.level) for c in cells})


def python_s() -> float:
    """Fastest of three timings of ``python_kernel``, about 1.3 ms each.

    The garbage collector is off meanwhile, so the size of the program's heap
    does not enter the kernel's time.
    """
    best = math.inf
    gc.disable()
    try:
        for _ in range(3):
            t0 = time.perf_counter()
            python_kernel()
            best = min(best, time.perf_counter() - t0)
    finally:
        gc.enable()
    return best


def numpy_s() -> float:
    """Time of ``NUMPY_REPEATS`` rounds of a nearest-point loop on fixed data.

    Each round folds 8192 points of [0, 2)^7 against 24 shifts with
    ``abs``, ``minimum`` and ``einsum`` and keeps the smallest squared
    distance, as the Monte Carlo decoder does per residue.
    """
    import numpy as np

    points = np.random.default_rng(1).random((8192, 7)) * 2
    shifts = np.linspace(0, 2, 24)
    t0 = time.perf_counter()
    for _ in range(NUMPY_REPEATS):
        best = None
        for s in shifts:
            diff = np.abs(points - s)
            np.minimum(diff, 2 - diff, out=diff)
            d2 = np.einsum("bn,bn->b", diff, diff)
            best = d2 if best is None else np.minimum(best, d2, out=best)
    return time.perf_counter() - t0


if __name__ == "__main__":
    print(numpy_s())
