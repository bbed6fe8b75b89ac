"""In-memory spans around calls into the public functions of the ``ccc`` modules.

The tracer lives in the benchmark, not in the program: ``install`` swaps each
listed function for a timing wrapper in every ``ccc`` module namespace that
refers to it, so calls between modules nest as child spans.  Inner-loop
helpers (``f2.schur``, ``constellation.contains``, ...) stay unwrapped, because
a span per call would cost more than the call.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from collections import Counter, defaultdict

# Functions that open a span, per module: those the per-layer metrics name.
# Anything else a span calls counts toward that span's self time.
SPANNED = {
    "constellation": ("residues",),
    "f2": ("schur_closed_chain",),
    "lattice": ("is_lattice_direct", "equivalence_report", "smallest_lattice", "combination_residues"),
    "uniformity": ("gu_check_two_level", "gu_subgroup_search"),
    "spectrum": ("eds_check", "kissing_stats", "spectrum_at"),
    "quantizer": ("nsm_estimate",),
    "chainfile": ("parse_chain",),
    "cli": ("main",),
}
# Functions that are only counted: ordered_map runs its caller's work items,
# so a span would move that work out of the caller's self time.
COUNTED = {"parallel": ("ordered_map",)}


def _chain(args, kwargs):
    return kwargs.get("chain", args[0] if args else None)


def _residue_count(args, kwargs) -> int:
    return _chain(args, kwargs).residue_count()


def _translations(args, kwargs) -> int:
    """Closure-test translations: sum |C_i| * |R| for linear chains, |R|^2 otherwise."""
    chain = _chain(args, kwargs)
    r = chain.residue_count()
    if chain.all_linear():
        return sum(code.size for code in chain.codes) * r
    return r * r


def _pairs(args, kwargs) -> int:
    return _residue_count(args, kwargs) ** 2


def _distance_evals(args, kwargs) -> int:
    samples = kwargs.get("samples", args[1] if len(args) > 1 else 0)
    return samples * _residue_count(args, kwargs)


def _ordered_map_items(args, kwargs) -> int:
    items = kwargs.get("items", args[1] if len(args) > 1 else ())
    return len(items) if hasattr(items, "__len__") else 0  # never consume an iterator


# Work counts computed from input sizes after each call, not counted in the code.
WORK = {
    "lattice.is_lattice_direct": ("translations", _translations),
    "uniformity.gu_check_two_level": ("pairs", _pairs),
    "spectrum.eds_check": ("pairs", _pairs),
    "quantizer.nsm_estimate": ("distance_evals", _distance_evals),
    "parallel.ordered_map": ("items", _ordered_map_items),
}


class Tracer:
    """Records (name, start, end, parent index, item id) per wrapped call."""

    def __init__(self):
        self.spans: list[tuple | None] = []
        self.counters: Counter = Counter()
        self.item: str | None = None
        self._local = threading.local()
        self._wrap: dict[int, object] = {}
        self._undo: dict[int, object] = {}

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _span_wrapper(self, name: str, fn):
        tracer = self
        work = WORK.get(name)
        residues = name == "constellation.residues"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            index = len(tracer.spans)
            tracer.spans.append(None)
            stack.append(index)
            misses = fn.cache_info().misses if residues else 0
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans[index] = (name, start, end, parent, tracer.item)
                tracer.counters[name + ".calls"] += 1
                if residues and fn.cache_info().misses > misses:
                    tracer.counters[name + ".count"] += _residue_count(args, kwargs)
                if work is not None:
                    tracer.counters[f"{name}.{work[0]}"] += work[1](args, kwargs)

        return wrapper

    def _count_wrapper(self, name: str, fn):
        tracer = self
        work = WORK.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.counters[name + ".calls"] += 1
            if work is not None:
                tracer.counters[f"{name}.{work[0]}"] += work[1](args, kwargs)
            return fn(*args, **kwargs)

        return wrapper

    def install(self, package) -> None:
        """Wrap the listed functions everywhere the ``ccc`` package refers to them."""
        if not self._wrap:
            for table, make in ((SPANNED, self._span_wrapper), (COUNTED, self._count_wrapper)):
                for module, names in table.items():
                    mod = importlib.import_module(f"{package.__name__}.{module}")
                    for fname in names:
                        fn = getattr(mod, fname)
                        wrapper = make(f"{module}.{fname}", fn)
                        self._wrap[id(fn)] = wrapper
                        self._undo[id(wrapper)] = fn
        self._swap(package, self._wrap)

    def uninstall(self, package) -> None:
        self._swap(package, self._undo)

    @staticmethod
    def _swap(package, replace: dict[int, object]) -> None:
        for name, module in list(sys.modules.items()):
            if name == package.__name__ or name.startswith(package.__name__ + "."):
                for attr, value in list(vars(module).items()):
                    if id(value) in replace:
                        setattr(module, attr, replace[id(value)])

    def begin_item(self, item: str | None) -> None:
        """Tag later spans with ``item``; a stack left by an interrupted item is dropped."""
        self.item = item
        self._local.stack = []

    def self_times(self) -> list[tuple[str, float, float, str | None]]:
        """Per finished span: (name, duration, self time, item id).

        A span interrupted by an item's time cap may never finish; it is left out.
        """
        done = [(i, span) for i, span in enumerate(self.spans) if span is not None]
        child = defaultdict(float)
        for _, (name, start, end, parent, _) in done:
            if parent is not None:
                child[parent] += end - start
        return [(name, end - start, end - start - child[i], item) for i, (name, start, end, _, item) in done]
