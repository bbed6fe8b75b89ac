"""The sweep-small workload: many small seeded chains through the library API.

Run as a script it makes one or more workload passes in a fresh process, with
the program's caches emptied before each: it prints one JSON object with
per-chain wall times per pass, the reference kernel's time around each chain,
the failures found by the invariant checks and a digest of every verdict.  The
traced replay in ``run.py`` imports the same functions, so both runs do
identical work.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import itertools
import json
import random
import signal
import sys
import time
from collections import defaultdict
from pathlib import Path

import reference

CHAINS = 500
MAX_RESIDUES = 32  # per chain; the item stays tiny
SEARCH_MAX_N = 4  # gu_subgroup_search scans 2^n * n! signed permutations
ITEM_CAP_S = 10.0  # per-chain time cap; a chain over it counts as failed
REF_EVERY = 50  # chains between two timings of the reference kernel
# The program's lru caches, as (module, attribute); emptied before each pass.
CACHES = {
    "constellation.residues": ("constellation", "residues"),
    "spectrum.coset_profile": ("spectrum", "_coset_profile"),
    "spectrum.key_table": ("spectrum", "_key_table"),
}


def make_specs(seed: int, count: int = CHAINS) -> list[dict]:
    """Seeded chains, as explicit word lists per code.

    The shapes (n, L, kind, code sizes) follow a fixed schedule and only the
    words are drawn from the seed, so the work of a pass varies little from
    seed to seed while the chains themselves differ.  Codes are explicit
    word lists so that building the chain is part of the measured item, as
    it is for a library caller.
    """
    rng = random.Random(f"sweep-small:{seed}")
    visits: dict[tuple, int] = defaultdict(int)
    specs = []
    for i in range(count):
        cell = (1 + i % 5, 2 + (i // 5) % 2, KINDS[(i // 10) % len(KINDS)])
        n, _, kind = cell
        options = _shapes(*cell)
        shape = options[visits[cell] % len(options)]
        visits[cell] += 1
        if kind == "nonlinear":
            level, size, dims = shape
            codes = [_span(_extend(rng, n, [], k)) for k in dims]
            codes.insert(level, _nonlinear_words(rng, n, size))
        elif kind == "nested":
            gens: list[int] = []
            codes = []
            for k in shape:
                gens = _extend(rng, n, gens, k)
                codes.append(_span(gens))
        else:
            codes = [_span(_extend(rng, n, [], k)) for k in shape]
        specs.append({"codes": [[_bits(v, n) for v in c] for c in codes]})
    return specs


KINDS = ("nonlinear", "nested", "nested", "independent", "independent")


@functools.lru_cache(maxsize=None)
def _shapes(n: int, L: int, kind: str) -> list:
    """Every code-size pattern of one kind with at most MAX_RESIDUES residues, in a fixed order."""
    budget = MAX_RESIDUES.bit_length() - 1
    if kind == "nonlinear":
        sizes = [1] if n == 1 else [s for s in (3, 5, 6, 7) if s <= 1 << n]
        out = [
            (level, size, dims)
            for level in range(L)
            for size in sizes
            for dims in itertools.product(range(n + 1), repeat=L - 1)
            if (size << sum(dims)) <= MAX_RESIDUES
        ]
    else:
        out = [
            dims
            for dims in itertools.product(range(n + 1), repeat=L)
            if sum(dims) <= budget and (kind != "nested" or list(dims) == sorted(dims))
        ]
    random.Random(f"shapes:{n}:{L}:{kind}").shuffle(out)
    return out


def _extend(rng: random.Random, n: int, gens: list[int], k: int) -> list[int]:
    """``gens`` plus random words until k of them are independent."""
    gens = list(gens)
    while len(gens) < k:
        g = rng.randrange(1, 1 << n)
        if g not in _span(gens):
            gens.append(g)
    return gens


def _nonlinear_words(rng: random.Random, n: int, size: int) -> list[int]:
    """A word set that is not a subspace: its size is not a power of two, or it lacks 0."""
    if n == 1:
        return [1]
    return sorted(rng.sample(range(1 << n), size))


def analyse(ccc, spec: dict) -> dict:
    """Run the library calls of one item and return every verdict."""
    chain = ccc.CodeChain(codes=tuple(ccc.code_from_words(words) for words in spec["codes"]))
    rs = ccc.residues(chain)
    m = chain.modulus
    linear = chain.all_linear()
    direct, witness = ccc.is_lattice_direct(chain)
    out = {
        "residues": len(rs),
        "linear": linear,
        "nested": chain.all_nested(),
        "L": chain.L,
        "n": chain.n,
        "lattice": direct,
        "witness": None if witness is None else [list(witness[0]), list(witness[1])],
    }
    if linear:
        rep = ccc.equivalence_report(chain)
        out["theorem1"] = list(rep.flags())
        out["consistent"] = rep.consistent
    if linear and chain.L == 2:
        out["gu"] = ccc.gu_check_two_level(chain).uniform
    eds, w = ccc.eds_check(chain, m * m)
    out["eds"] = eds
    out["eds_witness"] = None if w is None else [list(w.center_a), list(w.center_b), w.d2]
    d2min, kissing = ccc.kissing_stats(chain)
    out["kissing"] = [d2min, sorted(kissing)]
    if chain.n <= SEARCH_MAX_N:
        out["gu_search"] = ccc.gu_subgroup_search(chain).verdict
    return out


def check(spec: dict, verdict: dict) -> list[str]:
    """Theorem-backed invariants that must hold for every chain of every seed."""
    problems = []
    if verdict["linear"]:
        if not verdict["consistent"]:
            problems.append("equivalence_report criteria disagree")
        elif verdict["theorem1"][0] != verdict["lattice"]:
            problems.append("direct closure differs from the theorem1 verdict")
        if verdict["L"] == 2:
            if not verdict.get("gu"):
                problems.append("two-level linear chain without reflection certificates")
            if not verdict["eds"]:
                problems.append("two-level linear chain with unequal spectra")
            if verdict.get("gu_search", "certified") != "certified":
                problems.append("two-level linear chain not certified by the isometry search")
    if verdict["lattice"] and not verdict["eds"]:
        problems.append("a lattice with unequal spectra")
    if not verdict["eds"] and verdict.get("gu_search", "refuted_by_eds") != "refuted_by_eds":
        problems.append("unequal spectra at 4^L but the wider search was not refuted")
    if verdict.get("gu_search") == "certified" and not verdict["eds"]:
        problems.append("certified uniform with unequal spectra")
    if verdict["eds"] and len(verdict["kissing"][1]) != 1:
        problems.append("equal spectra but varying kissing numbers")
    return [f"chain {spec['codes']}: {p}" for p in problems]


def digest(verdicts: list[dict]) -> str:
    return hashlib.sha256(json.dumps(verdicts, sort_keys=True).encode()).hexdigest()


class ItemTimeout(Exception):
    """Raised in the main thread when an item runs past its time cap."""


def _on_alarm(signum, frame):
    raise ItemTimeout()


@contextlib.contextmanager
def time_cap(seconds: float):
    """Raise ItemTimeout in the block once ``seconds`` of wall time have passed."""
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, max(seconds, 0.001))
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def run_pass(ccc, specs: list[dict], on_item=None, calibrate: bool = False) -> dict:
    """Analyse every chain once, in order, one at a time.

    ``on_item(index)`` is called before each item and ``on_item(None)`` after
    the last; the traced replay marks item boundaries there.  With
    ``calibrate`` the reference kernel is timed before the first chain and
    after every ``REF_EVERY`` chains, and each chain gets the mean of the two
    timings around its block in ``refs``.
    """
    times, verdicts, failures, marks = [], [], [], []
    failed = 0
    for index, spec in enumerate(specs):
        if calibrate and index % REF_EVERY == 0:
            marks.append(reference.python_s())
        if on_item is not None:
            on_item(index)
        t0 = time.perf_counter()
        try:
            with time_cap(ITEM_CAP_S):
                verdict = analyse(ccc, spec)
        except ItemTimeout:
            verdict, problems = None, [f"chain {index}: over the {ITEM_CAP_S}s cap"]
        except Exception as exc:  # any exception fails the item, the pass goes on
            verdict, problems = None, [f"chain {index}: {type(exc).__name__}: {exc}"]
        else:
            problems = check(spec, verdict)
        times.append(time.perf_counter() - t0)
        verdicts.append(verdict)
        failures.extend(problems)
        failed += bool(problems)
    if on_item is not None:
        on_item(None)
    refs = []
    if calibrate:
        marks.append(reference.python_s())
        refs = [(marks[i // REF_EVERY] + marks[i // REF_EVERY + 1]) / 2 for i in range(len(specs))]
    return {
        "times": times,
        "refs": refs,
        "points": [v["residues"] if v else 0 for v in verdicts],
        "failures": failures,
        "failed": failed,
        "verdicts": verdicts,
    }


def _span(gens: list[int]) -> list[int]:
    words = {0}
    for g in gens:
        words |= {w ^ g for w in words}
    return sorted(words)


def _bits(v: int, n: int) -> tuple[int, ...]:
    return tuple((v >> (n - 1 - j)) & 1 for j in range(n))


def clear_caches(ccc) -> None:
    """Empty the program's caches, so that a pass starts as in a fresh process."""
    for module, attr in CACHES.values():
        getattr(getattr(ccc, module), attr).cache_clear()


def main() -> int:
    parser = argparse.ArgumentParser(description="sweep-small passes in this process")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--chains", type=int, default=CHAINS)
    parser.add_argument("--passes", type=int, default=1)
    args = parser.parse_args()
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import ccc

    specs = make_specs(args.seed, args.chains)
    out = {"passes": [], "failures": [], "failed": 0, "digest": None}
    for _ in range(args.passes):
        clear_caches(ccc)
        res = run_pass(ccc, specs, calibrate=True)
        verdicts = digest(res["verdicts"])
        if out["digest"] not in (None, verdicts):
            res["failures"].append("verdicts differ between passes over the same chains")
        out["digest"] = out["digest"] or verdicts
        out["passes"].append({"times": res["times"], "refs": res["refs"], "points": res["points"]})
        out["failures"] += res["failures"]
        out["failed"] += res["failed"]
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
