"""Exact squared-distance spectra of periodic constellations.

Counting neighbors of a center c splits over residues: every residue s
contributes the points of the coset (s - c) + 2^L * Z^n, and the squared-norm
profile of such a coset is the n-fold convolution of one-dimensional coset
profiles.  A coordinate u and its negation 2^L - u share a profile, and
profiles are permutation-invariant, so cosets are keyed by the sorted folded
digit vector.  Everything is integer-exact; distances are always squared.

Two centers whose folded keys agree as multisets have identical spectra at
every radius.  The residues therefore fall into spectrum classes, and the
whole-constellation questions (equal spectra, kissing numbers) need one
``spectrum_at`` call per class, made at the class's lexicographically first
residue with the key multiset the class scan read there.  The multiset is the
same at x and x + h for a period h of the residue set, so the class scan runs
on ``ResidueSet.per_coset``'s coset representatives: |R/H| * |R| folded keys,
not |R|^2.

The folded keys and the class scan are methods of ``ResidueSet``.  The scan is
lazy and memoized on its residue set, so it runs at most once per residue set,
whichever of ``eds_check``, ``kissing_stats`` or the isometry search asks
first; this module keeps the work guards and builds the tables.  Each folded
coordinate distance is read from a fold table on the residue set that is
filled on demand with the differences the keys meet.  It is never sized by
the modulus 2^L, so the keys of a chain with many levels cost no more than
those of a shallow one.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from math import isqrt
from typing import Iterator, Sequence

from .constellation import CodeChain, KeyCounts, Point, ResidueSet, check_work, contains, cw_members, residues

MAX_SPECTRUM_WORK = 10**8


@dataclass
class SpectrumTable:
    """Counts of constellation points per squared distance from a center.

    Keys are positive squared distances up to r2max; the center itself is
    excluded.  Zero counts are never stored.
    """

    center: Point
    r2max: int
    counts: dict[int, int]

    def total(self) -> int:
        return sum(self.counts.values())


def cw_equidistant(a: Sequence[int], b: Sequence[int]) -> bool:
    """True iff the vectors agree coordinate-wise up to sign changes."""
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    return all(abs(x) == abs(y) for x, y in zip(a, b))


def spectrum_at(chain: CodeChain, c: Sequence[int], r2max: int, *, _keys: KeyCounts | None = None) -> SpectrumTable:
    """Exact neighbor counts around a constellation member, out to r2max.

    ``_keys`` is c's key multiset when the caller already holds it, as the
    class scan does; it is not checked against c.
    """
    if not contains(chain, c):
        raise ValueError(f"center {tuple(c)} is not in the constellation")
    rs = residues(chain)
    _check_table_work(rs, r2max)
    keys = rs.key_counts(c) if _keys is None else _keys
    counts = _table_from_keys(chain.modulus, keys, r2max)
    return SpectrumTable(center=tuple(c), r2max=r2max, counts=counts)


@dataclass(frozen=True)
class EdsWitness:
    """Two members whose spectra first disagree, with the distance and counts."""

    center_a: Point
    center_b: Point
    d2: int
    count_a: int
    count_b: int


def eds_check(chain: CodeChain, r2max: int) -> tuple[bool, EdsWitness | None]:
    """Whether every member sees identical neighbor counts up to r2max.

    Residues suffice as centers because period translates preserve spectra,
    and one center per spectrum class suffices because a class shares its
    table.  The class tables are built one at a time and compared with the
    first, stopping at the first that differs.  The witness is therefore the
    first residue (in lexicographic order) whose table differs from the first
    residue's, at the smallest disagreeing distance.
    """
    classes = _spectrum_classes(chain, r2max)
    first, keys = next(classes)
    ref = spectrum_at(chain, first, r2max, _keys=keys).counts
    for c, keys in classes:
        t = spectrum_at(chain, c, r2max, _keys=keys).counts
        if t == ref:
            continue
        d2 = min(k for k in set(ref) | set(t) if ref.get(k, 0) != t.get(k, 0))
        return False, EdsWitness(
            center_a=first,
            center_b=c,
            d2=d2,
            count_a=ref.get(d2, 0),
            count_b=t.get(d2, 0),
        )
    if not ref:
        raise ValueError("r2max is below the minimum squared distance")
    return True, None


def default_eds_radius(chain: CodeChain) -> int:
    """Four squared periods: several shells beyond the minimum distance at desk scale."""
    return 4 * chain.modulus ** 2


def kissing_stats(chain: CodeChain) -> tuple[int, set[int]]:
    """Global minimum squared distance and the set of per-member counts there.

    The period translates c +/- 2^L e_j guarantee neighbors at 4^L, so that
    radius always suffices to locate the minimum.
    """
    r2max = chain.modulus ** 2
    tables = [spectrum_at(chain, c, r2max, _keys=k).counts for c, k in _spectrum_classes(chain, r2max)]
    d2min = min(min(t) for t in tables)  # every table holds the 4^L shell
    return d2min, {t.get(d2min, 0) for t in tables}


def cw_count(chain: CodeChain, x: Sequence[int], e: Sequence[int]) -> int:
    """Number of members y with y - x equal to e up to coordinate sign flips."""
    if not contains(chain, x):
        raise ValueError(f"point {tuple(x)} is not in the constellation")
    return len(cw_members(chain, x, e))


@lru_cache(maxsize=None)
def _coset_profile(m: int, u: int, r2max: int) -> tuple[tuple[int, int], ...]:
    """Squared-value counts of the arithmetic progression u + m*Z, as (d2, count) pairs."""
    u = min(u % m, (-u) % m)  # negation symmetry: u and m-u have equal profiles
    out: Counter[int] = Counter()
    r = isqrt(r2max)
    v = u - m * ((u + r) // m)
    while v <= r:
        out[v * v] += 1
        v += m
    return tuple(sorted(out.items()))


@lru_cache(maxsize=None)
def _key_table(m: int, key: tuple[int, ...], r2max: int) -> tuple[tuple[int, int], ...]:
    """Squared-norm profile of the coset with folded digits ``key``: an n-fold convolution."""
    acc = [0] * (r2max + 1)
    acc[0] = 1
    for u in key:
        nxt = [0] * (r2max + 1)
        support = _coset_profile(m, u, r2max)
        for j, a in enumerate(acc):
            if not a:
                continue
            for d2, cnt in support:
                if j + d2 > r2max:
                    break
                nxt[j + d2] += a * cnt
        acc = nxt
    return tuple((d2, cnt) for d2, cnt in enumerate(acc) if cnt)


def _spectrum_classes(chain: CodeChain, r2max: int) -> Iterator[tuple[Point, KeyCounts]]:
    """The residue set's spectrum classes, behind the per-table and |R/H| * |R| key work guards."""
    rs = residues(chain)
    _check_table_work(rs, r2max)  # the cheap guard first: the other needs the period group
    check_work("spectrum class scan", len(rs.coset_representatives) * len(rs), MAX_SPECTRUM_WORK)
    return rs.spectrum_classes()


def _check_table_work(rs: ResidueSet, r2max: int) -> None:
    """The per-table guard: one (r2max + 1)-entry convolution per residue's key."""
    if r2max < 1:
        raise ValueError("r2max must be at least 1")
    check_work("spectrum enumeration", (r2max + 1) * len(rs), MAX_SPECTRUM_WORK)


def _table_from_keys(m: int, keys: KeyCounts, r2max: int) -> dict[int, int]:
    totals: Counter[int] = Counter()
    for key, mult in keys:
        for d2, cnt in _key_table(m, key, r2max):
            totals[d2] += mult * cnt
    totals.pop(0, None)  # drop the center itself
    return dict(sorted(totals.items()))
