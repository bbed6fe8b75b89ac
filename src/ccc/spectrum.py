"""Exact squared-distance spectra of periodic constellations.

Counting neighbors of a center c splits over residues: every residue s
contributes the points of the coset (s - c) + 2^L * Z^n, and the squared-norm
profile of such a coset is the n-fold convolution of one-dimensional coset
profiles.  A coordinate u and its negation 2^L - u share a profile, and
profiles are permutation-invariant, so cosets are keyed by the sorted folded
digit vector.  Everything is integer-exact; distances are always squared.

Two centers whose folded keys agree as multisets have identical spectra at
every radius.  The residues therefore fall into spectrum classes, and the
class scan records each class's nearest shell, (least positive squared
distance, point count), read from its key multiset without a table.
Kissing numbers need only the shells.  Equal spectra are compared shell
first: a class whose shell differs from the first class's is refuted from
the two shells, or agrees when both lie beyond the radius.  ``spectrum_at``
tables, made at the class's lexicographically first residue with the key
multiset the scan read there, are built only for classes whose shell agrees
with the first's.  The multiset is the same at x and x + h for a period h
of the residue set, so the class scan runs on the coset representatives of
``ResidueSet``'s coset walk: |R/H| * |R| folded keys, not |R|^2, a count
read before the walk as ``coset_count() * |R|``.

The folded keys, the nearest shells and the class scan are methods of
``ResidueSet``.  The scan is lazy and memoized on its residue set, so it runs
at most once per residue set, and each class's shell is computed once,
whichever of ``eds_check`` (at any radius), ``kissing_stats`` or the isometry
search asks first; the scan checks its own |R/H| * |R| guard.  ``key_counts``
reads the keys one folded coordinate column at a time, never sized by the
modulus 2^L, and keeps a column asked for a second time (a later center with
the same value in that coordinate) on the residue set, within
COLUMN_STORE_ENTRIES entries per set.  This module keeps both table guards
and builds the tables: a key's table is its sorted prefix's table convolved
with the last digit's coset profile over nonzero (d2, count) pairs, so keys
that share a prefix share its cached table.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from math import isqrt
from typing import NamedTuple, Sequence

from .constellation import MAX_SPECTRUM_WORK, CodeChain, KeyCounts, Point, ResidueSet, check_work, contains
from .constellation import cw_members, residues


class SpectrumTable(NamedTuple):
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


class EdsWitness(NamedTuple):
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
    table.  Each class is compared with the first class by two count dicts.
    A table holds nothing below its nearest shell (d2, count) and exactly
    count points at d2, so when two classes' shells differ their tables first
    disagree where the one-entry dicts {d2: count} of the two shells do, and
    no table is built.  Only classes whose shells agree are compared by
    ``spectrum_at`` tables, and the first class's table is built at most
    once, for the first such class; a one-class chain builds none.  The
    witness pairs the first residue with the first residue (in
    lexicographic order) whose table differs from it, at the least
    d2 <= r2max at which the two dicts differ, with each side's count there
    or 0; such a d2 exists unless both shells lie beyond r2max.
    """
    rs = residues(chain)
    _check_table_work(rs, r2max)  # the cheap guard first: the class scan's needs the period group
    classes = rs.class_shells()
    first, first_keys, shell = next(classes)
    ref = None
    for c, keys, other in classes:
        if other != shell:
            a, b = {shell[0]: shell[1]}, {other[0]: other[1]}
        else:
            if ref is None:
                ref = spectrum_at(chain, first, r2max, _keys=first_keys).counts
            a, b = ref, spectrum_at(chain, c, r2max, _keys=keys).counts
        d2 = min((k for k in a.keys() | b.keys() if a.get(k, 0) != b.get(k, 0)), default=r2max + 1)
        if d2 <= r2max:
            return False, EdsWitness(first, c, d2, a.get(d2, 0), b.get(d2, 0))
    if shell[0] > r2max:
        raise ValueError("r2max is below the minimum squared distance")
    return True, None


def default_eds_radius(chain: CodeChain) -> int:
    """Four squared periods: several shells beyond the minimum distance at desk scale."""
    return 4 * chain.modulus ** 2


def kissing_stats(chain: CodeChain) -> tuple[int, set[int]]:
    """Global minimum squared distance and the set of per-member counts there.

    Each class's nearest shell is the one the class scan recorded from its
    key multiset, shared with ``eds_check``; the period translates
    c +/- 2^L e_j guarantee neighbors at 4^L.  No table is built, so the only
    guard is the class scan's |R/H| * |R| keys.
    """
    shells = [shell for _, _, shell in residues(chain).class_shells()]
    d2min = min(d2 for d2, _ in shells)
    return d2min, {count if d2 == d2min else 0 for d2, count in shells}


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
    """Squared-norm profile of the coset with folded digits ``key``: ``key[:-1]``'s table convolved with ``key[-1]``'s."""
    if not key:
        return ((0, 1),)
    acc: dict[int, int] = {}
    profile = _coset_profile(m, key[-1], r2max)
    for d2, cnt in _key_table(m, key[:-1], r2max):
        for e2, c2 in profile:
            s = d2 + e2
            if s > r2max:
                break
            acc[s] = acc.get(s, 0) + cnt * c2
    return tuple(sorted(acc.items()))


def _check_table_work(rs: ResidueSet, r2max: int) -> None:
    """The cheap table guard, checked before the class scan: (r2max + 1) entries per residue's key."""
    if r2max < 1:
        raise ValueError("r2max must be at least 1")
    check_work("spectrum enumeration", (r2max + 1) * len(rs), MAX_SPECTRUM_WORK)


def _table_from_keys(m: int, keys: KeyCounts, r2max: int) -> dict[int, int]:
    """These keys' table, refused before the first convolution if it may visit over MAX_SPECTRUM_WORK pairs.

    Step k of a key's n meets at most min(P^(k-1), r2max + 1) prefix entries with a profile of at most P.
    """
    p = 2 * isqrt(r2max) // m + 1  # P: |v| <= isqrt(r2max) holds at most this many v = u mod m
    n = len(next(iter(keys))[0])  # every key has the chain's length
    check_work("spectrum tables", len(keys) * sum(min(p**k, (r2max + 1) * p) for k in range(1, n + 1)), MAX_SPECTRUM_WORK)
    totals: dict[int, int] = {}
    for key, mult in keys:
        for d2, cnt in _key_table(m, key, r2max):
            totals[d2] = totals.get(d2, 0) + mult * cnt
    totals.pop(0, None)  # drop the center itself
    return dict(sorted(totals.items()))
