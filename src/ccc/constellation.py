"""Multi-level constellations represented exactly by residues modulo 2^L.

A chain of L binary codes of length n defines the infinite point set

    C_1 + 2*C_2 + ... + 2^(L-1)*C_L + 2^L * Z^n      (real addition)

which is periodic with period 2^L in every coordinate.  All global questions
about the constellation reduce to exact integer arithmetic on its finite
residue set, so nothing here uses floating point.
"""

from __future__ import annotations

import itertools
import threading
from collections import Counter
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import prod
from typing import Iterable, Iterator, Sequence

from .f2 import BinaryCode, Word, is_linear, is_nested

Point = tuple[int, ...]

MAX_RESIDUE_COUNT = 1 << 22


@dataclass(frozen=True)
class CodeChain:
    """L binary codes of a common length, scaled by 1, 2, ..., 2^(L-1)."""

    codes: tuple[BinaryCode, ...]

    def __post_init__(self):
        if not isinstance(self.codes, tuple):
            object.__setattr__(self, "codes", tuple(self.codes))
        if len(self.codes) < 1:
            raise ValueError("a chain needs at least one level")
        n = self.codes[0].n
        for code in self.codes:
            if code.n != n:
                raise ValueError("all codes in a chain must share one length")

    @classmethod
    def of(cls, *codes: BinaryCode) -> "CodeChain":
        return cls(codes=tuple(codes))

    @property
    def n(self) -> int:
        return self.codes[0].n

    @property
    def L(self) -> int:
        return len(self.codes)

    @property
    def modulus(self) -> int:
        return 1 << self.L

    def residue_count(self) -> int:
        return prod(code.size for code in self.codes)

    def all_linear(self) -> bool:
        return all(is_linear(code) for code in self.codes)

    def all_nested(self) -> bool:
        return all(is_nested(a, b) for a, b in zip(self.codes, self.codes[1:]))


@dataclass(frozen=True)
class ResidueSet:
    """The finite image of a constellation modulo its period.

    The arithmetic mod the period that the lattice, symmetry and spectrum
    questions run on residues lives here: sums (closure), signed
    permutations (symmetry) and folded differences (spectrum classes).
    """

    n: int
    modulus: int
    residues: frozenset[Point]

    @cached_property
    def sorted(self) -> tuple[Point, ...]:
        return tuple(sorted(self.residues))

    def __len__(self) -> int:
        return len(self.residues)

    def __contains__(self, p: Point) -> bool:
        return p in self.residues

    def __iter__(self):
        return iter(self.sorted)

    def closed_under(self, translations: Iterable[Sequence[int]]) -> bool:
        """Whether R + g stays inside R for every translation g."""
        m, members = self.modulus, self.residues
        sums = (tuple((x + y) % m for x, y in zip(s, g)) for g in translations for s in members)
        return all(p in members for p in sums)

    def first_pair_outside(self) -> tuple[Point, Point] | None:
        """The lexicographically first residue pair whose sum is not a residue."""
        m, order, members = self.modulus, self.sorted, self.residues
        for s in order:
            for t in order:
                if tuple((x + y) % m for x, y in zip(s, t)) not in members:
                    return s, t
        return None

    def maps_onto(self, x: Sequence[int], perm: Sequence[int], signs: Sequence[int]) -> bool:
        """Whether p -> signs * (p - x)[perm] mod m maps the residue set onto itself.

        The map is a bijection of (Z/m)^n, so the image of the residues has
        |R| points and equals the set exactly when every image point is a
        residue; the scan stops at the first that is not.
        """
        m, members = self.modulus, self.residues
        return all(
            tuple((s * (p[k] - x[k])) % m for s, k in zip(signs, perm)) in members
            for p in members
        )

    def folded_key(self, s: Point, c: Sequence[int]) -> tuple[int, ...]:
        """The sorted coordinate distances of s - c to the nearest multiple of m."""
        m = self.modulus
        return tuple(sorted(min((a - b) % m, (b - a) % m) for a, b in zip(s, c)))

    def key_counts(self, c: Sequence[int]) -> Counter[tuple[int, ...]]:
        """The multiset of folded keys of every residue against the center c."""
        key = self.folded_key
        return Counter(key(s, c) for s in self.sorted)

    @cached_property
    def _class_scan(self) -> tuple[list[Point], set[frozenset], Iterator[Point], threading.Lock]:
        # representatives found so far, their signatures, residues not yet read
        return [], set(), iter(self.sorted), threading.Lock()

    def class_representatives(self) -> Iterator[Point]:
        """The lexicographically first residue of each spectrum class, in order.

        A class is the set of residues whose folded key multisets agree.
        The scan is shared by every caller on this residue set and advances
        only as far as some caller has read, so a caller that stops early
        leaves the rest unread.
        """
        reps, seen, pending, lock = self._class_scan
        i = 0
        while True:
            with lock:
                while i == len(reps):
                    c = next(pending, None)
                    if c is None:
                        return
                    sig = frozenset(self.key_counts(c).items())
                    if sig not in seen:
                        seen.add(sig)
                        reps.append(c)
            yield reps[i]
            i += 1


@lru_cache(maxsize=32)
def residues(chain: CodeChain) -> ResidueSet:
    """Enumerate all digit combinations; exactly one residue per combination."""
    count = chain.residue_count()
    if count > MAX_RESIDUE_COUNT:
        raise ValueError(f"residue count {count} exceeds the guard of {MAX_RESIDUE_COUNT}")
    n = chain.n
    acc: list[Point] = [(0,) * n]
    for level, code in enumerate(chain.codes):
        scale = 1 << level
        scaled = [tuple(b * scale for b in w) for w in code.sorted_words()]
        acc = [tuple(p[j] + s[j] for j in range(n)) for p in acc for s in scaled]
    pts = frozenset(acc)
    if len(pts) != count:
        # the digit map is injective into [0, 2^L)^n; a clash means corrupted input
        raise RuntimeError("residue enumeration lost points")
    return ResidueSet(n=n, modulus=chain.modulus, residues=pts)


def contains(chain: CodeChain, p: Sequence[int]) -> bool:
    """Membership test via the base-2 digits of p mod 2^L."""
    if len(p) != chain.n:
        raise ValueError(f"point has length {len(p)}, expected {chain.n}")
    m = chain.modulus
    r = [x % m for x in p]
    for level, code in enumerate(chain.codes):
        digit: Word = tuple((x >> level) & 1 for x in r)
        if digit not in code.words:
            return False
    return True


def decompose(chain: CodeChain, p: Sequence[int]) -> tuple[tuple[Word, ...], Point]:
    """Split a member into its digit words and integer part.

    Returns (digits, z) with  p == sum(2^i * digits[i]) + 2^L * z  exactly.
    """
    if not contains(chain, p):
        raise ValueError(f"point {tuple(p)} is not in the constellation")
    m = chain.modulus
    r = [x % m for x in p]
    digits = tuple(
        tuple((x >> level) & 1 for x in r) for level in range(chain.L)
    )
    z = tuple((x - y) // m for x, y in zip(p, r))
    return digits, z


def recompose(chain: CodeChain, digits: Sequence[Word], z: Sequence[int]) -> Point:
    """Inverse of decompose: digit words plus integer part back to a point."""
    m = chain.modulus
    return tuple(
        sum(digits[level][j] << level for level in range(chain.L)) + m * z[j]
        for j in range(chain.n)
    )


def points_in_box(chain: CodeChain, lo: Sequence[int], hi: Sequence[int]) -> list[Point]:
    """All constellation members in the closed box [lo, hi], sorted lexicographically."""
    n = chain.n
    if len(lo) != n or len(hi) != n:
        raise ValueError("box corners must match the chain length")
    if any(a > b for a, b in zip(lo, hi)):
        raise ValueError(f"degenerate box: {tuple(lo)} > {tuple(hi)}")
    m = chain.modulus
    out: list[Point] = []
    for s in residues(chain):
        # per-coordinate translate candidates s_j + m*z_j inside [lo_j, hi_j]
        axes: list[range] = []
        for sj, a, b in zip(s, lo, hi):
            first = sj + m * (-((sj - a) // m))
            if first > b:
                break
            axes.append(range(first, b + 1, m))
        else:
            out.extend(itertools.product(*axes))
    out.sort()
    return out


def cw_members(chain: CodeChain, center: Sequence[int], offset: Sequence[int]) -> list[Point]:
    """Members y with |y_j - center_j| == |offset_j| for every j, sorted lexicographically.

    Each coordinate has one candidate value (offset 0) or two, so at most 2^n
    sign patterns are tested by membership; no search radius is involved.
    """
    n = chain.n
    if len(center) != n or len(offset) != n:
        raise ValueError(f"center and offset must have length {n}")
    axes = [(c,) if e == 0 else (c - abs(e), c + abs(e)) for c, e in zip(center, offset)]
    return [y for y in itertools.product(*axes) if contains(chain, y)]
