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
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import repeat
from math import prod
from operator import sub
from typing import Callable, Iterator, Sequence, TypeVar

from .f2 import BinaryCode, Word, is_linear, is_nested

Point = tuple[int, ...]
KeyCounts = frozenset[tuple[tuple[int, ...], int]]  # folded keys with multiplicities
T = TypeVar("T")

MAX_RESIDUE_COUNT = 1 << 22
MAX_SIGN_PATTERNS = 1 << 20  # membership tests in cw_members
MAX_PERIOD_WORK = 10**8  # residue lookups of the period group's fixes checks


def check_work(routine: str, work: int, guard: int) -> None:
    """Refuse, as an input error, a run whose work estimate exceeds its guard."""
    if work > guard:
        raise ValueError(f"{routine}: work {work} exceeds the guard of {guard}")


class _FoldTable(dict):
    """Coordinate difference d -> distance from d to the nearest multiple of m, stored on first use."""

    def __init__(self, m: int):
        super().__init__()
        self.m = m

    def __missing__(self, d: int) -> int:
        m = self.m
        fold = self[d] = min(d % m, -d % m)
        return fold


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
    questions run on residues lives here: sums (``fixes``, the closure
    witness), signed permutations (symmetry) and folded differences
    (spectrum classes).  Those questions are asked point by point, and
    ``per_coset`` asks each one once per coset of the verified period
    subgroup ``period_group``, whose generators ``fixes`` checks.
    """

    n: int
    modulus: int
    residues: frozenset[Point]
    candidates: tuple[Point, ...] = field(default=(), compare=False, repr=False)

    @cached_property
    def sorted(self) -> tuple[Point, ...]:
        return tuple(sorted(self.residues))

    def __len__(self) -> int:
        return len(self.residues)

    def __contains__(self, p: Point) -> bool:
        return p in self.residues

    def __iter__(self):
        return iter(self.sorted)

    def fixes(self, g: Sequence[int]) -> bool:
        """Whether R + g = R; translation is a bijection, so R + g inside R suffices."""
        m, members = self.modulus, self.residues
        return all(tuple((x + y) % m for x, y in zip(s, g)) in members for s in members)

    @cached_property
    def period_group(self) -> frozenset[Point]:
        """A subgroup H of the period group G = {t : R + t = R mod m}.

        G is Forney's translation group of a geometrically uniform code.  H is
        the group generated by the ``candidates`` g that pass ``fixes(g)`` one
        by one.  No candidate is trusted unchecked (a scaled codeword need
        not fix R, because integer addition carries into the next level), and
        sums of translations that fix R fix R, so H lies in G; a set where no
        candidate passes gets H = {0}.  Each check looks up |R| residues, so
        the checks are guarded as len(candidates) * |R| lookups.
        """
        check_work("period_group", len(self.candidates) * len(self), MAX_PERIOD_WORK)
        m, zero = self.modulus, (0,) * self.n
        group, members = [zero], {zero}
        for g in self.candidates:
            if g in members or not self.fixes(g):
                continue
            block = group  # the cosets H + k*g are new until k*g falls in H
            while True:
                block = [tuple((a + b) % m for a, b in zip(p, g)) for p in block]
                if block[0] in members:
                    break
                group += block
                members.update(block)
        return frozenset(members)

    def per_coset(self, fn: Callable[[Point], T], even: bool = False) -> Iterator[tuple[Point, T]]:
        """Yield (x, fn(r)) for every residue x in sorted order, r the first residue of x's coset.

        The cosets are those of H = ``period_group``, or of H ∩ 2Z^n when
        ``even``.  This is sound for any question whose answer is the same at
        x and x + h for h in the group: for h in H, R + h = R and R - h = R,
        so translating a point by h permutes the residues it is measured
        against.  A question that also reads x mod 2 is constant only on the
        even members of H, and two residues share a coset of H ∩ 2Z^n exactly
        when they share a coset of H and agree mod 2.  fn runs once per coset,
        when its first residue is reached; a caller that stops early leaves
        the later cosets uncalled, and the first x with a given answer is the
        one a per-residue loop would find.
        """
        m = self.modulus
        group = [h for h in self.period_group if not even or all(v % 2 == 0 for v in h)]
        pending: dict[Point, T] = {}  # answers for the coset members not yet reached
        for x in self.sorted:
            if x not in pending:
                answer = fn(x)
                for h in group:
                    pending[tuple((a + b) % m for a, b in zip(x, h))] = answer
            yield x, pending.pop(x)

    @cached_property
    def coset_representatives(self) -> tuple[Point, ...]:
        """The first residue of each coset of H, in sorted order."""
        return tuple(x for x, r in self.per_coset(lambda r: r) if x == r)

    def first_pair_outside(self) -> tuple[Point, Point] | None:
        """The lexicographically first residue pair whose sum is not a residue.

        Whether s + t is a residue is constant on the cosets of s and of t,
        so the first failing pair is a pair of coset representatives.
        """
        m, order, members = self.modulus, self.coset_representatives, self.residues
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

    @cached_property
    def _columns(self) -> tuple[tuple[int, ...], ...]:
        """The j-th coordinates of the sorted residues, one tuple per j."""
        return tuple(zip(*self.sorted))

    @cached_property
    def _fold(self) -> Callable[[int], int]:
        # one table per residue set, holding no reference back to it, so the
        # set still dies with the residues cache
        return _FoldTable(self.modulus).__getitem__

    def key_counts(self, c: Sequence[int]) -> KeyCounts:
        """The folded keys of every residue against the center c, with multiplicities.

        A residue s's key is the sorted distances of s - c to the nearest
        multiple of m.  They are read one column at a time from a per-set
        fold table, filled on demand with the differences seen, so nothing is
        sized by the modulus 2^L.  c is reduced mod m once, so every
        difference lies strictly between -m and m.
        """
        if len(c) != self.n:
            raise ValueError(f"center has length {len(c)}, expected {self.n}")
        m, fold = self.modulus, self._fold
        columns = [map(fold, map(sub, column, repeat(x % m))) for column, x in zip(self._columns, c)]
        return frozenset(Counter(map(tuple, map(sorted, zip(*columns)))).items())

    @cached_property
    def _class_scan(self) -> tuple[list, set[KeyCounts], Iterator[Point], threading.Lock]:
        # (representative, keys) of the classes found so far, their key multisets,
        # coset representatives not yet read
        return [], set(), iter(self.coset_representatives), threading.Lock()

    def spectrum_classes(self) -> Iterator[tuple[Point, KeyCounts]]:
        """The first residue of each spectrum class and its key multiset, in order.

        A class is the set of residues whose folded key multisets agree.  The
        multiset is the same on a coset of H, so a class is a union of cosets,
        its first residue is a coset representative, and only the
        representatives are read.  The scan is shared by every caller on this
        residue set and advances only as far as some caller has read, so a
        caller that stops early leaves the rest unread.
        """
        found, seen, pending, lock = self._class_scan
        i = 0
        while True:
            with lock:
                while i == len(found):
                    c = next(pending, None)
                    if c is None:
                        return
                    sig = self.key_counts(c)
                    if sig not in seen:
                        seen.add(sig)
                        found.append((c, sig))
            yield found[i]
            i += 1


@lru_cache(maxsize=32)
def residues(chain: CodeChain) -> ResidueSet:
    """Enumerate all digit combinations; exactly one residue per combination."""
    count = chain.residue_count()
    check_work("residues", count, MAX_RESIDUE_COUNT)
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
    candidates = tuple(
        tuple(b << level for b in w)
        for level, code in enumerate(chain.codes)
        for w in code.basis
    )
    return ResidueSet(n=n, modulus=chain.modulus, residues=pts, candidates=candidates)


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

    Each coordinate has one candidate value (offset 0) or two, so 2^k sign
    patterns are tested by membership, k the number of nonzero offsets; no
    search radius is involved.
    """
    n = chain.n
    if len(center) != n or len(offset) != n:
        raise ValueError(f"center and offset must have length {n}")
    check_work("cw_members", 1 << sum(e != 0 for e in offset), MAX_SIGN_PATTERNS)
    axes = [(c,) if e == 0 else (c - abs(e), c + abs(e)) for c, e in zip(center, offset)]
    return [y for y in itertools.product(*axes) if contains(chain, y)]
