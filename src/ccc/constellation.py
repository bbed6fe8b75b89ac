"""Multi-level constellations represented exactly by residues modulo 2^L.

A chain of L binary codes of length n defines the infinite point set

    C_1 + 2*C_2 + ... + 2^(L-1)*C_L + 2^L * Z^n      (real addition)

which is periodic with period 2^L in every coordinate.  All global questions
about the constellation reduce to exact integer arithmetic on its finite
residue set, so nothing here uses floating point.

A residue is packed into one Python int with L bits per coordinate.
``Lanes`` owns that format and the arithmetic mod 2^L on it: packing and
unpacking points, lane-wise sums and scalar multiples, and the elimination
mod 2^L (``howell_rows``) from which the lattice algebra builds every
lattice.  A ``ResidueSet`` is a ``Lanes`` that holds its residue words: sums
and membership tests run on the packed words; signed permutations read
coordinates and pack their images, and folded keys read coordinates.
"""

from __future__ import annotations

import itertools
import threading
from collections import Counter
from functools import cached_property, lru_cache
from itertools import compress, repeat
from math import comb, prod
from operator import and_, mul, not_, rshift, sub
from typing import Callable, Collection, Iterable, Iterator, Sequence, TypeVar

from .f2 import BinaryCode, Record, Word, is_linear, is_nested

Point = tuple[int, ...]
KeyCounts = frozenset[tuple[tuple[int, ...], int]]  # folded keys with multiplicities
Shell = tuple[int, int]  # (least positive squared distance, point count there)
T = TypeVar("T")

MAX_RESIDUE_COUNT = 1 << 22
MAX_SIGN_PATTERNS = 1 << 20  # membership tests in cw_members
MAX_PERIOD_WORK = 10**8  # residue lookups of the period group's fixes checks
MAX_WITNESS_WORK = 10**8  # coset-representative pairs of the closure witness scan
MAX_SPECTRUM_WORK = 10**8  # folded keys of the class scan; table entries of a spectrum
MAX_CLASS_KEYS = 4 * 10**6  # distinct folded keys the class scan keeps, about 260 B each
MAX_ELIMINATION_WORK = 10**8  # row operations of the elimination mod 2^L: rows times lanes
MAX_BOX_POINTS = 4 * 10**6  # candidate points of points_in_box, the memory scale MAX_CLASS_KEYS allows
COLUMN_STORE_ENTRIES = 1 << 18  # folded-column entries a residue set keeps for later centers: 2 MB of pointers


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


class CodeChain(Record):
    """L binary codes of a common length, scaled by 1, 2, ..., 2^(L-1).

    Equal when the codes are equal level by level; ``codes`` is read-only.
    """

    _fields = ("codes",)
    codes: tuple[BinaryCode, ...]

    def __init__(self, codes: Iterable[BinaryCode]):
        codes = tuple(codes)
        if len(codes) < 1:
            raise ValueError("a chain needs at least one level")
        n = codes[0].n
        for code in codes:
            if code.n != n:
                raise ValueError("all codes in a chain must share one length")
        self._store(codes)

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


class Lanes:
    """Points of (Z/m)^n, m = 2^L, as packed words, and the arithmetic mod m on them.

    Coordinate j of n, reduced mod m, sits in the L-bit lane at bit offset
    L * (n - 1 - j), so word order is the lexicographic order of the points.
    With ``hi`` the top bit of every lane and ``lo`` the other bits, the
    lane-wise sum is ((x & lo) + (y & lo)) ^ ((x ^ y) & hi): the low bits of
    a lane add without a carry out of it, and for L = 1, lo = 0 and the sum
    is XOR.  No other module reads a lane.
    """

    def __init__(self, n: int, modulus: int):
        if modulus < 2 or modulus & (modulus - 1):
            raise ValueError(f"modulus must be a power of two at least 2, got {modulus}")
        self.n, self.modulus = n, modulus
        L = modulus.bit_length() - 1
        self._shifts = list(range(L * (n - 1), -1, -L))  # lane j's bit offset, L * (n - 1 - j)
        self._ones = ((1 << (L * n)) - 1) // ((1 << L) - 1)  # the lowest bit of every lane
        self._hi = self._ones << (L - 1)  # the top bit of every lane
        self._lo = ((1 << (L * n)) - 1) ^ self._hi  # the other bits; 0 when L = 1

    def pack(self, p: Iterable[int]) -> int:
        """The point p, its n coordinates reduced mod m, as one word."""
        L, mask, word = self.modulus.bit_length() - 1, self.modulus - 1, 0
        for x in p:
            word = (word << L) | (x & mask)
        return word

    def point(self, w: int) -> Point:
        """The coordinates of the word, each in [0, m)."""
        mask = self.modulus - 1
        return tuple(w >> shift & mask for shift in self._shifts)

    def add(self, x: int, y: int) -> int:
        """x + y lane-wise mod m, the sum of ``_translates``."""
        lo = self._lo
        return ((x & lo) + (y & lo)) ^ ((x ^ y) & self._hi)

    def times(self, w: int, k: int) -> int:
        """k * w lane-wise mod m for k >= 0, by double-and-add: O(log k) sums, nothing sized by k."""
        add, acc = self.add, 0
        while k:
            if k & 1:
                acc = add(acc, w)
            w, k = add(w, w), k >> 1
        return acc

    def _translates(self, words: Iterable[int], g: int) -> Iterator[int]:
        """w + g lane-wise mod 2^L for each w in words, in their order.

        The bits below each lane's top bit add without leaving the lane; the
        top bit of the sum is their carry XOR both top bits, and the carry
        out of the lane is dropped.  With L = 1 that is XOR.
        """
        lo, hi, g_lo = self._lo, self._hi, g & self._lo
        return (((w & lo) + g_lo) ^ ((w ^ g) & hi) for w in words)

    def _lanes(self, words: Iterable[int]) -> list[Iterator[int]]:
        """The coordinates of the words, one iterator per lane j."""
        words, mask = list(words), self.modulus - 1
        return [map(and_, map(rshift, words, repeat(shift)), repeat(mask)) for shift in self._shifts]

    def howell_rows(self, words: Collection[int]) -> list[Point | None]:
        """An echelon basis, one row per lane, of the subgroup <G> the words generate in (Z/m)^n.

        The words may be any generators: residue words, scaled basis rows,
        zeros and duplicates alike.  Row j is None when lane j has no pivot:
        every element of <G> that is 0 in lanes 0..j-1 is 0 in lane j too.
        Otherwise it is such an element whose lane j reads 2^b, b the least
        2-adic valuation any of them has there, as a point with coordinates in
        [0, m).

        This is elimination mod m = 2^L on the packed words (Howell, Lin.
        Multilin. Algebra 1986; Storjohann & Mulders, ESA 1998), with every word
        a generator.  At lane j:

        * the pivot is a row whose lane j has the least valuation b, multiplied
          by the inverse of its odd unit so that the lane reads 2^b;
        * every other row w loses (w_j / 2^b) times the pivot, so that its lane
          j reads 0;
        * 2^(L-b) times the pivot, whose lane j vanishes, joins the rows (the
          Howell closure), so that the rows left span every element of <G> that
          is 0 in lanes 0..j, the later lanes never needing the pivot;
        * zeros and duplicates are dropped, so no lane has more rows than there
          are words.

        Multiples come from ``times``, kept per multiplier met in a lane, so nothing
        is sized by 2^L.  The len(words) * n row operations are guarded first.
        """
        check_work("howell_rows", len(words) * self.n, MAX_ELIMINATION_WORK)
        m, add, times = self.modulus, self.add, self.times
        mask, rows, pivots = m - 1, frozenset(words) - {0}, []
        for shift in self._shifts:
            pivot, low = 0, m  # low: 2^b, the least power of two dividing a lane-j entry
            for w in rows:
                a = w >> shift & mask
                if a and a & -a < low:
                    pivot, low = w, a & -a
            if not pivot:
                pivots.append(None)
                continue
            b = low.bit_length() - 1
            pivot = times(pivot, pow((pivot >> shift & mask) >> b, -1, m))
            minus: dict[int, int] = {}  # lane-j entry a -> -(a / 2^b) * pivot
            left = {times(pivot, m >> b)}  # the Howell closure row
            for w in rows:
                a = w >> shift & mask
                if a:
                    g = minus.get(a)
                    if g is None:
                        g = minus[a] = times(pivot, -(a >> b) & mask)
                    w = add(w, g)
                left.add(w)
            left.discard(0)
            pivots.append(pivot)
            rows = left
        return [None if p is None else self.point(p) for p in pivots]


class ResidueSet(Lanes):
    """The finite image of a constellation modulo its period.

    The arithmetic mod the period that the lattice, symmetry and spectrum
    questions run on residues lives here: sums (``fixes``, the closure
    witness), signed permutations (symmetry) and folded differences
    (spectrum classes).  Those questions are asked point by point, and
    ``per_coset`` asks each one once per coset of the verified period
    subgroup ``period_words``, whose generators ``fixes`` checks.

    It holds the residues, and its period candidates, as packed words
    (``words``).  Sums add lane-wise with ``_translates``, and membership
    (``in``, on a point) packs the point and looks it up in ``words``.  The
    only other stored form is the coordinate columns of the sorted words
    (``_columns``), unpacked on first use for the folded keys (and those
    keys' folded columns, within a budget); iterating the set zips the
    columns into points in lexicographic order, one at a time, so no tuple
    of points is kept.
    """

    def __init__(self, n: int, modulus: int, words: frozenset[int], candidates: Sequence[int] = ()):
        super().__init__(n, modulus)
        self.words, self.candidates = words, tuple(candidates)

    def __len__(self) -> int:
        return len(self.words)

    def __contains__(self, p: Sequence[int]) -> bool:
        """Whether p is a residue; False for a wrong length or a coordinate outside [0, m)."""
        m = self.modulus
        return len(p) == self.n and all(0 <= x < m for x in p) and self.pack(p) in self.words

    def __iter__(self) -> Iterator[Point]:
        """The residues as points, in lexicographic order, read from the coordinate columns."""
        return zip(*self._columns)

    @cached_property
    def _order(self) -> list[int]:
        """The words in increasing order, which is the lexicographic order of the points."""
        return sorted(self.words)

    @cached_property
    def _columns(self) -> tuple[tuple[int, ...], ...]:
        """The j-th coordinates of the sorted residues, one tuple per j."""
        return tuple(map(tuple, self._lanes(self._order)))

    def fixes(self, g: int) -> bool:
        """Whether R + g = R for the packed word g; translation is a bijection, so R + g inside R suffices."""
        members = self.words
        return all(map(members.__contains__, self._translates(members, g)))

    @cached_property
    def period_words(self) -> set[int]:
        """A subgroup H of the period group G = {t : R + t = R mod m}, as one set of packed words.

        G is Forney's translation group of a geometrically uniform code.  H is
        the group generated by the ``candidates``, words g that pass ``fixes``
        one by one.  No candidate is trusted unchecked (a scaled codeword need
        not fix R, because integer addition carries into the next level), and
        sums of translations that fix R fix R, so H lies in G; a set where no
        candidate passes gets H = {0}.  Each check looks up |R| residues, so
        the checks are guarded as len(candidates) * |R| lookups.  H is kept
        once, as this set; callers only read it.
        """
        check_work("period_group", len(self.candidates) * len(self), MAX_PERIOD_WORK)
        members = {0}
        for g in self.candidates:
            if g in members or not self.fixes(g):
                continue
            block = members  # the cosets H + k*g are new until k*g falls in H
            while True:
                block = list(self._translates(block, g))
                if block[0] in members:
                    break
                members.update(block)
        return members

    def _subgroup(self, even: bool) -> Collection[int]:
        """H = ``period_words``, or when ``even`` H ∩ 2Z^n: the periods whose lanes all have low bit 0."""
        return [h for h in self.period_words if not h & self._ones] if even else self.period_words

    def coset_count(self, even: bool = False) -> int:
        """|R/H| = |R| / |H|, or the same for H ∩ 2Z^n when ``even``, read before any walk.

        R is a union of cosets of each, since R + h = R for every period h.
        """
        return len(self) // len(self._subgroup(even))

    def _coset_walk(self, even: bool = False) -> Iterator[tuple[int, int]]:
        """Yield (w, the first word of w's coset of ``_subgroup(even)``) for every word w in increasing order."""
        group = self._subgroup(even)
        first: dict[int, int] = {}  # coset members not yet reached -> their first word
        for w in self._order:
            if w not in first:
                first.update(zip(self._translates(group, w), repeat(w)))
            yield w, first.pop(w)

    def per_coset(self, fn: Callable[[Point], T], even: bool = False) -> Iterator[tuple[Point, T]]:
        """Yield (x, fn(r)) for every residue x in sorted order, r the first residue of x's coset.

        The cosets are ``_coset_walk``'s: of H, or of H ∩ 2Z^n when ``even``.
        This is sound for any question whose answer is the same at x and
        x + h for h in the group: for h in H, R + h = R and R - h = R, so
        translating a point by h permutes the residues it is measured
        against.  A question that also reads x mod 2 is constant only on
        H ∩ 2Z^n, and two residues share a coset of H ∩ 2Z^n exactly when
        they share a coset of H and agree mod 2.  fn runs once per coset,
        when its first residue is reached; a caller that stops early leaves
        the later cosets uncalled, and the first x with a given answer is the
        one a per-residue loop would find.  The points are read from the
        iteration of the set, in step with the walk over the sorted words.
        """
        answers: dict[int, T] = {}  # first word of each coset reached -> its answer
        for (w, first), x in zip(self._coset_walk(even), self):
            if w == first:
                answers[w] = fn(x)
            yield x, answers[first]

    @cached_property
    def _representatives(self) -> list[int]:
        """The first word of each coset of H, in increasing order."""
        return [w for w, first in self._coset_walk() if w == first]

    def first_pair_outside(self) -> tuple[Point, Point] | None:
        """The lexicographically first residue pair whose sum is not a residue.

        Whether s + t is a residue is constant on the cosets of s and of t,
        so the first failing pair is a pair of coset representatives.  The
        |R/H|^2 pair checks are guarded before the walk that finds them.
        """
        check_work("first_pair_outside", self.coset_count() ** 2, MAX_WITNESS_WORK)
        reps, members = self._representatives, self.words
        for s in reps:
            outside = map(not_, map(members.__contains__, self._translates(reps, s)))
            t = next(compress(reps, outside), None)
            if t is not None:
                return self.point(s), self.point(t)
        return None

    def maps_onto(self, x: Sequence[int], perm: Sequence[int], signs: Sequence[int]) -> bool:
        """Whether p -> signs * (p - x)[perm] mod m maps the residue set onto itself.

        The map is a bijection of (Z/m)^n, so the image of the residues has
        |R| points and equals the set exactly when every image, packed, is
        in ``words``.  The residues are read one point at a time from the
        iteration of the set, and the scan stops at the first image that is
        not a residue.
        """
        m, members = self.modulus, self.words
        lanes = [(s, k, x[k], shift) for s, k, shift in zip(signs, perm, self._shifts)]
        for p in self:
            image = 0
            for s, k, xk, shift in lanes:
                image |= ((s * (p[k] - xk)) % m) << shift
            if image not in members:
                return False
        return True

    @cached_property
    def _folding(self) -> tuple[Callable[[int], int], list[dict], list[int], threading.Lock]:
        # the fold table; per lane, center value -> folded column (False once
        # asked); the column entries left and the lock that spends them.  No
        # reference back to the set, so it still dies with the residues cache
        return _FoldTable(self.modulus).__getitem__, [{} for _ in self._shifts], [COLUMN_STORE_ENTRIES], threading.Lock()

    def key_counts(self, c: Sequence[int]) -> KeyCounts:
        """The folded keys of every residue against the center c, with multiplicities.

        A residue s's key is the sorted distances of s - c to the nearest
        multiple of m, read a column at a time: lane j's folded column against
        v = c_j mod m is fold(s_j - v) over the sorted residues, each
        difference strictly between -m and m, from a fold table filled on
        demand, so nothing is sized by the modulus 2^L.  The second ask of
        (j, v) stores its column on the set for every later center, while the
        stored entries fit in COLUMN_STORE_ENTRIES; a one-center call or the
        scan of one coset asks each (j, v) once and stores none.
        """
        if len(c) != self.n:
            raise ValueError(f"center has length {len(c)}, expected {self.n}")
        m, size = self.modulus, len(self)
        fold, stores, room, lock = self._folding
        columns = []
        for column, x, store in zip(self._columns, c, stores):
            v = x % m
            stored = store.get(v)
            if stored:
                columns.append(stored)
                continue
            folded = map(fold, map(sub, column, repeat(v)))
            if stored is None:
                store[v] = False
            elif room[0] >= size:
                with lock:
                    if room[0] >= size and not store[v]:
                        room[0] -= size
                        folded = store[v] = tuple(folded)
            columns.append(folded)
        return frozenset(Counter(map(tuple, map(sorted, zip(*columns)))).items())

    def nearest_shell(self, keys: KeyCounts) -> Shell:
        """The least positive squared distance around a center with these keys, and its point count.

        A coset with nonzero folded key k is nearest the center at sum(k_j^2),
        where each coordinate with k_j = m/2 has two nearest values (+/- m/2) and
        every other coordinate one.  The center's own coset, key 0, is m * Z^n,
        with 2n points at m^2.
        """
        m = self.modulus
        half, best, count = m // 2, m * m, 0
        for key, mult in keys:
            if key[-1]:  # keys are sorted, so only the zero key ends in 0
                d2, points = sum(map(mul, key, key)), mult << key.count(half)
            else:
                d2, points = m * m, 2 * len(key) * mult
            if d2 < best:
                best, count = d2, points
            elif d2 == best:
                count += points
        return best, count

    @cached_property
    def _class_scan(self) -> tuple[list, set[KeyCounts], Iterator[Point], threading.Lock]:
        # (representative, keys, nearest shell) of the classes found so far,
        # their key multisets, coset representatives not yet read, unpacked as
        # they are read
        return [], set(), zip(*self._lanes(self._representatives)), threading.Lock()

    def class_shells(self) -> Iterator[tuple[Point, KeyCounts, Shell]]:
        """The first residue of each spectrum class, its key multiset and its nearest shell, in order.

        A class is the set of residues whose folded key multisets agree.  The
        multiset is the same on a coset of H, so a class is a union of cosets,
        its first residue is a coset representative, and only the
        representatives are read.  The scan is shared by every caller on this
        residue set and advances only as far as some caller has read, so a
        caller that stops early leaves the rest unread; each class's
        ``nearest_shell`` is computed once, when the scan finds the class.
        Each call checks the scan's |R/H| * |R| folded keys against its guard
        before the first class is yielded, then the keys it keeps: at most
        |R/H| classes of min(|R|, C(n + m/2, n)) keys (n-tuples over [0, m/2]).
        """
        n, size, classes = self.n, len(self), self.coset_count()
        check_work("spectrum class scan", classes * size, MAX_SPECTRUM_WORK)
        check_work("spectrum class keys", classes * min(size, comb(n + self.modulus // 2, n)), MAX_CLASS_KEYS)
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
                        found.append((c, sig, self.nearest_shell(sig)))
            yield found[i]
            i += 1


@lru_cache(maxsize=32)
def residues(chain: CodeChain) -> ResidueSet:
    """Enumerate all digit combinations; exactly one residue per combination.

    Level i's digit is bit i of every lane, so a residue's word is the OR of
    its levels' codewords, each packed and shifted by its level.  The period
    candidates are the basis words of every level, packed and shifted alike.
    """
    count = chain.residue_count()
    check_work("residues", count, MAX_RESIDUE_COUNT)
    lanes, acc, candidates = Lanes(chain.n, chain.modulus), [0], []
    for level, code in enumerate(chain.codes):
        scaled = [lanes.pack(w) << level for w in code.words]
        acc = [a | b for a in acc for b in scaled]
        candidates += [lanes.pack(w) << level for w in code.basis]
    words = frozenset(acc)
    if len(words) != count:
        # the digit map is injective into [0, 2^L)^n; a clash means corrupted input
        raise RuntimeError("residue enumeration lost points")
    return ResidueSet(chain.n, chain.modulus, words, candidates)


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


def points_in_box(chain: CodeChain, lo: Sequence[int], hi: Sequence[int]) -> list[Point]:
    """All constellation members in the closed box [lo, hi], sorted lexicographically.

    Each residue has at most (hi_j - lo_j) // m + 1 translates in coordinate
    j, so |R| times their product bounds the points; it is guarded before the
    first residue is read.
    """
    n = chain.n
    if len(lo) != n or len(hi) != n:
        raise ValueError("box corners must match the chain length")
    if any(a > b for a, b in zip(lo, hi)):
        raise ValueError(f"degenerate box: {tuple(lo)} > {tuple(hi)}")
    m = chain.modulus
    bound = chain.residue_count() * prod((b - a) // m + 1 for a, b in zip(lo, hi))
    check_work("points_in_box", bound, MAX_BOX_POINTS)
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
