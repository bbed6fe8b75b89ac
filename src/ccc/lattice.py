"""Exact integer-lattice algebra for periodic constellations.

Everything runs on arbitrary-precision integers: Hermite Normal Form gives a
canonical basis, so lattice equality and membership are exact set questions.
All lattices here contain m * Z^n, m = 2^L, which keeps every computation
finite: each is the preimage in Z^n of a subgroup of (Z/m)^n.  One
elimination mod 2^L on packed words (``howell_rows``), which leaves at most
n pivot rows, builds every lattice here from its generators: the residue
words for the smallest lattice holding a constellation, the scaled
nested-basis rows for Construction D.  The Construction-D criterion compares
packed words: the scaled nested-basis combinations, summed lane-wise,
against the residue words.
"""

from __future__ import annotations

from math import prod
from typing import Callable, Collection, Iterable, NamedTuple, Sequence

from .constellation import CodeChain, Point, check_work, pack_residue, residues
from .f2 import Record, SpanTracker, Word, schur_closed_chain, unpack


class IntegerLattice(Record):
    """Full-rank sublattice of Z^n with a row-style Hermite Normal Form basis.

    The basis is upper triangular with positive diagonal; entries above each
    pivot are reduced into [0, pivot).  This form is unique per lattice, so
    equality of the fields (n, basis, determinant), which are read-only, is
    lattice equality.
    """

    _fields = ("n", "basis", "determinant")
    n: int
    basis: tuple[tuple[int, ...], ...]
    determinant: int

    def __init__(self, n: int, basis: Iterable[Iterable[int]], determinant: int):
        basis = tuple(map(tuple, basis))
        if len(basis) != n:
            raise ValueError("basis must have n rows")
        for i, row in enumerate(basis):
            if len(row) != n:
                raise ValueError("basis rows must have length n")
            if row[i] <= 0 or any(row[j] != 0 for j in range(i)):
                raise ValueError("basis is not in row Hermite Normal Form")
        if determinant != prod(row[i] for i, row in enumerate(basis)):
            raise ValueError("determinant does not match the basis diagonal")
        self._store(n, basis, determinant)

    def contains(self, p: Sequence[int]) -> bool:
        """Exact membership by forward substitution along the pivots."""
        if len(p) != self.n:
            raise ValueError(f"point has length {len(p)}, expected {self.n}")
        v = list(p)
        for i in range(self.n):
            pivot = self.basis[i][i]
            q, r = divmod(v[i], pivot)
            if r:
                return False
            if q:
                for j in range(i, self.n):
                    v[j] -= q * self.basis[i][j]
        return True

    def points_per_period(self, modulus: int) -> int:
        """Number of lattice points in one period cube of the given modulus."""
        vol = modulus ** self.n
        if vol % self.determinant:
            raise ValueError(f"lattice does not tile a period of modulus {modulus}")
        return vol // self.determinant


def _reduced_above_pivots(basis: list[list[int]]) -> IntegerLattice:
    """The lattice of an upper-triangular basis with positive diagonal, in Hermite Normal Form.

    Entries above each pivot are reduced into [0, pivot), in place, sweeping
    pivots left to right so a reduction never disturbs an already-normalized
    column.
    """
    n = len(basis)
    for i in range(n):
        p = basis[i][i]
        for j in range(i):
            q = basis[j][i] // p
            if q:
                for t in range(i, n):
                    basis[j][t] -= q * basis[i][t]
    det = prod(basis[i][i] for i in range(n))
    return IntegerLattice(n=n, basis=basis, determinant=det)


MAX_ELIMINATION_WORK = 10**8  # row operations of the elimination mod 2^L: rows times lanes


def _lane_sum(n: int, m: int) -> Callable[[int, int], int]:
    """x + y lane-wise mod m = 2^L, for words of n L-bit lanes: the sum the ``constellation`` docstring derives."""
    L = m.bit_length() - 1
    hi = sum(1 << (L * j + L - 1) for j in range(n))  # the top bit of every lane
    lo = ((1 << (L * n)) - 1) ^ hi  # the other bits; 0 when L = 1
    return lambda x, y: ((x & lo) + (y & lo)) ^ ((x ^ y) & hi)


def howell_rows(n: int, m: int, words: Collection[int]) -> list[Point | None]:
    """An echelon basis, one row per lane, of the subgroup <G> the words generate in (Z/m)^n.

    The words are packed as ``residues`` packs its words (coordinate j mod m
    in lane j), and may be any generators: residue words, scaled basis rows,
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

    Scalar multiples are taken by double-and-add with the lane-wise sum,
    O(L) sums each, and kept per multiplier met in a lane, so nothing is
    sized by 2^L.  The len(words) * n row operations are guarded before the
    first one.
    """
    check_work("howell_rows", len(words) * n, MAX_ELIMINATION_WORK)
    L, mask = m.bit_length() - 1, m - 1
    add = _lane_sum(n, m)

    def times(v: int, k: int) -> int:
        acc = 0
        while k:
            if k & 1:
                acc = add(acc, v)
            v, k = add(v, v), k >> 1
        return acc

    shifts = [L * (n - 1 - j) for j in range(n)]  # lane j's bit offset
    rows, pivots = frozenset(words) - {0}, []
    for shift in shifts:
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
    return [None if p is None else tuple(p >> s & mask for s in shifts) for p in pivots]


def _generated_lattice(n: int, m: int, words: Collection[int]) -> IntegerLattice:
    """The lattice the packed words and the period translates m * e_j generate, m = 2^L, in Hermite Normal Form.

    It is the preimage in Z^n of the subgroup <G> the words generate in
    (Z/m)^n.  ``howell_rows`` leaves one row per lane j: its pivot row, or
    m * e_j where lane j has no pivot.  The n rows are upper triangular and
    lie in the lattice, and their diagonal product is its index
    m^n / |<G>|, so they are a basis; reducing the entries above each pivot
    gives the Hermite Normal Form.
    """
    rows = howell_rows(n, m, words)
    return _reduced_above_pivots(
        [[m if k == j else 0 for k in range(n)] if row is None else list(row) for j, row in enumerate(rows)]
    )


def smallest_lattice(chain: CodeChain) -> IntegerLattice:
    """The smallest lattice containing the constellation.

    It is generated by the residues together with the period translates
    m * e_j, m = 2^L: every residue word is a generator of the elimination.
    """
    return _generated_lattice(chain.n, chain.modulus, residues(chain).words)


class NestedBasis(NamedTuple):
    """An F2^n basis whose prefixes span the chain's codes level by level."""

    rows: tuple[Word, ...]
    dims: tuple[int, ...]


def select_nested_basis(chain: CodeChain) -> NestedBasis:
    """Greedy nested basis: extend through each level, then complete to F2^n.

    Candidate rows are scanned in lexicographic word order at every stage, so
    the result is canonical for a given chain.
    """
    _require_nested_linear(chain)
    n = chain.n
    tracker = SpanTracker(n)
    rows: list[Word] = []
    dims: list[int] = []
    for code in chain.codes:
        # A word the code's own scan skips lies in the span of earlier words,
        # which the tracker already spans, so the code's basis suffices.
        k = len(code.basis)
        for w in code.basis:
            if tracker.rank == k:
                break
            if tracker.add(w):
                rows.append(w)
        if tracker.rank != k:
            raise RuntimeError("nested basis extension failed")  # impossible for nested linear chains
        dims.append(k)
    # Completing by a scan of every word v in increasing order only ever adds
    # powers of two: for v = 2^a + r with 0 < r < 2^a, both 2^a and r are
    # smaller and already in the span.  The unit words in that order suffice.
    for k in range(n):
        w = unpack(1 << k, n)
        if tracker.add(w):
            rows.append(w)
    return NestedBasis(rows=tuple(rows), dims=tuple(dims))


MAX_COMBINATIONS = 1 << 22


def combination_residues(chain: CodeChain) -> frozenset[int]:
    """All 0/1 combinations of the nested basis rows, scaled level by level, as packed residue words.

    These are the representatives of the lattice the nested basis generates,
    reduced modulo the period: 2^(k_1+...+k_L) of them.  Each word is a
    lane-wise sum of scaled rows, packed as ``residues`` packs its words
    (coordinate j mod 2^L in lane j), so the set compares with
    ``ResidueSet.words``.  The combinations are guarded before the first.
    """
    nb = select_nested_basis(chain)
    check_work("combination_residues", 1 << sum(nb.dims), MAX_COMBINATIONS)
    m = chain.modulus
    add = _lane_sum(chain.n, m)
    acc = [0]
    for level, k in enumerate(nb.dims):
        for row in nb.rows[:k]:
            g = pack_residue(row, m) << level
            acc += [add(a, g) for a in acc]
    out = frozenset(acc)
    if len(out) != chain.residue_count():
        raise RuntimeError("basis combinations collided modulo the period")
    return out


def construction_d(chain: CodeChain) -> IntegerLattice:
    """The lattice generated by the scaled nested-basis combinations.

    Every combination is a sum of scaled rows, so the scaled rows and the
    period translates generate it: the k_1+...+k_L rows, packed, are the
    generators of the elimination ``smallest_lattice`` runs.  The point count
    per period must come out as 2^(k_1+...+k_L), the residue count
    |C_1|...|C_L|; anything else would mean the combination set is not
    itself a lattice, which the nested linear hypothesis rules out.
    """
    nb = select_nested_basis(chain)
    m = chain.modulus
    scaled = [pack_residue(row, m) << level for level, k in enumerate(nb.dims) for row in nb.rows[:k]]
    lat = _generated_lattice(chain.n, m, scaled)
    if lat.points_per_period(m) != chain.residue_count():
        raise RuntimeError("combination lattice has the wrong point count per period")
    return lat


def is_lattice_direct(chain: CodeChain, find_witness: bool = True) -> tuple[bool, tuple[Point, Point] | None]:
    """Decide whether the constellation is closed under addition.

    The residue set R is closed under addition mod 2^L exactly when the
    infinite point set is a lattice.  The verdict is whether the period
    subgroup H equals R:

    * If H = R, then R is a group.
    * If R is a group, then 0 is a residue, so every code holds the zero
      word.  Each candidate 2^i * b (b in the echelon basis of C_(i+1)) is
      then a residue, and it fixes R.
    * So H contains the group the candidates generate.  Reduced mod
      2^(i+1), the members of that group that are divisible by 2^i give
      every word of C_(i+1).  Hence the group has at least
      |C_1|...|C_L| = |R| elements.  H fixes R and 0 is a residue, so H
      lies in R, and H = R.

    The sets of packed words are compared, not their sizes: R = {(1,)} and
    H = {(0,)} have one element each.

    Only when the verdict is False and a witness is requested are residue
    pairs scanned, one pair of coset representatives of H at a time, in
    lexicographic order, for the first pair whose sum leaves R.  The scan's
    |R/H|^2 pair checks are guarded before the first one.
    """
    rs = residues(chain)
    closed = rs.period_words == rs.words
    if closed or not find_witness:
        return closed, None
    witness = rs.first_pair_outside()
    if witness is None:
        raise RuntimeError("closure failed but no witness pair exists")
    return False, witness


class EquivalenceReport(NamedTuple):
    """Independent verdicts of the four mutually equivalent lattice criteria.

    For a nested linear chain the four booleans must agree; a disagreement is
    an internal consistency failure and is surfaced, never reconciled.
    """

    is_lattice: bool
    equals_smallest_lattice: bool
    schur_closed: bool
    equals_construction_d: bool

    def flags(self) -> tuple[bool, bool, bool, bool]:
        return (
            self.is_lattice,
            self.equals_smallest_lattice,
            self.schur_closed,
            self.equals_construction_d,
        )

    @property
    def consistent(self) -> bool:
        return len(set(self.flags())) == 1

    @property
    def verdict(self) -> bool:
        if not self.consistent:
            raise RuntimeError(f"equivalence criteria disagree: {self.flags()}")
        return self.is_lattice


def equivalence_report(chain: CodeChain) -> EquivalenceReport:
    """Evaluate all four lattice criteria independently for a linear chain.

    Nesting is not required up front: a non-nested chain fails the Schur
    criterion on a diagonal pair (w * w == w), has no nested basis, and is
    never a lattice, so the four verdicts still agree.
    """
    if not chain.all_linear():
        raise ValueError("the equivalence report requires every code to be linear")
    rs = residues(chain)
    m = chain.modulus
    direct, _ = is_lattice_direct(chain, find_witness=False)
    lam = smallest_lattice(chain)
    equals_smallest = lam.points_per_period(m) == len(rs)
    closed, _ = schur_closed_chain(chain)
    equals_d = chain.all_nested() and combination_residues(chain) == rs.words
    return EquivalenceReport(
        is_lattice=direct,
        equals_smallest_lattice=equals_smallest,
        schur_closed=closed,
        equals_construction_d=equals_d,
    )


def _require_nested_linear(chain: CodeChain) -> None:
    if not chain.all_linear():
        raise ValueError("this operation requires every code in the chain to be linear")
    if not chain.all_nested():
        raise ValueError("this operation requires the chain to be nested")
