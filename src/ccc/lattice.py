"""Exact integer-lattice algebra for periodic constellations.

Everything runs on arbitrary-precision integers: Hermite Normal Form gives a
canonical basis, so lattice equality and membership are exact set questions.
All lattices here contain m * Z^n, m = 2^L, which keeps every computation
finite: each is the preimage in Z^n of a subgroup of (Z/m)^n.  One
elimination mod 2^L on packed words (``Lanes.howell_rows``), which leaves at
most n pivot rows, builds every lattice here from its generators: the residue
words for the smallest lattice holding a constellation, the scaled
nested-basis rows for Construction D.  It also gives the rows of a residue
set's period subgroup H, from the candidates that pass ``fixes``, which the
direct closure test reads.  The Construction-D criterion compares the scaled
nested-basis combinations, summed by ``Lanes``, with the residue words; no
lane is read here.
"""

from __future__ import annotations

from math import prod
from typing import Collection, Iterable, NamedTuple, Sequence

from .constellation import CodeChain, Lanes, Point, check_work, residues
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


def _generated_lattice(lanes: Lanes, words: Collection[int]) -> IntegerLattice:
    """The lattice the packed words and the period translates m * e_j generate, m = 2^L, in Hermite Normal Form.

    It is the preimage in Z^n of the subgroup <G> the words generate in
    (Z/m)^n.  ``lanes.howell_rows`` leaves one row per lane j: its pivot
    row, unpacked, or m * e_j where lane j has no pivot.  The n rows are
    upper triangular and lie in the lattice, and their diagonal product is
    its index m^n / |<G>|, so they are a basis; reducing the entries above
    each pivot gives the Hermite Normal Form.
    """
    n, m, rows = lanes.n, lanes.modulus, lanes.howell_rows(words)
    return _reduced_above_pivots(
        [[m * (k == j) for k in range(n)] if row is None else list(lanes.point(row)) for j, row in enumerate(rows)]
    )


def smallest_lattice(chain: CodeChain) -> IntegerLattice:
    """The smallest lattice containing the constellation.

    It is generated by the residues together with the period translates
    m * e_j, m = 2^L: every residue word is a generator of the elimination.
    """
    rs = residues(chain)
    return _generated_lattice(rs, rs.words)


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


def _scaled_rows(chain: CodeChain) -> tuple[Lanes, list[int]]:
    """The chain's ``Lanes`` and its k_1+...+k_L nested-basis rows, each row b of level i packed as 2^i * b."""
    nb, lanes = select_nested_basis(chain), Lanes(chain.n, chain.modulus)
    return lanes, [lanes.pack([b * 2**level for b in row]) for level, k in enumerate(nb.dims) for row in nb.rows[:k]]


def combination_residues(chain: CodeChain) -> frozenset[int]:
    """All 0/1 combinations of the nested basis rows, scaled level by level, as packed residue words.

    These are the representatives of the lattice the nested basis generates,
    reduced modulo the period: 2^(k_1+...+k_L) of them.  Each word is a
    lane-wise sum of scaled rows, packed by ``Lanes`` as ``residues`` packs
    its words, so the set compares with ``ResidueSet.words``.  The
    combinations are guarded before the first.
    """
    lanes, rows = _scaled_rows(chain)
    check_work("combination_residues", 1 << len(rows), MAX_COMBINATIONS)
    add, acc = lanes.add, [0]
    for g in rows:
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
    lat = _generated_lattice(*_scaled_rows(chain))
    if lat.points_per_period(chain.modulus) != chain.residue_count():
        raise RuntimeError("combination lattice has the wrong point count per period")
    return lat


def is_lattice_direct(chain: CodeChain, find_witness: bool = True) -> tuple[bool, tuple[Point, Point] | None]:
    """Decide whether the constellation is closed under addition.

    The residue set R is closed under addition mod 2^L exactly when the
    infinite point set is a lattice.  The verdict is whether 0 is the only
    coset representative of the period subgroup H in R (R = 0 + H):

    * If so, R is the one coset 0 + H = H, a group.
    * If R is a group, then 0 is a residue, so every code holds the zero
      word.  Each candidate 2^i * b (b in the echelon basis of C_(i+1)) is
      then a residue, and it fixes R.
    * So H contains the group the candidates generate.  Reduced mod
      2^(i+1), the members of that group that are divisible by 2^i give
      every word of C_(i+1).  Hence the group has at least
      |C_1|...|C_L| = |R| elements.  H fixes R and 0 is a residue, so H
      lies in R, and H = R: one coset, whose least word is 0.

    Only when the verdict is False and a witness is requested are residue
    pairs scanned, one pair of coset representatives of H at a time, in
    lexicographic order, for the first pair whose sum leaves R.  The scan's
    |R/H|^2 pair checks are guarded before the first one.
    """
    rs = residues(chain)
    closed = rs._representatives == [0]
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
