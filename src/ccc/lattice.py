"""Exact integer-lattice algebra for periodic constellations.

Everything runs on arbitrary-precision integers: Hermite Normal Form gives a
canonical basis, so lattice equality and membership are exact set questions.
All lattices here contain 2^L * Z^n, which keeps every computation finite.
"""

from __future__ import annotations

from math import prod
from typing import Iterable, NamedTuple, Sequence

from .constellation import CodeChain, Point, check_work, residues
from .f2 import SpanTracker, Word, schur_closed_chain, unpack


class IntegerLattice:
    """Full-rank sublattice of Z^n with a row-style Hermite Normal Form basis.

    The basis is upper triangular with positive diagonal; entries above each
    pivot are reduced into [0, pivot).  This form is unique per lattice, so
    equality of the fields (n, basis, determinant), which are read-only, is
    lattice equality.
    """

    n: int
    basis: tuple[tuple[int, ...], ...]
    determinant: int

    def __init__(self, n: int, basis: tuple[tuple[int, ...], ...], determinant: int):
        for i, row in enumerate(basis):
            if len(row) != n:
                raise ValueError("basis rows must have length n")
            if row[i] <= 0 or any(row[j] != 0 for j in range(i)):
                raise ValueError("basis is not in row Hermite Normal Form")
        if determinant != prod(row[i] for i, row in enumerate(basis)):
            raise ValueError("determinant does not match the basis diagonal")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "determinant", determinant)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"IntegerLattice.{name} is read-only")

    __delattr__ = __setattr__

    def _key(self) -> tuple:
        return self.n, self.basis, self.determinant

    def __eq__(self, other):
        if type(other) is not IntegerLattice:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"IntegerLattice(n={self.n!r}, basis={self.basis!r}, determinant={self.determinant!r})"

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


def hnf(generators: Iterable[Sequence[int]]) -> IntegerLattice:
    """Canonical HNF basis of the integer span of the generators.

    Column-by-column Euclidean elimination: within the active column the row
    of least nonzero magnitude reduces the others until one survivor remains,
    which becomes the pivot row.  The generators must span a full-rank
    sublattice of Z^n.
    """
    rows = [list(map(int, g)) for g in generators]
    if not rows:
        raise ValueError("at least one generator is required")
    n = len(rows[0])
    for r in rows:
        if len(r) != n:
            raise ValueError("generators must share one length")
    work = [r for r in rows if any(r)]
    basis: list[list[int]] = []
    for col in range(n):
        while True:
            nz = [r for r in work if r[col] != 0]
            if len(nz) <= 1:
                break
            p = min(nz, key=lambda r: abs(r[col]))
            for r in nz:
                if r is p:
                    continue
                q = r[col] // p[col]
                if q:
                    for j in range(n):
                        r[j] -= q * p[j]
        pivot_idx = next((i for i, r in enumerate(work) if r[col] != 0), None)
        if pivot_idx is None:
            raise ValueError(f"generators are rank deficient (no pivot in column {col})")
        pivot = work.pop(pivot_idx)
        if pivot[col] < 0:
            pivot = [-x for x in pivot]
        basis.append(pivot)
        work = [r for r in work if any(r)]
    # Reduce entries above each pivot into [0, pivot), sweeping pivots left to
    # right so a reduction never disturbs an already-normalized column.
    for i in range(n):
        p = basis[i][i]
        for j in range(i):
            q = basis[j][i] // p
            if q:
                for t in range(i, n):
                    basis[j][t] -= q * basis[i][t]
    det = prod(basis[i][i] for i in range(n))
    return IntegerLattice(n=n, basis=tuple(tuple(r) for r in basis), determinant=det)


def smallest_lattice(chain: CodeChain) -> IntegerLattice:
    """The smallest lattice containing the constellation.

    Generated by the residues together with the period translates 2^L * e_j,
    so it always contains every constellation point.
    """
    rs = residues(chain)
    m = chain.modulus
    gens: list[Sequence[int]] = list(rs.sorted)
    gens.extend(_unit_scaled(chain.n, m))
    return hnf(gens)


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


def combination_points(chain: CodeChain) -> list[Point]:
    """All 0/1 combinations of the nested basis rows, scaled level by level.

    These are the representatives (before adding period translates) of the
    lattice the nested basis generates; there are 2^(k_1+...+k_L) of them.
    """
    nb = select_nested_basis(chain)
    n = chain.n
    check_work("combination_points", 1 << sum(nb.dims), MAX_COMBINATIONS)
    acc: list[Point] = [(0,) * n]
    for level, k in enumerate(nb.dims):
        scale = 1 << level
        sums: list[Point] = [(0,) * n]
        for row in nb.rows[:k]:
            scaled = tuple(b * scale for b in row)
            sums += [tuple(a + b for a, b in zip(s, scaled)) for s in sums]
        acc = [tuple(a + b for a, b in zip(p, s)) for p in acc for s in sums]
    return acc


def combination_residues(chain: CodeChain) -> frozenset[Point]:
    """The basis-combination points reduced modulo the period."""
    m = chain.modulus
    out = frozenset(tuple(x % m for x in p) for p in combination_points(chain))
    if len(out) != chain.residue_count():
        raise RuntimeError("basis combinations collided modulo the period")
    return out


def construction_d(chain: CodeChain) -> IntegerLattice:
    """The lattice generated by the scaled nested-basis combinations.

    The point count per period must come out as 2^(k_1+...+k_L), the
    residue count |C_1|...|C_L|; anything else would mean the combination set
    is not itself a lattice, which the nested linear hypothesis rules out.
    """
    pts = combination_points(chain)
    m = chain.modulus
    gens: list[Sequence[int]] = sorted(set(pts))
    gens.extend(_unit_scaled(chain.n, m))
    lat = hnf(gens)
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
    equals_d = chain.all_nested() and combination_residues(chain) == rs.residues
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


def _unit_scaled(n: int, m: int) -> list[Point]:
    return [tuple(m if j == i else 0 for j in range(n)) for i in range(n)]
