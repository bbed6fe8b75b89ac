"""Shared fixtures, random chain generators, and independent brute-force oracles."""

from __future__ import annotations

import math
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations, product
from math import isqrt
from typing import Iterable, Iterator, Sequence

import numpy as np
import pytest
from hypothesis import strategies as st

from ccc.constellation import CodeChain, Point, ResidueSet, points_in_box, residues
from ccc.f2 import BinaryCode, SpanTracker, Word, code_from_words, span, unpack
from ccc.lattice import IntegerLattice, select_nested_basis
from ccc.presets import example1, example3, example5
from ccc.spectrum import EdsWitness, _coset_profile, spectrum_at
from ccc.uniformity import (
    GuCertificate,
    GuSearchResult,
    GuTwoLevelResult,
    IsometryCandidate,
    default_eds_radius,
    reflection_for,
)


@pytest.fixture
def e1() -> CodeChain:
    return example1()


@pytest.fixture
def e3() -> CodeChain:
    return example3()


@pytest.fixture
def e5() -> CodeChain:
    return example5()


def random_linear_code(rng: random.Random, n: int, kmax: int) -> BinaryCode:
    k = rng.randint(0, kmax)
    rows = [tuple(rng.randint(0, 1) for _ in range(n)) for _ in range(k)]
    return span(rows, n=n)


def random_l2_chain(rng: random.Random, nmax: int = 6) -> CodeChain:
    n = rng.randint(1, nmax)
    return CodeChain.of(
        random_linear_code(rng, n, min(3, n)),
        random_linear_code(rng, n, min(4, n)),
    )


def random_nested_chain(rng: random.Random, nmax: int = 4, levels: int = 3) -> CodeChain:
    """Nested by construction: each lower level spans a subset of the level above."""
    n = rng.randint(1, nmax)
    codes = [random_linear_code(rng, n, n)]
    for _ in range(levels - 1):
        words = sorted(codes[0].words)
        tracker = SpanTracker(n)  # independent words only: span() caps its generator count
        sample = rng.sample(words, rng.randint(0, len(words)))
        sub = span([w for w in sample if tracker.add(w)], n=n)
        codes.insert(0, sub)
    return CodeChain(codes=tuple(codes))


def random_member(rng: random.Random, chain: CodeChain, spread: int = 2) -> Point:
    s = rng.choice(tuple(residues(chain)))
    m = chain.modulus
    return tuple(x + m * rng.randint(-spread, spread) for x in s)


def brute_spectrum(chain: CodeChain, c: Point, r2max: int) -> dict[int, int]:
    """Independent oracle: enumerate the bounding box and filter by the ball."""
    r = isqrt(r2max)
    lo = tuple(x - r for x in c)
    hi = tuple(x + r for x in c)
    counts: Counter[int] = Counter()
    for p in points_in_box(chain, lo, hi):
        d2 = sum((a - b) ** 2 for a, b in zip(p, c))
        if 0 < d2 <= r2max:
            counts[d2] += 1
    return dict(counts)


def subgroup_closure(points: set[Point], m: int) -> set[Point]:
    """Independent oracle: BFS closure of a generating set under addition mod m."""
    gens = list(points)
    closure = set(gens)
    frontier = set(gens)
    while frontier:
        new = set()
        for a in frontier:
            for g in gens:
                s = tuple((x + y) % m for x, y in zip(a, g))
                if s not in closure:
                    new.add(s)
        closure |= new
        frontier = new
    return closure


def all_subspaces(n: int) -> list[BinaryCode]:
    """Every F2-subspace of F2^n, by deduplicating spans of vector subsets."""
    vectors = [unpack(v, n) for v in range(1, 1 << n)]
    seen: dict[frozenset[Word], BinaryCode] = {}
    for r in range(n + 1):
        for combo in combinations(vectors, r):
            code = span(combo, n=n)
            seen.setdefault(code.words, code)
    return list(seen.values())


@st.composite
def small_chains(draw, nmax: int = 4, lmax: int = 3) -> CodeChain:
    """Linear and non-linear chains with n <= nmax, 1..lmax levels and at most 4^L residues.

    Each level is either the span of one or two random words or an explicit
    set of up to three random words, which is usually not linear.
    """
    n = draw(st.integers(1, nmax))
    word = st.integers(0, (1 << n) - 1).map(lambda v: unpack(v, n))
    codes = []
    for _ in range(draw(st.integers(1, lmax))):
        if draw(st.booleans()):
            codes.append(span(draw(st.lists(word, min_size=1, max_size=2)), n=n))
        else:
            codes.append(code_from_words(draw(st.lists(word, min_size=1, max_size=3))))
    return CodeChain(codes=tuple(codes))


@st.composite
def deep_chains(draw, nmax: int = 3, lmax: int = 12) -> CodeChain:
    """Chains of up to lmax levels, each one or two random words: at most 2^L residues, modulus up to 2^lmax."""
    n = draw(st.integers(1, nmax))
    word = st.integers(0, (1 << n) - 1).map(lambda v: unpack(v, n))
    levels = draw(st.integers(1, lmax))
    return CodeChain(codes=tuple(code_from_words(draw(st.lists(word, min_size=1, max_size=2))) for _ in range(levels)))


@st.composite
def nested_chains(draw, nmax: int = 7, lmax: int = 3) -> CodeChain:
    """Nested linear chains: each level spans a prefix of one random generator list."""
    n = draw(st.integers(1, nmax))
    gens = draw(st.lists(st.integers(0, (1 << n) - 1).map(lambda v: unpack(v, n)), max_size=n))
    cuts = draw(st.lists(st.integers(0, len(gens)), min_size=1, max_size=lmax))
    return CodeChain(codes=tuple(span(gens[:k], n=n) for k in sorted(cuts)))


ORACLE_KEY_BUDGET = 1 << 14  # folded keys of a per-residue spectrum oracle: |R| keys at each of |R| centers


def check_oracle_budget(routine: str, chain: CodeChain) -> None:
    """Fail a per-residue spectrum oracle before it starts when |R|^2 keys exceed its budget.

    small_chains() draw at most 4^3 residues, 4,096 keys; a strategy that
    draws larger chains fails here at once instead of stalling the suite.
    """
    work = chain.residue_count() ** 2
    if work > ORACLE_KEY_BUDGET:
        pytest.fail(f"{routine}: {work} folded keys exceed the oracle budget of {ORACLE_KEY_BUDGET}")


def eds_oracle(chain: CodeChain, r2max: int) -> tuple[bool, EdsWitness | None]:
    """Slow path of eds_check: a full spectrum at every residue, in sorted order."""
    check_oracle_budget("eds_oracle", chain)
    order = tuple(residues(chain))
    tables = [spectrum_at(chain, c, r2max).counts for c in order]
    ref = tables[0]
    for c, t in zip(order[1:], tables[1:]):
        if t != ref:
            d2 = min(k for k in set(ref) | set(t) if ref.get(k, 0) != t.get(k, 0))
            return False, EdsWitness(order[0], c, d2, ref.get(d2, 0), t.get(d2, 0))
    if not ref:
        raise ValueError("r2max is below the minimum squared distance")
    return True, None


def kissing_oracle(chain: CodeChain) -> tuple[int, set[int]]:
    """Slow path of kissing_stats: a full spectrum at every residue."""
    check_oracle_budget("kissing_oracle", chain)
    m = chain.modulus
    tables = [spectrum_at(chain, c, m * m).counts for c in residues(chain)]
    d2min = min(min(t) for t in tables)
    return d2min, {t.get(d2min, 0) for t in tables}


def first_failing_pair(chain: CodeChain) -> tuple[Point, Point] | None:
    """Slow path of the closure witness: every residue pair, in lexicographic order.

    A closed set has no failing pair, and closure_oracle decides closure
    without the |R|^2 scan: each residue is a sum of scaled codewords, so
    R + c inside R for every scaled codeword c gives R + R inside R.
    """
    if closure_oracle(chain):
        return None
    members = residues_oracle(chain)
    order, m = sorted(members), chain.modulus
    for s in order:
        for t in order:
            if tuple((a + b) % m for a, b in zip(s, t)) not in members:
                return s, t
    return None


def closure_oracle(chain: CodeChain) -> bool:
    """Slow path of the closure verdict: translate R by every scaled codeword."""
    members = residues_oracle(chain)
    m = chain.modulus
    return all(
        tuple((a + (b << level)) % m for a, b in zip(s, w)) in members
        for level, code in enumerate(chain.codes)
        for w in code.sorted_words()
        for s in members
    )


def residues_oracle(chain: CodeChain) -> frozenset[Point]:
    """Slow path of the residue enumeration: every digit combination, summed one coordinate at a time."""
    return frozenset(
        tuple(sum(w[j] << level for level, w in enumerate(words)) for j in range(chain.n))
        for words in product(*(code.sorted_words() for code in chain.codes))
    )


def euclidean_hnf(generators: Iterable[Sequence[int]]) -> IntegerLattice:
    """Canonical HNF basis of the integer span of the generators, by Euclidean elimination over Z.

    Column by column, the row of least nonzero magnitude in the active column
    reduces the others until one survivor remains, which becomes the pivot
    row; then the entries above each pivot are reduced into [0, pivot).  The
    generators must span a full-rank sublattice of Z^n.  This shares nothing
    with the elimination mod 2^L the library runs, so it is the oracle for
    every lattice the library builds.
    """
    rows = [list(map(int, g)) for g in generators]
    if not rows:
        raise ValueError("at least one generator is required")
    n = len(rows[0])
    if any(len(r) != n for r in rows):
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
                if r is not p:
                    q = r[col] // p[col]
                    for j in range(n):
                        r[j] -= q * p[j]
        pivot = next((r for r in work if r[col] != 0), None)
        if pivot is None:
            raise ValueError(f"generators are rank deficient (no pivot in column {col})")
        work.remove(pivot)
        basis.append(pivot if pivot[col] > 0 else [-x for x in pivot])
        work = [r for r in work if any(r)]
    for i in range(n):
        for j in range(i):
            q = basis[j][i] // basis[i][i]
            basis[j] = [a - q * b for a, b in zip(basis[j], basis[i])]
    return IntegerLattice(n=n, basis=basis, determinant=math.prod(basis[i][i] for i in range(n)))


def period_translates(n: int, m: int) -> list[Point]:
    """The period translates m * e_j, j < n."""
    return [tuple(m if k == j else 0 for k in range(n)) for j in range(n)]


def smallest_lattice_oracle(chain: CodeChain) -> IntegerLattice:
    """Slow path of smallest_lattice: the Euclidean HNF over every residue and the period translates m * e_j."""
    return euclidean_hnf([*sorted(residues_oracle(chain)), *period_translates(chain.n, chain.modulus)])


def construction_d_oracle(chain: CodeChain) -> IntegerLattice:
    """Slow path of construction_d: the Euclidean HNF over the scaled nested-basis rows and the period translates."""
    nb = select_nested_basis(chain)
    scaled = [tuple(b << level for b in row) for level, k in enumerate(nb.dims) for row in nb.rows[:k]]
    return euclidean_hnf([*scaled, *period_translates(chain.n, chain.modulus)])


def combination_residues_oracle(chain: CodeChain) -> frozenset[Point]:
    """Slow path of combination_residues: every 0/1 combination of the scaled nested basis rows,
    summed as a point tuple, then reduced mod m."""
    nb = select_nested_basis(chain)
    m, n = chain.modulus, chain.n
    points: list[Point] = [(0,) * n]
    for level, k in enumerate(nb.dims):
        sums: list[Point] = [(0,) * n]
        for row in nb.rows[:k]:
            scaled = tuple(b << level for b in row)
            sums += [tuple(a + b for a, b in zip(s, scaled)) for s in sums]
        points = [tuple(a + b for a, b in zip(p, s)) for p in points for s in sums]
    return frozenset(tuple(x % m for x in p) for p in points)


def pack_point(m: int, p: Sequence[int]) -> int:
    """The point p mod m = 2^L as one word: coordinate j of n in the L-bit lane at bit offset L * (n - 1 - j)."""
    L = m.bit_length() - 1
    return sum((x % m) << (L * (len(p) - 1 - j)) for j, x in enumerate(p))


def unpack_point(n: int, m: int, w: int) -> Point:
    """The n coordinates of a word packed as pack_point packs it."""
    L = m.bit_length() - 1
    return tuple((w >> (L * (n - 1 - j))) & (m - 1) for j in range(n))


def packed_set(n: int, m: int, points: Iterable[Sequence[int]], candidates: Sequence[Point] = ()) -> ResidueSet:
    """A residue set built by hand from points, packed one word per point and per candidate."""
    return ResidueSet(n, m, frozenset(pack_point(m, p) for p in points), [pack_point(m, g) for g in candidates])


def period_points(rs: ResidueSet) -> frozenset[Point]:
    """The period subgroup ``rs.period_words``, unpacked to points."""
    return frozenset(unpack_point(rs.n, rs.modulus, h) for h in rs.period_words)


def fixes_oracle(rs: ResidueSet, g: Sequence[int]) -> bool:
    """Slow path of ResidueSet.fixes: R + g inside R, one coordinate at a time."""
    m, members = rs.modulus, frozenset(rs)
    return all(tuple((x + y) % m for x, y in zip(s, g)) in members for s in members)


def period_group_oracle(rs: ResidueSet) -> frozenset[Point]:
    """Slow path of ResidueSet.period_words: the candidates that pass fixes_oracle, closed on tuples."""
    m, zero = rs.modulus, (0,) * rs.n
    group, members = [zero], {zero}
    for g in (unpack_point(rs.n, m, w) for w in rs.candidates):
        if g in members or not fixes_oracle(rs, g):
            continue
        block = group
        while True:
            block = [tuple((a + b) % m for a, b in zip(p, g)) for p in block]
            if block[0] in members:
                break
            group += block
            members.update(block)
    return frozenset(members)


def coset_firsts_oracle(rs: ResidueSet, even: bool = False) -> dict[Point, Point]:
    """Slow path of the per-coset walk: each residue's first coset member, on tuples.

    The cosets are those of period_group_oracle, or of its even members when ``even``.
    """
    m = rs.modulus
    group = [h for h in period_group_oracle(rs) if not even or all(v % 2 == 0 for v in h)]
    first: dict[Point, Point] = {}
    for x in rs:
        if x not in first:
            for h in group:
                first[tuple((a + b) % m for a, b in zip(x, h))] = x
    return first


def first_pair_outside_oracle(rs: ResidueSet) -> tuple[Point, Point] | None:
    """Slow path of ResidueSet.first_pair_outside: coset-representative pairs, added on tuples."""
    m, firsts, members = rs.modulus, coset_firsts_oracle(rs), frozenset(rs)
    reps = [x for x in rs if firsts[x] == x]
    for s in reps:
        for t in reps:
            if tuple((a + b) % m for a, b in zip(s, t)) not in members:
                return s, t
    return None


def maps_onto_oracle(rs: ResidueSet, x: Sequence[int], perm: Sequence[int], signs: Sequence[int]) -> bool:
    """Slow path of ResidueSet.maps_onto: every image point built as a tuple and looked up among the points."""
    m, members = rs.modulus, frozenset(rs)
    return all(tuple((s * (p[k] - x[k])) % m for s, k in zip(signs, perm)) in members for p in members)


def folded_key_oracle(m: int, s: Sequence[int], c: Sequence[int]) -> tuple[int, ...]:
    """Slow path of a residue's folded key in ResidueSet.key_counts: two reductions mod m and a min per coordinate."""
    return tuple(sorted(min((a - b) % m, (b - a) % m) for a, b in zip(s, c)))


def stored_column_entries(rs: ResidueSet) -> int:
    """The folded-column entries ResidueSet.key_counts has stored on rs: |R| per stored column."""
    _, stores, _, _ = rs._folding
    return sum(len(column) for store in stores for column in store.values() if column)


def key_table_oracle(m: int, key: Sequence[int], r2max: int) -> tuple[tuple[int, int], ...]:
    """Slow path of spectrum._key_table: the n-fold convolution over a dense (r2max + 1)-entry list."""
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


def class_scan_oracle(chain: CodeChain) -> list[Point]:
    """Slow path of the class scan: the key multiset of every residue, in sorted order."""
    rs = residues(chain)
    m = chain.modulus
    seen: set[frozenset] = set()
    reps: list[Point] = []
    for c in rs:
        keys = Counter(folded_key_oracle(m, s, c) for s in rs)
        sig = frozenset(keys.items())
        if sig not in seen:
            seen.add(sig)
            reps.append(c)
    return reps


def gu_two_level_oracle(chain: CodeChain) -> GuTwoLevelResult:
    """Slow path of gu_check_two_level on a two-level linear chain: the
    reflection check at every residue."""
    rs = residues(chain)
    identity = tuple(range(chain.n))
    certs: list[GuCertificate] = []
    for x in rs:
        signs = reflection_for(chain, x).signs
        if not rs.maps_onto(x, identity, signs):
            return GuTwoLevelResult(uniform=False, certificates=tuple(certs), failing=x)
        certs.append(GuCertificate(x=x, signs=signs))
    return GuTwoLevelResult(uniform=True, certificates=tuple(certs), failing=None)


def gu_search_oracle(chain: CodeChain) -> GuSearchResult:
    """Slow path of gu_subgroup_search: per-residue spectra, then a search at every residue."""
    equal, witness = eds_oracle(chain, default_eds_radius(chain))
    if not equal:
        return GuSearchResult("refuted_by_eds", witness, (), None)
    rs = residues(chain)
    found: list[IsometryCandidate] = []
    for x in rs:
        hit = next(
            (
                (perm, signs)
                for perm in permutations(range(chain.n))
                for signs in product((1, -1), repeat=chain.n)
                if rs.maps_onto(x, perm, signs)
            ),
            None,
        )
        if hit is None:
            return GuSearchResult("inconclusive", None, tuple(found), x)
        perm, signs = hit
        translation = tuple(-s * x[k] for s, k in zip(signs, perm))
        found.append(IsometryCandidate(perm, signs, translation))
    return GuSearchResult("certified", None, tuple(found), None)


def members(chain: CodeChain, spread: int = 2):
    """Strategy: a residue plus a period translate with multipliers in [-spread, spread]."""
    n, m = chain.n, chain.modulus
    return st.tuples(
        st.sampled_from(tuple(residues(chain))),
        st.lists(st.integers(-spread, spread), min_size=n, max_size=n),
    ).map(lambda t: tuple(s + m * z for s, z in zip(*t)))


def sign_candidates(center: Sequence[int], offset: Sequence[int]) -> list[Point]:
    """Slow path of the coordinate-wise partner search: every point at
    center +/- |offset|, grown one coordinate at a time (lexicographic order)."""
    candidates: list[Point] = [()]
    for c, e in zip(center, offset):
        values = (c,) if e == 0 else (c - abs(e), c + abs(e))
        candidates = [p + (v,) for p in candidates for v in values]
    return candidates


def signed_shell(n: int, d2: int) -> Iterator[Point]:
    """Slow path of the Euclidean partner search: every integer vector of
    squared norm d2, all signs included, in lexicographic order."""
    if n == 0:
        if d2 == 0:
            yield ()
        return
    r = isqrt(d2)
    for v in range(-r, r + 1):
        for rest in signed_shell(n - 1, d2 - v * v):
            yield (v,) + rest


def nested_basis_by_word_scan(chain: CodeChain) -> tuple[Word, ...]:
    """Slow path of select_nested_basis: the rows, with the completion to F2^n
    found by scanning every word 0 .. 2^n - 1 in increasing order."""
    tracker = SpanTracker(chain.n)
    rows: list[Word] = []
    for code in chain.codes:
        k = code.size.bit_length() - 1
        for w in code.sorted_words():
            if tracker.rank == k:
                break
            if tracker.add(w):
                rows.append(w)
    for v in range(1 << chain.n):
        if tracker.add(unpack(v, chain.n)):
            rows.append(unpack(v, chain.n))
    return tuple(rows)


def residue_scan(chain: CodeChain, w: np.ndarray) -> np.ndarray:
    """Slow path of the coset decoder: per row of w (in [0, m)^n), the least
    squared folded distance to any residue."""
    m = chain.modulus
    best: np.ndarray | None = None
    for s in np.array(list(residues(chain)), dtype=np.float64):
        diff = np.abs(w - s)
        np.minimum(diff, m - diff, out=diff)
        d2 = np.einsum("bn,bn->b", diff, diff)
        best = d2 if best is None else np.minimum(best, d2, out=best)
    assert best is not None
    return best


def nsm_oracle(chain: CodeChain, samples: int, seed: int, batch: int) -> tuple[float, float]:
    """Slow path of nsm_estimate: one (samples, n) draw, then every sample
    against every residue, in batches of the given size."""
    n = chain.n
    m = chain.modulus
    norm = n * float(Fraction(m**n, chain.residue_count())) ** (2.0 / n)
    draws = np.random.Generator(np.random.Philox(key=seed)).random((samples, n)) * m
    total: list[float] = []
    total_sq: list[float] = []
    for i in range(0, samples, batch):
        g = residue_scan(chain, draws[i : i + batch]) / norm
        total.append(float(g.sum()))
        total_sq.append(float((g * g).sum()))
    value = math.fsum(total) / samples
    var = max(math.fsum(total_sq) - samples * value * value, 0.0) / (samples - 1)
    return value, math.sqrt(var / samples)
