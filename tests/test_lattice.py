import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ccc import constellation, lattice
from ccc.constellation import CodeChain, Lanes, ResidueSet, residues
from ccc.f2 import SpanTracker, code_from_words, span
from ccc.lattice import (
    combination_residues,
    construction_d,
    equivalence_report,
    is_lattice_direct,
    select_nested_basis,
    smallest_lattice,
)
from ccc.presets import dplus_chain

from conftest import (
    all_subspaces,
    closure_oracle,
    combination_residues_oracle,
    construction_d_oracle,
    deep_chains,
    euclidean_hnf,
    first_failing_pair,
    nested_basis_by_word_scan,
    nested_chains,
    pack_point,
    period_translates,
    random_nested_chain,
    small_chains,
    smallest_lattice_oracle,
    subgroup_closure,
)


def test_hnf_examples():
    lat = euclidean_hnf([(1, 1), (4, 0), (0, 4)])
    assert lat.basis == ((1, 1), (0, 4))
    assert lat.determinant == 4

    diag = euclidean_hnf([(8, 0, 0), (0, 8, 0), (0, 0, 8)])
    assert diag.basis == ((8, 0, 0), (0, 8, 0), (0, 0, 8))
    assert diag.determinant == 512

    assert euclidean_hnf([(1, 0), (0, 1)]).determinant == 1


def test_hnf_rank_deficient():
    with pytest.raises(ValueError):
        euclidean_hnf([(1, 2, 3), (2, 4, 6)])


def test_hnf_canonical_under_generator_changes():
    rng = random.Random(3001)
    base = [(2, 1, 0), (0, 3, 1), (0, 0, 4)]
    reference = euclidean_hnf(base)
    for _ in range(25):
        gens = [list(g) for g in base]
        # augment with random integer combinations and shuffle
        for _ in range(rng.randint(1, 4)):
            a, b = rng.sample(range(len(gens)), 2)
            r = rng.randint(-3, 3)
            gens.append([x + r * y for x, y in zip(gens[a], gens[b])])
        rng.shuffle(gens)
        assert euclidean_hnf(gens) == reference


def test_hnf_membership():
    lat = euclidean_hnf([(1, 1), (4, 0), (0, 4)])
    assert lat.contains((1, 1))
    assert lat.contains((2, 2))
    assert lat.contains((-3, 1))
    assert not lat.contains((1, 0))


def test_smallest_lattice_contains_all_residues():
    rng = random.Random(3002)
    for _ in range(30):
        chain = random_nested_chain(rng)
        lam = smallest_lattice(chain)
        for s in residues(chain):
            assert lam.contains(s)


def test_smallest_lattice_example1(e1):
    lam = smallest_lattice(e1)
    assert lam.determinant == 4
    assert lam.points_per_period(e1.modulus) == 4  # strictly more than the 2 residues


def test_smallest_lattice_zero_codes():
    zero = code_from_words([(0, 0, 0)])
    chain = CodeChain.of(zero, zero)
    lam = smallest_lattice(chain)
    assert lam.basis == ((4, 0, 0), (0, 4, 0), (0, 0, 4))


def test_smallest_lattice_matches_group_closure_oracle():
    rng = random.Random(3003)
    for _ in range(20):
        chain = random_nested_chain(rng, nmax=3)
        m = chain.modulus
        lam = smallest_lattice(chain)
        closure = subgroup_closure(set(residues(chain)) | {(0,) * chain.n}, m)
        assert lam.points_per_period(m) == len(closure)
        for p in closure:
            assert lam.contains(p)


HOWELL_CLOSURE = CodeChain.of(code_from_words([(0, 1)]), code_from_words([(1, 0)]))  # R = {(2, 1)} mod 4
ODD_UNIT = CodeChain.of(*(code_from_words([w]) for w in [(1, 1), (1, 0), (0, 0), (0, 0)]))  # R = {(3, 1)} mod 16


def test_smallest_lattice_howell_closure_and_odd_unit():
    # <(2, 1)> mod 4 holds 2 * (2, 1) = (0, 2), which only the closure row brings to lane 1
    assert smallest_lattice(HOWELL_CLOSURE).basis == ((2, 1), (0, 2))
    # the pivot (3, 1) is multiplied by 3^-1 = 11 mod 16, so lane 0 reads 1
    assert smallest_lattice(ODD_UNIT).basis == ((1, 11), (0, 16))
    for chain, rows in ((HOWELL_CLOSURE, [(2, 1), (0, 2)]), (ODD_UNIT, [(1, 11), None])):
        assert Lanes(chain.n, chain.modulus).howell_rows(residues(chain).words) == rows


@st.composite
def packed_generators(draw, nmax: int = 4, lmax: int = 5) -> tuple[int, int, list[int]]:
    """n, m = 2^L and a list of packed words that need not be a residue set: zeros and duplicates included."""
    n, L = draw(st.integers(1, nmax)), draw(st.integers(1, lmax))
    words = draw(st.lists(st.integers(0, (1 << (L * n)) - 1) | st.just(0), max_size=8))
    repeats = draw(st.lists(st.sampled_from(words), max_size=3)) if words else []
    return n, 1 << L, draw(st.permutations(words + repeats))


@settings(max_examples=200, deadline=None)
@given(packed_generators())
@example((2, 4, [9]))  # (2, 1) mod 4: the Howell closure row (0, 2)
@example((2, 16, [0, 0]))  # no pivot in any lane
def test_howell_rows_on_any_generator_words_give_the_oracle_lattice(case):
    n, m, words = case
    L = m.bit_length() - 1
    points = [tuple(w >> (L * (n - 1 - j)) & (m - 1) for j in range(n)) for w in words]
    rows = Lanes(n, m).howell_rows(words)
    assert len(rows) == n
    for j, row in enumerate(rows):
        if row is not None:  # echelon: 0 before lane j, a power of two below m in lane j
            assert not any(row[:j]) and 0 < row[j] < m and row[j] & (row[j] - 1) == 0
    unit = period_translates(n, m)
    expected = euclidean_hnf([*points, *unit])
    assert euclidean_hnf([unit[j] if row is None else row for j, row in enumerate(rows)]) == expected
    assert lattice._generated_lattice(Lanes(n, m), words) == expected


@settings(max_examples=150, deadline=None)
@given(small_chains())
@example(HOWELL_CLOSURE)
@example(ODD_UNIT)
def test_smallest_lattice_matches_hnf_over_every_residue(chain):
    assert smallest_lattice(chain) == smallest_lattice_oracle(chain)


@settings(max_examples=100, deadline=None)
@given(nested_chains(nmax=5))
def test_smallest_lattice_matches_hnf_over_every_residue_nested(chain):
    residues.cache_clear()
    assert smallest_lattice(chain) == smallest_lattice_oracle(chain)


@settings(max_examples=100, deadline=None)
@given(deep_chains())
def test_smallest_lattice_matches_hnf_over_every_residue_deep(chain):
    assert smallest_lattice(chain) == smallest_lattice_oracle(chain)


def test_elimination_guard_refuses_before_the_first_row_operation(monkeypatch):
    # dplus5 has 2 * 16 residues in 5 lanes: 160 row operations
    chain = dplus_chain(5)
    adds = [0]
    add = Lanes.add

    def counted(self, x, y):
        adds[0] += 1
        return add(self, x, y)

    monkeypatch.setattr(Lanes, "add", counted)
    monkeypatch.setattr(constellation, "MAX_ELIMINATION_WORK", 159)
    rs = residues(chain)
    for run in (lambda: Lanes(rs.n, rs.modulus).howell_rows(rs.words), lambda: smallest_lattice(chain)):
        with pytest.raises(ValueError, match=r"^howell_rows: work 160 exceeds the guard of 159$"):
            run()
    assert adds == [0]
    monkeypatch.setattr(constellation, "MAX_ELIMINATION_WORK", 160)
    assert smallest_lattice(chain) == smallest_lattice_oracle(chain)
    assert adds[0] > 0


def test_nested_basis_dplus4():
    nb = select_nested_basis(dplus_chain(4))
    assert nb.dims == (1, 3)
    assert nb.rows[0] == (1, 1, 1, 1)
    assert len(nb.rows) == 4


def test_nested_basis_prefixes_span_each_level():
    rng = random.Random(3004)
    for _ in range(30):
        chain = random_nested_chain(rng)
        nb = select_nested_basis(chain)
        for k, code in zip(nb.dims, chain.codes):
            assert span(nb.rows[:k], n=chain.n).words == code.words


@settings(max_examples=150, deadline=None)
@given(nested_chains())
def test_nested_basis_matches_word_scan(chain):
    assert select_nested_basis(chain).rows == nested_basis_by_word_scan(chain)


def test_nested_basis_equal_codes(e5):
    assert select_nested_basis(e5).dims == (2, 2, 2)


def test_nested_basis_requires_nested():
    chain = CodeChain.of(span([(1, 1, 1)]), span([(1, 1, 0), (0, 1, 1)]))
    with pytest.raises(ValueError):
        select_nested_basis(chain)


def test_construction_d_dplus4():
    assert construction_d(dplus_chain(4)).determinant == 16


def test_construction_d_single_level_is_construction_a():
    chain = CodeChain.of(span([(1, 1)]))
    lat = construction_d(chain)
    assert lat.determinant == 2  # 2^n / 2^k = 4/2
    assert lat.contains((1, 1))
    assert not lat.contains((1, 0))


def test_construction_d_zero_dims():
    zero = code_from_words([(0, 0)])
    chain = CodeChain.of(zero, zero)
    assert construction_d(chain).basis == ((4, 0), (0, 4))


def test_construction_d_determinant_identity():
    rng = random.Random(3005)
    for _ in range(30):
        chain = random_nested_chain(rng)
        k_total = sum(select_nested_basis(chain).dims)
        lat = construction_d(chain)
        assert lat.determinant << k_total == chain.modulus ** chain.n


@settings(max_examples=150, deadline=None)
@given(nested_chains())
def test_construction_d_matches_the_euclidean_oracle(chain):
    assert construction_d(chain) == construction_d_oracle(chain)


@settings(max_examples=100, deadline=None)
@given(nested_chains(nmax=3, lmax=8))
def test_construction_d_matches_the_euclidean_oracle_deep(chain):
    assert construction_d(chain) == construction_d_oracle(chain)


def test_is_lattice_direct_example1(e1):
    assert is_lattice_direct(e1) == (False, ((1, 1), (1, 1)))


def test_is_lattice_direct_dplus4():
    assert is_lattice_direct(dplus_chain(4)) == (True, None)


def test_is_lattice_direct_single_level_linear():
    rng = random.Random(3006)
    for _ in range(20):
        n = rng.randint(1, 5)
        code = span(
            [tuple(rng.randint(0, 1) for _ in range(n)) for _ in range(rng.randint(0, n))],
            n=n,
        )
        ok, witness = is_lattice_direct(CodeChain.of(code))
        assert ok and witness is None


def test_is_lattice_direct_nonlinear_codes():
    # not a linear code: missing (1,1); closure fails on (0,1)+(1,0)
    code = code_from_words([(0, 0), (1, 0), (0, 1)])
    chain = CodeChain.of(code)
    ok, witness = is_lattice_direct(chain)
    assert not ok
    s, t = witness
    m = chain.modulus
    assert tuple((a + b) % m for a, b in zip(s, t)) not in frozenset(residues(chain))


class _CountingSet(frozenset):
    lookups = 0

    def __contains__(self, p):
        type(self).lookups += 1
        return frozenset.__contains__(self, p)


@pytest.mark.parametrize(
    "chain",
    [
        dplus_chain(4),
        dplus_chain(5),
        CodeChain.of(code_from_words([(0, 0, 0), (1, 1, 0), (0, 1, 1)]), span([(1, 0, 0)], n=3)),
    ],
    ids=["dplus4", "dplus5", "nonlinear"],
)
def test_direct_verdict_translates_only_by_candidates(chain, monkeypatch):
    """The verdict makes at most one ``fixes`` check per candidate, and no other lookup in the packed member set."""
    residues.cache_clear()
    real = residues(chain)
    rs = ResidueSet(real.n, real.modulus, _CountingSet(real.words), real.candidates)
    monkeypatch.setattr("ccc.lattice.residues", lambda _: rs)
    monkeypatch.setattr(_CountingSet, "lookups", 0)
    calls, inside = [], [0]
    fixes = ResidueSet.fixes

    def spy(self, g):
        calls.append(g)
        before = _CountingSet.lookups
        result = fixes(self, g)
        inside[0] += _CountingSet.lookups - before
        return result

    monkeypatch.setattr(ResidueSet, "fixes", spy)
    verdict, witness = is_lattice_direct(chain, find_witness=False)
    assert (verdict, witness) == (closure_oracle(chain), None)
    assert 0 < len(calls) <= len(rs.candidates)
    assert _CountingSet.lookups == inside[0] > 0


def test_witness_scan_guard_refuses_before_the_first_pair(monkeypatch):
    # (Z/128)^2 without 0, built from packed words with no candidates: H = {0},
    # so the 2^14 - 1 coset representatives make 16383^2 pair checks
    rs = ResidueSet(2, 128, _CountingSet(range(1, 1 << 14)))
    monkeypatch.setattr(_CountingSet, "lookups", 0)
    with pytest.raises(ValueError, match=r"^first_pair_outside: work 268402689 exceeds the guard of 100000000$"):
        rs.first_pair_outside()
    assert _CountingSet.lookups == 0


def test_witness_scan_guard_counts_the_pairs(monkeypatch):
    # dplus5 is no lattice, and its period subgroup has 2 cosets: 2^2 pair checks
    chain = dplus_chain(5)
    residues.cache_clear()
    monkeypatch.setattr(constellation, "MAX_WITNESS_WORK", 3)
    with pytest.raises(ValueError, match=r"^first_pair_outside: work 4 exceeds the guard of 3$"):
        is_lattice_direct(chain)
    monkeypatch.setattr(constellation, "MAX_WITNESS_WORK", 4)
    assert is_lattice_direct(chain) == (False, first_failing_pair(chain))


def test_equivalence_report_rejects_nonlinear():
    chain = CodeChain.of(code_from_words([(1, 0)]))
    with pytest.raises(ValueError):
        equivalence_report(chain)


def test_equivalence_report_fixed_chains(e1, e5):
    assert equivalence_report(e5).flags() == (False, False, False, False)
    assert equivalence_report(dplus_chain(4)).flags() == (True, True, True, True)
    assert equivalence_report(dplus_chain(3)).flags() == (False, False, False, False)
    # linear but not nested: all criteria must still agree on False
    rep = equivalence_report(e1)
    assert rep.flags() == (False, False, False, False)
    assert rep.consistent


def test_equivalence_report_eliminates_each_code_once(monkeypatch):
    """Every code's words go through one F2 elimination; the nested basis adds its rows and the unit words."""
    residues.cache_clear()
    chain = dplus_chain(8)
    adds = [0]
    add = SpanTracker.add

    def spy(self, w):
        adds[0] += 1
        return add(self, w)

    monkeypatch.setattr(SpanTracker, "add", spy)
    assert equivalence_report(chain).verdict
    dims = sum(code.size.bit_length() - 1 for code in chain.codes)
    assert adds[0] <= sum(code.size for code in chain.codes) + dims + chain.n


def test_equivalence_exhaustive_two_level_n2():
    for c1 in all_subspaces(2):
        for c2 in all_subspaces(2):
            if not c1.words <= c2.words:
                continue
            rep = equivalence_report(CodeChain.of(c1, c2))
            assert rep.consistent, (c1.words, c2.words, rep.flags())


def test_combination_residues_match_full_residues_when_closed():
    chain = dplus_chain(6)
    assert combination_residues(chain) == residues(chain).words


@settings(max_examples=150, deadline=None)
@given(nested_chains(nmax=5))
def test_combination_residues_are_the_packed_combinations(chain):
    m = chain.modulus
    assert combination_residues(chain) == frozenset(pack_point(m, p) for p in combination_residues_oracle(chain))


def test_inconsistent_report_raises_on_verdict():
    from ccc.lattice import EquivalenceReport

    rep = EquivalenceReport(True, False, True, True)
    assert not rep.consistent
    with pytest.raises(RuntimeError):
        rep.verdict


@settings(max_examples=150, deadline=None)
@given(small_chains())
@example(CodeChain.of(code_from_words([(1,)])))  # R = {(1,)}, H = {(0,)}: equal sizes, witness ((1,), (1,))
def test_direct_witness_is_first_failing_pair(chain):
    expected = first_failing_pair(chain)
    assert is_lattice_direct(chain) == (expected is None, expected)
    assert is_lattice_direct(chain, find_witness=False) == (expected is None, None)
    # closure makes each level's digit set closed under xor, so only linear chains pass
    assert chain.all_linear() or expected is not None


@settings(max_examples=150, deadline=None)
@given(small_chains())
def test_direct_closure_matches_every_scaled_codeword(chain):
    expected = closure_oracle(chain)
    witness = first_failing_pair(chain)
    assert is_lattice_direct(chain, find_witness=False) == (expected, None)
    assert is_lattice_direct(chain) == (expected, witness)


@settings(max_examples=50, deadline=None)
@given(nested_chains(nmax=5))
def test_direct_closure_matches_every_scaled_codeword_nested(chain):
    residues.cache_clear()
    assert is_lattice_direct(chain) == (closure_oracle(chain), first_failing_pair(chain))
