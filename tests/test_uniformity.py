import random
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccc import uniformity
from ccc.constellation import CodeChain, ResidueSet, contains, decompose, residues
from ccc.f2 import code_from_words, span
from ccc.presets import dplus_chain
from ccc.spectrum import cw_equidistant
from ccc.uniformity import (
    IsometryCandidate,
    ReflectionMap,
    euclidean_partner_all,
    gu_check_two_level,
    gu_subgroup_search,
    partner_bruteforce,
    partner_construct,
    reflection_for,
)

from conftest import (
    gu_search_oracle,
    gu_two_level_oracle,
    members,
    random_l2_chain,
    random_member,
    sign_candidates,
    signed_shell,
    small_chains,
)


def reflect_difference_digits(chain: CodeChain, x, y):
    """Digit decomposition of T_x(y - x) by direct carry analysis.

    Returns (d1, d2, z) with T_x(y - x) == d1 + 2*d2 + 4*z, where d1 and d2
    are the mod-2 digit differences.  The integer part follows four boundary
    cases split on the reflected coordinate and the sign of the level-2 digit
    difference; the choice of weak versus strict inequality at zero matters
    and is pinned by the test against the direct decomposition.
    """
    (c1, c2), z = decompose(chain, x)
    (c1t, c2t), zt = decompose(chain, y)
    d1, d2, zp = [], [], []
    for i in range(chain.n):
        d1.append((c1t[i] - c1[i]) % 2)
        d2.append((c2t[i] - c2[i]) % 2)
        e2 = c2t[i] - c2[i]
        if c1[i] == 0:
            zp.append(zt[i] - z[i] if e2 >= 0 else zt[i] - z[i] - 1)
        else:
            zp.append(z[i] - zt[i] if e2 <= 0 else z[i] - zt[i] - 1)
    return tuple(d1), tuple(d2), tuple(zp)


def z_line_chain() -> CodeChain:
    full = code_from_words([(0,), (1,)])
    return CodeChain.of(full, full)


@given(st.lists(st.sampled_from((-1, 1)), min_size=1, max_size=8).map(tuple),
       st.data())
def test_reflection_is_norm_preserving_involution(signs, data):
    t = ReflectionMap(signs=signs)
    v = data.draw(st.lists(st.integers(-50, 50), min_size=len(signs), max_size=len(signs)))
    image = t.apply(v)
    assert t.apply(image) == tuple(v)
    assert sum(x * x for x in image) == sum(x * x for x in v)


def test_isometry_candidate_apply_checks_the_point_length():
    iso = IsometryCandidate(permutation=(1, 0), signs=(1, -1), translation=(0, 0))
    assert iso.apply((3, 5)) == (5, -3)
    with pytest.raises(ValueError, match=r"^point has length 3, expected 2$"):
        iso.apply((3, 5, 7))
    with pytest.raises(ValueError, match=r"^point has length 1, expected 2$"):
        iso.apply((3,))


def test_reflection_for_examples(e1):
    assert reflection_for(e1, (1, 1)).signs == (-1, -1)
    assert reflection_for(e1, (0, 0)).signs == (1, 1)
    chain = CodeChain.of(span([(1, 0, 1)]), span([(1, 1, 0), (0, 1, 1)]))
    assert reflection_for(chain, (1, 0, 1)).signs == (-1, 1, -1)


def test_reflection_for_requires_two_levels(e3):
    with pytest.raises(ValueError):
        reflection_for(e3, (0,))


def test_gu_two_level_example1(e1):
    res = gu_check_two_level(e1)
    assert res.uniform and res.failing is None
    cert = {c.x: c.signs for c in res.certificates}
    assert cert[(1, 1)] == (-1, -1)
    # the reflected translate reproduces the residue set exactly
    t = ReflectionMap(signs=cert[(1, 1)])
    image = {tuple(v % 4 for v in t.apply((a - 1, b - 1))) for a, b in [(0, 0), (1, 1)]}
    assert image == {(0, 0), (1, 1)}


def test_gu_two_level_zero_codes():
    zero = code_from_words([(0, 0)])
    res = gu_check_two_level(CodeChain.of(zero, zero))
    assert res.uniform
    assert all(c.signs == (1, 1) for c in res.certificates)


def test_gu_two_level_dplus5():
    assert gu_check_two_level(dplus_chain(5)).uniform


def test_reflection_checks_read_the_signs_off_the_residues(monkeypatch):
    """The per-coset check takes T_x's signs from x mod 2 and runs no membership test on x."""
    chains = [dplus_chain(5), random_l2_chain(random.Random(4101)), CodeChain.of(span([(1, 1, 0)]), span([(0, 1, 1)]))]
    expected = [gu_two_level_oracle(chain) for chain in chains]

    def refuse(*args):
        raise AssertionError("membership test on a residue")

    monkeypatch.setattr(uniformity, "decompose", refuse)
    monkeypatch.setattr(uniformity, "contains", refuse)
    for chain, want in zip(chains, expected):
        residues.cache_clear()
        assert gu_check_two_level(chain) == want


def full_space_chain(n: int) -> CodeChain:
    """C1 = F2^n over C2 = {0}: no candidate fixes R, so H = {0} and every residue is its own coset."""
    return CodeChain.of(span([tuple(int(i == j) for i in range(n)) for j in range(n)]), span([], n=n))


def test_reflection_guard_refuses_before_the_first_check(monkeypatch):
    # 2^14 cosets of H ∩ 2Z^n, each scanning 2^14 residues
    calls = []
    monkeypatch.setattr(ResidueSet, "maps_onto", lambda self, *args: calls.append(args))
    with pytest.raises(ValueError, match=r"^gu_check_two_level: work 268435456 exceeds the guard of 100000000$"):
        gu_check_two_level(full_space_chain(14))
    assert calls == []


def test_reflection_guard_counts_one_scan_per_even_coset(monkeypatch):
    # a dplus chain has two cosets of H ∩ 2Z^n, so dplus22 is 2 * 2^22 lookups;
    # BW16 = RM(1,4) + 2*RM(3,4) has 32, so 32 * 2^20: both pass the real guard
    assert 32 * 2**20 <= uniformity.MAX_REFLECTION_WORK and 2 * 2**22 <= uniformity.MAX_REFLECTION_WORK
    assert [residues(dplus_chain(n)).coset_count(even=True) for n in range(4, 11)] == [2] * 7
    monkeypatch.setattr(uniformity, "MAX_REFLECTION_WORK", 2 * 32 - 1)
    with pytest.raises(ValueError, match=r"^gu_check_two_level: work 64 exceeds the guard of 63$"):
        gu_check_two_level(dplus_chain(5))
    monkeypatch.setattr(uniformity, "MAX_REFLECTION_WORK", 2 * 32)
    assert gu_check_two_level(dplus_chain(5)).uniform


def test_gu_two_level_hypothesis_errors(e3):
    with pytest.raises(ValueError):
        gu_check_two_level(e3)
    nonlinear = code_from_words([(1, 1)])
    with pytest.raises(ValueError):
        gu_check_two_level(CodeChain.of(nonlinear, nonlinear))


def test_reflect_difference_digits_matches_decomposition():
    rng = random.Random(5001)
    for _ in range(200):
        chain = random_l2_chain(rng, nmax=4)
        x = random_member(rng, chain)
        y = random_member(rng, chain)
        d1, d2, zp = reflect_difference_digits(chain, x, y)
        t = reflection_for(chain, x)
        reflected = t.apply(tuple(a - b for a, b in zip(y, x)))
        assert reflected == tuple(
            d1[i] + 2 * d2[i] + 4 * zp[i] for i in range(chain.n)
        )
        assert contains(chain, reflected)


def test_gu_search_example3_refuted(e3):
    res = gu_subgroup_search(e3)
    assert res.verdict == "refuted_by_eds"
    w = res.eds_witness
    assert (w.center_a, w.center_b, w.d2, w.count_a, w.count_b) == ((0,), (1,), 1, 1, 2)


def test_gu_search_example1_certified(e1):
    res = gu_subgroup_search(e1)
    assert res.verdict == "certified"
    assert len(res.isometries) == 2
    m = e1.modulus
    members = {(0, 0), (1, 1)}
    for x, iso in zip(sorted(members), res.isometries):
        image = {tuple(v % m for v in iso.apply(s)) for s in members}
        assert image == members


def test_gu_search_example5_never_certified(e5):
    res = gu_subgroup_search(e5, 64)
    assert res.verdict in ("refuted_by_eds", "inconclusive")


def test_partner_construct_line_case():
    chain = z_line_chain()
    yprime, trace = partner_construct(chain, (0,), (3,), (1,))
    assert yprime == (-2,)
    assert trace.delta == (-1,)
    assert abs(yprime[0] - 1) == 3
    # brute force confirms -2 and 4 are the only candidates; -2 is lex-first
    assert partner_bruteforce(chain, (0,), (3,), (1,)) == (-2,)
    assert contains(chain, (4,))


def test_partner_construct_trivial_cases(e1):
    yprime, _ = partner_construct(e1, (0, 0), (0, 0), (1, 1))
    assert yprime == (1, 1)  # y == x gives back xp
    yprime, trace = partner_construct(e1, (0, 0), (5, 1), (0, 0))
    assert cw_equidistant(tuple(a - b for a, b in zip(yprime, (0, 0))), (5, 1))
    assert all(d == 0 for d in trace.delta)


def test_partner_construct_requires_two_levels(e3):
    with pytest.raises(ValueError):
        partner_construct(e3, (0,), (1,), (2,))


def test_partner_construct_requires_members(e1):
    with pytest.raises(ValueError):
        partner_construct(e1, (0, 1), (0, 0), (1, 1))


def test_partner_bruteforce_example3(e3):
    assert partner_bruteforce(e3, (0,), (3,), (9,)) is None
    # the only sign candidates are 6 and 12, and both are non-members
    assert not contains(e3, (6,))
    assert not contains(e3, (12,))


def test_partner_bruteforce_example5(e5):
    assert partner_bruteforce(e5, (1, 0, 1), (5, 3, 6), (3, 5, 6)) is None


def test_partner_pair_on_random_two_level_chains():
    rng = random.Random(5002)
    for _ in range(100):
        chain = random_l2_chain(rng, nmax=5)
        x, y, xp = (random_member(rng, chain) for _ in range(3))
        yprime, _ = partner_construct(chain, x, y, xp)
        assert contains(chain, yprime)
        assert cw_equidistant(
            tuple(a - b for a, b in zip(yprime, xp)),
            tuple(a - b for a, b in zip(y, x)),
        )
        brute = partner_bruteforce(chain, x, y, xp)
        assert brute is not None


def test_euclidean_partner_example5(e5):
    sols = euclidean_partner_all(e5, (1, 0, 1), (5, 3, 6), (3, 5, 6))
    assert (8, 9, 9) in sols
    xp = (3, 5, 6)
    assert all(sum((a - b) ** 2 for a, b in zip(s, xp)) == 50 for s in sols)
    assert sols == sorted(sols)


def test_euclidean_partner_zero_radius(e5):
    assert euclidean_partner_all(e5, (1, 0, 1), (1, 0, 1), (3, 5, 6)) == [(3, 5, 6)]


def test_euclidean_partner_example3_fails(e3):
    assert euclidean_partner_all(e3, (0,), (3,), (9,)) == []


def test_euclidean_partner_guard_admits_long_short_shells():
    # (isqrt(d2) + 1)^n alone would estimate 2^24 and 3^15 walk ends for
    # these; the walk ends at most C(n + d2, n) times (25 and 3,876)
    for n, d2, hits in ((24, 1, 2), (15, 4, 30)):  # +-e1; +-2e_j
        e1 = (1,) + (0,) * (n - 1)
        chain = CodeChain.of(code_from_words([(0,) * n, e1]))
        zero, y = (0,) * n, (isqrt(d2),) + (0,) * (n - 1)
        expected = sorted(v for v in signed_shell(n, d2) if contains(chain, v))
        assert len(expected) == hits
        assert euclidean_partner_all(chain, zero, y, zero) == expected


@settings(max_examples=100, deadline=None)
@given(small_chains(), st.data())
def test_partner_bruteforce_matches_sign_loop(chain, data):
    x, y, xp = (data.draw(members(chain)) for _ in range(3))
    offset = [b - a for a, b in zip(x, y)]
    hits = sorted(c for c in sign_candidates(xp, offset) if contains(chain, c))
    assert partner_bruteforce(chain, x, y, xp) == (hits[0] if hits else None)


@settings(max_examples=100, deadline=None)
@given(small_chains(), st.data())
def test_euclidean_partner_all_matches_signed_shell(chain, data):
    x, y = (data.draw(members(chain, spread=0)) for _ in range(2))
    xp = data.draw(members(chain))
    d2 = sum((a - b) ** 2 for a, b in zip(y, x))
    sphere = (tuple(a + b for a, b in zip(xp, v)) for v in signed_shell(chain.n, d2))
    expected = sorted(p for p in sphere if contains(chain, p))
    assert euclidean_partner_all(chain, x, y, xp) == expected


@settings(max_examples=150, deadline=None)
@given(small_chains(lmax=2))
def test_gu_two_level_matches_per_residue_oracle(chain):
    if chain.L != 2 or not chain.all_linear():
        with pytest.raises(ValueError):
            gu_check_two_level(chain)
        return
    assert gu_check_two_level(chain) == gu_two_level_oracle(chain)


def test_gu_two_level_matches_per_residue_oracle_random_chains():
    rng = random.Random(5002)
    for _ in range(40):
        chain = random_l2_chain(rng, nmax=5)
        assert gu_check_two_level(chain) == gu_two_level_oracle(chain)


@settings(max_examples=100, deadline=None)
@given(small_chains())
def test_gu_search_matches_per_residue_oracle(chain):
    assert gu_subgroup_search(chain) == gu_search_oracle(chain)
