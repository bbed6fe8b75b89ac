import itertools
import random
from collections import Counter
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ccc import constellation
from ccc.constellation import (
    CodeChain,
    Lanes,
    ResidueSet,
    contains,
    cw_members,
    decompose,
    points_in_box,
    residues,
)
from ccc.f2 import code_from_words, span
from ccc.lattice import equivalence_report
from ccc.presets import dplus_chain
from ccc.uniformity import gu_check_two_level

from conftest import (
    coset_firsts_oracle,
    deep_chains,
    first_failing_pair,
    first_pair_outside_oracle,
    fixes_oracle,
    folded_key_oracle,
    maps_onto_oracle,
    nested_chains,
    pack_point,
    packed_set,
    period_group_oracle,
    period_points,
    random_member,
    random_nested_chain,
    residues_oracle,
    sign_candidates,
    small_chains,
    stored_column_entries,
    subgroup_closure,
)


def test_residues_example1(e1):
    rs = residues(e1)
    assert frozenset(rs) == frozenset({(0, 0), (1, 1)})
    assert rs.modulus == 4
    assert len(rs) == e1.residue_count() == 2


def test_residues_example3(e3):
    assert frozenset(residues(e3)) == frozenset({(0,), (1,), (2,), (3,)})
    assert e3.modulus == 8


def test_residues_zero_codes():
    zero = code_from_words([(0, 0)])
    chain = CodeChain.of(zero, zero)
    assert frozenset(residues(chain)) == frozenset({(0, 0)})


def test_residue_guard():
    full = span([tuple(1 if i == j else 0 for i in range(12)) for j in range(12)])
    chain = CodeChain.of(full, full)
    with pytest.raises(ValueError):
        residues(chain)


def test_contains_example3(e3):
    assert not contains(e3, (6,))
    assert contains(e3, (11,))
    assert contains(e3, (0,))


def test_contains_length_mismatch(e1):
    with pytest.raises(ValueError):
        contains(e1, (0, 0, 0))


def test_decompose_triple_code_point(e5):
    digits, z = decompose(e5, (5, 3, 6))
    assert digits == ((1, 1, 0), (0, 1, 1), (1, 0, 1))
    assert z == (0, 0, 0)


def test_decompose_pure_period_translate(e1):
    digits, z = decompose(e1, (4, -8))
    assert digits == ((0, 0), (0, 0))
    assert z == (1, -2)


def test_decompose_example3_nine(e3):
    digits, z = decompose(e3, (9,))
    assert digits == ((1,), (0,), (0,))
    assert z == (1,)


def test_decompose_rejects_nonmember(e3):
    with pytest.raises(ValueError):
        decompose(e3, (6,))


def test_points_in_box_example1(e1):
    pts = points_in_box(e1, (0, 0), (4, 4))
    assert pts == sorted([(0, 0), (1, 1), (0, 4), (4, 0), (4, 4)])


def test_points_in_box_example3(e3):
    assert points_in_box(e3, (0,), (12,)) == [(0,), (1,), (2,), (3,), (8,), (9,), (10,), (11,)]


def test_points_in_box_one_period(e5):
    m = e5.modulus
    pts = points_in_box(e5, (0,) * 3, (m - 1,) * 3)
    assert len(pts) == e5.residue_count()


def test_points_in_box_degenerate(e1):
    with pytest.raises(ValueError):
        points_in_box(e1, (1, 0), (0, 5))


def test_points_in_box_guard_refuses_before_the_first_residue(e1, monkeypatch):
    # 2 residues times 500,001^2 translates each: about 5 * 10^11 candidate points
    calls = []
    monkeypatch.setattr(constellation, "residues", lambda chain: calls.append(chain) or residues(chain))
    with pytest.raises(ValueError, match=r"^points_in_box: work 500002000002 exceeds the guard of 4000000$"):
        points_in_box(e1, (-(10**6),) * 2, (10**6,) * 2)
    assert calls == []
    assert points_in_box(e1, (0, 0), (4, 4)) == [(0, 0), (0, 4), (1, 1), (4, 0), (4, 4)]
    assert len(calls) == 1


def test_periodicity():
    rng = random.Random(2002)
    for _ in range(30):
        chain = random_nested_chain(rng)
        m = chain.modulus
        p = tuple(rng.randint(-10, 10) for _ in range(chain.n))
        for j in range(chain.n):
            shifted = tuple(x + (m if i == j else 0) for i, x in enumerate(p))
            assert contains(chain, p) == contains(chain, shifted)


def test_decompose_recompose_identity():
    rng = random.Random(2003)
    for _ in range(50):
        chain = random_nested_chain(rng)
        p = random_member(rng, chain)
        digits, z = decompose(chain, p)
        for level, digit in enumerate(digits):
            assert digit in chain.codes[level].words
        m = chain.modulus
        assert p == tuple(sum(d[j] << level for level, d in enumerate(digits)) + m * z[j] for j in range(chain.n))


def test_single_level_linear_residues_form_subgroup():
    rng = random.Random(2004)
    for _ in range(20):
        n = rng.randint(1, 5)
        code = span([tuple(rng.randint(0, 1) for _ in range(n)) for _ in range(rng.randint(0, n))], n=n)
        chain = CodeChain.of(code)
        rs = residues(chain)
        assert subgroup_closure(set(rs), chain.modulus) == set(rs)


def test_chain_requires_matching_lengths():
    with pytest.raises(ValueError):
        CodeChain.of(code_from_words([(0, 0)]), code_from_words([(0,)]))


def test_cw_members_validates_lengths(e1):
    with pytest.raises(ValueError):
        cw_members(e1, (0, 0), (1,))
    with pytest.raises(ValueError):
        cw_members(e1, (0,), (1, 1))


@settings(max_examples=150, deadline=None)
@given(small_chains(), st.data())
def test_cw_members_matches_sign_loop(chain, data):
    center = data.draw(st.lists(st.integers(-20, 20), min_size=chain.n, max_size=chain.n))
    offset = data.draw(st.lists(st.integers(-9, 9), min_size=chain.n, max_size=chain.n))
    expected = [y for y in sign_candidates(center, offset) if contains(chain, y)]
    assert cw_members(chain, center, offset) == expected


def _check_period_cosets(chain: CodeChain) -> None:
    rs = residues(chain)
    m = chain.modulus
    group = period_points(rs)
    rep_of = dict(rs.per_coset(lambda r: r))
    add = lambda a, b: tuple((x + y) % m for x, y in zip(a, b))
    for h in group:
        assert {add(s, h) for s in rs} == frozenset(rs)
    assert all(add(a, b) in group for a in group for b in group)
    # H is all of R exactly when R is a subgroup, that is when the chain is a lattice
    assert (group == frozenset(rs)) == (first_failing_pair(chain) is None)
    assert set(rep_of) == frozenset(rs)
    assert all(rep_of[x] == min(add(x, h) for h in group) for x in rs)
    assert rs.coset_count() == sum(rep_of[x] == x for x in rs)


@settings(max_examples=150, deadline=None)
@given(small_chains())
def test_period_cosets_small_chains(chain):
    _check_period_cosets(chain)


@settings(max_examples=50, deadline=None)
@given(nested_chains(nmax=5))
def test_period_cosets_nested_chains(chain):
    _check_period_cosets(chain)


def _check_per_coset(chain: CodeChain, data) -> None:
    rs = residues(chain)
    m = chain.modulus
    group = period_points(rs)

    def first_of(sub):  # each residue's first coset member, by brute force
        return {x: min(tuple((a + b) % m for a, b in zip(x, h)) for h in sub) for x in rs}

    first_h = first_of(group)
    first_even = first_of([h for h in group if all(v % 2 == 0 for v in h)])
    for even, first in ((False, first_h), (True, first_even)):
        calls: list = []

        def fn(r):
            calls.append(r)
            return ("answer", r)

        # (a) one call per coset, on its first residue, and every residue gets that answer
        out = list(rs.per_coset(fn, even=even))
        assert calls == sorted(set(first.values()))
        assert out == [(x, ("answer", first[x])) for x in rs]
        # (b) an iterator stopped after k residues has called only the cosets reached so far
        k = data.draw(st.integers(0, len(rs)), label="k")
        calls.clear()
        taken = list(itertools.islice(rs.per_coset(fn, even=even), k))
        assert calls == sorted({first[x] for x, _ in taken})
    # (c) with even=True, two residues share an answer exactly when they share
    # a coset of H and agree mod 2
    answer = dict(rs.per_coset(lambda r: object(), even=True))
    key = {x: (first_h[x], tuple(v % 2 for v in x)) for x in rs}
    pairs = {(id(answer[x]), key[x]) for x in rs}
    assert len(pairs) == len({id(a) for a in answer.values()}) == len(set(key.values()))
    # (d) the coset counts are the numbers of residues that represent themselves
    assert rs.coset_count() == sum(first_h[x] == x for x in rs)
    assert rs.coset_count(even=True) == sum(first_even[x] == x for x in rs)


@settings(max_examples=150, deadline=None)
@given(small_chains(), st.data())
def test_per_coset_small_chains(chain, data):
    _check_per_coset(chain, data)


@settings(max_examples=50, deadline=None)
@given(nested_chains(nmax=4), st.data())
def test_per_coset_nested_chains(chain, data):
    _check_per_coset(chain, data)


@st.composite
def lane_cases(draw) -> tuple[int, int, list[tuple[int, ...]], int]:
    """n <= 6, m = 2^L for L in 1..9 or 40, two to five points with coordinates in [-3m, 3m], and k in [0, 2m]."""
    n, m = draw(st.integers(1, 6)), 1 << draw(st.sampled_from([*range(1, 10), 40]))
    point = st.lists(st.integers(-3 * m, 3 * m), min_size=n, max_size=n).map(tuple)
    return n, m, draw(st.lists(point, min_size=2, max_size=5)), draw(st.integers(0, 2 * m))


@settings(max_examples=300, deadline=None)
@given(lane_cases())
@example((3, 2, [(1, 1, 0), (1, 0, 1)], 3))  # L = 1: the sum is XOR
@example((2, 4, [(3, 3), (3, 3)], 8))  # every lane carries out of its top bit, the top lane too
@example((2, 1 << 40, [((1 << 40) - 1, -1), (1, 1)], (1 << 41) - 1))  # 80-bit words
def test_lanes_match_tuple_arithmetic(case):
    # words are checked against conftest's own packing, so a wrong lane
    # offset fails even where pack and point would agree with each other,
    # and a carry kept out of a lane changes the lane above it
    n, m, points, k = case
    lanes, reduced = Lanes(n, m), [tuple(x % m for x in p) for p in points]
    words = [lanes.pack(p) for p in points]
    assert words == [pack_point(m, p) for p in points]
    assert [lanes.point(w) for w in words] == reduced
    (x, y), (p, q) = words[:2], reduced[:2]
    total = lanes.add(x, y)
    assert total == pack_point(m, [a + b for a, b in zip(p, q)])
    assert m > 2 or total == x ^ y
    assert lanes.times(x, k) == pack_point(m, [k * a for a in p])
    assert list(lanes._translates(words, y)) == [pack_point(m, [a + b for a, b in zip(r, q)]) for r in reduced]


ONE_LEVEL_CHAINS = [
    CodeChain.of(span([(1, 1)])),
    CodeChain.of(code_from_words([(0, 1), (1, 0)])),  # L = 1 and not a group: the sum is XOR
    CodeChain.of(code_from_words([(1, 0, 1)])),
]


@settings(max_examples=150, deadline=None)
@given(st.one_of(small_chains(), nested_chains(nmax=5), deep_chains(), st.sampled_from(ONE_LEVEL_CHAINS)), st.data())
def test_packed_core_matches_tuple_oracles(chain, data):
    # deep chains reach 12-bit lanes, where the carry out of a lane's top bit
    # must be dropped rather than spill into the next coordinate
    rs, m = residues(chain), chain.modulus
    assert tuple(rs) == tuple(sorted(residues_oracle(chain)))
    assert rs.period_words == frozenset(pack_point(m, h) for h in period_group_oracle(rs))
    firsts = coset_firsts_oracle(rs)
    assert rs._representatives == [pack_point(m, x) for x in rs if firsts[x] == x]
    for even in (False, True):
        firsts = coset_firsts_oracle(rs, even)
        assert list(rs.per_coset(lambda r: r, even=even)) == [(x, firsts[x]) for x in rs]
        assert rs.coset_count(even) == len(set(firsts.values()))
    assert rs.first_pair_outside() == first_pair_outside_oracle(rs)
    # a difference of residues (often a period) plus period translates, and any vector
    r, s = data.draw(st.sampled_from(tuple(rs)), label="r"), data.draw(st.sampled_from(tuple(rs)), label="s")
    z = data.draw(st.lists(st.integers(-3, 3), min_size=chain.n, max_size=chain.n), label="z")
    anything = data.draw(st.lists(st.integers(-3 * m, 3 * m), min_size=chain.n, max_size=chain.n), label="g")
    for g in (tuple(a - b + m * k for a, b, k in zip(r, s, z)), tuple(anything)):
        assert rs.fixes(pack_point(m, g)) == fixes_oracle(rs, g)
    # a signed permutation at a member, the bare translation by -r, and the
    # reflection at r that flips its odd coordinates
    x = tuple(a + m * k for a, k in zip(r, z))
    perm = tuple(data.draw(st.permutations(range(chain.n)), label="perm"))
    signs = tuple(data.draw(st.lists(st.sampled_from((1, -1)), min_size=chain.n, max_size=chain.n), label="signs"))
    identity, odd = tuple(range(chain.n)), tuple(-1 if a % 2 else 1 for a in r)
    for args in ((x, perm, signs), (x, identity, (1,) * chain.n), (x, identity, odd)):
        assert rs.maps_onto(*args) == maps_onto_oracle(rs, *args)


@settings(max_examples=150, deadline=None)
@given(st.one_of(small_chains(), deep_chains()), st.data())
def test_membership_matches_residues_oracle(chain, data):
    # `in` packs the point into a word, where a coordinate off by m, a
    # negative one or a point of the wrong length could alias a residue
    rs, m, oracle = residues(chain), chain.modulus, residues_oracle(chain)
    assert all(p in rs for p in oracle)
    r = data.draw(st.sampled_from(sorted(oracle)), label="residue")
    j = data.draw(st.integers(0, chain.n - 1), label="j")
    negative = data.draw(st.integers(-3 * m, -1), label="negative")
    outside = [r[:j] + (v,) + r[j + 1 :] for v in (r[j] + m, r[j] - m, negative)] + [r + (0,), r[:-1]]
    assert not any(p in rs for p in outside)
    anything = tuple(data.draw(st.lists(st.integers(0, m - 1), min_size=chain.n, max_size=chain.n), label="p"))
    assert (anything in rs) == (anything in oracle)


def test_no_attribute_keeps_the_residues_as_points():
    # the residues are stored as words and coordinate columns; the commands
    # that read points unpack them where they read them
    chain = dplus_chain(8)
    residues.cache_clear()
    assert gu_check_two_level(chain).uniform and equivalence_report(chain).is_lattice
    rs = residues(chain)
    for name, value in vars(rs).items():
        points = isinstance(value, (tuple, list, set, frozenset)) and len(value) == len(rs)
        assert not (points and any(isinstance(v, tuple) for v in value)), name


@pytest.mark.parametrize("modulus", [1, 6])
def test_residue_set_refuses_a_modulus_that_is_not_a_power_of_two(modulus):
    # the lanes hold L bits, so only m = 2^L with L >= 1 packs a residue exactly
    with pytest.raises(ValueError, match=f"modulus must be a power of two at least 2, got {modulus}"):
        ResidueSet(n=1, modulus=modulus, words=frozenset({0}))


@pytest.mark.parametrize("center", [(0, 0), (0, 0, 0, 0, 0)], ids=["short", "long"])
def test_key_counts_refuses_a_center_of_the_wrong_length(center):
    with pytest.raises(ValueError, match=f"center has length {len(center)}, expected 4"):
        residues(dplus_chain(4)).key_counts(center)


@settings(max_examples=150, deadline=None)
@given(st.one_of(small_chains(), deep_chains()), st.data())
def test_key_counts_match_folded_key_oracle(chain, data):
    # the center is a residue plus any period translate, so coordinates may be
    # negative or far outside [0, m); a second center reads the fold table the
    # first one filled, and deep chains fold distances up to 2^11
    rs, m = residues(chain), chain.modulus
    for label in ("first", "second"):
        r = data.draw(st.sampled_from(tuple(rs)), label=f"{label} residue")
        z = data.draw(st.lists(st.integers(-(1 << 40), 1 << 40), min_size=chain.n, max_size=chain.n), label=label)
        c = tuple(a + m * b for a, b in zip(r, z))
        assert rs.key_counts(c) == frozenset(Counter(folded_key_oracle(m, s, c) for s in rs).items())


@pytest.mark.parametrize("budget", ["none", "one column", "default"])
@settings(max_examples=100, deadline=None)
@given(st.one_of(small_chains(), deep_chains().filter(lambda chain: chain.residue_count() <= 64)), st.data())
def test_key_counts_read_stored_columns_as_the_oracle(budget, chain, data):
    # every residue as a center, in a shuffled order and then again: the
    # second ask of a (lane, value) stores its folded column while the
    # budget lasts, and every later center with that value reads it
    entries = {"none": 0, "one column": chain.residue_count(), "default": constellation.COLUMN_STORE_ENTRIES}[budget]
    with mock.patch.object(constellation, "COLUMN_STORE_ENTRIES", entries):
        residues.cache_clear()
        rs, m = residues(chain), chain.modulus
        centers = data.draw(st.permutations(list(rs)), label="centers")
        for c in centers + centers:
            assert rs.key_counts(c) == frozenset(Counter(folded_key_oracle(m, s, c) for s in rs).items())
        assert stored_column_entries(rs) <= entries
    residues.cache_clear()


def test_period_group_guard_counts_the_fixes_lookups(monkeypatch):
    # dplus5: 5 candidates (repetition and even-weight bases) and 32 residues;
    # dplus22's 22 * 2^22 = 92,274,688 lookups are under the real guard
    monkeypatch.setattr(constellation, "MAX_PERIOD_WORK", 5 * 32 - 1)
    residues.cache_clear()
    with pytest.raises(ValueError, match=r"^period_group: work 160 exceeds the guard of 159$"):
        residues(dplus_chain(5)).period_words
    monkeypatch.setattr(constellation, "MAX_PERIOD_WORK", 5 * 32)
    assert len(residues(dplus_chain(5)).period_words) == 16


def test_period_group_guard_refuses_before_the_first_fixes_check(monkeypatch):
    # the full (Z/128)^2 with every residue a candidate: 2^14 * 2^14 lookups
    full = frozenset(itertools.product(range(128), repeat=2))
    rs = packed_set(2, 128, full, candidates=tuple(sorted(full)))
    fixes = []
    monkeypatch.setattr(ResidueSet, "fixes", lambda self, g: fixes.append(g))
    with pytest.raises(ValueError, match=r"^period_group: work 268435456 exceeds the guard of 100000000$"):
        rs.period_words
    assert fixes == []
