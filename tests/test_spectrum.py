import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccc.constellation import CodeChain, contains
from ccc.f2 import code_from_words, span
from ccc.quantizer import dplus_chain
from ccc.spectrum import cw_count, cw_equidistant, eds_check, kissing_stats, spectrum_at

from conftest import (
    brute_spectrum,
    eds_oracle,
    kissing_oracle,
    members,
    random_l2_chain,
    random_member,
    random_nested_chain,
    sign_candidates,
    small_chains,
)


def trivial_chain(n: int, levels: int = 2) -> CodeChain:
    zero = code_from_words([(0,) * n])
    return CodeChain(codes=(zero,) * levels)


def test_cw_equidistant_examples():
    assert not cw_equidistant((4, 3, 5), (5, 4, 3))  # permutation, not sign change
    assert cw_equidistant((4, -3, 5), (4, 3, 5))
    assert cw_equidistant((1, -2), (1, -2))
    with pytest.raises(ValueError):
        cw_equidistant((1,), (1, 2))


def test_spectrum_example3(e3):
    assert spectrum_at(e3, (0,), 1).counts == {1: 1}
    assert spectrum_at(e3, (1,), 1).counts == {1: 2}


def test_spectrum_trivial_chain_kissing():
    chain = trivial_chain(3)
    m2 = chain.modulus ** 2
    assert spectrum_at(chain, (0, 0, 0), m2).counts == {m2: 6}


def test_spectrum_requires_member(e3):
    with pytest.raises(ValueError):
        spectrum_at(e3, (6,), 4)
    with pytest.raises(ValueError):
        spectrum_at(e3, (0,), 0)


def test_spectrum_translation_invariance(e5):
    m = e5.modulus
    base = spectrum_at(e5, (1, 0, 1), 40).counts
    for j in range(3):
        c = tuple((1, 0, 1)[i] + (m if i == j else 0) for i in range(3))
        assert spectrum_at(e5, c, 40).counts == base


def test_spectrum_against_box_bruteforce():
    rng = random.Random(4001)
    for _ in range(25):
        chain = random_nested_chain(rng, nmax=3)
        c = random_member(rng, chain, spread=1)
        r2max = rng.choice([1, 2, chain.modulus ** 2, 2 * chain.modulus ** 2])
        assert spectrum_at(chain, c, r2max).counts == brute_spectrum(chain, c, r2max)


def test_eds_example3(e3):
    equal, witness = eds_check(e3, 4)
    assert not equal
    assert (witness.center_a, witness.center_b, witness.d2) == ((0,), (1,), 1)
    assert (witness.count_a, witness.count_b) == (1, 2)


def test_eds_example1(e1):
    assert eds_check(e1, 18) == (True, None)


def test_eds_single_residue():
    assert eds_check(trivial_chain(2), 64) == (True, None)


def test_eds_radius_below_minimum_distance():
    with pytest.raises(ValueError):
        eds_check(trivial_chain(2), 3)  # minimum squared distance is 16


def test_eds_holds_for_lattice_chains():
    for r2max in (16, 64, 100):
        assert eds_check(dplus_chain(4), r2max) == (True, None)


def test_eds_holds_for_two_level_linear():
    rng = random.Random(4002)
    for _ in range(25):
        chain = random_l2_chain(rng, nmax=4)
        assert eds_check(chain, 64)[0]


def test_kissing_example3(e3):
    assert kissing_stats(e3) == (1, {1, 2})


def test_kissing_trivial():
    chain = trivial_chain(2, levels=3)
    assert kissing_stats(chain) == (chain.modulus ** 2, {4})


def test_kissing_example1(e1):
    assert kissing_stats(e1) == (2, {1})


def test_cw_count_example1(e1):
    assert cw_count(e1, (0, 0), (1, 1)) == 1
    assert cw_count(e1, (0, 0), (0, 0)) == 1
    # counts agree between members for two-level linear chains
    assert cw_count(e1, (1, 1), (1, 1)) == cw_count(e1, (0, 0), (1, 1))


def test_cw_count_matches_bruteforce(e3):
    # one-dimensional: candidates are x-e and x+e
    assert cw_count(e3, (0,), (3,)) == 1  # 3 is a member, -3 is not
    assert cw_count(e3, (9,), (3,)) == 0  # neither 6 nor 12 are members


@settings(max_examples=100, deadline=None)
@given(small_chains(), st.data())
def test_cw_count_matches_sign_loop(chain, data):
    x = data.draw(members(chain))
    e = data.draw(st.lists(st.integers(-9, 9), min_size=chain.n, max_size=chain.n))
    assert cw_count(chain, x, e) == sum(contains(chain, y) for y in sign_candidates(x, e))


def test_cw_count_requires_member(e3):
    with pytest.raises(ValueError):
        cw_count(e3, (6,), (1,))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return ("ValueError", str(exc))


@settings(max_examples=150, deadline=None)
@given(small_chains(), st.data())
def test_spectrum_classes_match_per_residue_oracles(chain, data):
    m2 = chain.modulus ** 2
    r2max = data.draw(st.integers(1, 2 * m2), label="r2max")
    assert _outcome(eds_check, chain, r2max) == _outcome(eds_oracle, chain, r2max)
    assert kissing_stats(chain) == kissing_oracle(chain)


def test_eds_rejects_nonpositive_radius(e1):
    for r2max in (0, -5):
        with pytest.raises(ValueError, match="at least 1"):
            eds_check(e1, r2max)
