import math
import random
from fractions import Fraction

import pytest

from ccc.constellation import CodeChain, contains, points_in_box
from ccc.f2 import code_from_words, span
from ccc.quantizer import covolume, dplus_chain, nearest, nsm_estimate

from conftest import random_nested_chain


def test_nearest_integer_rounding():
    chain = CodeChain.of(span([(1,)]))  # all of Z
    assert nearest(chain, (0.6,)) == (1,)
    assert nearest(chain, (-1.2,)) == (-1,)


def test_nearest_member_is_fixed(e5):
    assert nearest(e5, (5.0, 3.0, 6.0)) == (5, 3, 6)


def test_nearest_example1_midpoint(e1):
    assert nearest(e1, (2.0, 2.0)) == (1, 1)


def test_nearest_tie_prefers_lexicographic():
    chain = CodeChain.of(code_from_words([(0,)]))  # 2Z
    assert nearest(chain, (1.0,)) == (0,)
    chain2 = CodeChain.of(code_from_words([(0, 0)]))
    assert nearest(chain2, (1.0, 1.0)) == (0, 0)


def test_nearest_optimal_against_bruteforce():
    rng = random.Random(6001)
    for _ in range(40):
        chain = random_nested_chain(rng, nmax=3)
        m = chain.modulus
        w = tuple(rng.uniform(-m, 2 * m) for _ in range(chain.n))
        got = nearest(chain, w)
        assert contains(chain, got)
        lo = tuple(math.floor(v) - m for v in w)
        hi = tuple(math.ceil(v) + m for v in w)
        best = min(sum((a - b) ** 2 for a, b in zip(p, w)) for p in points_in_box(chain, lo, hi))
        assert sum((a - b) ** 2 for a, b in zip(got, w)) == pytest.approx(best)


def test_covolume():
    assert covolume(dplus_chain(4)) == Fraction(256, 16)
    assert covolume(CodeChain.of(code_from_words([(0, 0)]))) == Fraction(4, 1)


def test_nsm_trivial_chain_is_one_twelfth():
    chain = CodeChain.of(code_from_words([(0, 0, 0)]))
    est = nsm_estimate(chain, 50000, seed=11)
    assert abs(est.value - 1 / 12) <= 3 * est.stderr
    assert est.covolume == Fraction(8, 1)


def test_nsm_seed_reproducibility():
    chain = dplus_chain(3)
    a = nsm_estimate(chain, 5000, seed=4)
    b = nsm_estimate(chain, 5000, seed=4)
    assert (a.value, a.stderr) == (b.value, b.stderr)
    c = nsm_estimate(chain, 5000, seed=5)
    assert c.value != a.value


def test_nsm_thread_count_does_not_change_result():
    chain = dplus_chain(5)
    a = nsm_estimate(chain, 20000, seed=9, threads=1)
    b = nsm_estimate(chain, 20000, seed=9, threads=8)
    assert (a.value, a.stderr) == (b.value, b.stderr)


def test_nsm_sample_guard():
    with pytest.raises(ValueError):
        nsm_estimate(dplus_chain(3), 999, seed=0)


def test_nsm_invariant_under_coordinate_permutation():
    base = CodeChain.of(span([(1, 0, 1)]), span([(1, 1, 0), (0, 1, 1)]))
    perm = [2, 0, 1]
    permuted = CodeChain(
        codes=tuple(
            code_from_words([tuple(w[p] for p in perm) for w in code.words])
            for code in base.codes
        )
    )
    a = nsm_estimate(base, 40000, seed=21)
    b = nsm_estimate(permuted, 40000, seed=22)
    assert abs(a.value - b.value) <= 3 * math.hypot(a.stderr, b.stderr)


def test_nsm_sanity_bounds():
    ball = 1 / (2 * math.pi * math.e)
    for n in (4, 5, 6):
        est = nsm_estimate(dplus_chain(n), 30000, seed=n)
        assert est.value >= ball - 3 * est.stderr
        assert est.value <= 1 / 12 + 3 * est.stderr


def test_dplus_chain_codes():
    chain = dplus_chain(3)
    assert chain.codes[0].words == frozenset({(0, 0, 0), (1, 1, 1)})
    assert chain.codes[1].words == frozenset({(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)})
    assert dplus_chain(4).codes[1].size == 8


def test_dplus_requires_n_at_least_two():
    with pytest.raises(ValueError):
        dplus_chain(1)
