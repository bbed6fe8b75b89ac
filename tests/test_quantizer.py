import math
import random
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccc.chainfile import parse_chain
from ccc.constellation import CodeChain, contains, points_in_box
from ccc.f2 import code_from_words, span
from ccc.presets import dplus_chain, example1, example5
from ccc.quantizer import (
    MAX_DECODE_WORK,
    ROW_BLOCK,
    SAMPLE_BATCH,
    _CosetDecoder,
    _decode_work,
    _Workspace,
    covolume,
    nearest,
    nsm_estimate,
)

from conftest import nsm_oracle, random_nested_chain, residue_scan, small_chains


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
    c = nsm_estimate(chain, 20000, seed=9, threads=0)  # one worker per core
    assert (a.value, a.stderr) == (c.value, c.stderr)


def test_nsm_sample_guard():
    with pytest.raises(ValueError):
        nsm_estimate(dplus_chain(3), 999, seed=0)


@pytest.mark.parametrize("seed", [-1, 2**128])
def test_nsm_seed_range_checked_before_decoding(monkeypatch, seed):
    def no_decoder(chain):
        raise AssertionError("decoder built before the seed check")

    monkeypatch.setattr(_CosetDecoder, "of", no_decoder)
    with pytest.raises(ValueError, match=rf"^seed must be in 0\.\.2\*\*128-1, got {seed}$"):
        nsm_estimate(dplus_chain(3), 2000, seed=seed)


@pytest.mark.parametrize("seed", [0, 2**128 - 1])
def test_nsm_seed_range_ends_match_oracle(seed):
    chain = dplus_chain(3)
    est = nsm_estimate(chain, 2000, seed=seed)
    assert (est.value, est.stderr) == nsm_oracle(chain, 2000, seed, SAMPLE_BATCH)


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


def test_dplus_checks_length_before_building_words():
    with pytest.raises(ValueError, match="code length must be in 1..24, got 1000000000000"):
        dplus_chain(10**12)


def coordinates(m: int):
    """Reals around one period, half of them on the half-integer tie grid."""
    return st.one_of(
        st.floats(-m, 2 * m, allow_nan=False),
        st.integers(-2 * m, 4 * m).map(lambda k: k / 2),
    )


@settings(max_examples=300, deadline=None)
@given(small_chains(), st.data())
def test_coset_decoder_matches_nearest(chain, data):
    m = chain.modulus
    w = data.draw(st.lists(coordinates(m), min_size=chain.n, max_size=chain.n))
    d2 = _CosetDecoder.of(chain).distances(np.mod(np.array([w]), m))[0]
    assert math.isclose(d2, sum((a - b) ** 2 for a, b in zip(w, nearest(chain, w))), abs_tol=1e-9)


@settings(max_examples=60, deadline=None)
@given(small_chains(), st.integers(1000, 3 * SAMPLE_BATCH // 2), st.integers(0, 2**32))
def test_nsm_matches_per_residue_oracle(chain, samples, seed):
    est = nsm_estimate(chain, samples, seed)
    assert (est.value, est.stderr) == nsm_oracle(chain, samples, seed, SAMPLE_BATCH)


EVEN5 = span([(1, 1, 0, 0, 0), (0, 1, 1, 0, 0), (0, 0, 1, 1, 0), (0, 0, 0, 1, 1)])
EVEN6 = span([(1, 1, 0, 0, 0, 0), (0, 1, 1, 0, 0, 0), (0, 0, 1, 1, 0, 0), (0, 0, 0, 1, 1, 0), (0, 0, 0, 0, 1, 1)])
FULL4 = span([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)])
ONES6 = (1,) * 6
BRANCH_CHAINS = {  # (decoded by Wagner's rule, chain)
    "even-weight-L1": (True, CodeChain.of(EVEN5)),
    "even-weight-L3": (True, example5()),
    "even-weight-L3-nested": (True, CodeChain.of(
        span([ONES6]), span([ONES6, (1, 1, 0, 0, 0, 0), (0, 0, 1, 1, 0, 0)]), EVEN6)),
    "one-word-top": (False, example1()),
    "full-space": (False, CodeChain.of(span([(1, 1, 0, 0)]), FULL4)),
    "non-linear": (False, CodeChain.of(span([(1, 1, 1, 1, 1)]), code_from_words(
        [(1, 0, 1, 1, 0), (0, 1, 1, 0, 1), (1, 1, 0, 1, 1), (0, 0, 1, 1, 1)]))),
    # the 21 words of weight one or two: more than one score block per full batch
    "non-linear-blocks": (False, CodeChain.of(span([ONES6]), code_from_words(
        [tuple(int(j in (a, b)) for j in range(6)) for a in range(6) for b in range(a, 7)]))),
}


@pytest.mark.parametrize("wagner,chain", BRANCH_CHAINS.values(), ids=BRANCH_CHAINS.keys())
def test_nsm_branches_match_per_residue_oracle(wagner, chain):
    assert (_CosetDecoder.of(chain).top is None) == wagner
    samples = 2 * SAMPLE_BATCH + 777
    est = nsm_estimate(chain, samples, seed=77, threads=2)
    assert (est.value, est.stderr) == nsm_oracle(chain, samples, 77, SAMPLE_BATCH)


@settings(max_examples=40, deadline=None)
@given(
    st.one_of(small_chains(), st.sampled_from([chain for _, chain in BRANCH_CHAINS.values()])),
    st.integers(1, 3),
    st.integers(1, ROW_BLOCK - 1),
    st.integers(0, 2**32),
)
def test_coset_decoder_distances_equal_residue_scan_bits(chain, blocks, tail, seed):
    # whole row blocks plus a ragged tail, on the sample grid nsm_estimate draws from
    w = streamed(seed, 0, blocks * ROW_BLOCK + tail, chain.n, chain.modulus)
    assert np.array_equal(_CosetDecoder.of(chain).distances(w), residue_scan(chain, w))


def streamed(seed: int, start: int, stop: int, n: int, m: int) -> np.ndarray:
    """Rows start..stop-1 of the scaled sample stream, gathered from the
    workspace's coordinate-major buffer block by block as nsm_estimate decodes them."""
    ws, blocks, offsets = _Workspace(n), [], []
    for offset, k in ws.draw(seed, start, stop, m):
        offsets.append(offset)
        blocks.append(ws.columns(ws.wt, k).T.copy())
    assert offsets == list(range(0, stop - start, ROW_BLOCK))
    return np.concatenate(blocks)


@pytest.mark.parametrize("L", [1, 3, 10])
def test_scaled_draws_lie_on_the_exact_grid(L):
    # random() returns k / 2^53, so a sample times 2^L is a multiple of 2^(L - 53)
    # and every fold difference in the coset decoder is exact
    w = streamed(5, 0, 2 * ROW_BLOCK + 999, 6, 2**L)
    k = w * 2.0 ** (53 - L)
    assert np.array_equal(k, np.floor(k))
    assert ((0 <= w) & (w < 2**L)).all()


CHAINS = Path(__file__).resolve().parent.parent / "perfbench" / "chains"
# (chain, samples, threads, repr of value and stderr) as the row-major decoder
# printed them for the benchmark's nsm items, all at seed 0
PINNED_NSM = {
    "dplus7": (dplus_chain(7), 300_000, 1, "0.07274282041321556", "3.267343044857912e-05"),
    "dplus9": (dplus_chain(9), 100_000, 2, "0.07113806337519271", "4.54342654089478e-05"),
    "cube4": (parse_chain((CHAINS / "cube4.chain").read_text()), 300_000, 1,
              "0.08334452805866528", "6.807688140158073e-05"),
    "nested6": (parse_chain((CHAINS / "nested6.chain").read_text()), 50_000, 1,
                "0.08724377324658189", "0.00013935179238704458"),
}


@pytest.mark.parametrize("chain, samples, threads, value, stderr", PINNED_NSM.values(), ids=PINNED_NSM.keys())
def test_nsm_pinned_at_benchmark_scale(chain, samples, threads, value, stderr):
    est = nsm_estimate(chain, samples, seed=0, threads=threads)
    assert (repr(est.value), repr(est.stderr)) == (value, stderr)


def traced_peak(chain: CodeChain, samples: int, threads: int) -> int:
    """Peak bytes traced by tracemalloc, numpy's buffers included, during one nsm_estimate."""
    tracemalloc.start()
    try:
        nsm_estimate(chain, samples, seed=0, threads=threads)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_nsm_memory_is_one_workspace_per_worker():
    chain = dplus_chain(9)
    nsm_estimate(chain, 20_000, seed=0)  # fills the lower code's residue cache
    workspace = sum(a.nbytes for a in vars(_Workspace(chain.n)).values() if isinstance(a, np.ndarray))
    # 80,000 more samples would add 80 kB to an array of one byte per sample,
    # far over the slack, which covers the per-batch results and numpy's temporaries
    slack = 48 * 1024
    one = traced_peak(chain, 20_000, 1)
    assert one <= workspace + slack
    assert abs(traced_peak(chain, 100_000, 1) - one) <= slack
    assert traced_peak(chain, 100_000, 2) <= 2 * one + slack


@pytest.mark.parametrize("n", [3, 5, 7])
def test_batch_draws_equal_one_shot_stream(n):
    samples = 3 * SAMPLE_BATCH + 1001
    one_shot = np.random.Generator(np.random.Philox(key=12345)).random((samples, n))
    # batch starts past the first, each block of a batch, and a ragged tail
    batches = [
        streamed(12345, start, min(start + SAMPLE_BATCH, samples), n, 1)
        for start in range(0, samples, SAMPLE_BATCH)
    ]
    assert np.array_equal(np.concatenate(batches), one_shot)


def test_nsm_work_guard():
    with pytest.raises(ValueError, match=r"^nsm_estimate: work \d+ exceeds the guard of 10000000000000$"):
        nsm_estimate(dplus_chain(3), 10**13, seed=0)


def work(chain: CodeChain, samples: int) -> int:
    return _decode_work(chain, samples)


def test_work_guard_admits_existing_callers():
    cube = CodeChain.of(code_from_words([(0, 0, 0, 0)]), code_from_words([(0, 0, 0, 0)]))
    assert work(cube, 1_000_000) <= MAX_DECODE_WORK  # criterion 9
    cube4 = CodeChain.of(*[code_from_words([(0, 0, 0, 0)])] * 3)
    assert work(cube4, 300_000) <= MAX_DECODE_WORK  # benchmark items
    assert work(dplus_chain(7), 1_000_000) <= MAX_DECODE_WORK
    for n in range(2, 17):  # dplus_scan defaults, and the scan extended to n = 16
        assert work(dplus_chain(n), 200_000) <= MAX_DECODE_WORK
    assert work(dplus_chain(9), 100_000) <= MAX_DECODE_WORK


def test_work_guard_admits_full_space_search():
    # Z^10 as one level of all 1,024 words, at the CLI's default sample count
    z10 = CodeChain.of(span([tuple(int(i == j) for j in range(10)) for i in range(10)]))
    assert _CosetDecoder.of(z10).top is not None
    assert work(z10, 100_000) == 100_000 * 10 * 1024 <= MAX_DECODE_WORK
