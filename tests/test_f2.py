import random
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ccc.f2 import (
    SpanTracker,
    code_from_words,
    is_linear,
    is_nested,
    schur,
    schur_closed_chain,
    span,
    word,
    xor_add,
    zero_word,
)
from ccc.presets import dplus_chain

from conftest import random_linear_code


def words_of(n):
    return st.lists(st.integers(0, 1), min_size=n, max_size=n).map(tuple)


word_pairs = st.integers(1, 8).flatmap(lambda n: st.tuples(words_of(n), words_of(n)))


def test_xor_add_example():
    assert xor_add((1, 0, 1), (1, 1, 0)) == (0, 1, 1)


def test_schur_example():
    assert schur((1, 0, 1), (1, 1, 0)) == (1, 0, 0)


@given(word_pairs)
def test_commutativity(pair):
    a, b = pair
    assert schur(a, b) == schur(b, a)
    assert xor_add(a, b) == xor_add(b, a)


@given(st.integers(1, 8).flatmap(words_of))
def test_xor_identities(a):
    n = len(a)
    assert xor_add(a, a) == zero_word(n)
    assert xor_add(a, zero_word(n)) == a
    assert schur(a, (1,) * n) == a
    assert schur(a, zero_word(n)) == zero_word(n)


def test_length_mismatch():
    with pytest.raises(ValueError):
        xor_add((1, 0), (1, 0, 1))
    with pytest.raises(ValueError):
        schur((1,), (1, 0))


def test_word_validation():
    with pytest.raises(ValueError):
        word((0, 2, 1))
    with pytest.raises(ValueError):
        word(())


def test_span_examples():
    assert span([(1, 0, 1), (1, 1, 0)]).words == frozenset(
        {(0, 0, 0), (1, 0, 1), (1, 1, 0), (0, 1, 1)}
    )
    assert span([], n=2).words == frozenset({(0, 0)})
    assert span([(1, 1)]).words == frozenset({(0, 0), (1, 1)})


def test_span_requires_length_for_empty():
    with pytest.raises(ValueError):
        span([])


def test_span_checks_length_before_allocating():
    with pytest.raises(ValueError, match=r"code length must be in 1\.\.24, got 1000000000000"):
        span([], n=10**12)


def test_span_generator_guard():
    with pytest.raises(ValueError):
        span([(1, 0)] * 21)


@given(st.integers(1, 6).flatmap(lambda n: st.lists(words_of(n), min_size=0, max_size=6)))
def test_span_size_is_power_of_rank(gens):
    if not gens:
        return
    code = span(gens)
    tracker = SpanTracker(len(gens[0]))
    for g in gens:
        tracker.add(g)
    assert code.size == 1 << tracker.rank
    assert is_linear(code)


@given(st.integers(1, 6).flatmap(lambda n: st.lists(words_of(n), min_size=1, max_size=12)))
def test_basis_is_a_sorted_independent_spanning_subset(rows):
    code = code_from_words(rows)
    basis = code.basis
    assert list(basis) == sorted(basis)
    assert set(basis) <= code.words
    tracker = SpanTracker(code.n)
    for w in basis:
        tracker.add(w)
    assert tracker.rank == len(basis)
    assert not any(tracker.add(w) for w in code.words)
    if is_linear(code):
        assert span(basis, n=code.n).words == code.words


def test_is_linear_examples():
    assert is_linear(code_from_words([(0, 0, 0), (1, 0, 1), (1, 1, 0), (0, 1, 1)]))
    assert is_linear(code_from_words([(0, 0)]))
    assert not is_linear(code_from_words([(1, 0)]))


@given(st.integers(1, 4).flatmap(lambda n: st.lists(words_of(n), min_size=1, max_size=8)))
def test_is_linear_matches_pairwise_definition(rows):
    code = code_from_words(rows)
    by_definition = zero_word(code.n) in code.words and all(
        xor_add(a, b) in code.words for a in code.words for b in code.words
    )
    assert is_linear(code) == by_definition


def test_is_nested_examples():
    repetition = span([(1, 1, 1)])
    parity = span([(1, 1, 0), (0, 1, 1)])
    assert not is_nested(repetition, parity)  # (1,1,1) has odd weight
    assert is_nested(parity, parity)
    assert is_nested(span([], n=3), parity)


def test_is_nested_partial_order():
    rng = random.Random(1001)
    for _ in range(50):
        n = rng.randint(1, 6)
        a = random_linear_code(rng, n, n)
        b = random_linear_code(rng, n, n)
        c = random_linear_code(rng, n, n)
        assert is_nested(a, a)
        if is_nested(a, b) and is_nested(b, a):
            assert a.words == b.words
        if is_nested(a, b) and is_nested(b, c):
            assert is_nested(a, c)


def test_code_requires_equal_lengths():
    with pytest.raises(ValueError):
        code_from_words([(1, 0), (1, 0, 1)])


@pytest.mark.parametrize(
    "rows, message",
    [
        ([(0, 1), (2, 0)], "word entries must be 0 or 1, got 2"),
        ([(), (0, 1)], "words must have positive length"),
        ([(0, 1), ()], "words must have positive length"),
        ([(0,) * 25], "word length 25 exceeds the guard of 24"),
        ([(0, 1), (0,) * 25], "word length 25 exceeds the guard of 24"),
        ([(1, 0), (1, 0, 1)], "word (1, 0, 1) does not have length 2"),
        ([], "a code must contain at least one word"),
    ],
    ids=["entry-2", "empty-first-row", "empty-later-row", "long-first-row", "long-later-row", "unequal", "no-rows"],
)
def test_code_from_words_error_messages(rows, message):
    # the rows are validated once, by BinaryCode; each fault keeps the message
    # it had when every row was also checked on its own first
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        code_from_words(rows)


def test_schur_closed_chain_rejects_nonlinear():
    bad = code_from_words([(1, 0)])
    with pytest.raises(ValueError):
        schur_closed_chain([bad, bad])


def test_schur_closed_chain_triple_of_equal_codes():
    code = span([(1, 0, 1), (1, 1, 0)])
    closed, witness = schur_closed_chain([code, code, code])
    assert not closed
    level, x, y = witness
    assert level == 1
    assert schur(x, y) not in code.words
    # lexicographically first violating pair
    assert (x, y) == ((0, 1, 1), (1, 0, 1))
    # the classic demonstration pair violates closure as well
    assert schur((1, 0, 1), (1, 1, 0)) not in code.words


def test_schur_closed_dplus():
    assert schur_closed_chain(dplus_chain(4)) == (True, None)
    closed, witness = schur_closed_chain(dplus_chain(3))
    assert not closed
    assert witness == (1, (1, 1, 1), (1, 1, 1))
