import gc
import random
import sys
import weakref
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ccc import constellation, spectrum as spectrum_mod
from ccc.constellation import CodeChain, ResidueSet, contains, residues
from ccc.f2 import code_from_words, span
from ccc.presets import dplus_chain, example5
from ccc.spectrum import EdsWitness, cw_count, cw_equidistant, eds_check, kissing_stats, spectrum_at
from ccc.uniformity import gu_subgroup_search

import conftest
from conftest import (
    brute_spectrum,
    class_scan_oracle,
    eds_oracle,
    key_table_oracle,
    kissing_oracle,
    members,
    random_l2_chain,
    random_member,
    random_nested_chain,
    sign_candidates,
    small_chains,
    stored_column_entries,
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


def test_cw_count_sign_pattern_guard():
    chain = CodeChain.of(span([(1,) * 21]))
    with pytest.raises(ValueError, match=r"^cw_members: work 2097152 exceeds the guard of 1048576$"):
        cw_count(chain, (0,) * 21, (1,) * 21)


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
    eds = _outcome(eds_oracle, chain, r2max)
    kissing = kissing_oracle(chain)
    # the class scan is shared, so either call may be the one that runs it
    residues.cache_clear()
    assert _outcome(eds_check, chain, r2max) == eds
    assert kissing_stats(chain) == kissing
    residues.cache_clear()
    assert kissing_stats(chain) == kissing
    assert _outcome(eds_check, chain, r2max) == eds


@settings(max_examples=150, deadline=None)
@given(small_chains())
@example(CodeChain.of(span([(1,)])))  # L = 1: the nearest shell is the key (1,), at m/2
@example(CodeChain.of(code_from_words([(0, 0, 0, 0), (1, 1, 1, 1)])))  # (1,1,1,1) ties m * Z^4 at m^2
@example(CodeChain.of(span([], n=4), code_from_words([(0, 0, 0, 0), (1, 1, 1, 1)])))  # (2,2,2,2) ties at m^2
def test_nearest_shell_is_the_first_spectrum_entry(chain):
    rs, m2 = residues(chain), chain.modulus ** 2
    for c, keys, shell in rs.class_shells():
        assert rs.nearest_shell(keys) == shell == min(spectrum_at(chain, c, m2).counts.items())


@pytest.mark.parametrize("oracle", [lambda chain: eds_oracle(chain, 64), kissing_oracle], ids=["eds", "kissing"])
def test_spectrum_oracles_check_their_budget(monkeypatch, oracle):
    # dplus_chain(7) has 128 residues, so 128^2 keys, one over the lowered budget
    spectra = []
    monkeypatch.setattr(conftest, "spectrum_at", lambda *args: spectra.append(args))
    monkeypatch.setattr(conftest, "ORACLE_KEY_BUDGET", 128 * 128 - 1)
    with pytest.raises(pytest.fail.Exception, match=r"oracle: 16384 folded keys exceed the oracle budget of 16383$"):
        oracle(dplus_chain(7))
    assert spectra == []


def wide_trivial_period_chain() -> CodeChain:
    """n = 14, L = 1: 10,001 random nonzero words and period group {0}, so |R/H| * |R| > 10^8."""
    words = random.Random(0).sample(range(1, 1 << 14), 10_001)
    return CodeChain.of(code_from_words([tuple(w >> j & 1 for j in range(14)) for w in words]))


@pytest.mark.parametrize(
    "call, routine, work",
    [
        (lambda: eds_check(wide_trivial_period_chain(), 4), "spectrum class scan", 10_001 * 10_001),
        (lambda: eds_check(dplus_chain(3), 10**8), "spectrum enumeration", (10**8 + 1) * 8),
        (lambda: kissing_stats(wide_trivial_period_chain()), "spectrum class scan", 10_001 * 10_001),
    ],
    ids=["classes-trivial-period14", "radius-dplus3", "kissing-classes-trivial-period14"],
)
def test_spectrum_work_guards(call, routine, work):
    with pytest.raises(ValueError, match=rf"^{routine}: work {work} exceeds the guard of 100000000$"):
        call()


def test_kissing_stats_counts_only_the_keys_it_reads():
    # 2 residues {0, 1} mod 2^14: a table out to 4^14 would be (4^14 + 1) * 2
    # entries, but kissing_stats reads 2 * 2 folded keys and builds no table
    chain = CodeChain.of(span([(1,)]), *[span([], n=1)] * 13)
    assert kissing_stats(chain) == (1, {1})


def test_class_scan_guard_counts_the_keys_it_reads():
    # a lattice has one coset of H = R, so the scan reads 2^14 keys where |R|^2 is 2.7e8
    assert eds_check(dplus_chain(14), 64) == (True, None)


def test_class_scan_checks_its_own_guard(monkeypatch):
    # 16,383 hand-built residues mod 128 with no candidate, so H = {0}: the
    # public method refuses the 16,383^2 folded keys before reading one
    rs = ResidueSet(2, 128, frozenset(range(1, 1 << 14)))
    centers = []
    monkeypatch.setattr(ResidueSet, "key_counts", lambda self, c: centers.append(c) or frozenset())
    with pytest.raises(ValueError, match=r"^spectrum class scan: work 268402689 exceeds the guard of 100000000$"):
        list(rs.class_shells())
    assert centers == []


def count_folded_keys(monkeypatch) -> list[int]:
    """Count the folded keys read: |R| per key_counts call."""
    calls = [0]
    original = ResidueSet.key_counts

    def spy(self, c):
        calls[0] += len(self)
        return original(self, c)

    monkeypatch.setattr(ResidueSet, "key_counts", spy)
    return calls


def test_table_guard_refuses_before_the_class_scan(monkeypatch):
    # eds_check checks its per-table guard first, so a too-large r2max reads no key
    residues.cache_clear()
    calls = count_folded_keys(monkeypatch)
    with pytest.raises(ValueError, match=r"^spectrum enumeration: work 800000008 exceeds the guard of 100000000$"):
        eds_check(dplus_chain(3), 10**8)
    assert calls[0] == 0


def test_class_scan_runs_once_per_residue_set(monkeypatch):
    chain = dplus_chain(4)  # 16 residues, one spectrum class
    calls = count_folded_keys(monkeypatch)
    for _ in range(2):
        residues.cache_clear()
        calls[0] = 0
        assert eds_check(chain, 16) == (True, None)
        kissing_stats(chain)
        assert gu_subgroup_search(chain).verdict == "certified"
        # a lattice: one coset of its period group, so the scan reads the 16
        # keys of one representative; a one-class chain builds no table, and
        # eds_check and kissing_stats read the shell the scan recorded
        assert calls[0] == 16


def trivial_period_chain() -> CodeChain:
    """Three non-linear levels at n = 5: 48 residues, many classes, period group {0}."""
    rng = random.Random(7)
    words = [[tuple(rng.randint(0, 1) for _ in range(5)) for _ in range(k)] for k in (6, 5, 4)]
    return CodeChain(codes=tuple(code_from_words(w) for w in words))


def shell_equal_chain() -> CodeChain:
    """n = 3, L = 3: two classes share their nearest shell (2, 1) but part at d2 = 6."""
    c1, c2, c3 = ([(0, 0, 0), w] for w in ((1, 0, 1), (0, 1, 1), (1, 0, 0)))
    return CodeChain(codes=(code_from_words(c1), code_from_words(c2), code_from_words(c3)))


def spy_spectrum_at(monkeypatch) -> list:
    """Record the center of every spectrum_at call that eds_check makes."""
    centers = []
    original = spectrum_mod.spectrum_at

    def spy(chain, c, r2max, **kwargs):
        centers.append(c)
        return original(chain, c, r2max, **kwargs)

    monkeypatch.setattr(spectrum_mod, "spectrum_at", spy)
    return centers


def shell_equal_centers(chain: CodeChain, witness: EdsWitness | None) -> list:
    """Where eds_check builds tables: the first class, then each class up to the
    witness (classes come in residue order) whose nearest shell is the first's;
    none if no such class follows the first."""
    (first, _, shell), *rest = residues(chain).class_shells()
    later = [c for c, _, s in rest if s == shell and (witness is None or c <= witness.center_b)]
    return [first] + later if later else []


def test_one_spectrum_at_call_per_class(monkeypatch):
    # eds_check compares nearest shells first and calls spectrum_at only where
    # the shells agree: once per such class and once for the first class;
    # kissing_stats reads each class's nearest shell and builds no table
    centers = spy_spectrum_at(monkeypatch)
    residues.cache_clear()
    assert eds_check(dplus_chain(9), 64) == (True, None)  # one class: no table
    assert centers == []
    e5 = example5()
    assert eds_check(e5, 256) == (False, EdsWitness((0, 0, 0), (0, 1, 1), 2, 6, 4))  # refuted at the shells
    kissing_stats(e5)
    assert centers == []
    for chain in (shell_equal_chain(), trivial_period_chain()):
        centers.clear()
        _, witness = eds_check(chain, chain.modulus ** 2)
        assert centers == shell_equal_centers(chain, witness)
    assert centers  # the trivial-period chain builds tables
    assert shell_equal_centers(shell_equal_chain(), None) == [(0, 0, 0), (0, 2, 2)]
    # three classes with shell (1, 1), equal out to 8: the first table is built once
    chain = CodeChain(codes=tuple(map(code_from_words, ([(0, 0), (0, 1)], [(1, 0)], [(0, 0), (1, 0), (1, 1)]))))
    centers.clear()
    assert eds_check(chain, 8) == (True, None)
    assert centers == shell_equal_centers(chain, None) == [(2, 0), (6, 0), (6, 4)]


def test_shells_agree_but_spectra_differ():
    # trusting the equal nearest shells alone would report equal spectra
    chain = shell_equal_chain()
    residues.cache_clear()
    assert [shell for _, _, shell in residues(chain).class_shells()] == [(2, 1), (2, 1)]
    assert eds_check(chain, 256) == (False, EdsWitness((0, 0, 0), (0, 2, 2), 6, 0, 1))
    assert eds_check(chain, 5) == (True, None)  # the spectra agree below 6
    assert eds_check(chain, 6) == eds_oracle(chain, 6)


def test_nearest_shell_computed_once_per_class(monkeypatch):
    # the class scan records each class's shell, so eds_check at m^2 and at
    # 4m^2 (gu_subgroup_search's radius) and kissing_stats share it
    calls = []
    original = ResidueSet.nearest_shell

    def spy(self, keys):
        calls.append(keys)
        return original(self, keys)

    monkeypatch.setattr(ResidueSet, "nearest_shell", spy)
    for chain in (dplus_chain(5), example5(), shell_equal_chain(), trivial_period_chain()):
        residues.cache_clear()
        calls.clear()
        m2 = chain.modulus ** 2
        first = _outcome(eds_check, chain, m2)
        wide = _outcome(eds_check, chain, 4 * m2)
        kissing_stats(chain)
        assert _outcome(eds_check, chain, m2) == first and _outcome(eds_check, chain, 4 * m2) == wide
        assert calls == [keys for _, keys, _ in residues(chain).class_shells()]


@pytest.mark.parametrize(
    "chain, cosets, keys",
    [
        # two cosets of 2 * (even-weight code); the per-residue scan read 1,120 keys
        (dplus_chain(5), 2, 2 * 32),
        # the n <= 6 search guard refuses after the scan; the per-residue scan read 4,200,448
        (dplus_chain(11), 2, 2 * 2048),
        # no period but 0: the scan reads |R|^2 keys, as the per-residue scan
        # did; eds_check's spectrum_at calls, where the shells agree, are
        # handed its keys instead of reading 48 each
        (trivial_period_chain(), 48, 48 * 48),
    ],
    ids=["dplus5", "dplus11", "trivial-period"],
)
def test_class_scan_reads_one_center_per_coset(monkeypatch, chain, cosets, keys):
    residues.cache_clear()
    assert residues(chain).coset_count() == cosets
    calls = count_folded_keys(monkeypatch)
    eds_check(chain, chain.modulus ** 2)
    kissing_stats(chain)
    try:
        gu_subgroup_search(chain)
    except ValueError as exc:
        assert chain.n > 6 and str(exc).startswith("gu_subgroup_search: work")
    assert calls[0] == keys
    residues.cache_clear()
    calls[0] = 0
    list(residues(chain).class_shells())
    assert calls[0] == keys


def test_search_guard_reached_after_the_coset_scan(monkeypatch):
    chain = dplus_chain(11)
    residues.cache_clear()
    rs = residues(chain)
    calls = count_folded_keys(monkeypatch)
    with pytest.raises(ValueError, match=r"^gu_subgroup_search: work 81749606400 exceeds the guard of 46080$"):
        gu_subgroup_search(chain)
    assert 0 < calls[0] <= rs.coset_count() * len(rs)


@settings(max_examples=150, deadline=None)
@given(small_chains(), st.data())
def test_class_scan_matches_every_residue_scan(chain, data):
    residues.cache_clear()
    reps = class_scan_oracle(chain)
    m2 = chain.modulus ** 2
    r2max = data.draw(st.integers(1, 2 * m2), label="r2max")
    fresh = [spectrum_at(chain, c, m2).counts for c in reps]  # before any scan
    rs = residues(chain)
    assert [c for c, _, _ in rs.class_shells()] == reps
    assert [keys for _, keys, _ in rs.class_shells()] == [rs.key_counts(c) for c in reps]
    assert [spectrum_at(chain, c, m2).counts for c in reps] == fresh  # after the scan
    eds, kissing = _outcome(eds_oracle, chain, r2max), kissing_oracle(chain)
    for first_eds in (True, False):
        residues.cache_clear()
        if first_eds:
            assert _outcome(eds_check, chain, r2max) == eds
        assert kissing_stats(chain) == kissing
        assert _outcome(eds_check, chain, r2max) == eds


def test_class_scan_stops_at_the_second_class(monkeypatch):
    even = span([(1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1)])
    chain = CodeChain.of(even, even, even, even)  # 4096 residues, refuted
    residues.cache_clear()
    calls = count_folded_keys(monkeypatch)
    equal, _ = eds_check(chain, 256)
    assert not equal
    assert calls[0] <= 4 * 4096


def key_digits(L: int):
    """Sorted folded keys mod 2^L of up to five digits: small ones and the half period m/2."""
    half = 1 << (L - 1)
    digit = st.one_of(st.integers(0, min(half, 12)), st.just(half))
    return st.lists(digit, max_size=5).map(sorted).map(tuple)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 12).flatmap(lambda L: st.tuples(st.just(L), key_digits(L), st.integers(1, 4000))))
@example((12, (0, 1, 2048), 4000))  # m/2 = 2048 lies beyond r2max
@example((3, (0, 4, 4), 40))  # two digits m/2, both inside r2max
@example((2, (1, 2), 4))  # r2max below the first shell, 1 + 4
@example((2, (), 1))  # the empty prefix: the point 0 alone
def test_key_table_matches_the_dense_convolution(case):
    L, key, r2max = case
    assert spectrum_mod._key_table(1 << L, key, r2max) == key_table_oracle(1 << L, key, r2max)


def test_key_tables_share_their_sorted_prefixes():
    spectrum_mod._key_table.cache_clear()
    spectrum_mod._key_table(8, (1, 2, 3), 64)
    spectrum_mod._key_table(8, (1, 2, 4), 64)
    # (), (1,), (1, 2) once each, then the two full keys
    assert spectrum_mod._key_table.cache_info().currsize == 5


def test_one_center_and_one_coset_store_no_column(monkeypatch):
    # spectrum_at reads the keys of one center and never the period group;
    # a lattice's class scan reads one center, so neither stores a column
    reads = []
    original = ResidueSet.period_words.func
    monkeypatch.setattr(ResidueSet, "period_words", property(lambda self: reads.append(self) or original(self)))
    residues.cache_clear()
    for chain in (dplus_chain(8), trivial_period_chain()):
        spectrum_at(chain, next(iter(residues(chain))), 16)
        assert reads == []
        assert stored_column_entries(residues(chain)) == 0
    residues.cache_clear()
    rs = residues(dplus_chain(8))
    assert len(list(rs.class_shells())) == 1
    assert reads and all(r is rs for r in reads)
    assert stored_column_entries(rs) == 0


@pytest.mark.parametrize("columns", [0, 1, 3, None])
def test_stored_columns_stay_within_the_budget(monkeypatch, columns):
    # 48 residues, period group {0}: the scan asks 48 centers, n = 5 lanes each
    chain = trivial_period_chain()
    budget = constellation.COLUMN_STORE_ENTRIES if columns is None else 48 * columns + 47
    monkeypatch.setattr(constellation, "COLUMN_STORE_ENTRIES", budget)
    residues.cache_clear()
    expected = kissing_stats(chain), _outcome(eds_check, chain, 64)
    rs = residues(chain)
    stored = stored_column_entries(rs)
    if columns is None:
        assert 0 < stored <= budget
    else:
        assert stored == 48 * columns
    assert [keys for _, keys, _ in rs.class_shells()] == [rs.key_counts(c) for c in class_scan_oracle(chain)]
    monkeypatch.setattr(constellation, "COLUMN_STORE_ENTRIES", 0)
    residues.cache_clear()
    assert (kissing_stats(chain), _outcome(eds_check, chain, 64)) == expected


def test_residue_set_dies_with_the_cache(e3):
    refuted = e3  # the scan stops early and leaves residues unread
    scanned = dplus_chain(4)
    enabled = gc.isenabled()
    gc.disable()  # a reference cycle would keep the set alive until a collection
    try:
        residues.cache_clear()
        assert not eds_check(refuted, 4)[0]
        kissing_stats(scanned)
        refs = [weakref.ref(residues(refuted)), weakref.ref(residues(scanned))]
        residues.cache_clear()
        assert [r() for r in refs] == [None, None]
    finally:
        if enabled:
            gc.enable()


def test_class_scan_shared_between_threads():
    rng = random.Random(7)
    words = [[tuple(rng.randint(0, 1) for _ in range(5)) for _ in range(k)] for k in (6, 5, 4)]
    chain = CodeChain(codes=tuple(code_from_words(w) for w in words))
    residues.cache_clear()
    expected = [(c, keys) for c, keys, _ in residues(chain).class_shells()]
    assert len(expected) > 8
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            residues.cache_clear()
            rs = residues(chain)
            with ThreadPoolExecutor(8) as pool:
                futures = [pool.submit(lambda: [(c, keys) for c, keys, _ in rs.class_shells()]) for _ in range(8)]
                results = [f.result(timeout=60) for f in futures]
            assert results == [expected] * 8
    finally:
        sys.setswitchinterval(interval)


def test_column_store_shared_between_threads(monkeypatch):
    # 8 threads ask every center's keys at once: each sees the keys a lone
    # caller sees, and the columns stored stay within a three-column budget
    chain = trivial_period_chain()
    monkeypatch.setattr(constellation, "COLUMN_STORE_ENTRIES", 3 * 48 + 47)
    residues.cache_clear()
    centers = list(residues(chain))
    expected = [residues(chain).key_counts(c) for c in centers]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            residues.cache_clear()
            rs = residues(chain)
            with ThreadPoolExecutor(8) as pool:
                futures = [pool.submit(lambda: [rs.key_counts(c) for c in centers]) for _ in range(8)]
                results = [f.result(timeout=60) for f in futures]
            assert results == [expected] * 8
            assert stored_column_entries(rs) <= 3 * 48
    finally:
        sys.setswitchinterval(interval)


def test_eds_rejects_nonpositive_radius(e1):
    for r2max in (0, -5):
        with pytest.raises(ValueError, match="at least 1"):
            eds_check(e1, r2max)
