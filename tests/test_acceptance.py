"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines inline.
"""

import json
import random
import time
from contextlib import contextmanager

from ccc.cli import main
from ccc.constellation import CodeChain, contains, residues
from ccc.f2 import code_from_words
from ccc.lattice import equivalence_report, is_lattice_direct
from ccc.presets import dplus_chain, example1, example3, example5
from ccc.quantizer import nsm_estimate
from ccc.spectrum import cw_equidistant, eds_check, kissing_stats
from ccc.uniformity import (
    euclidean_partner_all,
    gu_check_two_level,
    partner_bruteforce,
    partner_construct,
)

from conftest import all_subspaces, random_l2_chain, random_member, random_nested_chain


@contextmanager
def criterion(number: int, description: str, budget_s: float):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[criterion {number:2d}] FAIL  {description}")
        raise
    elapsed = time.perf_counter() - started
    print(f"[criterion {number:2d}] PASS  {description}  ({elapsed:.2f}s)")
    assert elapsed <= budget_s, f"criterion {number} exceeded its {budget_s}s budget"


def cli_json(capsys, *argv) -> tuple[int, dict]:
    code = main([*argv, "--format", "json"])
    return code, json.loads(capsys.readouterr().out)


def test_criterion_1_example1_golden(capsys):
    with criterion(1, "example1: residues, lattice refuted with witness, gu certified", 1.0):
        chain = example1()
        rs = residues(chain)
        assert frozenset(rs) == frozenset({(0, 0), (1, 1)}) and rs.modulus == 4
        code, report = cli_json(capsys, "lattice", "--preset", "example1")
        assert code == 1
        assert report["results"]["is_lattice"] is False
        assert report["results"]["witness"] == {"s": [1, 1], "t": [1, 1], "sum_mod": [2, 2]}
        code, report = cli_json(capsys, "gu", "--preset", "example1")
        assert code == 0 and report["results"]["uniform"] is True


def test_criterion_2_kissing_variation(capsys):
    with criterion(2, "example3: d2min=1 with kissing {1,2}; eds exits 1 with witness", 1.0):
        d2min, kissing = kissing_stats(example3())
        assert d2min == 1 and kissing == {1, 2}
        code, report = cli_json(capsys, "eds", "--preset", "example3", "--r2max", "4")
        assert code == 1
        w = report["results"]["witness"]
        assert w == {"center_a": [0], "center_b": [1], "d2": 1, "count_a": 1, "count_b": 2}


def test_criterion_3_example3_partner_refutation():
    with criterion(3, "example3: no sign partner for (0,3,9); candidates {6,12} non-members", 1.0):
        chain = example3()
        assert partner_bruteforce(chain, (0,), (3,), (9,)) is None
        candidates = {9 - 3, 9 + 3}
        assert candidates == {6, 12}
        assert all(not contains(chain, (c,)) for c in candidates)


def test_criterion_4_example5_partner_refutation_and_euclidean_partner():
    with criterion(4, "example5: no sign partner; Euclidean partner at d2=50 incl (8,9,9)", 1.0):
        chain = example5()
        x, y, xp = (1, 0, 1), (5, 3, 6), (3, 5, 6)
        assert partner_bruteforce(chain, x, y, xp) is None
        solutions = euclidean_partner_all(chain, x, y, xp)
        assert solutions
        assert all(sum((a - b) ** 2 for a, b in zip(s, xp)) == 50 for s in solutions)
        assert (8, 9, 9) in solutions


def test_criterion_5_four_way_equivalence():
    with criterion(5, "four lattice criteria agree: exhaustive n<=3 L=2 plus 500 random L=3", 300.0):
        checked = 0
        for n in (1, 2, 3):
            subspaces = all_subspaces(n)
            for c1 in subspaces:
                for c2 in subspaces:
                    if not c1.words <= c2.words:
                        continue
                    rep = equivalence_report(CodeChain.of(c1, c2))
                    assert rep.consistent, (n, sorted(c1.words), sorted(c2.words), rep.flags())
                    checked += 1
        # nested subspace pairs: 3 for n=1, 12 for n=2, 66 for n=3
        assert checked == 81
        rng = random.Random(50_001)
        for _ in range(500):
            chain = random_nested_chain(rng, nmax=4, levels=3)
            rep = equivalence_report(chain)
            assert rep.consistent, (chain, rep.flags())
            checked += 1
        assert checked == 581


def test_criterion_6_two_level_uniformity_suite():
    with criterion(6, "200 random two-level linear chains: gu certified and eds true at 64", 300.0):
        rng = random.Random(60_001)
        for _ in range(200):
            chain = random_l2_chain(rng, nmax=6)
            res = gu_check_two_level(chain)
            assert res.uniform and len(res.certificates) == len(residues(chain))
            equal, witness = eds_check(chain, 4 * 16)
            assert equal, (chain, witness)


def test_criterion_7_constructive_partner_vs_oracle():
    with criterion(7, "1000 random triples: constructive partner valid, brute oracle agrees", 60.0):
        rng = random.Random(70_001)
        for _ in range(1000):
            chain = random_l2_chain(rng, nmax=5)
            x, y, xp = (random_member(rng, chain) for _ in range(3))
            yprime, _ = partner_construct(chain, x, y, xp)
            assert contains(chain, yprime)
            assert cw_equidistant(
                tuple(a - b for a, b in zip(yprime, xp)),
                tuple(a - b for a, b in zip(y, x)),
            )
            assert partner_bruteforce(chain, x, y, xp) is not None


def test_criterion_8_dplus_parity():
    with criterion(8, "dplus n=2..8: all-true exactly for even n; gu certifies odd n", 10.0):
        for n in range(2, 9):
            rep = equivalence_report(dplus_chain(n))
            assert rep.consistent
            assert rep.verdict == (n % 2 == 0), (n, rep.flags())
            if n % 2 == 1:
                assert gu_check_two_level(dplus_chain(n)).uniform


def test_criterion_9_quantizer_sanity():
    with criterion(9, "NSM: cubic cell at 1/12 within 3 sigma; dplus7 below 1/12 at 5 sigma", 120.0):
        cube = CodeChain.of(code_from_words([(0, 0, 0, 0)]), code_from_words([(0, 0, 0, 0)]))
        est = nsm_estimate(cube, 1_000_000, seed=901)
        assert abs(est.value - 1 / 12) <= 3 * est.stderr, (est.value, est.stderr)
        est7 = nsm_estimate(dplus_chain(7), 1_000_000, seed=902)
        assert est7.value < 1 / 12
        assert (1 / 12 - est7.value) / est7.stderr >= 5, (est7.value, est7.stderr)


DETERMINISM_COMMANDS = [
    ["info", "--preset", "example5", "--format", "json"],
    ["lattice", "--preset", "example1", "--format", "json"],
    ["theorem1", "--preset", "dplus4", "--format", "json"],
    ["theorem1", "--preset", "example5", "--format", "json"],
    ["spectrum", "--preset", "example3", "--center", "1", "--r2max", "16", "--format", "json"],
    ["eds", "--preset", "example3", "--r2max", "4", "--format", "json"],
    ["eds", "--preset", "dplus5", "--format", "json"],
    ["gu", "--preset", "dplus5", "--format", "json"],
    ["gu-search", "--preset", "example3", "--format", "json"],
    ["gu-search", "--preset", "example1", "--format", "json"],
    ["partner", "--preset", "example3", "--mode", "cw-brute", "--x", "0", "--y", "3", "--xp", "9", "--format", "json"],
    ["partner", "--preset", "example5", "--mode", "euclid-brute", "--x", "1,0,1", "--y", "5,3,6", "--xp", "3,5,6", "--format", "json"],
    ["partner", "--preset", "example1", "--mode", "lemma1", "--x", "0,0", "--y", "1,1", "--xp", "1,1", "--format", "json"],
    ["nsm", "--preset", "dplus3", "--samples", "10000", "--seed", "31337", "--format", "json"],
    ["dplus", "--n", "7"],
    ["presets"],
]


def test_criterion_10_determinism(capsys):
    with criterion(10, "byte-identical output across repeat runs and thread counts", 120.0):
        for argv in DETERMINISM_COMMANDS:
            runs = []
            threaded = []
            for _ in range(2):
                code = main(list(argv))
                runs.append((code, capsys.readouterr().out))
            for t in ("1", "8"):
                extra = [] if argv[0] in ("dplus", "presets") else ["--threads", t]
                code = main(list(argv) + extra)
                threaded.append((code, capsys.readouterr().out))
            assert runs[0] == runs[1], argv
            assert threaded[0] == threaded[1], argv
            assert runs[0] == threaded[0], argv
