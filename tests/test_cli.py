import io
import json
import os
import random
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import ccc
from ccc import cli, parallel, spectrum
from ccc.chainfile import parse_chain
from ccc.cli import main
from ccc.constellation import ResidueSet, residues
from ccc.presets import example5


def run_cli(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv) -> tuple[int, dict]:
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    return code, json.loads(out)


def test_lattice_example1_refuted(capsys):
    code, report = run_json(capsys, "lattice", "--preset", "example1")
    assert code == 1
    assert report["results"]["is_lattice"] is False
    assert report["results"]["witness"]["s"] == [1, 1]
    assert report["input"]["n"] == 2


def test_gu_example1_certified(capsys):
    code, report = run_json(capsys, "gu", "--preset", "example1")
    assert code == 0
    assert report["results"]["uniform"] is True
    assert {"x": [1, 1], "signs": [-1, -1]} in report["results"]["certificates"]


def test_eds_example3_exit_one(capsys):
    code, report = run_json(capsys, "eds", "--preset", "example3", "--r2max", "4")
    assert code == 1
    w = report["results"]["witness"]
    assert (w["center_a"], w["center_b"], w["d2"]) == ([0], [1], 1)
    assert (w["count_a"], w["count_b"]) == (1, 2)


def test_eds_shells_agree_but_spectra_differ(capsys, tmp_path):
    # both classes have nearest shell (2, 1); the spectra first differ at 6
    path = tmp_path / "shells.chain"
    path.write_text("n 3\nL 3\ncode 1 explicit\n000\n101\ncode 2 explicit\n000\n011\ncode 3 explicit\n000\n100\n")
    code, report = run_json(capsys, "eds", str(path))
    assert code == 1
    assert report["results"]["r2max"] == 256
    assert report["results"]["witness"] == {"center_a": [0, 0, 0], "center_b": [0, 2, 2], "d2": 6, "count_a": 0, "count_b": 1}


CHAINS = Path(__file__).parent / "chains"


def test_spectrum_e8_theta_series(capsys):
    # RM(1,3) + 2Z^8 is sqrt(2) E8: norms 2, 4, 6, 8 of E8's theta series, doubled
    code, report = run_json(capsys, "spectrum", str(CHAINS / "e8.chain"), "--center", ",".join("0" * 8), "--r2max", "16")
    assert code == 0
    assert report["results"]["counts"] == [[4, 240], [8, 2160], [12, 6720], [16, 17520]]


def test_eds_e8_one_class(capsys):
    chain = parse_chain((CHAINS / "e8.chain").read_text())
    assert len(list(ccc.residues(chain).class_shells())) == 1  # a lattice: its residues form one class
    code, report = run_json(capsys, "eds", str(CHAINS / "e8.chain"))
    assert code == 0
    assert report["results"] == {"eds": True, "r2max": 16, "witness": None}


def test_theorem1_dplus4_all_true(capsys):
    code, report = run_json(capsys, "theorem1", "--preset", "dplus4")
    assert code == 0
    r = report["results"]
    assert r["verdict"] is True and r["consistent"] is True
    assert all(r[k] for k in ("is_lattice", "equals_smallest_lattice", "schur_closed", "equals_construction_d"))


def test_theorem1_example5_all_false(capsys):
    code, report = run_json(capsys, "theorem1", "--preset", "example5")
    assert code == 1
    assert report["results"]["verdict"] is False
    assert report["results"]["consistent"] is True


def test_theorem1_nonlinear_is_input_error(capsys, tmp_path):
    path = tmp_path / "bad.chain"
    path.write_text("n 2\nL 1\ncode 1 explicit\n10\n")
    code, out, err = run_cli(capsys, "theorem1", str(path))
    assert code == 2
    assert "linear" in err


def test_spectrum_tsv(capsys):
    code, out, _ = run_cli(
        capsys, "spectrum", "--preset", "example3", "--center", "0", "--r2max", "9",
        "--format", "tsv",
    )
    assert code == 0
    assert out == "1\t1\n4\t1\n9\t1\n"


def test_tsv_rejected_elsewhere(capsys):
    code, _, err = run_cli(capsys, "info", "--preset", "example1", "--format", "tsv")
    assert code == 2
    assert "tsv" in err


def test_tsv_rejected_before_the_analysis(capsys):
    # gu would fail on the three-level chain; the format error must come first
    code, out, err = run_cli(capsys, "gu", "--preset", "example3", "--format", "tsv")
    assert code == 2
    assert out == ""
    assert "tsv" in err


def test_partner_modes(capsys):
    code, report = run_json(
        capsys, "partner", "--preset", "example3", "--mode", "cw-brute",
        "--x", "0", "--y", "3", "--xp", "9",
    )
    assert code == 1 and report["results"]["partner"] is None

    code, report = run_json(
        capsys, "partner", "--preset", "example5", "--mode", "euclid-brute",
        "--x", "1,0,1", "--y", "5,3,6", "--xp", "3,5,6",
    )
    assert code == 0
    assert report["results"]["d2"] == 50
    assert [8, 9, 9] in report["results"]["solutions"]

    code, report = run_json(
        capsys, "partner", "--preset", "example1", "--mode", "lemma1",
        "--x", "0,0", "--y", "1,1", "--xp", "1,1",
    )
    assert code == 0
    assert report["results"]["partner"] == [0, 0]
    assert report["results"]["trace"]["delta"] == [0, 0]


def test_gu_search_verdicts(capsys):
    code, report = run_json(capsys, "gu-search", "--preset", "example1")
    assert code == 0 and report["results"]["verdict"] == "certified"
    code, report = run_json(capsys, "gu-search", "--preset", "example3")
    assert code == 1 and report["results"]["verdict"] == "refuted_by_eds"


def test_nsm_report(capsys):
    code, report = run_json(
        capsys, "nsm", "--preset", "dplus3", "--samples", "2000", "--seed", "42"
    )
    assert code == 0
    assert report["seed"] == 42
    assert report["results"]["samples"] == 2000
    assert report["results"]["covolume"] == "8/1"
    assert report["results"]["value"] > 0


def test_nsm_work_guard_is_input_error(capsys):
    code, out, err = run_cli(capsys, "nsm", "--preset", "dplus3", "--samples", "10000000000000")
    assert code == 2 and out == ""
    assert err == "error: nsm_estimate: work 60000000000000 exceeds the guard of 10000000000000\n"


@pytest.mark.parametrize("seed", [-1, 2**128], ids=["negative", "past-philox-key"])
def test_nsm_seed_out_of_range_is_input_error(capsys, seed):
    code, out, err = run_cli(capsys, "nsm", "--preset", "dplus3", "--samples", "2000", "--seed", str(seed))
    assert code == 2 and out == ""
    assert err == f"error: seed must be in 0..2**128-1, got {seed}\n"


def test_nsm_largest_seed_runs(capsys):
    code, report = run_json(capsys, "nsm", "--preset", "dplus3", "--samples", "2000", "--seed", str(2**128 - 1))
    assert code == 0
    assert report["seed"] == report["results"]["seed"] == 2**128 - 1


def test_dplus_output_parses(capsys):
    code, out, _ = run_cli(capsys, "dplus", "--n", "5")
    assert code == 0
    chain = parse_chain(out)
    assert chain.n == 5 and chain.codes[0].size == 2 and chain.codes[1].size == 16


def test_presets_listing(capsys):
    code, out, _ = run_cli(capsys, "presets")
    assert code == 0
    for name in ("example1", "example3", "example5", "dplusN"):
        assert name in out


@pytest.mark.parametrize(
    "name", ["dplus٣", "dplus3\n", "dplus003"], ids=["arabic-indic-digit", "trailing-newline", "leading-zeros"]
)
def test_non_canonical_preset_name_is_unknown(capsys, name):
    code, out, err = run_cli(capsys, "info", "--preset", name, "--format", "json")
    assert code == 2 and out == ""
    assert err == f"error: unknown preset {name!r}; see 'ccc presets'\n"


def test_gu_search_guard_after_spectra_is_input_error(capsys):
    code, out, err = run_cli(capsys, "gu-search", "--preset", "dplus11")
    assert code == 2 and out == ""
    assert err == "error: gu_subgroup_search: work 81749606400 exceeds the guard of 46080\n"


def text_stdin(text: str) -> io.TextIOWrapper:
    """A stand-in for sys.stdin that, like the real one, has a byte buffer."""
    return io.TextIOWrapper(io.BytesIO(text.encode()))


def test_huge_length_is_input_error(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", text_stdin("n 1000000000000\nL 1\ncode 1 generator\n"))
    code, out, err = run_cli(capsys, "info", "-")
    assert code == 2 and out == ""
    assert err == "error: code length must be in 1..24, got 1000000000000\n"


@pytest.mark.parametrize(
    "argv",
    [("dplus", "--n", "1000000000000"), ("lattice", "--preset", "dplus1000000000000")],
    ids=["dplus", "preset"],
)
def test_huge_dplus_is_input_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err == "error: code length must be in 1..24, got 1000000000000\n"


def test_euclidean_partner_shell_guard_is_input_error(capsys):
    code, out, err = run_cli(
        capsys, "partner", "--preset", "example1", "--mode", "euclid-brute",
        "--x", "0,0", "--xp", "0,0", "--y", "4000,4000",
    )
    assert code == 2 and out == ""
    assert err == "error: euclidean_partner_all: work 32001649 exceeds the guard of 10000000\n"


def test_reflection_guard_is_input_error(capsys, monkeypatch):
    # C1 = F2^14 over C2 = {0}: H = {0}, so 2^14 reflection checks of 2^14 lookups each
    units = "".join("".join("1" if i == j else "0" for i in range(14)) + "\n" for j in range(14))
    monkeypatch.setattr("sys.stdin", text_stdin(f"n 14\nL 2\ncode 1 generator\n{units}code 2 generator\n"))
    code, out, err = run_cli(capsys, "gu", "-")
    assert code == 2 and out == ""
    assert err == "error: gu_check_two_level: work 268435456 exceeds the guard of 100000000\n"


def random_chain_text(sizes: tuple[int, ...], n: int = 10, seed: int = 12) -> str:
    """A chain file of one level per size, each that many distinct random words of length n."""
    rng = random.Random(seed)
    levels = [rng.sample(range(1 << n), k) for k in sizes]
    return f"n {n}\nL {len(sizes)}\n" + "".join(
        f"code {i} explicit\n" + "".join(f"{w:0{n}b}\n" for w in words) for i, words in enumerate(levels, 1)
    )


def test_class_keys_guard_refuses_before_the_first_key_count(capsys, monkeypatch):
    # n = 10, L = 3 and H = {0}: each of the |R| classes the scan may find keeps
    # at most min(|R|, C(10 + 4, 10)) = 1001 keys.  7,200 residues may keep
    # 7,207,200 keys, which is refused; 2,000 residues (2,002,000) still run
    centers = []
    key_counts = ResidueSet.key_counts

    def spy(self, c):
        centers.append(c)
        assert len(self) == 2000, "a key count of the refused chain"
        return key_counts(self, c)

    monkeypatch.setattr(ResidueSet, "key_counts", spy)
    monkeypatch.setattr("sys.stdin", text_stdin(random_chain_text((20, 20, 18))))
    code, out, err = run_cli(capsys, "eds", "-")
    assert code == 2 and out == ""
    assert err == "error: spectrum class keys: work 7207200 exceeds the guard of 4000000\n"
    assert centers == []
    rs = residues(parse_chain(random_chain_text((20, 10, 10))))
    assert rs.coset_count() == len(rs) == 2000
    assert next(rs.class_shells())[0] == centers[0] == next(iter(rs))


def test_sign_pattern_guard_is_input_error(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", text_stdin(f"n 21\nL 1\ncode 1 generator\n{'1' * 21}\n"))
    zeros, ones = ",".join("0" * 21), ",".join("1" * 21)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "partner", "-", "--mode", "cw-brute", "--x", zeros, "--y", ones, "--xp", zeros)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err == "error: cw_members: work 2097152 exceeds the guard of 1048576\n"


def test_chain_file_and_stdin(capsys, tmp_path, monkeypatch):
    text = "n 1\nL 3\ncode 1 explicit\n0\n1\ncode 2 explicit\n0\n1\ncode 3 explicit\n0\n"
    path = tmp_path / "chain.txt"
    path.write_text(text)
    code, report = run_json(capsys, "info", str(path))
    assert code == 0 and report["results"]["residue_count"] == 4

    monkeypatch.setattr("sys.stdin", text_stdin(text))
    code, report = run_json(capsys, "info", "-")
    assert code == 0 and report["results"]["L"] == 3


def test_input_errors(capsys, tmp_path):
    code, _, err = run_cli(capsys, "eds", "--preset", "nosuch")
    assert code == 2 and "unknown preset" in err

    code, _, err = run_cli(capsys, "info")
    assert code == 2 and "required" in err

    path = tmp_path / "c.txt"
    path.write_text("n 2\nL 1\ncode 1 explicit\n02\n")
    code, _, err = run_cli(capsys, "info", str(path))
    assert code == 2 and "invalid symbol" in err

    code, _, err = run_cli(capsys, "info", str(path), "--preset", "example1")
    assert code == 2 and "not both" in err


@pytest.mark.parametrize(
    "kind, reason",
    [("missing", "No such file or directory"), ("directory", "Is a directory"), ("not-utf8", "not valid UTF-8")],
)
def test_unreadable_chain_file_names_path_and_reason(capsys, tmp_path, kind, reason):
    path = tmp_path / "c.chain"
    if kind == "directory":
        path.mkdir()
    elif kind == "not-utf8":
        path.write_bytes(b"\xff\xfen 1\n")
    code, out, err = run_cli(capsys, "info", str(path))
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {path}: {reason}")


CHAIN_COMMANDS = {
    "info": ["info"],
    "lattice": ["lattice"],
    "theorem1": ["theorem1"],
    "spectrum": ["spectrum", "--center", "0,0", "--r2max", "4"],
    "eds": ["eds"],
    "gu": ["gu"],
    "gu-search": ["gu-search"],
    "partner": ["partner", "--mode", "cw-brute", "--x", "0,0", "--y", "1,1", "--xp", "0,0"],
    "nsm": ["nsm", "--samples", "1000"],
}


@pytest.mark.parametrize("command", sorted(CHAIN_COMMANDS))
def test_bad_thread_count_is_input_error(capsys, monkeypatch, command):
    argv = CHAIN_COMMANDS[command] + ["--preset", "example1"]
    code, out, err = run_cli(capsys, *argv, "--threads", "-1")
    assert (code, out) == (2, "")
    assert err.startswith("error: thread count") and "Traceback" not in err

    # --threads is the one source of a thread count: the environment changes nothing
    expected = run_cli(capsys, *argv, "--format", "json")[:2]
    monkeypatch.setenv("CCC_THREADS", "two")
    assert run_cli(capsys, *argv, "--format", "json")[:2] == expected


def test_spectrum_table_guard_refuses_before_the_first_convolution(capsys, monkeypatch, tmp_path):
    # one residue, so the cheap guard passes with 10^6 + 1 entries, but the one
    # key (0,) * 8 meets profiles of 1,001 entries: 6 * 10^9 pairs at most
    path = tmp_path / "zero8.chain"
    path.write_text("n 8\nL 1\ncode 1 explicit\n00000000\n")
    monkeypatch.setattr(spectrum, "_key_table", None)  # no table may be convolved
    code, out, err = run_cli(capsys, "spectrum", str(path), "--center", "0,0,0,0,0,0,0,0", "--r2max", "1000000")
    assert (code, out) == (2, "")
    assert err == "error: spectrum tables: work 6007009008 exceeds the guard of 100000000\n"


def test_nsm_thread_pool_is_capped(capsys, monkeypatch):
    started: list[int] = []

    class CountingThread(threading.Thread):
        """Stands in for the pool's worker threads: counts each one started."""

        def start(self):
            started.append(1)
            super().start()

    argv = ["nsm", "--preset", "dplus3", "--samples", str(5 * 8192 - 100), "--seed", "3"]
    _, serial = run_json(capsys, *argv, "--threads", "1")
    monkeypatch.setattr(parallel.threading, "Thread", CountingThread)
    sizes = []
    for cores in (8, 3):
        monkeypatch.setattr(parallel.os, "cpu_count", lambda: cores)
        started.clear()
        code, capped = run_json(capsys, *argv, "--threads", "64")
        assert code == 0 and capped == serial
        sizes.append(len(started))
    assert sizes == [5, 3]  # 5 batches, then 3 cores


def test_digest_is_canonical(capsys, tmp_path):
    generator = "n 3\nL 3\ncode 1 generator\n101\n110\ncode 2 generator\n101\n110\ncode 3 generator\n101\n110\n"
    path = tmp_path / "g.txt"
    path.write_text(generator)
    _, rep_file = run_json(capsys, "info", str(path))
    _, rep_preset = run_json(capsys, "info", "--preset", "example5")
    assert rep_file["input"]["digest"] == rep_preset["input"]["digest"]
    assert parse_chain(generator) == example5()


def deep_chain_text() -> str:
    """n = 2, L = 40: C1 = C2 = C40 = {00, 11} and {00} elsewhere, so |R| = 8 and m = 2^40."""
    blocks = [f"code {i} explicit\n00" + ("\n11" if i in (1, 2, 40) else "") for i in range(1, 41)]
    return "n 2\nL 40\n" + "\n".join(blocks) + "\n"


@pytest.mark.parametrize(
    "argv, exit_code, results",
    [
        (
            ("spectrum", "--center", "0,0", "--r2max", "8"),
            0,
            {"center": [0, 0], "counts": [[2, 1], [8, 1]], "r2max": 8, "total": 2},
        ),
        (
            ("eds", "--r2max", "4"),
            1,
            {
                "eds": False,
                "r2max": 4,
                "witness": {"center_a": [0, 0], "center_b": [1, 1], "count_a": 1, "count_b": 2, "d2": 2},
            },
        ),
        (
            ("theorem1",),
            1,
            {
                "consistent": True,
                "equals_construction_d": False,
                "equals_smallest_lattice": False,
                "is_lattice": False,
                "schur_closed": False,
                "verdict": False,
            },
        ),
    ],
    ids=["spectrum", "eds", "theorem1"],
)
def test_deep_chain_reports(capsys, monkeypatch, argv, exit_code, results):
    # nothing in the spectrum or lattice paths may be sized by the modulus 2^40
    monkeypatch.setattr("sys.stdin", text_stdin(deep_chain_text()))
    start = time.perf_counter()
    code, report = run_json(capsys, *argv, "-")
    assert time.perf_counter() - start < 1.0
    assert code == exit_code
    assert report == {
        "command": argv[0],
        "input": {
            "L": 40,
            "digest": "f94309956f2845003b1fdcb7fae27b17307d9c41e72408a579be53ece6556362",
            "n": 2,
            "preset": None,
        },
        "results": results,
    }


def z16_chain_text() -> str:
    """n = 1, L = 16, every level {0, 1}: the lattice Z, with 2^16 residues and 2^15 + 1 folded distances."""
    return "n 1\nL 16\n" + "".join(f"code {i} generator\n1\n" for i in range(1, 17))


@pytest.mark.parametrize(
    "argv, results",
    [
        (
            ("spectrum", "--center", "0", "--r2max", "4"),
            {"center": [0], "counts": [[1, 2], [4, 2]], "r2max": 4, "total": 4},
        ),
        (("eds", "--r2max", "4"), {"eds": True, "r2max": 4, "witness": None}),
    ],
    ids=["spectrum", "eds"],
)
def test_many_residue_lattice_reports(capsys, monkeypatch, argv, results):
    # the class scan reads 2^16 keys at one center; no key may grow with the
    # number of distinct folded distances the scan meets
    monkeypatch.setattr("sys.stdin", text_stdin(z16_chain_text()))
    start = time.perf_counter()
    code, report = run_json(capsys, *argv, "-")
    assert time.perf_counter() - start < 10.0
    assert code == 0
    assert report == {
        "command": argv[0],
        "input": {
            "L": 16,
            "digest": "ef37c3afdb8526387382bdb4818ecd6d6ba0847955790996f53f28f1d6fb8372",
            "n": 1,
            "preset": None,
        },
        "results": results,
    }


def test_internal_key_error_is_not_an_input_error(monkeypatch):
    def broken(chain, args):
        raise KeyError("internal")

    monkeypatch.setitem(cli._HANDLERS, "info", broken)
    with pytest.raises(KeyError, match="internal"):
        main(["info", "--preset", "example1"])


def ccc_process(*argv: str, locale: str | None = None, **kwargs) -> subprocess.Popen:
    src = str(Path(ccc.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    if locale is not None:
        env["LC_ALL"] = locale
    return subprocess.Popen([sys.executable, "-m", "ccc.cli", *argv], env=env, stderr=subprocess.PIPE, **kwargs)


@pytest.mark.parametrize("lines_read", [0, 1])
def test_closed_pipe_keeps_the_verdict(lines_read):
    # with one line read, the 343 kB report overfills the pipe, so the writer is
    # blocked when the reader leaves; with none, the reader is gone before the write
    proc = ccc_process("gu", "--preset", "dplus10", "--format", "json", stdout=subprocess.PIPE)
    assert [proc.stdout.readline() for _ in range(lines_read)] == [b"{\n"] * lines_read
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 0 and err == b""


def test_closed_stdin_is_input_error():
    proc = ccc_process("info", "-", stdout=subprocess.PIPE, preexec_fn=lambda: os.close(0))
    out, err = proc.communicate(timeout=60)
    assert proc.returncode == 2 and out == b""
    assert err == b"error: -: stdin is closed\n"


def test_non_utf8_stdin_is_input_error():
    # under the C locale the text layer of stdin would let the bytes through as surrogates
    proc = ccc_process("info", "-", locale="C", stdin=subprocess.PIPE, stdout=subprocess.PIPE)
    out, err = proc.communicate(b"\xff\xfe", timeout=60)
    assert proc.returncode == 2 and out == b""
    assert err == b"error: -: not valid UTF-8 (byte 0: invalid start byte)\n"
