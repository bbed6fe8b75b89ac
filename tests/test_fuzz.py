"""Fuzzed inputs: chain files and command lines end in a result or a clean refusal.

Every number drawn for main() is one that a guard refuses before the work it
would size is allocated, and no thread count is one that would start a pool.
The partner searches also run on drawn members, within their guards.  Every
fuzzed main() call returns within CALL_SECONDS.
"""

import contextlib
import io
import os
import tempfile
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccc.chainfile import ChainFormatError, parse_chain
from ccc.cli import main
from ccc.constellation import CodeChain, residues
from ccc.presets import get_preset


def parses_or_refuses(text: str) -> None:
    try:
        chain = parse_chain(text)
    except ChainFormatError:
        return
    assert isinstance(chain, CodeChain)


@settings(max_examples=300, deadline=None)
@given(st.text())
def test_parse_chain_random_text(text):
    parses_or_refuses(text)


@settings(max_examples=300, deadline=None)
@given(st.binary())
def test_parse_chain_random_bytes(data):
    parses_or_refuses(data.decode("latin-1"))


LENGTHS = st.one_of(st.integers(-2, 6), st.sampled_from([21, 24, 25, 10**12]))
LINES = st.one_of(
    LENGTHS.map(lambda v: f"n {v}"),
    LENGTHS.map(lambda v: f"L {v}"),
    st.tuples(LENGTHS, st.sampled_from(["explicit", "generator", "other"])).map(
        lambda t: f"code {t[0]} {t[1]}"
    ),
    st.text(alphabet="012 x", max_size=7),
    st.sampled_from(["", "# comment", "n", "L 1 2", "code", "n x"]),
)


@st.composite
def chain_like(draw) -> str:
    """Header lines and code blocks of mostly well-formed rows, plus stray lines."""
    n = draw(LENGTHS)
    lines = [f"n {n}", f"L {draw(LENGTHS)}"]
    row = st.text(alphabet="01", min_size=n, max_size=n) if 1 <= n <= 25 else st.text(alphabet="01")
    for level in range(1, draw(st.integers(0, 4)) + 1):
        number = draw(st.one_of(st.just(level), LENGTHS))
        lines.append(f"code {number} {draw(st.sampled_from(['explicit', 'generator']))}")
        lines += draw(st.lists(row, max_size=22))
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(LINES))
    return "\n".join(lines)


@settings(max_examples=500, deadline=None)
@given(chain_like())
def test_parse_chain_chain_like_text(text):
    """Text that mostly follows the file grammar, so the parse gets past its headers."""
    parses_or_refuses(text)


def test_parse_chain_refuses_library_guards_as_format_errors():
    with pytest.raises(ChainFormatError, match=r"^code length must be in 1\.\.24, got 25$"):
        parse_chain("n 25\nL 1\ncode 1 generator\n")
    rows = "".join(f"{1 << i:021b}\n" for i in range(21))
    with pytest.raises(ChainFormatError, match=r"^21 generators exceed the guard of 20$"):
        parse_chain(f"n 21\nL 1\ncode 1 generator\n{rows}")


# Bound on one fuzzed main() call.  The slowest of 1,500 drawn calls took 0.15 s (nsm's first
# numpy import); the largest work the guards admit here, euclid-brute on dplus5 members at squared
# distance 565 (8 * 10^6 shell steps), takes about 1 s on one Xeon core.
CALL_SECONDS = 5.0


def run_main(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    started = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    elapsed = time.perf_counter() - started
    assert elapsed < CALL_SECONDS, f"{argv} took {elapsed:.3f} s"
    return code, out.getvalue(), err.getvalue()


def assert_clean(code, out, err) -> None:
    assert code in (0, 1, 2)
    assert "Traceback" not in out + err
    if code == 2:
        assert out == ""


@settings(max_examples=100, deadline=None)
@given(st.binary(max_size=200))
def test_main_on_random_chain_files(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fuzz.chain")
        with open(path, "wb") as fh:
            fh.write(data)
        assert_clean(*run_main(["info", path]))


PRESETS = st.sampled_from(
    ["example1", "example3", "example5", "dplus2", "dplus3", "dplus4", "dplus5",
     "dplus0", "dplus1", "dplus25", "dplus1000000000000", "nosuch"]
)
N_REFUSED = st.sampled_from([-(10**12), -1, 0, 1, 25, 10**12])
R2MAX_REFUSED = st.sampled_from([-(10**12), -1, 0, 10**12])
SAMPLES_REFUSED = st.sampled_from([-(10**12), -1, 0, 999, 10**14, 10**30])
SEEDS = st.sampled_from([-(2**128), -1, 0, 2**128 - 1, 2**128, 2**200])
THREADS_REFUSED = st.sampled_from([None, "-1", "-64"])
# Wrong lengths, empty or non-integer parts, non-members, and the Euclidean shell guard's 4000,4000.
COORDINATES = st.one_of(
    st.lists(st.integers(-3, 3), max_size=5).map(lambda v: ",".join(map(str, v))),
    st.sampled_from(["", ",", "0,,0", "x", "1.5", "0,0,", " 1, 1", "4000,4000"]),
)


def members_of(preset: str):
    """Members of the preset's constellation, a residue plus a period translate, as coordinate lists."""
    try:
        chain = get_preset(preset)
    except ValueError:
        return st.nothing()
    n, m = chain.n, chain.modulus
    return st.tuples(st.sampled_from(sorted(residues(chain))), st.lists(st.integers(-1, 1), min_size=n, max_size=n)).map(
        lambda t: ",".join(str(s + m * z) for s, z in zip(*t))
    )


@st.composite
def command_lines(draw) -> list[str]:
    command = draw(st.sampled_from(
        ["dplus", "presets", "info", "lattice", "theorem1", "gu", "spectrum", "eds", "gu-search", "nsm", "partner"]
    ))
    if command == "dplus":
        return ["dplus", "--n", str(draw(N_REFUSED))]
    if command == "presets":
        return ["presets"]
    argv = [command, "--preset", draw(PRESETS)]
    if command == "spectrum":
        argv += ["--center", draw(st.sampled_from(["0", "0,0", "0,0,0", "1,0,0", "x"]))]
        argv += ["--r2max", str(draw(R2MAX_REFUSED))]
    elif command in ("eds", "gu-search") and draw(st.booleans()):
        argv += ["--r2max", str(draw(R2MAX_REFUSED))]
    elif command == "nsm":
        argv += ["--samples", str(draw(SAMPLES_REFUSED)), "--seed", str(draw(SEEDS))]
    elif command == "partner":  # no refused option, so that the searches run
        point = st.one_of(members_of(argv[2]), COORDINATES)
        argv += ["--mode", draw(st.sampled_from(["lemma1", "cw-brute", "euclid-brute"]))]
        argv += [f"--{name}={draw(point)}" for name in ("x", "y", "xp")]
        return argv + ["--format", draw(st.sampled_from(["human", "json"]))]
    threads = draw(THREADS_REFUSED)
    if threads is not None:
        argv += ["--threads", threads]
    return argv + ["--format", draw(st.sampled_from(["human", "json", "tsv"]))]


@settings(max_examples=300, deadline=None)
@given(command_lines())
def test_main_on_fuzzed_command_lines(argv):
    assert_clean(*run_main(argv))
