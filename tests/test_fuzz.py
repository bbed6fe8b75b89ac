"""Fuzzed inputs: chain files and command lines end in a result or a clean refusal.

Every number drawn for main() is one that a guard refuses before the work it
would size is allocated, and no thread count is one that would start a pool.
"""

import contextlib
import io
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccc.chainfile import ChainFormatError, parse_chain
from ccc.cli import main
from ccc.constellation import CodeChain


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


def run_main(argv, env=None) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        if env is None:
            mp.delenv("CCC_THREADS", raising=False)
        else:
            mp.setenv("CCC_THREADS", env)
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
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
CCC_THREADS = st.sampled_from([None, "two", "1.5", "", "0x2", "2 threads"])


@st.composite
def command_lines(draw) -> list[str]:
    command = draw(st.sampled_from(
        ["dplus", "presets", "info", "lattice", "theorem1", "gu", "spectrum", "eds", "gu-search", "nsm"]
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
    threads = draw(THREADS_REFUSED)
    if threads is not None:
        argv += ["--threads", threads]
    return argv + ["--format", draw(st.sampled_from(["human", "json", "tsv"]))]


@settings(max_examples=300, deadline=None)
@given(command_lines(), CCC_THREADS)
def test_main_on_fuzzed_command_lines(argv, env):
    assert_clean(*run_main(argv, env))
