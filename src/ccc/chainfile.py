"""Line-oriented chain file format.

::

    # comment
    n 3
    L 3
    code 1 explicit
    000
    101
    code 2 generator
    110
    code 3 explicit
    000

Rows are bit strings of length n.  ``explicit`` blocks list the words of the
code; ``generator`` blocks list a spanning set that is expanded on load.  The
printed form is always explicit with sorted rows, so parse(print(chain))
round-trips exactly.
"""

from __future__ import annotations

from .constellation import CodeChain
from .f2 import BinaryCode, Word, code_from_words, span


class ChainFormatError(ValueError):
    """Raised for malformed chain files, with line context in the message."""


def parse_chain(text: str) -> CodeChain:
    lines = _content_lines(text)
    n = _header(lines, 0, "n")
    level_count = _header(lines, 1, "L")
    if n < 1:
        raise ChainFormatError(f"n must be positive, got {n}")
    if level_count < 1:
        raise ChainFormatError(f"L must be positive, got {level_count}")
    codes: list[BinaryCode] = []
    seen: set[int] = set()
    idx = 2
    while idx < len(lines):
        lineno, line = lines[idx]
        parts = line.split()
        if len(parts) != 3 or parts[0] != "code" or parts[2] not in ("explicit", "generator"):
            raise ChainFormatError(
                f"line {lineno}: expected 'code <level> explicit|generator', got {line!r}"
            )
        try:
            level = int(parts[1])
        except ValueError:
            raise ChainFormatError(f"line {lineno}: bad level number {parts[1]!r}") from None
        if level in seen:
            raise ChainFormatError(f"line {lineno}: duplicate level {level}")
        if level != len(seen) + 1:
            raise ChainFormatError(
                f"line {lineno}: levels must appear in order 1..{level_count}, got {level}"
            )
        seen.add(level)
        idx += 1
        rows: list[Word] = []
        while idx < len(lines) and not lines[idx][1].startswith("code"):
            rows.append(_parse_row(lines[idx], n, level))
            idx += 1
        if parts[2] == "explicit" and not rows:
            raise ChainFormatError(f"level {level}: empty code")
        try:
            codes.append(code_from_words(rows) if parts[2] == "explicit" else span(rows, n=n))
        except ValueError as exc:  # the length and size guards of f2
            raise ChainFormatError(exc.args[0]) from None
    if len(codes) != level_count:
        raise ChainFormatError(f"expected {level_count} code blocks, found {len(codes)}")
    return CodeChain(codes=tuple(codes))


def format_chain(chain: CodeChain) -> str:
    """Canonical explicit form: one block per level, rows sorted."""
    out = [f"n {chain.n}", f"L {chain.L}"]
    for level, code in enumerate(chain.codes, start=1):
        out.append(f"code {level} explicit")
        out.extend("".join(str(b) for b in w) for w in code.sorted_words())
    return "\n".join(out) + "\n"


def _content_lines(text: str) -> list[tuple[int, str]]:
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append((lineno, line))
    return out


def _header(lines: list[tuple[int, str]], idx: int, key: str) -> int:
    if idx >= len(lines):
        raise ChainFormatError(f"missing '{key} <int>' header line")
    lineno, line = lines[idx]
    parts = line.split()
    if len(parts) != 2 or parts[0] != key:
        raise ChainFormatError(f"line {lineno}: expected '{key} <int>', got {line!r}")
    try:
        return int(parts[1])
    except ValueError:
        raise ChainFormatError(f"line {lineno}: bad integer {parts[1]!r}") from None


def _parse_row(entry: tuple[int, str], n: int, level: int) -> Word:
    lineno, line = entry
    if len(line) != n:
        raise ChainFormatError(
            f"line {lineno}: row at level {level} has length {len(line)}, expected {n}"
        )
    for ch in line:
        if ch not in "01":
            raise ChainFormatError(
                f"line {lineno}: invalid symbol {ch!r} at level {level}, row {line!r}"
            )
    return tuple(int(ch) for ch in line)
