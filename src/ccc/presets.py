"""Named chains used throughout the tests and the command line."""

from __future__ import annotations

import re

from .constellation import CodeChain
from .f2 import code_from_words, span

_DPLUS = re.compile(r"dplus(0|[1-9][0-9]*)")  # ASCII digits, no leading zero: one spelling per chain


def example1() -> CodeChain:
    """n=2, L=2: diagonal pair over the zero code; not a lattice, uniform."""
    return CodeChain.of(span([(1, 1)]), code_from_words([(0, 0)]))


def example3() -> CodeChain:
    """n=1, L=3: full binary digits under a zero top level; kissing number varies."""
    full = code_from_words([(0,), (1,)])
    return CodeChain.of(full, full, code_from_words([(0,)]))


def example5() -> CodeChain:
    """n=3, L=3: three equal parity-type codes; nested but not Schur closed."""
    code = span([(1, 0, 1), (1, 1, 0)])
    return CodeChain.of(code, code, code)


def get_preset(name: str) -> CodeChain:
    if name in _FIXED:
        return _FIXED[name]()
    m = _DPLUS.fullmatch(name)
    if m:
        from .quantizer import dplus_chain

        return dplus_chain(int(m.group(1)))
    raise ValueError(f"unknown preset {name!r}; see 'ccc presets'")


def preset_descriptions() -> list[tuple[str, str]]:
    out = [(name, fn.__doc__.split("\n")[0]) for name, fn in _FIXED.items()]
    out.append(("dplusN", "n=N, L=2: repetition plus even-weight codes; lattice iff N even"))
    return out


_FIXED = {"example1": example1, "example3": example3, "example5": example5}
