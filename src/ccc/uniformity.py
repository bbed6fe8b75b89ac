"""Geometric uniformity machinery for two-level and general constellations.

Two-level constellations built from linear codes are geometrically uniform:
for each member x, reflecting the coordinates where x's level-1 digit is 1
maps the translated constellation onto itself.  Because sign flips preserve
the period sublattice 2^L * Z^n, that infinite-set equality reduces to an
exact residue-set equality.  For three or more levels the property can fail;
this module provides the constructive two-level partner, brute-force partner
searches that expose the failures, and a restricted isometry search.

Both brute-force partner searches share one coordinate-wise search,
``constellation.cw_members``: the sign-flip partner of y - x at x' is a
member at x' +/- |y - x|, and the Euclidean sphere of radius ||y - x|| around
x' is the union of such searches over the nonnegative vectors of that norm.
"""

from __future__ import annotations

from functools import partial
from itertools import permutations, product
from math import comb, factorial, isqrt
from typing import Iterable, NamedTuple, Sequence

from .constellation import CodeChain, Point, ResidueSet, check_work, contains, cw_members, decompose, residues
from .f2 import Record
from .spectrum import EdsWitness, cw_equidistant, default_eds_radius, eds_check

MAX_SEARCH_CANDIDATES = 2**6 * 720  # signed permutations 2^n * n!, so n <= 6
MAX_SHELL_STEPS = 10**7  # shell-walk ends of the Euclidean partner search, estimated before it starts
MAX_REFLECTION_WORK = 10**8  # residue lookups of the reflection checks, one scan of R per coset


class ReflectionMap(Record):
    """Coordinate sign-flip map; an involution preserving squared norms.

    Equal when the signs are equal; ``signs`` is read-only.
    """

    _fields = ("signs",)
    signs: tuple[int, ...]

    def __init__(self, signs: Iterable[int]):
        signs = tuple(signs)
        if any(s not in (-1, 1) for s in signs):
            raise ValueError("reflection signs must be +1 or -1")
        self._store(signs)

    def apply(self, p: Sequence[int]) -> Point:
        if len(p) != len(self.signs):
            raise ValueError(f"point has length {len(p)}, expected {len(self.signs)}")
        return tuple(s * v for s, v in zip(self.signs, p))


def reflection_for(chain: CodeChain, x: Sequence[int]) -> ReflectionMap:
    """The member's own symmetry: flip exactly the coordinates where its
    level-1 digit is 1."""
    if chain.L != 2:
        raise ValueError("reflection certificates are defined for two-level chains")
    digits, _ = decompose(chain, x)
    return ReflectionMap(signs=tuple(-1 if b else 1 for b in digits[0]))


class GuCertificate(NamedTuple):
    """One verified member symmetry: the reflection carrying the constellation
    minus x back onto itself."""

    x: Point
    signs: tuple[int, ...]


class GuTwoLevelResult(NamedTuple):
    uniform: bool
    certificates: tuple[GuCertificate, ...]
    failing: Point | None


def gu_check_two_level(chain: CodeChain) -> GuTwoLevelResult:
    """Verify the reflection symmetry at every residue of a two-level linear chain.

    For each residue x the check is the exact set equality
    {T_x(s - x) mod 4 : s residue} == residues, which is sound because T_x
    maps 4*Z^n to itself.  T_x is a signed permutation with the identity
    permutation, so the test is the one the isometry search runs.  T_x
    reads x mod 2, so the check runs per coset with ``even=True``, and its
    |R| lookups per coset are guarded before the first check.  x is already
    a residue, so its signs are read off x_j mod 2, its level-1 digit,
    without ``reflection_for``'s membership test; ``maps_onto`` gives the
    verdict.
    """
    if chain.L != 2:
        raise ValueError("the reflection certificate requires exactly two levels")
    if not chain.all_linear():
        raise ValueError("the reflection certificate requires linear codes")
    rs = residues(chain)
    check_work("gu_check_two_level", rs.coset_count(even=True) * len(rs), MAX_REFLECTION_WORK)
    identity = tuple(range(chain.n))

    def check(x: Point) -> tuple[tuple[int, ...], bool]:
        signs = tuple(-1 if v & 1 else 1 for v in x)
        return signs, rs.maps_onto(x, identity, signs)

    certs: list[GuCertificate] = []
    for x, (signs, ok) in rs.per_coset(check, even=True):
        if not ok:
            return GuTwoLevelResult(uniform=False, certificates=tuple(certs), failing=x)
        certs.append(GuCertificate(x=x, signs=signs))
    return GuTwoLevelResult(uniform=True, certificates=tuple(certs), failing=None)


class IsometryCandidate(NamedTuple):
    """A signed permutation plus translation: T(p)_j = signs[j] * p[perm[j]] + translation[j]."""

    permutation: tuple[int, ...]
    signs: tuple[int, ...]
    translation: Point

    def apply(self, p: Sequence[int]) -> Point:
        if len(p) != len(self.permutation):
            raise ValueError(f"point has length {len(p)}, expected {len(self.permutation)}")
        return tuple(
            s * p[k] + t for s, k, t in zip(self.signs, self.permutation, self.translation)
        )


class GuSearchResult(NamedTuple):
    verdict: str  # "certified" | "refuted_by_eds" | "inconclusive"
    eds_witness: EdsWitness | None
    isometries: tuple[IsometryCandidate, ...]
    unresolved: Point | None


def gu_subgroup_search(chain: CodeChain, r2max: int | None = None) -> GuSearchResult:
    """Decide uniformity as far as signed permutations allow.

    Unequal spectra refute uniformity outright, whatever the isometry group.
    Otherwise every residue is searched for a signed permutation (composed
    with the translation sending it to the origin) that maps the residue set
    onto itself; success for all residues certifies uniformity.  A failed
    search is reported as inconclusive because isometries outside this
    subgroup remain possible.

    Whether a signed permutation fixes R at x depends only on R - x, so the
    search runs per coset; each residue gets its own translation.
    """
    if r2max is None:
        r2max = default_eds_radius(chain)
    equal, witness = eds_check(chain, r2max)
    if not equal:
        return GuSearchResult(
            verdict="refuted_by_eds", eds_witness=witness, isometries=(), unresolved=None
        )
    check_work("gu_subgroup_search", 2**chain.n * factorial(chain.n), MAX_SEARCH_CANDIDATES)
    rs = residues(chain)
    found: list[IsometryCandidate] = []
    for x, hit in rs.per_coset(partial(_first_symmetry, rs)):
        if hit is None:
            return GuSearchResult(
                verdict="inconclusive", eds_witness=None, isometries=tuple(found), unresolved=x
            )
        perm, signs = hit
        translation = tuple(-s * x[k] for s, k in zip(signs, perm))
        found.append(IsometryCandidate(permutation=perm, signs=signs, translation=translation))
    return GuSearchResult(
        verdict="certified", eds_witness=None, isometries=tuple(found), unresolved=None
    )


def _first_symmetry(rs: ResidueSet, x: Point) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """The first (perm, signs), in the fixed search order, whose map at x fixes the residues."""
    for perm in permutations(range(rs.n)):
        for signs in product((1, -1), repeat=rs.n):
            if rs.maps_onto(x, perm, signs):
                return perm, signs
    return None


class PartnerTrace(NamedTuple):
    """Intermediate quantities of the constructive partner derivation."""

    e1: tuple[int, ...]
    e2: tuple[int, ...]
    e1p: tuple[int, ...]
    e2p: tuple[int, ...]
    delta: tuple[int, ...]
    zbar: Point
    yprime: Point


def partner_construct(
    chain: CodeChain, x: Sequence[int], y: Sequence[int], xp: Sequence[int]
) -> tuple[Point, PartnerTrace]:
    """Build y' with |y'_i - xp_i| == |y_i - x_i| for all i, constructively.

    Works for any two-level linear chain.  The digit words of y' are the
    mod-2 digit differences of (y - x) shifted to xp; the integer part gets a
    per-coordinate correction delta in {-1, 0, 1} chosen by four cases:

      1. either digit difference is 0            -> delta = 0
      2. sign products agree on both sides       -> delta = 0
      3. products differ, shifted digits equal   -> delta = -e1p
      4. products differ, shifted digits unequal -> delta = +e1p

    The integer difference (zt - z) enters with its sign flipped exactly when
    the shifted digit difference reverses orientation (e1p == -e1, or, with a
    zero level-1 difference, e2p == -e2): in that branch y' - xp mirrors
    y - x, otherwise it replicates it.  The result is asserted against its
    defining property; an assertion failure would mean the case analysis is
    wrong, not that no partner exists.
    """
    if chain.L != 2:
        raise ValueError("the constructive partner requires exactly two levels")
    if not chain.all_linear():
        raise ValueError("the constructive partner requires linear codes")
    (c1, c2), z = decompose(chain, x)
    (c1t, c2t), zt = decompose(chain, y)
    (c1p, c2p), zp = decompose(chain, xp)
    n = chain.n
    c1pp = tuple((c1t[i] - c1[i] + c1p[i]) % 2 for i in range(n))
    c2pp = tuple((c2t[i] - c2[i] + c2p[i]) % 2 for i in range(n))
    e1 = tuple(c1t[i] - c1[i] for i in range(n))
    e2 = tuple(c2t[i] - c2[i] for i in range(n))
    e1p = tuple(c1pp[i] - c1p[i] for i in range(n))
    e2p = tuple(c2pp[i] - c2p[i] for i in range(n))
    delta: list[int] = []
    zbar_list: list[int] = []
    for i in range(n):
        if e1[i] == 0 or e2[i] == 0:
            d = 0
        elif e1[i] * e2[i] == e1p[i] * e2p[i]:
            d = 0
        elif e1p[i] == e2p[i]:
            d = -e1p[i]
        else:
            d = e1p[i]
        delta.append(d)
        if e1[i] != 0:
            mirrored = e1p[i] != e1[i]
        else:
            mirrored = e2[i] != 0 and e2p[i] != e2[i]
        if mirrored:
            zbar_list.append(zp[i] - zt[i] + z[i] + d)
        else:
            zbar_list.append(zp[i] + zt[i] - z[i] + d)
    zbar = tuple(zbar_list)
    yprime = tuple(c1pp[i] + 2 * c2pp[i] + 4 * zbar[i] for i in range(n))
    if not contains(chain, yprime):
        raise RuntimeError(f"constructed partner {yprime} is not a member")
    if not cw_equidistant(
        tuple(a - b for a, b in zip(yprime, xp)), tuple(a - b for a, b in zip(y, x))
    ):
        raise RuntimeError(f"constructed partner {yprime} breaks the distance property")
    trace = PartnerTrace(
        e1=e1, e2=e2, e1p=e1p, e2p=e2p, delta=tuple(delta), zbar=zbar, yprime=yprime
    )
    return yprime, trace


def partner_bruteforce(
    chain: CodeChain, x: Sequence[int], y: Sequence[int], xp: Sequence[int]
) -> Point | None:
    """The lexicographically first member y' with |y' - xp| == |y - x| coordinate-wise.

    None means no coordinate-wise equidistant partner exists at xp.
    """
    _require_members(chain, x, y, xp)
    hits = cw_members(chain, xp, tuple(b - a for a, b in zip(x, y)))
    return hits[0] if hits else None


def euclidean_partner_all(
    chain: CodeChain, x: Sequence[int], y: Sequence[int], xp: Sequence[int]
) -> list[Point]:
    """All members on the sphere around xp of squared radius ||y - x||^2, sorted.

    Each point of the sphere lies at xp +/- e coordinate-wise for exactly one
    nonnegative vector e of that squared norm, so the sphere is the disjoint
    union of the coordinate-wise searches over those e.
    """
    _require_members(chain, x, y, xp)
    d2 = sum((a - b) ** 2 for a, b in zip(y, x))
    # the walk ends once per nonnegative vector of squared norm at most d2: at
    # most (isqrt(d2) + 1)^n, and, as v <= v*v, at most those of sum at most d2
    steps = min((isqrt(d2) + 1) ** chain.n, comb(chain.n + d2, chain.n))
    check_work("euclidean_partner_all", steps, MAX_SHELL_STEPS)
    return sorted(y2 for e in _shell_vectors(chain.n, d2) for y2 in cw_members(chain, xp, e))


def euclidean_partner_bruteforce(
    chain: CodeChain, x: Sequence[int], y: Sequence[int], xp: Sequence[int]
) -> Point | None:
    """First member at the exact Euclidean distance ||y - x|| from xp, if any."""
    hits = euclidean_partner_all(chain, x, y, xp)
    return hits[0] if hits else None


def _shell_vectors(n: int, d2: int) -> Iterable[tuple[int, ...]]:
    """Nonnegative integer vectors with squared norm exactly d2, in lexicographic order."""

    def rec(prefix: tuple[int, ...], remaining: int, dims: int):
        if dims == 0:
            if remaining == 0:
                yield prefix
            return
        for v in range(isqrt(remaining) + 1):
            yield from rec(prefix + (v,), remaining - v * v, dims - 1)

    yield from rec((), d2, n)


def _require_members(chain: CodeChain, *points: Sequence[int]) -> None:
    for p in points:
        if not contains(chain, p):
            raise ValueError(f"point {tuple(p)} is not in the constellation")
