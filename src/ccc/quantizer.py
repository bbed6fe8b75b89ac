"""Nearest-point quantization and Monte Carlo second-moment estimation.

The constellation C1 + 2*C2 + ... + 2^(L-1)*CL + 2^L*Z^n is the union, over
the lower words c in C1 + ... + 2^(L-2)*C(L-1), of the cosets
c + 2^(L-1)*(CL + 2Z^n).  Within one coset the nearest point is an exact
soft-decision decoding of the top code CL: each coordinate has a cost for an
even and for an odd top digit, and the codeword with the least total cost
wins.  It is found by Wagner's rule when CL is the even-weight code (the D_n
decoder of Conway & Sloane, IEEE IT-28, 1982), and otherwise by scoring
every codeword in blocks of fixed size.  The distance of each coset's winner
is recomputed from its residue with the folded per-coordinate formula, so the
result equals the minimum over all residues.  The scalar nearest() is the
reference: it lifts every residue to its best translate, which also settles
exact ties by the lexicographic order of the points.

The normalized second moment (NSM) is estimated by quantizing seeded uniform
samples from one period cube with the coset decoder; the cell volume is the
period volume divided by the residue count, which is well defined for
lattices and non-lattices alike because the constellation is periodic.  A
cubic cell gives 1/12.  Each batch draws its samples from its own Philox
generator, advanced to the batch's offset in the one seeded stream, so the
samples do not depend on the batch layout or the worker count.

numpy is imported only inside the decoder and the sampler, so the exact
commands, which never decode, start without it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Sequence

from .constellation import CodeChain, Point, check_work, residues
from .f2 import BinaryCode, _check_length, span
from .parallel import ordered_map

if TYPE_CHECKING:
    import numpy as np

SAMPLE_BATCH = 8192  # fixed batch size keeps the sample stream independent of threading
BLOCK_BYTES = 1 << 20  # one (rows x codewords) score block of the general top-code search
# Work guard, in samples x lower words x per-sample top-code decoding steps.
# The per-residue decoder it replaced made at least this many steps, at about
# 2e8 per second, so a refused run would have taken it over half a day.
MAX_DECODE_WORK = 10**13


@dataclass(frozen=True)
class NsmEstimate:
    """A reproducible NSM estimate with its Monte Carlo standard error."""

    value: float
    stderr: float
    samples: int
    seed: int
    covolume: Fraction

    def __post_init__(self):
        if self.value <= 0 or self.stderr < 0:
            raise ValueError("estimate out of range")


def covolume(chain: CodeChain) -> Fraction:
    """Volume per constellation point: 2^(L*n) over the residue count."""
    return Fraction(chain.modulus ** chain.n, chain.residue_count())


def _is_even_weight(code: BinaryCode) -> bool:
    return code.size == 1 << (code.n - 1) and all(sum(w) % 2 == 0 for w in code.words)


@dataclass(frozen=True)
class _CosetDecoder:
    """Exact nearest-point decoding of one chain, one top-code coset at a time."""

    shifts: np.ndarray  # the lower words c, float64, one row each
    half: int  # 2^(L-1), the scale of the top code
    modulus: int
    top: np.ndarray | None  # the top code's words, bool, sorted; None for Wagner's rule

    @classmethod
    def of(cls, chain: CodeChain) -> "_CosetDecoder":
        import numpy as np

        if chain.L == 1:
            shifts = np.zeros((1, chain.n))
        else:
            lower = CodeChain(codes=chain.codes[:-1])
            shifts = np.array(residues(lower).sorted, dtype=np.float64)
        code = chain.codes[-1]
        top = None if _is_even_weight(code) else np.array(code.sorted_words(), dtype=bool)
        return cls(shifts, chain.modulus // 2, chain.modulus, top)

    def work(self, samples: int) -> int:
        """A-priori decoding work: samples x lower words x per-sample top-code steps.

        Wagner's rule takes n steps per sample; the search scores every
        codeword of length n.
        """
        lower, n = self.shifts.shape
        return samples * lower * n * (1 if self.top is None else len(self.top))

    def costs(self, w: np.ndarray, c: np.ndarray) -> np.ndarray:
        """Per coordinate, an odd top digit's squared distance less an even one's, over half.

        With d the folded distance from w (in [0, m]) to c, the odd digit's
        distance is half - d, and (half - d)^2 - d^2 = half * (half - 2d).
        """
        import numpy as np

        d = np.abs(w - c)
        np.minimum(d, self.modulus - d, out=d)
        d *= -2.0
        d += self.half
        return d

    def top_words(self, delta: np.ndarray) -> np.ndarray:
        """Per row of delta, the top codeword x with the least delta @ x."""
        import numpy as np

        if self.top is None:  # Wagner's rule: on odd weight flip the least reliable digit
            x = delta < 0
            odd = np.flatnonzero(np.count_nonzero(x, axis=1) & 1)
            x[odd, np.abs(delta[odd]).argmin(axis=1)] ^= True
            return x
        # score the codewords in blocks of about BLOCK_BYTES
        rows = max(1, BLOCK_BYTES // (8 * (len(delta) + self.top.shape[1])))
        best = np.full(len(delta), np.inf)
        arg = np.zeros(len(delta), dtype=np.intp)
        for start in range(0, len(self.top), rows):
            block = delta @ self.top[start : start + rows].T.astype(np.float64)
            j = block.argmin(axis=1)
            v = block[np.arange(len(j)), j]
            better = v < best
            best[better] = v[better]
            arg[better] = start + j[better]
        return self.top[arg]

    def distances(self, w: np.ndarray) -> np.ndarray:
        """Squared distance from each row of w (in [0, m)^n) to the constellation."""
        import numpy as np

        m = self.modulus
        best: np.ndarray | None = None
        for c in self.shifts:
            s = np.where(self.top_words(self.costs(w, c)), c + self.half, c)
            # w and s live in [0, m), so the distance to the nearest period
            # translate folds per coordinate: min(|d|, m - |d|).
            diff = np.abs(w - s)
            np.minimum(diff, m - diff, out=diff)
            d2 = np.einsum("bn,bn->b", diff, diff)
            best = d2 if best is None else np.minimum(best, d2, out=best)
        assert best is not None
        return best


def nearest(chain: CodeChain, w: Sequence[float]) -> Point:
    """The constellation point closest to w; ties go to the lexicographically
    smallest point.

    The reference decoder: the best period translate of every residue.
    """
    if len(w) != chain.n:
        raise ValueError(f"vector has length {len(w)}, expected {chain.n}")
    m = chain.modulus
    best_d2: float | None = None
    best_pt: tuple[int, ...] | None = None
    for s in residues(chain):
        pt: list[int] = []
        d2 = 0.0
        for wj, sj in zip(w, s):
            lo = sj + m * math.floor((wj - sj) / m)
            hi = lo + m
            d_lo = wj - lo
            d_hi = hi - wj
            if d_lo <= d_hi:  # tie prefers the smaller coordinate
                pt.append(lo)
                d2 += d_lo * d_lo
            else:
                pt.append(hi)
                d2 += d_hi * d_hi
        cand = tuple(pt)
        if best_d2 is None or d2 < best_d2 or (d2 == best_d2 and cand < best_pt):
            best_d2, best_pt = d2, cand
    assert best_pt is not None
    return best_pt


def _draws(seed: int, start: int, stop: int, n: int) -> np.ndarray:
    """Rows start..stop-1 of the uniform [0, 1)^n stream of Philox(key=seed).

    Philox yields four 64-bit words per counter step and each double takes one
    word, so row start begins start*n/4 steps in (start is a multiple of 4).
    """
    import numpy as np

    bitgen = np.random.Philox(key=seed)
    bitgen.advance(start * n // 4)
    return np.random.Generator(bitgen).random((stop - start, n))


def nsm_estimate(
    chain: CodeChain, samples: int, seed: int, threads: int = 1
) -> NsmEstimate:
    """Seeded Monte Carlo NSM: mean of ||w - nearest(w)||^2 / (n * V^(2/n)).

    The sample stream comes from a counter-based generator in a fixed batch
    layout and the batch sums are combined with exact float summation, so the
    estimate is bit-identical for a given (seed, samples) regardless of the
    worker count.
    """
    if samples < 1000:
        raise ValueError(f"at least 1000 samples required, got {samples}")
    if not 0 <= seed < 2**128:  # the Philox key range
        raise ValueError(f"seed must be in 0..2**128-1, got {seed}")
    n = chain.n
    m = chain.modulus
    dec = _CosetDecoder.of(chain)
    check_work("nsm_estimate", dec.work(samples), MAX_DECODE_WORK)
    vol = covolume(chain)
    norm = n * float(vol) ** (2.0 / n)

    def batch_sums(start: int) -> tuple[float, float]:
        w = _draws(seed, start, min(start + SAMPLE_BATCH, samples), n) * m
        g = dec.distances(w) / norm
        return float(g.sum()), float((g * g).sum())

    sums = ordered_map(batch_sums, range(0, samples, SAMPLE_BATCH), threads)
    total = math.fsum(s for s, _ in sums)
    total_sq = math.fsum(q for _, q in sums)
    value = total / samples
    var = max(total_sq - samples * value * value, 0.0) / (samples - 1)
    stderr = math.sqrt(var / samples)
    return NsmEstimate(
        value=value, stderr=stderr, samples=samples, seed=seed, covolume=vol
    )


def dplus_chain(n: int) -> CodeChain:
    """Two-level chain of the length-n repetition code and even-weight code.

    A lattice exactly when n is even; for odd n it is a non-lattice
    tessellation with better quantization efficiency than the cube in
    moderate dimensions.
    """
    if n < 2:
        raise ValueError(f"dimension must be at least 2, got {n}")
    _check_length(n)  # before any length-n word is built
    repetition = span([(1,) * n])
    parity_rows = [
        tuple(1 if j in (i, i + 1) else 0 for j in range(n)) for i in range(n - 1)
    ]
    even_weight = span(parity_rows)
    return CodeChain.of(repetition, even_weight)
