"""Nearest-point quantization and Monte Carlo second-moment estimation.

The constellation C1 + 2*C2 + ... + 2^(L-1)*CL + 2^L*Z^n is the union, over
the lower words c in C1 + ... + 2^(L-2)*C(L-1), of the cosets
c + 2^(L-1)*(CL + 2Z^n).  Within one coset the nearest point is an exact
soft-decision decoding of the top code CL: each coordinate has a cost for an
even and for an odd top digit, and the codeword with the least total cost
wins.  It is found by Wagner's rule when CL is the even-weight code (the D_n
decoder of Conway & Sloane, IEEE IT-28, 1982), and otherwise by scoring
every codeword in blocks of fixed size.  A top code of one word (CL = {0},
as in a cube or example1) makes that word every coset's winner, so nothing
is scored.  The scalar nearest() is the reference: it lifts every residue to
its best translate, which also settles exact ties by the lexicographic order
of the points.

The samples are random() * 2^L, so they are multiples of 2^(L-53) in
[0, 2^L), and every difference the decoder takes is exact in float64.  The
folded distance d from a coordinate to the even digit c is therefore exact,
and half - d is bit for bit the folded distance to the odd digit c + half,
the antipode of c mod 2^L.  Each coset's winner thus has the per-coordinate
distances of its residue.  Their squares are summed by einsum over
row-major (sample, coordinate) rows: numpy sums a row's n products in a
fixed SIMD-lane order, not left to right, so the rows must keep that layout
for the sum to equal a scan over all residues.  The decoding works on
blocks of ROW_BLOCK samples held coordinate-major, one long row per
coordinate, and transposes back only for that sum.

The normalized second moment (NSM) is estimated by quantizing seeded uniform
samples from one period cube with the coset decoder; the cell volume is the
period volume divided by the residue count, which is well defined for
lattices and non-lattices alike because the constellation is periodic.  A
cubic cell gives 1/12.  Each batch of SAMPLE_BATCH samples draws from its own
Philox generator, advanced to the batch's offset in the one seeded stream, so
the samples do not depend on the batch layout or the worker count.

Every sample streams through one fixed workspace per worker, allocated before
any worker starts: each ROW_BLOCK of a batch is drawn straight into the
workspace, scaled into its coordinate-major buffer and decoded in place into
the batch's distance buffer.  Besides those buffers the decoder makes only
temporaries bounded by ROW_BLOCK (and BLOCK_BYTES for the codeword search),
so memory is the worker count times about 5 * n * ROW_BLOCK + SAMPLE_BATCH
doubles, whatever the sample count.

numpy is imported only inside the decoder and the sampler, so the exact
commands, which never decode, start without it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import TYPE_CHECKING, Iterator, NamedTuple, Sequence

from .constellation import CodeChain, Point, check_work, residues
from .f2 import BinaryCode, Record
from .parallel import ordered_map

if TYPE_CHECKING:
    import numpy as np

SAMPLE_BATCH = 8192  # fixed batch size keeps the sample stream independent of threading
BLOCK_BYTES = 1 << 20  # one (rows x codewords) score block of the general top-code search
ROW_BLOCK = 2048  # samples decoded together: a block's (n x ROW_BLOCK) buffers stay in cache
# Work guard, in samples x lower words x per-sample top-code decoding steps.
# The per-residue decoder it replaced made at least this many steps, at about
# 2e8 per second, so a refused run would have taken it over half a day.
MAX_DECODE_WORK = 10**13


class NsmEstimate(Record):
    """A reproducible NSM estimate with its Monte Carlo standard error.

    Equal when all five fields are equal; the fields are read-only.
    """

    _fields = ("value", "stderr", "samples", "seed", "covolume")
    value: float
    stderr: float
    samples: int
    seed: int
    covolume: Fraction

    def __init__(self, value: float, stderr: float, samples: int, seed: int, covolume: Fraction):
        if value <= 0 or stderr < 0:
            raise ValueError("estimate out of range")
        self._store(value, stderr, samples, seed, covolume)


def covolume(chain: CodeChain) -> Fraction:
    """Volume per constellation point: 2^(L*n) over the residue count."""
    return Fraction(chain.modulus ** chain.n, chain.residue_count())


def _is_even_weight(code: BinaryCode) -> bool:
    return code.size == 1 << (code.n - 1) and all(sum(w) % 2 == 0 for w in code.words)


def _decode_work(chain: CodeChain, samples: int) -> int:
    """A-priori decoding work from the code sizes: samples x |C_1|...|C_(L-1)| lower words x top-code steps.

    Wagner's rule takes n steps per sample; the search scores every codeword
    of length n.  Nothing is built, so a refused run loads no numpy.
    """
    *lower, top = chain.codes
    steps = chain.n * (1 if _is_even_weight(top) else top.size)
    return samples * math.prod(code.size for code in lower) * steps


class _CosetDecoder(NamedTuple):
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
            shifts = np.array(list(residues(lower)), dtype=np.float64)
        code = chain.codes[-1]
        top = None if _is_even_weight(code) else np.array(code.sorted_words(), dtype=bool)
        return cls(shifts, chain.modulus // 2, chain.modulus, top)

    def top_index(self, delta: np.ndarray) -> np.ndarray:
        """Per row of delta, the index of the first top codeword x with the least delta @ x."""
        import numpy as np

        if len(self.top) == 1:  # one word wins every row; nothing to score
            return np.zeros(len(delta), dtype=np.intp)
        # score the codewords in blocks of about BLOCK_BYTES
        rows = max(1, BLOCK_BYTES // (8 * (len(delta) + self.top.shape[1])))
        arg = best = None
        for start in range(0, len(self.top), rows):
            block = delta @ self.top[start : start + rows].T.astype(np.float64)
            j, v = block.argmin(axis=1), block.min(axis=1)
            if arg is None:
                arg, best = j, v
            else:
                better = v < best
                best[better] = v[better]
                arg[better] = start + j[better]
        return arg

    def decode(self, ws: _Workspace, best: np.ndarray) -> None:
        """Write into best the squared distance from each of the first len(best)
        samples held in ws.wt to the constellation.

        Every step but the last is a long vector operation on one row of
        samples per coordinate, and every array it writes is a buffer of ws.
        """
        import numpy as np

        k, half = len(best), self.half
        wt, d, e, diff, x = (ws.columns(buf, k) for buf in (ws.wt, ws.d, ws.e, ws.diff, ws.x))
        rows, d2, odd = ws.rows[: k * ws.n].reshape(k, ws.n), ws.d2[:k], ws.odd[:k]
        for i, c in enumerate(self.shifts):
            # d = fold|w - c|, the distance to an even top digit; e = half - d is
            # the distance to an odd one, since c + half is c's antipode mod m
            for j in range(ws.n):  # a row at a time: a broadcast c would be buffered
                np.subtract(wt[j], c[j], out=d[j])
            np.abs(d, out=d)
            np.subtract(self.modulus, d, out=e)
            np.minimum(d, e, out=d)
            np.subtract(half, d, out=e)
            if self.top is None:
                # Wagner's rule: the nearer digit per coordinate; on odd weight,
                # flip the first coordinate whose two digits are nearest a tie
                np.greater(d, half / 2, out=x)
                np.logical_xor.reduce(x, axis=0, out=odd)
                np.minimum(d, e, out=diff)
                np.copyto(rows, diff.T)
                # the odd rows, gathered into diff's storage, which is free again
                at = np.flatnonzero(odd)
                picked = diff.reshape(-1)[: len(at) * ws.n].reshape(len(at), ws.n)
                np.take(rows, at, axis=0, out=picked, mode="clip")
                np.multiply(at, ws.n, out=at)
                np.add(at, picked.argmax(axis=1, out=ws.arg[: len(at)]), out=at)
                flat, flip = rows.reshape(-1), d2[: len(at)]  # d2 is free until the einsum
                np.take(flat, at, out=flip, mode="clip")  # in range: clip skips a buffered check
                np.subtract(half, flip, out=flip)
                flat[at] = flip
            else:
                np.subtract(e, d, out=diff)  # half - 2 * d: odd cost less even cost, over half
                np.copyto(rows, diff.T)
                np.take(self.top.T, self.top_index(rows), axis=1, out=x, mode="clip")
                np.copyto(diff, d)
                np.copyto(diff, e, where=x)
                np.copyto(rows, diff.T)
            # einsum sums each row's n products in a fixed lane order, so the
            # rows go back to row-major to give the per-residue scan's bits
            if i == 0:
                np.einsum("bn,bn->b", rows, rows, out=best)
            else:
                np.einsum("bn,bn->b", rows, rows, out=d2)
                np.minimum(best, d2, out=best)

    def distances(self, w: np.ndarray) -> np.ndarray:
        """Squared distance from each row of w (in [0, m)^n) to the constellation,
        decoded ROW_BLOCK rows at a time through one workspace."""
        import numpy as np

        ws, out = _Workspace(w.shape[1]), np.empty(len(w))
        for start in range(0, len(w), ROW_BLOCK):
            block = w[start : start + ROW_BLOCK]
            np.copyto(ws.columns(ws.wt, len(block)), block.T)
            self.decode(ws, out[start : start + len(block)])
        return out


class _Workspace:
    """One worker's buffers, sized by n, ROW_BLOCK and SAMPLE_BATCH alone:
    every sample the worker decodes passes through them."""

    def __init__(self, n: int):
        import numpy as np

        self.n = n
        size = n * ROW_BLOCK
        # rows is row-major: a block's draws, then each coset's distances for the sum
        self.rows, self.wt, self.d, self.e, self.diff = (np.empty(size) for _ in range(5))
        self.x = np.empty(size, dtype=bool)
        self.d2 = np.empty(ROW_BLOCK)
        self.odd = np.empty(ROW_BLOCK, dtype=bool)
        self.arg = np.empty(ROW_BLOCK, dtype=np.intp)
        self.sums = np.empty(SAMPLE_BATCH)  # one batch's distances

    def columns(self, buf: np.ndarray, k: int) -> np.ndarray:
        """The first k samples of a coordinate-major buffer: a contiguous (n, k) view."""
        return buf[: self.n * k].reshape(self.n, k)

    def draw(self, seed: int, start: int, stop: int, m: int) -> Iterator[tuple[int, int]]:
        """Rows start..stop-1 of the uniform [0, 1)^n stream of Philox(key=seed),
        times m, one block of ROW_BLOCK rows at a time.

        Each block is drawn into rows and scaled into wt, coordinate-major;
        the block's offset from start and its row count are yielded once it
        is in place.  Philox yields four 64-bit words per counter step and each
        double takes one word, so row start begins start*n/4 steps in (start
        is a multiple of 4).
        """
        import numpy as np

        bitgen = np.random.Philox(key=seed)
        bitgen.advance(start * self.n // 4)
        gen = np.random.Generator(bitgen)
        for offset in range(0, stop - start, ROW_BLOCK):
            k = min(ROW_BLOCK, stop - start - offset)
            draws = self.rows[: k * self.n].reshape(k, self.n)
            gen.random(out=draws)
            wt = self.columns(self.wt, k)
            np.copyto(wt, draws.T)  # transposing in a multiply would be buffered
            np.multiply(wt, m, out=wt)
            yield offset, k


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


def nsm_estimate(
    chain: CodeChain, samples: int, seed: int, threads: int = 1
) -> NsmEstimate:
    """Seeded Monte Carlo NSM: mean of ||w - nearest(w)||^2 / (n * V^(2/n)).

    The sample stream comes from a counter-based generator in a fixed batch
    layout and the batch sums are combined with exact float summation, so the
    estimate is bit-identical for a given (seed, samples) whatever the number
    of workers, ``threads`` or one per core at 0, each with its own workspace.
    """
    if samples < 1000:
        raise ValueError(f"at least 1000 samples required, got {samples}")
    if not 0 <= seed < 2**128:  # the Philox key range
        raise ValueError(f"seed must be in 0..2**128-1, got {seed}")
    n = chain.n
    m = chain.modulus
    check_work("nsm_estimate", _decode_work(chain, samples), MAX_DECODE_WORK)
    dec = _CosetDecoder.of(chain)
    vol = covolume(chain)
    norm = n * float(vol) ** (2.0 / n)

    import numpy as np

    def batch_sums(ws: _Workspace, start: int) -> tuple[float, float]:
        stop = min(start + SAMPLE_BATCH, samples)
        g = ws.sums[: stop - start]
        for offset, k in ws.draw(seed, start, stop, m):
            dec.decode(ws, g[offset : offset + k])
        np.divide(g, norm, out=g)
        total = float(g.sum())
        np.multiply(g, g, out=g)  # the products and the sum of (g * g).sum(), in place
        return total, float(g.sum())

    sums = ordered_map(batch_sums, range(0, samples, SAMPLE_BATCH), threads, lambda: _Workspace(n))
    total = math.fsum(s for s, _ in sums)
    total_sq = math.fsum(q for _, q in sums)
    value = total / samples
    var = max(total_sq - samples * value * value, 0.0) / (samples - 1)
    stderr = math.sqrt(var / samples)
    return NsmEstimate(
        value=value, stderr=stderr, samples=samples, seed=seed, covolume=vol
    )
