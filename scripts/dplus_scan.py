#!/usr/bin/env python3
"""Scan the repetition/even-weight family: lattice parity and quantizer quality.

For each dimension n = 2..nmax the four lattice criteria flip with the
parity of n, the reflection certificate succeeds regardless, and the
estimated normalized second moment is within sampling error of the cubic
cell's 1/12 at n=4 (D4+ is a scaled copy of Z^4) and below it from n=5 on.
The default --nmax 16 runs every exact column up to |R| = 2^16; the whole
scan takes seconds, most of it in the exact columns of the largest n.
"""

import argparse

from ccc.lattice import equivalence_report
from ccc.presets import dplus_chain
from ccc.quantizer import nsm_estimate
from ccc.uniformity import gu_check_two_level


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--nmax", type=int, default=16)
    parser.add_argument("--samples", type=int, default=200_000)
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--threads", type=int, default=1)
    args = parser.parse_args()

    print(f"{'n':>2}  {'lattice':>7}  {'uniform':>7}  {'NSM':>9}  {'stderr':>8}  {'vs 1/12':>8}")
    for n in range(2, args.nmax + 1):
        chain = dplus_chain(n)
        verdict = equivalence_report(chain).verdict
        uniform = gu_check_two_level(chain).uniform
        est = nsm_estimate(chain, args.samples, seed=args.seed + n, threads=args.threads)
        gain = (est.value - 1 / 12) / (1 / 12) * 100
        print(
            f"{n:>2}  {str(verdict):>7}  {str(uniform):>7}"
            f"  {est.value:9.6f}  {est.stderr:8.6f}  {gain:+7.2f}%"
        )


if __name__ == "__main__":
    main()
