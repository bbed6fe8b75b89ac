#!/usr/bin/env python3
"""Walk the three preset chains end to end and print every verdict.

Shows the full storyline at desk scale: a two-level non-lattice that is
nevertheless geometrically uniform, a three-level chain whose kissing number
varies, and a nested three-level chain where the coordinate-wise partner
fails even though a Euclidean partner exists.

The expected stdout is checked in as ``reproduce_counterexamples.expected``
next to this script; CI diffs the two.
"""

from ccc.constellation import contains, residues
from ccc.lattice import equivalence_report, is_lattice_direct
from ccc.presets import example1, example3, example5
from ccc.spectrum import eds_check, kissing_stats
from ccc.uniformity import (
    euclidean_partner_all,
    gu_check_two_level,
    gu_subgroup_search,
    partner_bruteforce,
)


def banner(title: str) -> None:
    print(f"\n=== {title} " + "=" * max(0, 60 - len(title)))


def main() -> None:
    banner("example1: C1={00,11}, C2={00}")
    chain = example1()
    print("residues mod 4:", list(residues(chain)))
    ok, witness = is_lattice_direct(chain)
    print(f"lattice: {ok}   witness: {witness[0]} + {witness[1]} is outside")
    res = gu_check_two_level(chain)
    print(f"geometrically uniform: {res.uniform}  ({len(res.certificates)} reflection certificates)")
    print("eds up to 18:", eds_check(chain, 18)[0])

    banner("example3: n=1, codes {0,1},{0,1},{0}")
    chain = example3()
    print("residues mod 8:", [p[0] for p in residues(chain)])
    d2min, kissing = kissing_stats(chain)
    print(f"minimum squared distance {d2min}, kissing numbers {sorted(kissing)}")
    equal, w = eds_check(chain, 4)
    print(f"eds: {equal}   witness: N({w.center_a}, {w.d2})={w.count_a} vs N({w.center_b}, {w.d2})={w.count_b}")
    x, y, xp = (0,), (3,), (9,)
    print(f"sign partner for x={x}, y={y}, x'={xp}:", partner_bruteforce(chain, x, y, xp))
    print("candidates 6 and 12 members?", contains(chain, (6,)), contains(chain, (12,)))
    print("search verdict:", gu_subgroup_search(chain).verdict)

    banner("example5: three equal codes {000,101,110,011}")
    chain = example5()
    rep = equivalence_report(chain)
    print("lattice criteria:", rep.flags(), "consistent:", rep.consistent)
    x, y, xp = (1, 0, 1), (5, 3, 6), (3, 5, 6)
    print(f"sign partner for x={x}, y={y}, x'={xp}:", partner_bruteforce(chain, x, y, xp))
    sols = euclidean_partner_all(chain, x, y, xp)
    print(f"Euclidean partners at squared distance 50: {len(sols)}, e.g. {sols[0]} and (8, 9, 9):",
          (8, 9, 9) in sols)
    print("search verdict:", gu_subgroup_search(chain, 64).verdict)


if __name__ == "__main__":
    main()
