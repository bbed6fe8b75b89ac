"""Command line front end: chain analyses with deterministic reports.

Exit status: 0 when the command succeeds (and any checked property holds),
1 when a checked property is refuted (non-lattice, unequal spectra, missing
partner), 2 on input errors.  JSON reports contain no timing information, so
identical inputs and seeds produce byte-identical output.

``run()`` is the process entry: the ``ccc`` console script and ``python -m
ccc.cli`` both call it.  It runs ``main()`` on the process's own arguments
and, once the report is written and flushed, calls ``gc.freeze()``.  Every
object the loaded modules made then sits in the collector's permanent
generation, so the exit-time collections skip it and the operating system
reclaims the memory at once; atexit handlers, the flushing of stdout and
stderr, and module teardown all still run.  ``main(argv)`` has no such side
effect, so tests and library callers may call it many times in one process.
Anything a command writes besides stdout and stderr (a trace file, say) must
be closed before ``main`` returns.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
import time
from typing import Sequence

# Each command imports the modules it runs.  These two load with the CLI
# because perfbench/run.py's cache meter reads them from sys.modules right
# after importing ccc.cli.
from . import spectrum
from .constellation import CodeChain, residues

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_INPUT = 2


def run() -> int:
    """The process entry: ``main()`` on the process's arguments, then ``gc.freeze()``."""
    code = main()
    gc.freeze()
    return code


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return EXIT_INPUT
    try:
        code, text = _dispatch(args)
    except ValueError as exc:  # input errors, ChainFormatError and the work guards among them
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    try:
        print(text, end="", flush=True)
    except BrokenPipeError:  # the reader left early: the verdict stands, and the rest goes nowhere
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ccc",
        description="Analyze multi-level constellations built from binary code chains.",
    )
    sub = parser.add_subparsers(dest="command")

    chain_parent = argparse.ArgumentParser(add_help=False)
    chain_parent.add_argument(
        "chain", nargs="?", default=None, help="chain file path, or '-' for stdin"
    )
    chain_parent.add_argument("--preset", default=None, help="named preset chain")
    chain_parent.add_argument(
        "--format", choices=("human", "json", "tsv"), default="human", dest="fmt"
    )
    chain_parent.add_argument(
        "--threads",
        type=int,
        default=1,
        help="worker threads for nsm (0 = one per core; default 1)",
    )

    sub.add_parser("info", parents=[chain_parent], help="chain summary")
    sub.add_parser("lattice", parents=[chain_parent], help="direct lattice test")
    sub.add_parser(
        "theorem1",
        parents=[chain_parent],
        help="four-way lattice equivalence report (nested linear chains)",
    )
    p = sub.add_parser("spectrum", parents=[chain_parent], help="squared-distance spectrum")
    p.add_argument("--center", required=True, help="comma-separated member coordinates")
    p.add_argument("--r2max", type=int, required=True, help="largest squared distance")
    p = sub.add_parser("eds", parents=[chain_parent], help="equal-distance-spectrum check")
    p.add_argument("--r2max", type=int, default=None, help="default: 4 * (2^L)^2")
    sub.add_parser("gu", parents=[chain_parent], help="two-level uniformity certificate")
    p = sub.add_parser(
        "gu-search", parents=[chain_parent], help="uniformity via signed-permutation search"
    )
    p.add_argument("--r2max", type=int, default=None, help="default: 4 * (2^L)^2")
    p = sub.add_parser("partner", parents=[chain_parent], help="equidistant partner search")
    p.add_argument("--mode", choices=("lemma1", "cw-brute", "euclid-brute"), required=True)
    p.add_argument("--x", required=True, help="comma-separated coordinates")
    p.add_argument("--y", required=True, help="comma-separated coordinates")
    p.add_argument("--xp", required=True, help="comma-separated coordinates")
    p = sub.add_parser("nsm", parents=[chain_parent], help="normalized second moment estimate")
    p.add_argument("--samples", type=int, default=100000)
    p.add_argument("--seed", type=int, default=0)
    p = sub.add_parser("dplus", help="emit the two-level repetition/even-weight chain file")
    p.add_argument("--n", type=int, required=True)
    sub.add_parser("presets", help="list named preset chains")
    return parser


def _dispatch(args: argparse.Namespace) -> tuple[int, str]:
    """The command's exit code and the report text it writes to stdout."""
    if args.command == "presets":
        from .presets import preset_descriptions

        return EXIT_OK, "".join(f"{name:10s} {desc}\n" for name, desc in preset_descriptions())
    import hashlib

    from .chainfile import format_chain

    if args.command == "dplus":
        from .presets import dplus_chain

        return EXIT_OK, format_chain(dplus_chain(args.n))
    if args.fmt == "tsv" and args.command != "spectrum":
        raise ValueError("tsv output is only available for the spectrum command")
    started = time.perf_counter()
    if args.threads < 0:  # validated for every chain command; only nsm uses it
        raise ValueError("thread count must be nonnegative")
    chain = _load_chain(args)
    handler = _HANDLERS[args.command]
    results, code, human = handler(chain, args)
    report = {
        "command": args.command,
        "input": {
            "digest": hashlib.sha256(format_chain(chain).encode()).hexdigest(),
            "n": chain.n,
            "L": chain.L,
            "preset": args.preset,
        },
        "results": results,
    }
    if args.command == "nsm":
        report["seed"] = args.seed
    return code, _render(args, report, human, time.perf_counter() - started)


def _load_chain(args: argparse.Namespace) -> CodeChain:
    if args.preset is not None and args.chain is not None:
        raise ValueError("give a chain file or --preset, not both")
    if args.preset is not None:
        from .presets import get_preset

        return get_preset(args.preset)
    if args.chain is None:
        raise ValueError("a chain file (or --preset) is required")
    try:
        if args.chain != "-":
            with open(args.chain, "rb") as fh:
                data = fh.read()
        elif sys.stdin is None:  # fd 0 was closed before the interpreter started
            raise ValueError("-: stdin is closed")
        else:  # bytes: the text layer would decode with the locale's error handler
            data = sys.stdin.buffer.read()
        text = data.decode("utf-8")
    except OSError as exc:  # its args[0] is the bare errno
        raise ValueError(f"{args.chain}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:  # its args[0] is the codec name
        raise ValueError(f"{args.chain}: not valid UTF-8 (byte {exc.start}: {exc.reason})") from None
    from .chainfile import parse_chain

    return parse_chain(text)


def _render(args: argparse.Namespace, report: dict, human: list[str], runtime: float) -> str:
    if args.fmt == "json":
        import json

        lines = [json.dumps(report, sort_keys=True, indent=2)]
    elif args.fmt == "tsv":
        lines = [f"{d2}\t{count}" for d2, count in report["results"]["counts"]]
    else:
        lines = human + [f"runtime: {runtime:.3f}s"]
    return "".join(line + "\n" for line in lines)


def _point(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part.strip()) for part in text.split(","))
    except ValueError:
        raise ValueError(f"bad coordinate list {text!r}; expected comma-separated integers")


def _pt(p) -> list[int]:
    return [int(v) for v in p]


def _cmd_info(chain: CodeChain, args) -> tuple[dict, int, list[str]]:
    rs = residues(chain)
    results = {
        "n": chain.n,
        "L": chain.L,
        "modulus": chain.modulus,
        "code_sizes": [code.size for code in chain.codes],
        "residue_count": len(rs),
        "all_linear": chain.all_linear(),
        "all_nested": chain.all_nested(),
    }
    human = [
        f"n={chain.n} L={chain.L} modulus={chain.modulus}",
        f"code sizes: {results['code_sizes']}",
        f"residues per period: {results['residue_count']}",
        f"linear: {results['all_linear']}  nested: {results['all_nested']}",
    ]
    return results, EXIT_OK, human


def _cmd_lattice(chain: CodeChain, args) -> tuple[dict, int, list[str]]:
    from . import lattice

    ok, witness = lattice.is_lattice_direct(chain)
    results = {
        "is_lattice": ok,
        "witness": None
        if witness is None
        else {
            "s": _pt(witness[0]),
            "t": _pt(witness[1]),
            "sum_mod": _pt((a + b) % chain.modulus for a, b in zip(*witness)),
        },
    }
    human = [f"lattice: {ok}"]
    if witness is not None:
        human.append(f"witness: {witness[0]} + {witness[1]} leaves the constellation")
    return results, EXIT_OK if ok else EXIT_REFUTED, human


def _cmd_theorem1(chain: CodeChain, args) -> tuple[dict, int, list[str]]:
    from . import lattice

    rep = lattice.equivalence_report(chain)
    results = {
        "is_lattice": rep.is_lattice,
        "equals_smallest_lattice": rep.equals_smallest_lattice,
        "schur_closed": rep.schur_closed,
        "equals_construction_d": rep.equals_construction_d,
        "consistent": rep.consistent,
        "verdict": rep.verdict if rep.consistent else None,
    }
    human = [
        f"direct lattice test:      {rep.is_lattice}",
        f"equals smallest lattice:  {rep.equals_smallest_lattice}",
        f"Schur closed chain:       {rep.schur_closed}",
        f"equals nested-basis lattice: {rep.equals_construction_d}",
        f"consistent: {rep.consistent}",
    ]
    if not rep.consistent:
        human.append("INTERNAL CONSISTENCY FAILURE: the four criteria disagree")
        return results, EXIT_REFUTED, human
    return results, EXIT_OK if rep.verdict else EXIT_REFUTED, human


def _cmd_spectrum(chain: CodeChain, args) -> tuple[dict, int, list[str]]:
    center = _point(args.center)
    table = spectrum.spectrum_at(chain, center, args.r2max)
    results = {
        "center": _pt(center),
        "r2max": args.r2max,
        "counts": [[d2, cnt] for d2, cnt in sorted(table.counts.items())],
        "total": table.total(),
    }
    human = [f"spectrum around {center} up to d^2={args.r2max}:"]
    human += [f"  d^2={d2:<6d} count={cnt}" for d2, cnt in sorted(table.counts.items())]
    human.append(f"total neighbors: {table.total()}")
    return results, EXIT_OK, human


def _eds_r2max(chain: CodeChain, args) -> int:
    return args.r2max if args.r2max is not None else spectrum.default_eds_radius(chain)


def _witness_dict(w: spectrum.EdsWitness | None) -> dict | None:
    if w is None:
        return None
    return {
        "center_a": _pt(w.center_a),
        "center_b": _pt(w.center_b),
        "d2": w.d2,
        "count_a": w.count_a,
        "count_b": w.count_b,
    }


def _cmd_eds(chain: CodeChain, args) -> tuple[dict, int, list[str]]:
    r2max = _eds_r2max(chain, args)
    equal, witness = spectrum.eds_check(chain, r2max)
    results = {"eds": equal, "r2max": r2max, "witness": _witness_dict(witness)}
    human = [f"equal distance spectra up to d^2={r2max}: {equal}"]
    if witness is not None:
        human.append(
            f"witness: N({witness.center_a}, {witness.d2}) = {witness.count_a}"
            f" but N({witness.center_b}, {witness.d2}) = {witness.count_b}"
        )
    return results, EXIT_OK if equal else EXIT_REFUTED, human


def _cmd_gu(chain: CodeChain, args) -> tuple[dict, int, list[str]]:
    from . import uniformity

    res = uniformity.gu_check_two_level(chain)
    results = {
        "uniform": res.uniform,
        "certificates": [
            {"x": _pt(c.x), "signs": list(c.signs)} for c in res.certificates
        ],
        "failing": None if res.failing is None else _pt(res.failing),
    }
    human = [f"geometrically uniform (reflection certificates): {res.uniform}"]
    human.append(f"certified residues: {len(res.certificates)}")
    if res.failing is not None:
        human.append(f"failing residue: {res.failing}")
    return results, EXIT_OK if res.uniform else EXIT_REFUTED, human


def _cmd_gu_search(chain: CodeChain, args) -> tuple[dict, int, list[str]]:
    from . import uniformity

    r2max = _eds_r2max(chain, args)
    res = uniformity.gu_subgroup_search(chain, r2max)
    results = {
        "verdict": res.verdict,
        "r2max": r2max,
        "eds_witness": _witness_dict(res.eds_witness),
        "isometries": [
            {
                "permutation": list(iso.permutation),
                "signs": list(iso.signs),
                "translation": _pt(iso.translation),
            }
            for iso in res.isometries
        ],
        "unresolved": None if res.unresolved is None else _pt(res.unresolved),
    }
    human = [f"verdict: {res.verdict}"]
    if res.eds_witness is not None:
        w = res.eds_witness
        human.append(
            f"spectra differ: N({w.center_a}, {w.d2}) = {w.count_a}"
            f" but N({w.center_b}, {w.d2}) = {w.count_b}"
        )
    if res.unresolved is not None:
        human.append(f"no signed permutation found for residue {res.unresolved}")
    code = EXIT_REFUTED if res.verdict == "refuted_by_eds" else EXIT_OK
    return results, code, human


def _cmd_partner(chain: CodeChain, args) -> tuple[dict, int, list[str]]:
    from . import uniformity

    x, y, xp = _point(args.x), _point(args.y), _point(args.xp)
    base = {"mode": args.mode, "x": _pt(x), "y": _pt(y), "xp": _pt(xp)}
    if args.mode == "lemma1":
        yprime, trace = uniformity.partner_construct(chain, x, y, xp)
        results = dict(
            base,
            partner=_pt(yprime),
            trace={
                "e1": list(trace.e1),
                "e2": list(trace.e2),
                "e1p": list(trace.e1p),
                "e2p": list(trace.e2p),
                "delta": list(trace.delta),
                "zbar": list(trace.zbar),
            },
        )
        return results, EXIT_OK, [f"partner: {yprime}", f"delta: {trace.delta}"]
    if args.mode == "cw-brute":
        found = uniformity.partner_bruteforce(chain, x, y, xp)
        results = dict(base, partner=None if found is None else _pt(found))
        human = [f"partner: {found}"]
        return results, EXIT_OK if found is not None else EXIT_REFUTED, human
    solutions = uniformity.euclidean_partner_all(chain, x, y, xp)
    d2 = sum((a - b) ** 2 for a, b in zip(y, x))
    results = dict(
        base,
        d2=d2,
        partner=None if not solutions else _pt(solutions[0]),
        solutions=[_pt(s) for s in solutions],
    )
    human = [f"members at squared distance {d2} from {xp}: {len(solutions)}"]
    if solutions:
        human.append(f"first: {solutions[0]}")
    return results, EXIT_OK if solutions else EXIT_REFUTED, human


def _cmd_nsm(chain: CodeChain, args) -> tuple[dict, int, list[str]]:
    from . import quantizer

    est = quantizer.nsm_estimate(chain, args.samples, args.seed, threads=args.threads)
    results = {
        "value": est.value,
        "stderr": est.stderr,
        "samples": est.samples,
        "seed": est.seed,
        "covolume": f"{est.covolume.numerator}/{est.covolume.denominator}",
    }
    human = [
        f"NSM estimate: {est.value:.6f} +/- {est.stderr:.6f} (1 sigma)",
        f"samples: {est.samples}  seed: {est.seed}  cell volume: {est.covolume}",
    ]
    return results, EXIT_OK, human


_HANDLERS = {
    "info": _cmd_info,
    "lattice": _cmd_lattice,
    "theorem1": _cmd_theorem1,
    "spectrum": _cmd_spectrum,
    "eds": _cmd_eds,
    "gu": _cmd_gu,
    "gu-search": _cmd_gu_search,
    "partner": _cmd_partner,
    "nsm": _cmd_nsm,
}


if __name__ == "__main__":
    sys.exit(run())
