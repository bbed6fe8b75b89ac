"""Item lists of the CLI workloads and the checks of their outputs.

An item is one ``ccc`` command line.  ``exact-large`` and ``nsm`` items run as
fresh ``python -m ccc.cli`` processes in the end-to-end run and through
``cli.main`` in the traced replay; both check the same golden outputs.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from pathlib import Path

import sweep

HERE = Path(__file__).resolve().parent
NESTED6 = "perfbench/chains/nested6.chain"
CUBE4 = "perfbench/chains/cube4.chain"
SETUP_ARGV = ["presets"]
ITEM_CAP_S = 60.0  # per-item time cap of a CLI process; over it the item fails
NSM_REL_TOL = 1e-9  # NSM value may differ in the last digits if the summation order changes


def item(argv: list[str], **extra) -> dict:
    fmt = [] if argv == SETUP_ARGV else ["--format", "json"]
    return {"id": " ".join(argv), "argv": argv + fmt, **extra}


# ``pair`` marks the two thread counts of one computation; the traced run
# compares the named function's span between them.  ``trace_only`` items
# run only in the traced replay.
EXACT_LARGE = [
    item(["theorem1", "--preset", "dplus10"]),
    item(["lattice", "--preset", "dplus11"]),
    item(["gu", "--preset", "dplus9"]),
    item(["gu", "--preset", "dplus10"]),
    item(["eds", "--preset", "dplus9", "--threads", "2"], pair=("spectrum.eds_check", 2)),
    item(["eds", "--preset", "dplus9", "--threads", "1"], pair=("spectrum.eds_check", 1), trace_only=True),
    item(["eds", NESTED6]),
    item(["gu-search", NESTED6]),
]
NSM = [
    item(["nsm", "--preset", "dplus7", "--samples", "300000", "--threads", "1"],
         pair=("quantizer.nsm_estimate", 1), below_cube=True),
    item(["nsm", "--preset", "dplus7", "--samples", "300000", "--threads", "2"],
         pair=("quantizer.nsm_estimate", 2), below_cube=True),
    item(["nsm", "--preset", "dplus9", "--samples", "100000", "--threads", "2"]),
    item(["nsm", CUBE4, "--samples", "300000"], cube=True),
]
# A tiny list with the same shape, for --smoke.
SMOKE = {
    "exact-large": [
        item(["theorem1", "--preset", "dplus6"]),
        item(["lattice", "--preset", "dplus5"]),
        item(["gu", "--preset", "dplus6"]),
        item(["eds", "--preset", "dplus5", "--threads", "2"], pair=("spectrum.eds_check", 2)),
        item(["eds", "--preset", "dplus5", "--threads", "1"], pair=("spectrum.eds_check", 1), trace_only=True),
        item(["gu-search", "--preset", "example5"]),
    ],
    "nsm": [
        item(["nsm", "--preset", "dplus4", "--samples", "20000", "--threads", "1"],
             pair=("quantizer.nsm_estimate", 1), below_cube=True),
        item(["nsm", "--preset", "dplus4", "--samples", "20000", "--threads", "2"],
             pair=("quantizer.nsm_estimate", 2), below_cube=True),
        item(["nsm", CUBE4, "--samples", "20000"], cube=True),
    ],
    "sweep_chains": 40,
}
FULL = {"exact-large": EXACT_LARGE, "nsm": NSM, "sweep_chains": sweep.CHAINS}


def load_golden() -> dict:
    with open(HERE / "golden.json", encoding="utf-8") as fh:
        return json.load(fh)


def ordered(items: list[dict], workload: str, seed: int, traced: bool) -> list[dict]:
    """The items of one pass, in an order drawn from the workload seed."""
    out = [it for it in items if traced or not it.get("trace_only")]
    random.Random(f"{workload}:{seed}").shuffle(out)
    return out


def check_output(golden: dict, it: dict, code: int, stdout: bytes) -> list[str]:
    """Problems with one item's result; empty when it matches the golden record."""
    want = golden["commands"].get(it["id"])
    if want is None:
        return [f"{it['id']}: no golden record"]
    if code != want["exit"]:
        return [f"{it['id']}: exit {code}, expected {want['exit']}"]
    if "nsm" not in want:
        sha = hashlib.sha256(stdout).hexdigest()
        return [] if sha == want["sha256"] else [f"{it['id']}: stdout sha256 {sha[:12]} differs"]
    try:
        got = json.loads(stdout)["results"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"{it['id']}: unreadable report ({exc})"]
    ref = want["nsm"]
    problems = [
        f"{it['id']}: {key} {got.get(key)!r}, expected {ref[key]!r}"
        for key in ("samples", "seed", "covolume")
        if got.get(key) != ref[key]
    ]
    for key in ("value", "stderr"):
        if not math.isclose(got.get(key, math.nan), ref[key], rel_tol=NSM_REL_TOL):
            problems.append(f"{it['id']}: {key} {got.get(key)!r}, expected {ref[key]!r}")
    if problems:
        return problems
    if it.get("cube") and abs(got["value"] - 1 / 12) > 3 * got["stderr"]:
        problems.append(f"{it['id']}: cube NSM {got['value']} is not within 3 sigma of 1/12")
    if it.get("below_cube") and not got["value"] < 1 / 12:
        problems.append(f"{it['id']}: NSM {got['value']} is not below 1/12")
    return problems

