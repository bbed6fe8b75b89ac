"""Benchmark of the ``ccc`` constellation analyzer.

    python3 perfbench/run.py --workload exact-large|sweep-small|nsm \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the root of a source checkout; the program is imported from
``src/``.  ``--trace 0`` runs the named workload end to end, one item at a
time, in rounds of whole passes for about ``--seconds`` seconds, and reports
the end-to-end metrics from each item's median time.  ``--trace 1`` replays
every workload's items once inside this process with spans around the calls
into each ``ccc`` module and reports the per-layer metrics.  Every item's
output is checked; the last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  A result file with
the machine record, every item and every failure goes to ``.bench_out/``.
``--smoke`` runs a tiny item list through both modes and checks that every
metric of ``BENCHMARK.json`` is reported.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from importlib import metadata
from pathlib import Path

import reference
import sweep
import workloads
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("exact-large", "sweep-small", "nsm")
SETUP_PER_ROUND = 3  # set-up samples before each round of passes, spread over the run
MIN_ROUNDS = 2  # one exact-large pass nearly fills --seconds; a minimum needs two
SWEEP_PASSES = 3  # sweep-small passes per process, caches emptied before each
RUN_CAP_S = 150.0  # a run ends within this; items still pending then fail
SWEEP_BLOCK = 50  # chains per untraced/traced block pair in the traced replay

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "items_per_s": "1/s",
    "item_p50_s": "s",
    "item_p98_s": "s",
    "samples_per_s": "1/s",
    "peak_rss_mb": "MB",
}
# Functions whose summed self time is a per-layer metric.
SELF_TIMED = (
    "constellation.residues",
    "lattice.is_lattice_direct",
    "lattice.equivalence_report",
    "lattice.smallest_lattice",
    "lattice.combination_residues",
    "f2.schur_closed_chain",
    "uniformity.gu_check_two_level",
    "uniformity.gu_subgroup_search",
    "spectrum.eds_check",
    "spectrum.kissing_stats",
    "spectrum.spectrum_at",
    "quantizer.nsm_estimate",
    "chainfile.parse_chain",
    "cli.main",
)
COUNTS = (
    "constellation.residues.calls",
    "constellation.residues.count",
    "lattice.is_lattice_direct.translations",
    "uniformity.gu_check_two_level.pairs",
    "spectrum.eds_check.pairs",
    "spectrum.spectrum_at.calls",
    "quantizer.nsm_estimate.distance_evals",
    "parallel.ordered_map.items",
)
CACHES = sweep.CACHES
PER_LAYER = {
    **{f"{name}.self_s": "s" for name in SELF_TIMED},
    **{name: "count" for name in COUNTS},
    "constellation.residues.cache_hit_ratio": "ratio",
    "spectrum.key_table.hit_ratio": "ratio",
    "spectrum.key_table.entries": "count",
    "spectrum.coset_profile.hit_ratio": "ratio",
    "spectrum.eds_check.threads2_over_threads1": "ratio",
    "quantizer.nsm_estimate.threads2_speedup": "ratio",
    "trace.overhead_ratio": "ratio",
    **{f"trace.layer_share.{w}": "ratio" for w in WORKLOADS},
}


def machine_record(workload: str, seed: int, trace: int) -> dict:
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "loadavg_start": os.getloadavg(),
        "workload": workload,
        "seed": seed,
        "trace": trace,
    }


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("CCC_THREADS", None)  # the items set --threads themselves
    return env


def cap(deadline: float, limit: float) -> float:
    """Seconds an item may take: its own cap, cut to what the run has left."""
    return max(min(limit, deadline - time.perf_counter()), 0.001)


def run_cli(golden: dict, it: dict, env: dict, timeout: float) -> tuple[float, list[str]]:
    """One item as a fresh CLI process: (wall seconds, problems)."""
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "ccc.cli", *it["argv"]],
            cwd=ROOT, env=env, capture_output=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return time.perf_counter() - start, [f"{it['id']}: over its {timeout:.3g}s time cap"]
    elapsed = time.perf_counter() - start
    return elapsed, workloads.check_output(golden, it, proc.returncode, proc.stdout)


def run_reference(env: dict, timeout: float) -> tuple[float, float] | None:
    """One fresh reference process: (start-up seconds, numpy loop seconds), or None if it failed."""
    start = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, str(Path(reference.__file__))], cwd=ROOT, env=env,
                              capture_output=True, timeout=timeout)
        loop = float(proc.stdout.split()[-1])
    except (subprocess.TimeoutExpired, ValueError, IndexError):
        return None
    wall = time.perf_counter() - start
    return (wall - loop, loop) if proc.returncode == 0 else None


def run_sweep_process(seed: int, chains: int, passes: int, env: dict, timeout: float) -> dict:
    """``passes`` sweep-small passes in one fresh process."""
    cmd = [sys.executable, str(Path(sweep.__file__)), "--seed", str(seed), "--chains", str(chains),
           "--passes", str(passes)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, timeout=timeout)
        result = json.loads(proc.stdout.decode().strip().splitlines()[-1])
    except (subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        return {"passes": [], "failed": chains * passes, "failures": [f"sweep passes: {exc!r}"], "digest": None}
    if proc.returncode != 0:
        result["failures"].append(f"sweep pass exited {proc.returncode}")
    return result


def check_digest(golden: dict, seed: int, chains: int, digest: str | None) -> list[str]:
    want = golden["sweep_digest"].get(f"{seed}/{chains}")
    if want is None or want == digest:
        return []
    return [f"sweep-small verdict digest {str(digest)[:12]} differs from the golden record"]


class Tally:
    """Attempted and failed items, with every failure message."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.failures: list[str] = []

    def add(self, problems: list[str], items: int = 1, failed: int = 0) -> None:
        """Count ``items`` attempts, ``failed`` of them known to have failed."""
        self.attempted += items
        self.failed += max(failed, 1 if problems else 0)
        self.failures += problems

    def result(self, metrics: dict, units: dict, items: list) -> dict:
        return {"metrics": metrics, "units": units, "attempted": self.attempted,
                "failed": self.failed, "failures": self.failures, "items": items}


def end_to_end(workload: str, seed: int, seconds: float, lists: dict, smoke: bool) -> dict:
    """Rounds of set-up samples and whole workload passes until ``seconds`` are used."""
    deadline = time.perf_counter() + RUN_CAP_S
    golden = workloads.load_golden()
    env = child_env()
    tally = Tally()
    setup = workloads.item(workloads.SETUP_ARGV)
    setup_times, setup_scaled, numpy_refs = [], [], []
    chains = lists["sweep_chains"]
    if workload != "sweep-small":
        order = workloads.ordered(lists[workload], workload, seed, traced=False)
    items, passes, rounds = [], 0, 0
    start = time.perf_counter()
    while True:
        for _ in range(1 if smoke else SETUP_PER_ROUND):
            ref = run_reference(env, cap(deadline, workloads.ITEM_CAP_S))
            elapsed, errs = run_cli(golden, setup, env, cap(deadline, workloads.ITEM_CAP_S))
            setup_times.append(elapsed)
            if ref is None:
                errs = errs + ["reference process failed"]
            else:
                setup_scaled.append(elapsed * reference.STARTUP_NOMINAL_S / ref[0])
                numpy_refs.append(ref[1])
            tally.add(errs)
        if workload == "sweep-small":
            count = 1 if smoke else SWEEP_PASSES
            res = run_sweep_process(seed, chains, count, env, cap(deadline, RUN_CAP_S))
            for run in res["passes"]:
                items += [{"id": f"chain {i}", "s": t, "ref": r, "points": p}
                          for i, (t, r, p) in enumerate(zip(run["times"], run["refs"], run["points"]))]
            passes += len(res["passes"])
            tally.add(res["failures"] + check_digest(golden, seed, chains, res["digest"]), chains * count, res["failed"])
        else:
            for it in order:
                elapsed, errs = run_cli(golden, it, env, cap(deadline, workloads.ITEM_CAP_S))
                items.append({"id": it["id"], "s": elapsed, "points": golden["commands"].get(it["id"], {}).get("points", 0)})
                tally.add(errs)
            passes += 1
        rounds += 1
        elapsed = time.perf_counter() - start
        if rounds >= (1 if smoke else MIN_ROUNDS) and elapsed + elapsed / rounds > seconds:
            break
        if time.perf_counter() >= deadline:
            break
    if not items or not setup_scaled:
        raise SystemExit("error: no item completed:\n" + "\n".join(tally.failures[:20]))
    # Each item's median time over the run's passes, scaled to a fixed
    # machine speed (see reference.py).  Other tenants of the shared machine
    # slow it down by up to 2x for tens of seconds, often for most of a run,
    # which no statistic over one run's wall times removes.  A sweep-small
    # chain is scaled by the pure-Python kernel timed around its block of 50
    # in the same process; an nsm item by the run's median numpy reference
    # loop; a set-up sample by the start-up of the reference process run
    # just before it.  exact-large items keep their wall times.
    numpy_scale = reference.NUMPY_NOMINAL_S / statistics.median(numpy_refs) if workload == "nsm" else 1.0
    per_item: dict[str, list[float]] = defaultdict(list)
    points: dict[str, int] = {}
    for it in items:
        scale = reference.PYTHON_NOMINAL_S / it["ref"] if "ref" in it else numpy_scale
        per_item[it["id"]].append(it["s"] * scale)
        points[it["id"]] = it["points"]
    typical = sorted(statistics.median(times) for times in per_item.values())
    wall = sum(typical)  # one pass, each item at its median
    metrics = {
        "setup_s": (statistics.median(setup_scaled), len(setup_scaled)),
        "wall_s": (wall, passes),
        "items_per_s": (len(typical) / wall, len(items)),
        "item_p50_s": (statistics.median(typical), len(items)),
        "item_p98_s": (percentile(typical, 98), len(items)),
        "samples_per_s": (sum(points.values()) / wall, len(items)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024, passes),
    }
    return {**tally.result(metrics, END_TO_END, items), "setup_times": setup_times,
            "setup_scaled": setup_scaled, "numpy_refs": numpy_refs}


def percentile(sorted_values: list[float], pct: float) -> float:
    if len(sorted_values) < 2:
        return sorted_values[0]
    return statistics.quantiles(sorted_values, n=100, method="inclusive")[int(pct) - 1]


class CacheMeter:
    """Hits and misses of the program's lru caches, read from outside at item boundaries."""

    def __init__(self):
        self.caches = {
            name: getattr(sys.modules[f"ccc.{module}"], attr) for name, (module, attr) in CACHES.items()
        }
        self.hits: dict[str, int] = defaultdict(int)
        self.misses: dict[str, int] = defaultdict(int)
        self.entries: dict[str, int] = defaultdict(int)
        self._last: dict = {}

    def clear(self) -> None:
        for fn in self.caches.values():
            fn.cache_clear()
        self._last = self._read()

    def boundary(self) -> None:
        now = self._read()
        for name, info in now.items():
            self.hits[name] += info.hits - self._last[name].hits
            self.misses[name] += info.misses - self._last[name].misses
            self.entries[name] = max(self.entries[name], info.currsize)
        self._last = now

    def _read(self) -> dict:
        return {name: fn.cache_info() for name, fn in self.caches.items()}

    def hit_ratio(self, name: str) -> float:
        total = self.hits[name] + self.misses[name]
        return self.hits[name] / total if total else 0.0


def traced_replay(workload: str, seed: int, lists: dict) -> dict:
    """Replay every workload's items once in this process, traced.

    The named workload goes first.  Caches are cleared before each CLI item,
    so it starts as a fresh process would.
    """
    sys.path.insert(0, str(ROOT / "src"))
    import ccc
    import ccc.cli

    deadline = time.perf_counter() + RUN_CAP_S
    golden = workloads.load_golden()
    chains = lists["sweep_chains"]
    tracer = Tracer()
    meter = CacheMeter()
    tally = Tally()
    walls: dict[str, float] = {}
    pairs: dict[str, dict[int, str]] = defaultdict(dict)
    overhead = 0.0  # stays 0 if no sweep-small block ran; those chains count as failed
    tracer.install(ccc)
    try:
        for name in [workload] + [w for w in WORKLOADS if w != workload]:
            if name == "sweep-small":
                res = replay_sweep(ccc, tracer, meter, sweep.make_specs(seed, chains), deadline)
                walls.update(res["walls"])
                errs = res["failures"] + check_digest(golden, seed, chains, sweep.digest(res["verdicts"]))
                tally.add(errs, 2 * chains, res["failed"])
                overhead = ratio(res["traced_s"], res["untraced_s"])
                continue
            for index, it in enumerate(workloads.ordered(lists[name], name, seed, traced=True)):
                item_id = f"{name}/{index}"
                tracer.begin_item(item_id)
                meter.clear()
                start = time.perf_counter()
                code, out, errs = call_main(ccc.cli, it, cap(deadline, workloads.ITEM_CAP_S))
                walls[item_id] = time.perf_counter() - start
                meter.boundary()
                tracer.begin_item(None)
                tally.add(errs or workloads.check_output(golden, it, code, out))
                if "pair" in it:
                    fn, threads = it["pair"]
                    pairs[fn][threads] = item_id
    finally:
        tracer.uninstall(ccc)
    metrics = layer_metrics(tracer, meter, walls, pairs, overhead)
    items = [{"id": k, "s": v} for k, v in walls.items()]
    return {**tally.result(metrics, PER_LAYER, items), "spans": tracer.spans}


def replay_sweep(ccc, tracer: Tracer, meter: CacheMeter, specs: list[dict], deadline: float) -> dict:
    """The sweep-small chains in blocks, each run untraced and then traced.

    Interleaving short blocks exposes both runs to the same machine load, so
    their time ratio is the tracing overhead rather than load drift between
    two long passes.  Caches are cleared before every block run, so the
    traced run of a block starts from the same state as its untraced run.
    """
    out = {"walls": {}, "verdicts": [], "failures": [], "failed": 0, "untraced_s": 0.0, "traced_s": 0.0}
    for first in range(0, len(specs), SWEEP_BLOCK):
        block = specs[first : first + SWEEP_BLOCK]
        if time.perf_counter() >= deadline:
            out["failures"].append(f"sweep-small: chains {first} to {len(specs) - 1} not run, run time cap reached")
            out["failed"] += 2 * (len(specs) - first)
            break
        tracer.uninstall(ccc)
        meter.clear()
        start = time.perf_counter()
        plain = sweep.run_pass(ccc, block)
        out["untraced_s"] += time.perf_counter() - start
        tracer.install(ccc)

        def mark(index):
            meter.boundary()
            tracer.begin_item(None if index is None else f"sweep-small/{first + index}")

        meter.clear()
        start = time.perf_counter()
        traced = sweep.run_pass(ccc, block, on_item=mark)
        out["traced_s"] += time.perf_counter() - start
        out["walls"].update((f"sweep-small/{first + i}", t) for i, t in enumerate(traced["times"]))
        out["verdicts"] += traced["verdicts"]
        for res in (plain, traced):
            out["failures"] += res["failures"]
            out["failed"] += res["failed"]
    return out


def call_main(cli, it: dict, timeout: float) -> tuple[int | None, bytes, list[str]]:
    """One CLI item in this process, with stdout captured as the process would write it."""
    buf = io.StringIO()
    try:
        with sweep.time_cap(timeout), contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(it["argv"])
    except sweep.ItemTimeout:
        return None, b"", [f"{it['id']}: over its {timeout:.3g}s time cap"]
    except SystemExit as exc:
        return None, b"", [f"{it['id']}: exited through SystemExit({exc.code})"]
    except Exception as exc:  # a traceback is a failed item, never a crashed benchmark
        return None, b"", [f"{it['id']}: {type(exc).__name__}: {exc}"]
    return code, buf.getvalue().encode(), []


def layer_metrics(tracer: Tracer, meter: CacheMeter, walls: dict, pairs: dict, overhead: float) -> dict:
    """Per-layer metrics as (value, sample count)."""
    self_s: dict[str, float] = defaultdict(float)
    busy: dict[tuple[str, str | None], float] = defaultdict(float)
    share: dict[str, float] = defaultdict(float)
    for name, duration, own, item in tracer.self_times():
        self_s[name] += own
        busy[name, item] += duration
        # cli.main encloses a whole CLI item, so its self time would take in
        # everything no layer span covers; leave it out of the layer share.
        if item is not None and name != "cli.main":
            share[item.split("/")[0]] += own
    by_workload: dict[str, list[float]] = defaultdict(list)
    for item, wall in walls.items():
        by_workload[item.split("/")[0]].append(wall)

    def pair_ratio(fn: str, num: int, den: int) -> float:
        # An item stopped by its time cap has no finished span: the ratio is
        # reported as 0 and the item is already counted as failed.
        return ratio(busy[fn, pairs[fn].get(num)], busy[fn, pairs[fn].get(den)])

    m = {f"{name}.self_s": (self_s[name], tracer.counters[name + ".calls"]) for name in SELF_TIMED}
    m.update({name: (tracer.counters[name], 1) for name in COUNTS})
    m["constellation.residues.cache_hit_ratio"] = (meter.hit_ratio("constellation.residues"), 1)
    m["spectrum.key_table.hit_ratio"] = (meter.hit_ratio("spectrum.key_table"), 1)
    m["spectrum.key_table.entries"] = (meter.entries["spectrum.key_table"], 1)
    m["spectrum.coset_profile.hit_ratio"] = (meter.hit_ratio("spectrum.coset_profile"), 1)
    m["spectrum.eds_check.threads2_over_threads1"] = (pair_ratio("spectrum.eds_check", 2, 1), 1)
    m["quantizer.nsm_estimate.threads2_speedup"] = (pair_ratio("quantizer.nsm_estimate", 1, 2), 1)
    m["trace.overhead_ratio"] = (overhead, 1)
    for w in WORKLOADS:
        m[f"trace.layer_share.{w}"] = (ratio(share[w], sum(by_workload[w])), len(by_workload[w]))
    return m


def ratio(num: float, den: float) -> float:
    """num / den, or 0 when nothing was measured (the items concerned have failed)."""
    return num / den if den > 0 else 0.0


def write_result(name: str, record: dict) -> None:
    OUT.mkdir(exist_ok=True)
    with open(OUT / name, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)


def report(result: dict) -> dict:
    """Print each metric with its unit and sample count; return the final JSON line."""
    for name, (value, count) in result["metrics"].items():
        print(f"{name} = {value:.6g} {result['units'][name]} (n={count})")
    fail_ratio = result["failed"] / result["attempted"]
    print(f"fail_ratio = {fail_ratio:.6g} ratio (n={result['attempted']})")
    for problem in result["failures"][:20]:
        print(f"FAILED: {problem}")
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": value, "unit": result["units"][name]}
            for name, (value, _) in result["metrics"].items()
        },
    }


def run_once(workload: str, seed: int, seconds: float, trace: int, smoke: bool = False) -> dict:
    record = machine_record(workload, seed, trace)
    lists = workloads.SMOKE if smoke else workloads.FULL
    tag = "-smoke" if smoke else ""
    if trace:
        result = traced_replay(workload, seed, lists)
        spans = result.pop("spans")
        OUT.mkdir(exist_ok=True)
        with open(OUT / f"spans-{workload}-seed{seed}{tag}.jsonl", "w", encoding="utf-8") as fh:
            for span in spans:
                fh.write(json.dumps(span) + "\n")
    else:
        result = end_to_end(workload, seed, seconds, lists, smoke)
    line = report(result)
    write_result(f"{workload}-seed{seed}-trace{trace}{tag}.json", {"machine": record, **result, "final": line})
    return line


def smoke() -> int:
    """Tiny items through both modes; every metric of BENCHMARK.json must be reported."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = []
    for workload in WORKLOADS:
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            if trace and workload != WORKLOADS[0]:
                continue  # the traced replay covers every workload at once
            line = run_once(workload, 0, 0, trace, smoke=True)
            print(json.dumps(line))
            got = line["metrics"]
            for metric in wanted:
                have = got.get(metric["name"])
                if have is None or have["unit"] != metric["unit"]:
                    problems.append(f"{workload} trace={trace}: {metric['name']} missing or wrong unit")
                elif not have["value"] > 0:
                    problems.append(f"{workload} trace={trace}: {metric['name']} is {have['value']}; its layer ran no work")
            extra = set(got) - {m["name"] for m in wanted}
            problems += [f"{workload} trace={trace}: {x} is not in BENCHMARK.json" for x in sorted(extra)]
            if line["failed"]:
                problems.append(f"{workload} trace={trace}: fail_ratio is not 0")
    for problem in problems:
        print(f"SMOKE FAILED: {problem}")
    print("smoke: " + ("failed" if problems else "ok"))
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="run the self-test and exit")
    args = parser.parse_args()
    if not (ROOT / "src" / "ccc" / "cli.py").is_file():
        print(f"error: no ccc sources under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    line = run_once(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
