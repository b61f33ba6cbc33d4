"""Benchmark of the HPMP simulator: end to end, or per layer with tracing.

Usage (from the repository root)::

    python3 perfbench/run.py --workload gap|redis|churn --seed N --seconds S --trace 0|1

``--trace 0`` repeats the workload for ``--seconds`` host seconds with
tracing off and reports the end-to-end metrics: ``wall_s`` (median host
seconds of one run), ``sim_refs_per_s`` (simulated memory references per
host second), ``setup_s`` (median, over fresh processes, of the host
seconds from process start to the first timed call), ``peak_rss_mib`` and
``ok_frac`` (units whose rows match the reference digests, over units
attempted).  Host seconds are calibrated: each timed interval is scaled to
a reference host speed measured by a fixed loop run just before and after
it (``units.calibration_s``); the report also prints the raw median.

``--trace 1`` runs the execution-mode sweep (vector, block, scalar; tracing
off) for ``--seconds``, then two traced runs, and reports the per-layer
metrics.  Every run of either kind is checked against the recorded digests.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The workload runs
in this process, on one thread, one run at a time; only the set-up probes
start (and wait for) fresh processes.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
CHECKOUT = os.path.dirname(HERE)
SRC = os.path.join(CHECKOUT, "src")

#: Timed runs per measurement, at least (more while ``--seconds`` lasts).
MIN_RUNS = 3
#: Fresh processes whose set-up time ``setup_s`` takes the median of.
SETUP_PROBES = 9

#: Wrapped functions that must be called on each workload (the layer table's
#: "should move on" column); a zero count means a call went around a wrapper.
EXPECTED_CALLS = {
    "gap": ("workloads.rmat_edges", "engine.evaluate_machine", "soc.access", "soc.access_run",
            "soc.access_program", "mem.lookup_fill", "mem.hierarchy_access"),
    "redis": ("workloads.redis_execute", "engine.evaluate_machine", "soc.access", "soc.access_run",
              "soc.access_block", "paging.tlb_lookup", "paging.walk", "mem.lookup_fill",
              "mem.hierarchy_access", "isolation.check", "isolation.pmpt_lookup"),
    "churn": ("paging.map_page", "mem.lookup_fill", "mem.hierarchy_access", "mem.physical_write",
              "mem.alloc", "isolation.set_range", "tee.monitor_ops", "cloud.run_trace"),
}

MODES = (("vector", True, True), ("block", True, False), ("scalar", False, False))

#: End-to-end metrics (``--trace 0``), with their units.
END_TO_END = (("wall_s", "s"), ("sim_refs_per_s", "1/s"), ("setup_s", "s"), ("peak_rss_mib", "MiB"),
              ("ok_frac", "ratio"))


def _calls_and_self(*names: str) -> Tuple[Tuple[str, str], ...]:
    return tuple(item for name in names for item in ((f"{name}.calls", "count"), (f"{name}.self_s", "s")))


#: Per-layer metrics (``--trace 1``), with their units, layer by layer.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("workloads.self_s", "s"),
    *_calls_and_self("workloads.rmat_edges", "workloads.redis_execute"),
    ("engine.self_s", "s"),
    *_calls_and_self("engine.evaluate_machine"),
    ("engine.replay_spans", "count"),
    ("engine.replay_spans_per_program", "ratio"),
    ("engine.mode.vector.wall_s", "s"),
    ("engine.mode.block.wall_s", "s"),
    ("engine.mode.scalar.wall_s", "s"),
    ("soc.self_s", "s"),
    *_calls_and_self("soc.access", "soc.access_run"),
    ("soc.access_program.calls", "count"),
    ("soc.access_block.calls", "count"),
    ("paging.self_s", "s"),
    *_calls_and_self("paging.tlb_lookup", "paging.walk", "paging.map_page"),
    ("mem.self_s", "s"),
    *_calls_and_self("mem.lookup_fill", "mem.hierarchy_access", "mem.physical_write", "mem.alloc"),
    ("mem.sim.hierarchy_refs", "count"),
    ("mem.sim.l1d_hit_ratio", "ratio"),
    ("mem.sim.llc_misses", "count"),
    ("isolation.self_s", "s"),
    *_calls_and_self("isolation.check", "isolation.pmpt_lookup", "isolation.set_range"),
    ("isolation.leaf_pmptes_per_set_range", "ratio"),
    ("isolation.sim.entry_writes", "count"),
    ("isolation.sim.pmpte_refs", "count"),
    ("isolation.sim.table_walks", "count"),
    ("isolation.sim.pmptw_hit_ratio", "ratio"),
    ("tee.self_s", "s"),
    *_calls_and_self("tee.monitor_ops"),
    ("cloud.self_s", "s"),
    ("cloud.sim.lifecycles", "count"),
    ("cloud.sim.rejected", "count"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("gap", "redis", "churn"))
    parser.add_argument("--seed", type=int, default=None, help="default: the campaign cell's seed")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def prepare(args: argparse.Namespace):
    """Set-up: imports, reference digests, the workload's generated inputs."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        sys.exit(f"perfbench: no simulator sources at {SRC}; run from the repository root")
    sys.path.insert(0, SRC)
    import units

    seed = units.DEFAULT_SEEDS[args.workload] if args.seed is None else args.seed
    work = units.make_workload(args.workload, units.input_seed(seed))
    expected = units.reference_for(units.load_reference(), work)
    return units, work, expected


def probe_setup(args: argparse.Namespace, units) -> float:
    """Calibrated host seconds for a fresh process to reach its first timed call."""
    cmd = [sys.executable, os.path.abspath(__file__), "--probe-setup", "--workload", args.workload]
    if args.seed is not None:
        cmd += ["--seed", str(args.seed)]
    clock = units.CalibratedClock()
    start = time.monotonic()
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    clock.add(float(done.stdout.strip().splitlines()[-1]) - start)
    return clock.calibrated_s


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": value, "unit": unit}


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Checker:
    """Tallies units attempted and failed over every run of this process."""

    def __init__(self, units, work, expected):
        self.units = units
        self.work = work
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def check(self, result, label: str) -> None:
        for error in result.errors:
            sys.stderr.write(error)
        failed = self.units.failed_units(self.work, result, self.expected)
        self.attempted += len(self.work.units)
        self.failed += len(failed)
        if failed:
            self.problems.append(f"{label}: {len(failed)} failed units, first {failed[0]}")

    def expect(self, ok: bool, problem: str) -> None:
        if not ok:
            self.problems.append(problem)


def end_to_end(args, units, work, checker: Checker) -> Dict[str, object]:
    walls: List[float] = []
    raws: List[float] = []
    refs = None
    start = time.perf_counter()
    while len(walls) < MIN_RUNS or time.perf_counter() - start < args.seconds:
        result = units.run_workload(work)
        checker.check(result, f"run {len(walls)}")
        walls.append(result.wall_s)
        raws.append(result.raw_s)
        run_refs = result.counters.get("hierarchy.refs", 0)
        checker.expect(refs is None or run_refs == refs, "hierarchy.refs differ between runs")
        refs = run_refs
    setups = [probe_setup(args, units) for _ in range(SETUP_PROBES)]
    q1, wall, q3 = statistics.quantiles(walls, n=4)
    s1, setup, s3 = statistics.quantiles(setups, n=4)
    print(f"workload {work.name} input seed {work.seed}: {len(work.units)} units per run")
    print(f"wall_s          median {wall:.4f} s  (q1 {q1:.4f}, q3 {q3:.4f}, n={len(walls)}; "
          f"uncalibrated median {statistics.median(raws):.4f} s)")
    print(f"sim_refs_per_s  {refs / wall:.1f} 1/s  ({refs} hierarchy refs per run)")
    print(f"setup_s         median {setup:.4f} s  (q1 {s1:.4f}, q3 {s3:.4f}, n={len(setups)})")
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"peak_rss_mib    {peak:.1f} MiB")
    ok = ratio(checker.attempted - checker.failed, checker.attempted)
    print(f"ok_frac         {ok:.4f}  ({checker.attempted - checker.failed} of {checker.attempted} units)")
    values = {"wall_s": wall, "sim_refs_per_s": refs / wall, "setup_s": setup, "peak_rss_mib": peak, "ok_frac": ok}
    return {name: metric(values[name], unit) for name, unit in END_TO_END}


def sim_counters(result, entry_writes: int) -> Dict[str, int]:
    """The simulated counters a run produced; they must repeat exactly."""
    counters = dict(result.counters)
    counters["entry_writes"] = entry_writes
    node = next((r for r in result.cell_rows or () if r.get("kind") == "node"), {})
    counters["lifecycles"] = int(node.get("lifecycles", 0))
    counters["rejected"] = int(node.get("rejected", 0))
    return counters


def per_layer(args, units, work, checker: Checker) -> Dict[str, object]:
    import tracer as tr

    mode_walls: Dict[str, List[float]] = {name: [] for name, _b, _v in MODES}
    counters = None
    start = time.perf_counter()
    while not mode_walls["scalar"] or time.perf_counter() - start < args.seconds:
        for name, block, vector in MODES:
            with tr.TableCensus() as census:
                result = units.run_workload(work, block=block, vector=vector, after_group=census.fold)
            checker.check(result, f"{name} mode")
            mode_walls[name].append(result.wall_s)
            run_counters = sim_counters(result, census.entry_writes)
            checker.expect(counters is None or run_counters == counters, f"{name} mode: simulated counters differ")
            counters = counters or run_counters

    # The benchmark's own calibration loops get spans too, so the layer
    # shares leave them out.
    harness = ((units, "calibration_s", "bench.calibration", True),)
    traces = []
    for index in range(2):
        tracer = tr.Tracer()
        with tr.TableCensus() as census, tr.Patched(tracer, tr.TARGETS + harness):
            result = tracer.root(units.run_workload, work, after_group=census.fold)
        checker.check(result, f"traced run {index}")
        checker.expect(sim_counters(result, census.entry_writes) == counters,
                       f"traced run {index}: simulated counters differ from untraced")
        traces.append((tracer, result.wall_s))
    tracer, _ = traces[0]
    checker.expect(tracer.call_counts() == traces[1][0].call_counts(), "call counts differ between traced runs")
    funcs = tracer.functions()
    for name in EXPECTED_CALLS[work.name]:
        checker.expect(funcs.get(name, {}).get("calls", 0) > 0, f"{name} never called on {work.name}")

    vector_wall = statistics.median(mode_walls["vector"])
    traced_wall = statistics.median(wall for _t, wall in traces)
    layers = tracer.layer_self()
    harness_s = sum(funcs.get(name, {}).get("total_s", 0.0) for _o, _a, name, _c in harness)
    layers["bench"] -= harness_s
    traced_s = funcs[tr.ROOT]["total_s"] - harness_s
    print(f"workload {work.name} input seed {work.seed}: traced wall {traced_wall:.3f} s, "
          f"untraced {vector_wall:.3f} s")
    print(f"layer self time in the first traced run: {traced_s:.3f} host s, uncalibrated "
          f"({harness_s:.3f} s of calibration loops left out)")
    print(f"{'layer':<10} {'self_s':>9} {'share':>7}")
    for layer in tr.LAYERS:
        print(f"{layer:<10} {layers[layer]:9.3f} {100.0 * ratio(layers[layer], traced_s):6.1f}%")
    for name, _b, _v in MODES:
        walls = mode_walls[name]
        print(f"mode {name:<7} wall_s median {statistics.median(walls):.4f} s (n={len(walls)})")

    def fn(name: str, key: str) -> float:
        return funcs.get(name, {}).get(key, 0)

    set_range = [s for s in tracer.coarse if s[1] == "isolation.set_range"]
    replays = tracer.calls_under("soc.access_run", "engine.evaluate_machine")
    values: Dict[str, float] = {f"{layer}.self_s": layers[layer] for layer in tr.LAYERS}
    for name, _unit in PER_LAYER:
        base, _, key = name.rpartition(".")
        if key in ("calls", "self_s") and base in funcs:
            values[name] = fn(base, key)
    hits, misses = counters.get("pmptw_cache.hit", 0), counters.get("pmptw_cache.miss", 0)
    l1d_hits = counters.get("l1d.hit", 0)
    values.update({
        "engine.replay_spans": replays,
        "engine.replay_spans_per_program": ratio(replays, fn("engine.evaluate_machine", "calls")),
        "isolation.leaf_pmptes_per_set_range": ratio(sum(s[8] or 0 for s in set_range), len(set_range)),
        "mem.sim.hierarchy_refs": counters.get("hierarchy.refs", 0),
        "mem.sim.l1d_hit_ratio": ratio(l1d_hits, l1d_hits + counters.get("l1d.miss", 0)),
        "mem.sim.llc_misses": counters.get("llc.miss", 0),
        "isolation.sim.entry_writes": counters["entry_writes"],
        "isolation.sim.pmpte_refs": counters.get("checker.pmpte_refs", 0),
        "isolation.sim.table_walks": counters.get("checker.table_walks", 0),
        "isolation.sim.pmptw_hit_ratio": ratio(hits, hits + misses),
        "cloud.sim.lifecycles": counters["lifecycles"],
        "cloud.sim.rejected": counters["rejected"],
        "trace.wall_s": traced_wall,
        "trace.overhead_s": traced_wall - vector_wall,
    })
    for name, _b, _v in MODES:
        values[f"engine.mode.{name}.wall_s"] = statistics.median(mode_walls[name])
    # A wrapped function the workload never calls reports 0 calls and 0 s.
    out = {name: metric(values.get(name, 0), unit) for name, unit in PER_LAYER}

    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"trace-{work.name}-seed{work.seed}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"workload": work.name, "seed": work.seed, "metrics": out, "layers": layers,
                   "functions": funcs, "spans": tracer.to_json()}, handle)
    print(f"spans written to {os.path.relpath(path, CHECKOUT)}")
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    units, work, expected = prepare(args)
    if args.probe_setup:
        print(time.monotonic())
        return 0
    checker = Checker(units, work, expected)
    metrics = per_layer(args, units, work, checker) if args.trace else end_to_end(args, units, work, checker)
    for problem in checker.problems:
        print(f"CHECK FAILED: {problem}")
    print(json.dumps({
        "correct": not checker.problems,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
