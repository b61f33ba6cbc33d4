"""Seeded workload units for the benchmark, and their digest check.

Three workloads, each a closed loop with one caller that issues the next
unit only after the previous one returned:

* ``gap``   -- the ``fig11/gap-rocket`` input: six GAP kernels over a
  Kronecker graph under pmp, pmpt and hpmp on the Rocket model.  A unit is
  one kernel x scheme run (``repro.workloads.gap.run_kernel``).
* ``redis`` -- the ``fig12/redis-rocket`` input: every redis-benchmark
  command against one long-running server per scheme.  A unit is one
  command x scheme pair; the units of one scheme share a server, so they
  run as one group.
* ``churn`` -- the ``cloud/churn-hpmp`` input: Poisson-arriving enclave
  lifecycles on a 64 MiB node.  A unit is one trace slice, simulated on a
  fresh ``CloudNode`` and folded as ``repro.experiments.cloud_node`` does.
  The tenants are always those of the campaign's trace (seed 7); the seed
  permutes their arrival order (seed 7 keeps it), so every run carries the
  same tenant mix and total demand and only the node's history changes.
  Drawing a fresh trace per seed moved one run's host time by +-10%.

``SIZES`` shortens each campaign cell so that one run takes a few seconds;
``campaign_size`` reads the full cell from the campaign matrix.  At the
default seed, the full cell's rows carry the committed
``benchmarks/results/baseline_manifest.json`` digests.

Every group runs through ``repro.runner.tasks.execute`` -- the campaign's
own entry point -- so the execution-mode latches and the ``light``
telemetry harvest are exactly the campaign's.  The group functions below
are resolved by name from this module.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import os
import random
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.cloud import CloudNode, poisson_trace, slice_trace
from repro.experiments.cloud_node import _canon, merge_cloud
from repro.experiments.fig12_apps import merge_redis_rows
from repro.experiments.report import canonical_rows_json, rows_digest
from repro.runner.tasks import TaskSpec, campaign_tasks, execute, resolve
from repro.workloads import gap as gap_workload
from repro.workloads import redis as redis_workload
from repro.workloads.gap import KERNELS
from repro.workloads.redis import COMMANDS

WORKLOADS = ("gap", "redis", "churn")
SCHEMES = ("pmp", "pmpt", "hpmp")

#: The seed each campaign cell uses.
DEFAULT_SEEDS = {"gap": 0, "redis": 0, "churn": 7}

#: The benchmark's seed picks one of this many recorded input seeds
#: (``seed % RECORDED_SEEDS``); each has reference digests in
#: ``reference.json``, produced once by the scalar path.
RECORDED_SEEDS = 16

#: Shortened inputs: the campaign cells' structure (every kernel, command,
#: scheme and the 128-lifecycle epoch) at a few host seconds per run.
SIZES: Dict[str, Dict[str, object]] = {
    "gap": {"machine": "rocket", "scale": 10},
    "redis": {"machine": "rocket", "requests": 8, "warmup": 4, "num_keys": 32768},
    "churn": {
        "scheme": "hpmp", "profile": "poisson", "tenants": 256, "slices": 2,
        "machine": "rocket", "mem_mib": 64, "frag_every": 64,
    },
}

#: Campaign task id of each workload's cell.
CAMPAIGN_CELLS = {"gap": "fig11/gap-rocket", "redis": "fig12/redis-rocket", "churn": "cloud/churn-hpmp"}



def campaign_size(name: str) -> Dict[str, object]:
    """*name*'s full campaign cell at ``SIZES``' keys, read from ``repro.experiments.SHARDS``.

    A key the cell leaves at its default takes the default of the cell's
    function; redis' ``warmup`` is never passed, so it is ``run_command``'s.
    """
    spec = next(t for t in campaign_tasks([CAMPAIGN_CELLS[name]]) if t.task_id == CAMPAIGN_CELLS[name])
    values = {"warmup": _default(redis_workload.run_command, "warmup")}
    values.update((k, p.default) for k, p in inspect.signature(resolve(spec)).parameters.items())
    values.update(spec.kwargs)
    return {key: values[key] for key in SIZES[name]}


def _default(func, parameter: str) -> object:
    return inspect.signature(func).parameters[parameter].default


REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


def input_seed(seed: int) -> int:
    """The recorded input seed a benchmark seed selects."""
    return seed % RECORDED_SEEDS


def unit_digest(row: Dict[str, object]) -> str:
    """Short digest of one unit's row (canonical JSON, as the campaign digests rows)."""
    return hashlib.sha256(canonical_rows_json([row]).encode("utf-8")).hexdigest()[:16]


# -- group functions (resolved by name through TaskSpec) ----------------------


def gap_group(kernel: str, scheme: str, machine: str, scale: int, seed: int) -> List[Dict[str, object]]:
    """One GAP kernel under one scheme: the unit row with its cycles."""
    result = gap_workload.run_kernel(kernel, scheme, machine=machine, scale=scale, seed=seed)
    return [{"unit": f"{kernel}/{scheme}", "cycles": result.cycles, "accesses": result.accesses}]


def redis_group(
    scheme: str, machine: str, requests: int, warmup: int, num_keys: int, seed: int
) -> List[Dict[str, object]]:
    """One scheme's server and its whole command stream, one row per command.

    Rows have the shape ``merge_redis_rows`` folds (the sub-shard rows of
    ``fig12_apps.run_redis_kind_rows``), plus the unit name.
    """
    server = redis_workload.build_server(scheme, machine=machine, num_keys=num_keys, seed=seed)
    rows = []
    for command in COMMANDS:
        result = redis_workload.run_command(
            command, scheme, machine=machine, requests=requests, warmup=warmup, server=server
        )
        rows.append(
            {
                "unit": f"{command}/{scheme}",
                "command": command,
                "kind": scheme,
                "mean_cycles": result.mean_cycles,
                "requests": requests,
            }
        )
    return rows


def churn_group(
    specs, slice_index: int, scheme: str, machine: str, mem_mib: int, frag_every: int, seed: int
) -> List[Dict[str, object]]:
    """One trace epoch on a fresh node: the row ``run_cloud_slice`` emits.

    ``run_cloud_slice`` regenerates its epoch from the trace seed, so it
    cannot take the permuted trace; this copies its row construction, and
    ``test_perfbench`` checks the two rows agree.
    """
    node = CloudNode(scheme=scheme, machine=machine, mem_mib=mem_mib, seed=seed, frag_every=frag_every)
    report = node.run_trace(specs)
    frag_final = dict(report["frag_final"])
    frag_final.pop("span_hist", None)
    return [
        {
            "unit": f"slice{slice_index}",
            "slice": slice_index,
            "kind": "epoch",
            "tenants": len(specs),
            "admitted": report["admitted"],
            "rejected": report["rejected"],
            "completed": report["completed"],
            "peak_live": report["peak_live"],
            "peak_gms": report["peak_gms"],
            "quanta": report["quanta"],
            "switch_cycles": report["switch_cycles"],
            "work_cycles": report["work_cycles"],
            "monitor_cycles": report["monitor_cycles"],
            "min_free_pmp_entries": report["min_free_pmp_entries"],
            "min_free_segment_entries": report["min_free_segment_entries"],
            "final_frag_pct": frag_final["frag_pct"],
            "largest_free_frames": frag_final["largest_free_frames"],
            "slo_json": _canon(report["slo"]),
            "frag_json": _canon({"final": frag_final, "samples": report["frag_samples"]}),
            "events_json": _canon(report["monitor_events"]),
        }
    ]


# -- workload inputs ----------------------------------------------------------


@dataclass
class Group:
    """One call the benchmark makes: a function of this module and its units."""

    func: str
    kwargs: Dict[str, object]
    units: Tuple[str, ...]


@dataclass
class Workload:
    """The generated inputs of one workload at one seed."""

    name: str
    seed: int
    size: Dict[str, object]
    groups: List[Group] = field(default_factory=list)

    @property
    def units(self) -> List[str]:
        return [unit for group in self.groups for unit in group.units]


def make_workload(name: str, seed: int, size: Optional[Dict[str, object]] = None) -> Workload:
    """Generate *name*'s inputs at input seed *seed* (the same seed, the same inputs)."""
    size = dict(SIZES[name] if size is None else size)
    work = Workload(name, seed, size)
    if name == "gap":
        for kernel in KERNELS:
            for scheme in SCHEMES:
                kwargs = {"kernel": kernel, "scheme": scheme, "machine": size["machine"],
                          "scale": size["scale"], "seed": seed}
                work.groups.append(Group("gap_group", kwargs, (f"{kernel}/{scheme}",)))
    elif name == "redis":
        for scheme in SCHEMES:
            kwargs = {"scheme": scheme, "seed": seed, **size}
            work.groups.append(Group("redis_group", kwargs, tuple(f"{c}/{scheme}" for c in COMMANDS)))
    elif name == "churn":
        trace = poisson_trace(int(size["tenants"]), DEFAULT_SEEDS["churn"])
        if seed != DEFAULT_SEEDS["churn"]:
            random.Random(seed).shuffle(trace)
        slices = int(size["slices"])
        for index in range(slices):
            kwargs = {"specs": slice_trace(trace, slices, index), "slice_index": index, "seed": seed,
                      "scheme": size["scheme"], "machine": size["machine"], "mem_mib": size["mem_mib"],
                      "frag_every": size["frag_every"]}
            work.groups.append(Group("churn_group", kwargs, (f"slice{index}",)))
    else:
        raise ValueError(f"unknown workload {name!r}; options: {WORKLOADS}")
    return work


def fold_cell(work: Workload, unit_rows: Sequence[Dict[str, object]]) -> List[Dict[str, object]]:
    """Fold unit rows into the campaign cell's rows, as the campaign does."""
    size = work.size
    if work.name == "gap":
        cycles = {row["unit"]: row["cycles"] for row in unit_rows}
        rows = []
        for kernel in KERNELS:
            base = cycles[f"{kernel}/pmp"]
            rows.append(
                {
                    "kernel": f"{kernel}-kron",
                    "pmp": 100.0,
                    "pmpt": 100.0 * cycles[f"{kernel}/pmpt"] / base,
                    "hpmp": 100.0 * cycles[f"{kernel}/hpmp"] / base,
                }
            )
        return rows
    if work.name == "redis":
        parts = [[{k: v for k, v in row.items() if k != "unit"} for row in unit_rows]]
        return merge_redis_rows(parts, machine=size["machine"], commands=COMMANDS,
                                requests=size["requests"], num_keys=size["num_keys"])
    parts = [[{k: v for k, v in row.items() if k != "unit"}] for row in unit_rows]
    kwargs = {k: size[k] for k in ("scheme", "profile", "tenants", "slices", "machine", "mem_mib", "frag_every")}
    return merge_cloud(parts, seed=work.seed, **kwargs)


# -- running and checking -----------------------------------------------------


#: Iterations of the calibration loop, about 20 ms of pure-Python work.
CALIBRATION_ITERATIONS = 250_000
#: The calibration loop's time on an unloaded vCPU of a 2-vCPU Intel Xeon
#: host, so calibrated seconds read close to raw ones there.
CALIBRATION_REFERENCE_S = 0.020


def calibration_s() -> float:
    """Host seconds for a fixed pure-Python loop: the host's current speed.

    On a shared host the same code runs up to 2x slower for seconds at a
    time.  Each timed interval is therefore scaled by the reference time
    over the mean of the calibration loops just before and after it
    (a slow phase slows both); the loop is the benchmark's own code, so a
    change to the simulator cannot move it.
    """
    start = time.perf_counter()
    acc = 0
    for i in range(CALIBRATION_ITERATIONS):
        acc = (acc + i * 17) & 0xFFFF_FFFF
    return time.perf_counter() - start


class CalibratedClock:
    """Sums timed intervals, raw and scaled to the reference host speed."""

    def __init__(self) -> None:
        self.raw_s = 0.0
        self.calibrated_s = 0.0
        self._before = calibration_s()

    def add(self, seconds: float) -> None:
        after = calibration_s()
        self.raw_s += seconds
        self.calibrated_s += seconds * CALIBRATION_REFERENCE_S * 2.0 / (self._before + after)
        self._before = after


@dataclass
class RunResult:
    """One run of a workload: its timing, rows, counters and failures.

    ``wall_s`` is calibrated to the reference host speed; ``raw_s`` is the
    plain sum of the timed intervals.
    """

    wall_s: float
    raw_s: float
    unit_rows: Dict[str, Dict[str, object]]
    cell_rows: Optional[List[Dict[str, object]]]
    counters: Dict[str, int]
    errors: List[str]


def run_workload(
    work: Workload, block: bool = True, vector: bool = True, after_group: Optional[Callable[[], None]] = None
) -> RunResult:
    """Run every group once in order; time the program's calls only.

    Each group's time is calibrated on its own (see :func:`calibration_s`).
    *after_group* is called, untimed, when each group has returned.

    A group that raises loses all its units (they count as failed); the
    run goes on with the next group.
    """
    unit_rows: Dict[str, Dict[str, object]] = {}
    counters: Dict[str, int] = {}
    errors: List[str] = []
    clock = CalibratedClock()
    for group in work.groups:
        spec = TaskSpec(f"perfbench/{work.name}", "perfbench", work.name, __name__, group.func, group.kwargs)
        start = time.perf_counter()
        try:
            rows, stats = execute(spec, telemetry="light", block=block, vector=vector)
        except Exception:  # a failed unit is counted, not fatal
            rows, stats = [], None
            errors.append(traceback.format_exc())
        clock.add(time.perf_counter() - start)
        if after_group is not None:
            after_group()
        for row in rows:
            unit_rows[str(row["unit"])] = row
        for key, value in (stats.snapshot() if stats else {}).items():
            counters[key] = counters.get(key, 0) + value
    cell_rows = None
    if len(unit_rows) == len(work.units):
        start = time.perf_counter()
        cell_rows = fold_cell(work, [unit_rows[u] for u in work.units])
        clock.add(time.perf_counter() - start)
    return RunResult(clock.calibrated_s, clock.raw_s, unit_rows, cell_rows, counters, errors)


def load_reference(path: str = REFERENCE_PATH) -> Dict[str, object]:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def reference_for(reference: Dict[str, object], work: Workload) -> Dict[str, object]:
    """The recorded digests for *work*, after checking they were made at its size."""
    if reference["sizes"][work.name] != work.size:
        raise ValueError(f"reference.json was recorded at another {work.name} size; re-record it")
    return reference["digests"][work.name][str(work.seed)]


def digests_of(work: Workload, result: RunResult) -> Dict[str, object]:
    """The digests a run produced, in reference.json's shape."""
    return {
        "units": {unit: unit_digest(result.unit_rows[unit]) for unit in work.units if unit in result.unit_rows},
        "cell": rows_digest(result.cell_rows) if result.cell_rows is not None else None,
    }


def failed_units(work: Workload, result: RunResult, expected: Dict[str, object]) -> List[str]:
    """Units that raised, or whose row (or the cell they fold into) does not match."""
    got = digests_of(work, result)
    failed = [unit for unit in work.units if got["units"].get(unit) != expected["units"][unit]]
    if not failed and got["cell"] != expected["cell"]:
        failed = list(work.units)
    return failed
