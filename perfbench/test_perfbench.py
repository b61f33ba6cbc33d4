"""Tests for the benchmark itself.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import os
import re
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import run  # noqa: E402
import tracer as tr  # noqa: E402
import units  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


class FakeClock:
    """A clock the test advances by hand."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_time_with_nested_and_sibling_children():
    # root [0, 7.75]: own 1.0, then middle [1, 4.75], then a leaf [4.75, 7.75].
    # middle: own 1.0 + 2.0, with two sibling leaf children of 0.5 and 0.25.
    clock = FakeClock()
    tracer = tr.Tracer(clock)

    def leaf(step):
        clock.now += step

    def middle():
        clock.now += 1.0
        fine_leaf(0.5)
        clock.now += 2.0
        fine_leaf(0.25)

    fine_leaf = tracer.fine_wrapper("mem.leaf", leaf)
    coarse_middle = tracer.coarse_wrapper("soc.middle", middle)

    def body():
        clock.now += 1.0
        coarse_middle()
        fine_leaf(3.0)

    tracer.root(body)
    funcs = tracer.functions()
    assert funcs["mem.leaf"] == {"calls": 3, "total_s": 3.75, "self_s": 3.75}
    assert funcs["soc.middle"] == {"calls": 1, "total_s": 3.75, "self_s": 3.0}
    assert funcs[tr.ROOT] == {"calls": 1, "total_s": 7.75, "self_s": 1.0}
    assert tracer.calls_under("mem.leaf", "soc.middle") == 2
    assert tracer.calls_under("mem.leaf", tr.ROOT) == 1
    root, middle_span = tracer.coarse
    assert middle_span[2] == root[0] and middle_span[6] == 0.75
    layers = tracer.layer_self()
    assert (layers["mem"], layers["soc"], layers["bench"]) == (3.75, 3.0, 1.0)
    assert sum(layers.values()) == funcs[tr.ROOT]["total_s"]


def test_patched_wrappers_count_calls_and_restore():
    from repro import AccessType, System
    from repro.mem import hierarchy

    original = vars(hierarchy.MemoryHierarchy)["access"]
    tracer = tr.Tracer()
    with tr.Patched(tracer):
        system = System(machine="rocket", checker_kind="pmpt", mem_mib=64)
        space = system.new_address_space()
        space.map(0x40_0000_0000, 4096)
        system.machine.cold_boot()
        result = tracer.root(system.access, space, 0x40_0000_0000, AccessType.READ)
    assert vars(hierarchy.MemoryHierarchy)["access"] is original
    funcs = tracer.functions()
    # A cold Sv39 load under a 2-level permission table: 12 references.
    assert result.total_refs == 12
    assert funcs["soc.access"]["calls"] == 1
    assert funcs["paging.walk"]["calls"] == 1
    assert funcs["engine.step_ref"]["calls"] == 3
    assert funcs["mem.hierarchy_access"]["calls"] == 12
    assert tracer.calls_under("isolation.pmpt_lookup", "isolation.check") == 4


def test_calibrated_clock_scales_each_interval(monkeypatch):
    # Calibration loops read 0.04 s, 0.04 s, then 0.02 s around two intervals.
    speeds = iter([0.04, 0.04, 0.02])
    monkeypatch.setattr(units, "calibration_s", lambda: next(speeds))
    monkeypatch.setattr(units, "CALIBRATION_REFERENCE_S", 0.02)
    clock = units.CalibratedClock()
    clock.add(2.0)  # the host ran at half the reference speed
    clock.add(3.0)  # mean of the loops around it: 0.03 s
    assert clock.raw_s == 5.0
    assert abs(clock.calibrated_s - (1.0 + 2.0)) < 1e-12


def test_perturbed_row_is_a_failed_unit():
    work = units.Workload("gap", 0, dict(units.SIZES["gap"]))
    work.groups = [
        units.Group("gap_group", {}, (f"{kernel}/{scheme}",))
        for kernel in units.KERNELS
        for scheme in units.SCHEMES
    ]
    rows = {unit: {"unit": unit, "cycles": 1000 + i, "accesses": 10} for i, unit in enumerate(work.units)}
    good = units.RunResult(1.0, 1.0, rows, units.fold_cell(work, list(rows.values())), {}, [])
    expected = units.digests_of(work, good)
    assert units.failed_units(work, good, expected) == []

    perturbed = dict(rows)
    perturbed["bfs/hpmp"] = dict(rows["bfs/hpmp"], cycles=rows["bfs/hpmp"]["cycles"] + 1)
    bad = units.RunResult(1.0, 1.0, perturbed, units.fold_cell(work, list(perturbed.values())), {}, [])
    assert units.failed_units(work, bad, expected) == ["bfs/hpmp"]

    missing = {unit: row for unit, row in rows.items() if unit != "tc/pmp"}
    raised = units.RunResult(1.0, 1.0, missing, None, {}, ["Traceback ..."])
    assert units.failed_units(work, raised, expected) == ["tc/pmp"]


def test_names_follow_the_contract():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        bench = json.load(handle)
    workloads = [w["name"] for w in bench["workloads"]]
    assert workloads == list(units.WORKLOADS)
    end_to_end = [(m["name"], m["unit"]) for m in bench["end_to_end"]]
    per_layer = [(m["name"], m["unit"]) for m in bench["per_layer"]]
    names = workloads + [name for name, _unit in end_to_end + per_layer]
    for name in names:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    assert len(set(names)) == len(names)
    assert end_to_end == list(run.END_TO_END)
    assert per_layer == list(run.PER_LAYER)


def test_reference_covers_every_recorded_seed():
    reference = units.load_reference()
    assert reference["sizes"] == units.SIZES
    for name in units.WORKLOADS:
        seeds = reference["digests"][name]
        assert sorted(int(s) for s in seeds) == list(range(units.RECORDED_SEEDS))
        work = units.make_workload(name, 0)
        assert sorted(seeds["0"]["units"]) == sorted(work.units)


def test_churn_group_row_matches_the_campaign_slice():
    from repro.cloud import poisson_trace, slice_trace
    from repro.experiments.cloud_node import run_cloud_slice

    size = {k: units.SIZES["churn"][k] for k in ("scheme", "machine", "mem_mib", "frag_every")}
    trace = poisson_trace(16, 7)
    for index in range(2):
        (row,) = units.churn_group(slice_trace(trace, 2, index), index, seed=7, **size)
        (want,) = run_cloud_slice(profile="poisson", tenants=16, slices=2, slice_index=index, seed=7, **size)
        assert row.pop("unit") == f"slice{index}"
        assert row == want


def test_campaign_sizes_come_from_the_campaign_matrix():
    assert units.campaign_size("gap") == {"machine": "rocket", "scale": 12}
    assert units.campaign_size("redis") == {"machine": "rocket", "requests": 50, "warmup": 15, "num_keys": 32768}
    assert units.campaign_size("churn")["tenants"] == 1024
