"""Host-time spans around calls into the simulator's layers.

The traced run wraps public functions of each layer (``repro.workloads``,
``engine``, ``soc``, ``paging``, ``mem``, ``isolation``, ``tee``, ``cloud``)
from the benchmark's own process; the simulator's source is not edited.
Wrappers go onto class and module attributes *before* the run builds its
first ``System``, because ``MemoryHierarchy``, ``Hart`` and the reference
engine bind methods such as ``Cache.lookup_fill`` at construction.

Two kinds of span:

* *fine* -- per-reference boundaries (cache, hierarchy, TLB, check,
  ``access_run``).  They are aggregated in memory by ``(name, parent
  name)`` into call count, total time and time covered by child spans.
* *coarse* -- workload units, ``evaluate_machine``, ``set_range``, monitor
  operations, ``run_trace``.  Each is kept with its start, end, parent and
  (when the call returns an int) its result.

A span's self time is its duration minus the time its child spans cover;
time in unwrapped code counts toward the nearest enclosing wrapped span.
"""

from __future__ import annotations

import functools
import time
from typing import Callable, Dict, List, Sequence, Tuple

from repro.cloud import node as cloud_node
from repro.engine import core as engine_core
from repro.engine import vector as engine_vector
from repro.isolation import hpmp, pmp, pmptable
from repro.mem import allocator, cache, hierarchy, physical
from repro.paging import pagetable, tlb
from repro.soc import machine
from repro.tee import enclave, monitor
from repro.workloads import gap as gap_workload
from repro.workloads import redis as redis_workload

#: The layers, in the order reports list them.  ``bench`` is the
#: benchmark's own code around the units (row folding, task dispatch).
LAYERS = ("workloads", "engine", "soc", "paging", "mem", "isolation", "tee", "cloud", "bench")

ROOT = "bench.run"

#: (owner, attribute, span name, coarse?) for every wrapped function.
TARGETS: Tuple[Tuple[object, str, str, bool], ...] = (
    (gap_workload, "run_kernel", "workloads.run_kernel", True),
    (gap_workload, "rmat_edges", "workloads.rmat_edges", True),
    (redis_workload, "build_server", "workloads.build_server", True),
    (redis_workload, "run_command", "workloads.run_command", True),
    (redis_workload.MiniRedis, "execute", "workloads.redis_execute", False),
    (engine_vector, "evaluate_machine", "engine.evaluate_machine", True),
    (engine_core.ReferenceEngine, "step_ref", "engine.step_ref", False),
    (engine_core.ReferenceEngine, "leaf_check", "engine.leaf_check", False),
    (engine_core.ReferenceEngine, "data_ref", "engine.data_ref", False),
    (machine.Hart, "_access_core", "soc.access", False),
    (machine.Hart, "access_run", "soc.access_run", False),
    (machine.Hart, "access_program", "soc.access_program", False),
    (machine.Hart, "access_block", "soc.access_block", False),
    (tlb.TLB, "lookup", "paging.tlb_lookup", False),
    (pagetable.PageTable, "walk", "paging.walk", False),
    (pagetable.PageTable, "map_page", "paging.map_page", False),
    (pagetable.PageTable, "unmap_page", "paging.unmap_page", False),
    (cache.Cache, "lookup_fill", "mem.lookup_fill", False),
    (hierarchy.MemoryHierarchy, "access", "mem.hierarchy_access", False),
    (hierarchy.MemoryHierarchy, "access_run", "mem.hierarchy_access_run", False),
    (physical.PhysicalMemory, "write64", "mem.physical_write", False),
    (physical.PhysicalMemory, "fill", "mem.physical_fill", False),
    (allocator.FrameAllocator, "alloc", "mem.alloc", False),
    (allocator.FrameAllocator, "alloc_scattered", "mem.alloc", False),
    (allocator.FrameAllocator, "alloc_contiguous", "mem.alloc", False),
    (allocator.FrameAllocator, "free", "mem.free", False),
    (pmp.PMPChecker, "check", "isolation.check", False),
    (hpmp.HPMPChecker, "check", "isolation.check", False),
    (hpmp.HPMPChecker, "resolve", "isolation.resolve", False),
    (pmptable.PMPTable, "lookup", "isolation.pmpt_lookup", False),
    (pmptable.PMPTable, "set_range", "isolation.set_range", True),
    (monitor.SecureMonitor, "create_domain", "tee.monitor_ops", True),
    (monitor.SecureMonitor, "destroy_domain", "tee.monitor_ops", True),
    (monitor.SecureMonitor, "grant_region", "tee.monitor_ops", True),
    (monitor.SecureMonitor, "grant_shared_region", "tee.monitor_ops", True),
    (monitor.SecureMonitor, "revoke_region", "tee.monitor_ops", True),
    (monitor.SecureMonitor, "hint_fast_region", "tee.monitor_ops", True),
    (monitor.SecureMonitor, "relabel", "tee.monitor_ops", True),
    (monitor.SecureMonitor, "switch_to", "tee.monitor_ops", True),
    (enclave.EnclaveRuntime, "launch", "tee.enclave_launch", True),
    (enclave.EnclaveRuntime, "destroy", "tee.enclave_destroy", True),
    (cloud_node.CloudNode, "__init__", "cloud.node_init", True),
    (cloud_node.CloudNode, "run_trace", "cloud.run_trace", True),
)


class Tracer:
    """Span recorder: a stack of open spans, fine aggregates, coarse records.

    ``stack`` frames are ``[name, child_s, span_id]``; the bottom frame is
    the implicit root, which the caller opens with :meth:`root`.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.stack: List[list] = [["", 0.0, -1]]
        #: (name, parent name) -> [calls, total_s, child_s]
        self.fine: Dict[Tuple[str, str], List[float]] = {}
        #: (id, name, parent id, parent name, start, end, child_s, op, result)
        self.coarse: List[tuple] = []

    def fine_wrapper(self, name: str, fn: Callable) -> Callable:
        stack = self.stack
        fine = self.fine
        clock = self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [name, 0.0, parent[2]]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                parent[1] += duration
                key = (name, parent[0])
                record = fine.get(key)
                if record is None:
                    fine[key] = [1, duration, frame[1]]
                else:
                    record[0] += 1
                    record[1] += duration
                    record[2] += frame[1]

        return wrapper

    def coarse_wrapper(self, name: str, fn: Callable, op: str = "") -> Callable:
        stack = self.stack
        coarse = self.coarse
        clock = self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            span_id = len(coarse)
            coarse.append(None)  # reserve the id; filled in on return
            frame = [name, 0.0, span_id]
            stack.append(frame)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                parent[1] += end - start
                value = result if isinstance(result, int) and not isinstance(result, bool) else None
                coarse[span_id] = (span_id, name, parent[2], parent[0], start, end, frame[1], op, value)

        return wrapper

    def root(self, fn: Callable, *args, **kwargs):
        """Run *fn* inside the root span."""
        return self.coarse_wrapper(ROOT, fn)(*args, **kwargs)

    # -- reduction ---------------------------------------------------------

    def functions(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, total_s and self_s, over every parent."""
        out: Dict[str, Dict[str, float]] = {}
        rows = [(name, rec[0], rec[1], rec[2]) for (name, _parent), rec in self.fine.items()]
        rows += [(span[1], 1, span[5] - span[4], span[6]) for span in self.coarse]
        for name, calls, total, child in rows:
            entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += calls
            entry["total_s"] += total
            entry["self_s"] += total - child
        return out

    def layer_self(self) -> Dict[str, float]:
        totals = {layer: 0.0 for layer in LAYERS}
        for name, entry in self.functions().items():
            totals[name.split(".", 1)[0]] += entry["self_s"]
        return totals

    def calls_under(self, name: str, parent: str) -> int:
        record = self.fine.get((name, parent))
        return int(record[0]) if record else 0

    def call_counts(self) -> Dict[str, int]:
        """Calls per ``name<parent`` pair (fine) and per name (coarse)."""
        counts = {f"{name}<{parent}": int(rec[0]) for (name, parent), rec in self.fine.items()}
        for span in self.coarse:
            key = f"{span[1]}<{span[3]}"
            counts[key] = counts.get(key, 0) + 1
        return counts

    def to_json(self) -> Dict[str, object]:
        return {
            "fine": [
                {"name": name, "parent": parent, "calls": int(rec[0]), "total_s": rec[1], "child_s": rec[2]}
                for (name, parent), rec in sorted(self.fine.items())
            ],
            "coarse": [
                {"id": s[0], "name": s[1], "parent": s[2], "start": s[4], "end": s[5], "child_s": s[6],
                 "op": s[7], "result": s[8]}
                for s in self.coarse
            ],
        }


class Patched:
    """Context manager: install the tracer's wrappers, restore on exit."""

    def __init__(self, tracer: Tracer, targets: Sequence[Tuple[object, str, str, bool]] = TARGETS):
        self.tracer = tracer
        self.targets = targets
        self.saved: List[Tuple[object, str, object]] = []

    def __enter__(self) -> Tracer:
        for owner, attr, name, is_coarse in self.targets:
            original = vars(owner)[attr]  # only attributes the owner defines
            if is_coarse:
                op = attr if name == "tee.monitor_ops" else ""
                wrapped = self.tracer.coarse_wrapper(name, original, op)
            else:
                wrapped = self.tracer.fine_wrapper(name, original)
            self.saved.append((owner, attr, original))
            setattr(owner, attr, wrapped)
        return self.tracer

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self.saved):
            setattr(owner, attr, original)
        self.saved.clear()


class TableCensus:
    """Sums ``entry_writes`` over every ``PMPTable`` built while active.

    ``entry_writes`` is the modelled pmpte-write count the monitor charges;
    it lives on each table, not in a stat group, so the census collects
    the tables as they are constructed.  :meth:`fold` adds up the tables
    collected so far and lets them go; call it when a group's systems are
    dead, so that no table keeps its system alive into the next group.
    """

    def __init__(self) -> None:
        self.tables: List[pmptable.PMPTable] = []
        self.entry_writes = 0
        self._original = None

    def __enter__(self) -> "TableCensus":
        original = vars(pmptable.PMPTable)["__init__"]
        tables = self.tables

        @functools.wraps(original)
        def init(table, *args, **kwargs):
            original(table, *args, **kwargs)
            tables.append(table)

        self._original = original
        pmptable.PMPTable.__init__ = init
        return self

    def __exit__(self, *exc) -> None:
        pmptable.PMPTable.__init__ = self._original
        self.fold()

    def fold(self) -> None:
        self.entry_writes += sum(table.entry_writes for table in self.tables)
        self.tables.clear()
