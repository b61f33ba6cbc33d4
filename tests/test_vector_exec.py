"""Differential proof that vector execution is byte-identical to block/scalar.

Every test here runs the same work three ways — through the numpy
span-program evaluator (``repro.engine.vector``), through the fused block
paths, and pinned to the scalar per-reference pipeline — and asserts the
observable universe matches: cycle totals, machine/TLB/hierarchy stat
snapshots, raw cache residency (the per-set line lists), fault identity,
and workload-level results.  This is the equivalence argument the vector
layer rests on, and it exercises the ``--no-vector`` escape hatch end to
end plus the snapshot-invalidation (generation counter) machinery.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import AccessFault, PageFault
from repro.common.types import PAGE_SIZE, AccessType, Permission, PrivilegeMode
from repro.engine import (
    AccessBlock,
    EngineHook,
    HAVE_NUMPY,
    SpanProgram,
    block_mode_enabled,
    set_block_mode,
    set_vector_mode,
    vector_mode_enabled,
)
from repro.engine import vector as vec
from repro.soc.machine import Hart
from repro.soc.system import System

VA = 0x40_0000_0000
U = PrivilegeMode.USER
READ, WRITE, FETCH = AccessType.READ, AccessType.WRITE, AccessType.FETCH

#: The three execution modes under test.  Without numpy "vector" silently
#: equals "block" (the documented fallback), so the assertions still hold.
MODES = ("vector", "block", "scalar")


@pytest.fixture(autouse=True)
def _restore_modes():
    prev_block, prev_vector = block_mode_enabled(), vector_mode_enabled()
    yield
    set_block_mode(prev_block)
    set_vector_mode(prev_vector)


def set_modes(mode):
    set_block_mode(mode != "scalar")
    set_vector_mode(mode == "vector")


def build_system(mode, kind="hpmp", machine="rocket", **kw):
    """A fresh System whose Machine latched *mode* at construction.

    Vector machines get ``vector_min_refs`` forced to 1 so even the small
    programs these tests build go through the evaluator instead of the
    block fallback the size threshold would pick.
    """
    set_modes(mode)
    system = System(machine=machine, checker_kind=kind, mem_mib=kw.pop("mem_mib", 128), **kw)
    if mode == "vector":
        for hart in getattr(system.machine, "harts", [system.machine]):
            hart.vector_min_refs = 1
    return system


def state(system):
    """Everything observable about a system's timed state."""
    m = system.machine
    h = m.hierarchy
    return {
        "machine": m.stats.snapshot(),
        "tlb": m.tlb.stats.snapshot(),
        "hier": h.stats.snapshot(),
        "caches": [
            ([list(s) for s in c._sets], c.stats.snapshot())
            for c in (h.l1d, h.l1i, h.l2, h.llc)
        ],
    }


def scalar_loop(machine, pt, va, stride, count, access=READ, asid=0):
    cycles = hits = pt_refs = ck = 0
    for i in range(count):
        res = machine.access(pt, va + i * stride, access, U, asid)
        cycles += res.cycles
        pt_refs += res.pt_refs
        ck += res.checker_refs
        if res.tlb_hit:
            hits += 1
    return cycles, hits, pt_refs, ck


def run_spans(system, space, spans, mode):
    """Charge *spans* through the mode's entry point; returns the 4-tuple."""
    pt, asid = space.page_table, space.asid
    machine = system.machine
    if mode == "scalar":
        total = [0, 0, 0, 0]
        for va, stride, count, access in spans:
            part = scalar_loop(machine, pt, va, stride, count, access, asid)
            total = [a + b for a, b in zip(total, part)]
        return tuple(total)
    program = SpanProgram() if mode == "vector" else AccessBlock()
    for va, stride, count, access in spans:
        program.run(va, stride, count, access)
    return machine.access_program(pt, program, U, asid)


MIXED_SPANS = [
    (VA, 8, 300, READ),
    (VA + 2 * PAGE_SIZE, 0, 40, WRITE),
    (VA + 128, 0, 1, READ),
    (VA + 4 * PAGE_SIZE, 4096, 10, READ),
    (VA + 8 * PAGE_SIZE, 12288, 4, WRITE),
    (VA + 64, 64, 120, READ),
]


class TestSpanProgramContainer:
    def test_container_semantics(self):
        prog = SpanProgram()
        prog.run(VA, 8, 0, READ)  # dropped: empty
        prog.run(VA, 8, -3, READ)  # dropped: negative count
        assert len(prog) == 0 and not prog.runs
        prog.run(VA, 8, 5, READ).run(VA, 0, 1, WRITE)  # chains
        assert len(prog) == 6 and prog.count == 6
        assert prog.runs == [(VA, 8, 5, READ), (VA, 0, 1, WRITE)]
        prog.clear()
        assert len(prog) == 0 and not prog.runs


class TestProgramParity:
    @pytest.mark.parametrize("stride", [0, 8, -8, 256, 4096, 12288])
    def test_stride_parity_cold_and_warm(self, stride):
        base = VA + 16 * PAGE_SIZE if stride < 0 else VA
        spans = [(base, stride, 40, READ)]
        results = {}
        for mode in MODES:
            system = build_system(mode)
            space = system.new_address_space()
            space.map(VA, 128 * PAGE_SIZE, Permission.rw())  # 12288*39 spans 118 pages
            cold = run_spans(system, space, spans, mode)
            warm = run_spans(system, space, spans, mode)
            results[mode] = (cold, warm, state(system))
        assert results["vector"] == results["block"] == results["scalar"]

    def test_mixed_program_parity(self):
        results = {}
        for mode in MODES:
            system = build_system(mode)
            space = system.new_address_space()
            space.map(VA, 64 * PAGE_SIZE, Permission.rw())
            cold = run_spans(system, space, MIXED_SPANS, mode)
            warm = run_spans(system, space, MIXED_SPANS, mode)
            results[mode] = (cold, warm, state(system))
        assert results["vector"] == results["block"] == results["scalar"]

    def test_page_boundary_chunking(self):
        """Unaligned strides crossing several pages split on page edges."""
        spans = [(VA + 1000, 24, 600, READ), (VA + 3 * PAGE_SIZE - 8, 8, 4, WRITE)]
        results = {}
        for mode in MODES:
            system = build_system(mode)
            space = system.new_address_space()
            space.map(VA, 8 * PAGE_SIZE, Permission.rw())
            got = run_spans(system, space, spans, mode)
            results[mode] = (got, state(system))
        assert results["vector"] == results["block"] == results["scalar"]

    def test_fetch_side_parity(self):
        spans = [(VA, 64, 200, FETCH), (VA + PAGE_SIZE, 2048, 6, FETCH)]
        results = {}
        for mode in MODES:
            system = build_system(mode)
            space = system.new_address_space()
            space.map(VA, 8 * PAGE_SIZE, Permission(r=True, x=True))
            cold = run_spans(system, space, spans, mode)
            warm = run_spans(system, space, spans, mode)
            results[mode] = (cold, warm, state(system))
        assert results["vector"] == results["block"] == results["scalar"]

    def test_pmpt_checker_parity(self):
        results = {}
        for mode in MODES:
            system = build_system(mode, kind="pmpt")
            space = system.new_address_space()
            space.map(VA, 64 * PAGE_SIZE, Permission.rw())
            got = run_spans(system, space, MIXED_SPANS, mode)
            results[mode] = (got, state(system))
        assert results["vector"] == results["block"] == results["scalar"]

    def test_fault_mid_program_leaves_identical_state(self):
        """A span walking off the mapping faults identically; later spans
        never run in any mode."""
        count = PAGE_SIZE // 8 + 5
        spans = [(VA, 0, 8, READ), (VA, 8, count, READ), (VA, 0, 99, WRITE)]
        results = {}
        for mode in MODES:
            system = build_system(mode)
            space = system.new_address_space()
            space.map(VA, PAGE_SIZE, Permission.rw())
            with pytest.raises(PageFault):
                run_spans(system, space, spans, mode)
            results[mode] = state(system)
        assert results["vector"] == results["block"] == results["scalar"]

    def test_inlined_checker_denial_parity(self):
        """hpmp page perm denies writes: the evaluator must fault like scalar."""
        results = {}
        for mode in MODES:
            system = build_system(mode, kind="hpmp")
            space = system.new_address_space()
            space.map(VA, PAGE_SIZE, Permission.rw())
            system.setup.table.set_page_perm(space.pa_of(VA), Permission(r=True))
            run_spans(system, space, [(VA, 0, 3, READ)], mode)
            with pytest.raises(AccessFault):
                run_spans(system, space, [(VA, 0, 3, WRITE)], mode)
            results[mode] = state(system)
        assert results["vector"] == results["block"] == results["scalar"]


class _BlockSpy(EngineHook):
    """Overrides only on_block, so the fused/vector paths stay eligible."""

    def __init__(self):
        self.spans = []

    def on_block(self, va, stride, count, access, cycles):
        self.spans.append((va, stride, count, access, cycles))


class _RefSpy(EngineHook):
    """Overrides on_reference: installing it must force the scalar path."""

    def __init__(self):
        self.refs = 0

    def on_reference(self, kind, paddr, cycles):
        self.refs += 1


class _FlushOnBlock(EngineHook):
    """Flushes the TLB mid-program: the stale-snapshot regression trigger."""

    def __init__(self, machine, after=2):
        self.machine = machine
        self.seen = 0
        self.after = after

    def on_block(self, va, stride, count, access, cycles):
        self.seen += 1
        if self.seen == self.after:
            self.machine.tlb.flush()


class TestHookDiscipline:
    def test_block_hook_sees_identical_spans(self):
        """The vector path replicates block mode's block_done stream."""
        spans_by_mode = {}
        for mode in ("vector", "block"):
            system = build_system(mode)
            space = system.new_address_space()
            space.map(VA, 32 * PAGE_SIZE, Permission.rw())  # MIXED_SPANS reaches page 17
            spy = _BlockSpy()
            system.machine.engine.install_hook(spy)
            run_spans(system, space, MIXED_SPANS, mode)
            run_spans(system, space, MIXED_SPANS, mode)
            system.machine.engine.remove_hook(spy)
            spans_by_mode[mode] = spy.spans
        assert spans_by_mode["vector"] == spans_by_mode["block"]

    def test_reference_hook_forces_scalar(self):
        system = build_system("vector")
        space = system.new_address_space()
        space.map(VA, 4 * PAGE_SIZE, Permission.rw())
        ref_spy = _RefSpy()
        block_spy = _BlockSpy()
        system.machine.engine.install_hook(ref_spy)
        system.machine.engine.install_hook(block_spy)
        prog = SpanProgram().run(VA, 8, 2000, READ)
        system.machine.access_program(space.page_table, prog, U, space.asid)
        system.machine.engine.remove_hook(ref_spy)
        system.machine.engine.remove_hook(block_spy)
        assert ref_spy.refs >= 2000  # every reference observed individually
        assert block_spy.spans == []  # no fused spans under a ref hook


#: Random span programs over a 96-page mapping: page-crossing, page-sized
#: and zero strides, singletons, reads and writes.  The largest span ends
#: below VA + 8 pages + 31 * 8200 bytes, inside the mapping.
_span = st.tuples(
    st.integers(0, 8 * PAGE_SIZE // 8 - 1).map(lambda word: VA + 8 * word),
    st.sampled_from([0, 8, 24, 64, 72, 1000, 4096, 4104, 8200]),
    st.integers(1, 32),
    st.sampled_from([READ, WRITE]),
)
_programs = st.lists(st.lists(_span, min_size=1, max_size=24), min_size=1, max_size=3)


class TestRandomProgramDifferential:
    @settings(max_examples=80, deadline=None)
    @given(programs=_programs)
    def test_vector_matches_block(self, programs):
        """Vector and block mode return the same tuples, leave the same
        state and emit the same block_done stream, program after program.

        Each program runs twice so the second pass meets warm TLB entries
        and stale MRU lines: a multi-reference span whose last chunk is a
        lone resident reference off the MRU line is priced by block mode's
        fused loop (block_done with n=1), and the replay must do the same.
        """
        results = {}
        for mode in ("vector", "block"):
            system = build_system(mode)
            space = system.new_address_space()
            space.map(VA, 96 * PAGE_SIZE, Permission.rw())
            spy = _BlockSpy()
            system.machine.engine.install_hook(spy)
            got = [run_spans(system, space, spans, mode) for spans in programs + programs]
            system.machine.engine.remove_hook(spy)
            results[mode] = (got, spy.spans, state(system))
        assert results["vector"] == results["block"]


class TestReplayCost:
    """The replay makes no more machine calls than block mode.

    Counted with wrappers, not timed: on a program that is all regime
    edges the evaluator bulk-charges nothing, and every span must reach
    the machine exactly as block mode sends it.
    """

    #: Cold TLB, every reference on a fresh page: no chunk is invariant.
    EDGE_SPANS = (
        [(VA + i * PAGE_SIZE + 64, 0, 1, READ) for i in range(12)]
        + [(VA + 16 * PAGE_SIZE, PAGE_SIZE, 6, WRITE), (VA + 24 * PAGE_SIZE + 8, 0, 5, READ)]
        + [(VA + (32 + i) * PAGE_SIZE, 0, 1, WRITE) for i in range(8)]
    )

    def _count_calls(self, monkeypatch, mode, spans):
        if not HAVE_NUMPY:
            pytest.skip("needs numpy to observe the evaluator")
        calls = {"access_run": 0, "core": 0, "core_in_run": 0, "evaluate": 0, "bulk": 0}
        depth = [0]
        real_run, real_core = Hart.access_run, Hart._access_core
        real_eval, real_charge = vec.evaluate_machine, vec._charge_machine

        def access_run(self, *args, **kwargs):
            calls["access_run"] += 1
            depth[0] += 1
            try:
                return real_run(self, *args, **kwargs)
            finally:
                depth[0] -= 1

        def access_core(self, *args, **kwargs):
            calls["core"] += 1
            calls["core_in_run"] += depth[0] > 0
            return real_core(self, *args, **kwargs)

        def evaluate(*args, **kwargs):
            calls["evaluate"] += 1
            return real_eval(*args, **kwargs)

        def charge(*args, **kwargs):
            calls["bulk"] += 1
            return real_charge(*args, **kwargs)

        monkeypatch.setattr(Hart, "access_run", access_run)
        monkeypatch.setattr(Hart, "_access_core", access_core)
        monkeypatch.setattr(vec, "evaluate_machine", evaluate)
        monkeypatch.setattr(vec, "_charge_machine", charge)
        system = build_system(mode)
        space = system.new_address_space()
        space.map(VA, 48 * PAGE_SIZE, Permission.rw())
        got = run_spans(system, space, spans, mode)
        monkeypatch.undo()  # the next mode wraps the real methods again
        return calls, got, state(system)

    def test_edge_only_program_no_more_access_runs(self, monkeypatch):
        vector, got_v, state_v = self._count_calls(monkeypatch, "vector", self.EDGE_SPANS)
        block, got_b, state_b = self._count_calls(monkeypatch, "block", self.EDGE_SPANS)
        assert vector["evaluate"] == 1 and vector["bulk"] == 0  # engaged, all edges
        assert block["evaluate"] == 0
        assert vector["access_run"] <= block["access_run"] == 2
        assert vector["core"] == block["core"]
        assert (got_v, state_v) == (got_b, state_b)

    def test_singleton_spans_skip_access_run(self, monkeypatch):
        singles = [span for span in self.EDGE_SPANS if span[2] == 1]
        vector, _, _ = self._count_calls(monkeypatch, "vector", singles)
        assert vector["evaluate"] == 1
        assert vector["access_run"] == 0
        assert vector["core"] == len(singles) and vector["core_in_run"] == 0


class TestSnapshotInvalidation:
    def test_generation_counters_bump(self):
        system = build_system("vector")
        space = system.new_address_space()
        space.map(VA, 2 * PAGE_SIZE, Permission.rw())
        machine = system.machine
        tlb, l1d = machine.tlb, machine.hierarchy.l1d
        g_tlb, g_l1d = tlb.generation, l1d.generation
        machine.access(space.page_table, VA, READ, U, space.asid)  # TLB+cache fill
        assert tlb.generation > g_tlb and l1d.generation > g_l1d
        g_tlb, g_l1d = tlb.generation, l1d.generation
        machine.access(space.page_table, VA, READ, U, space.asid)  # resident hit
        assert tlb.generation == g_tlb  # LRU-order moves don't invalidate
        assert l1d.generation == g_l1d  # MRU hits don't invalidate
        tlb.flush()
        assert tlb.generation > g_tlb
        l1d.flush()
        assert l1d.generation > g_l1d

    def test_mid_program_tlb_flush_not_stale(self):
        """A hook flushing the TLB mid-program invalidates the residency
        snapshot: the evaluator must re-split, not keep charging hits."""
        spans = [(VA + i * PAGE_SIZE, 8, 64, READ) for i in range(8)] * 3
        results = {}
        for mode in ("vector", "block"):
            system = build_system(mode)
            space = system.new_address_space()
            space.map(VA, 16 * PAGE_SIZE, Permission.rw())
            hook = _FlushOnBlock(system.machine, after=4)
            system.machine.engine.install_hook(hook)
            got = run_spans(system, space, spans, mode)
            system.machine.engine.remove_hook(hook)
            assert hook.seen >= 4  # the flush actually fired
            results[mode] = (got, state(system))
        assert results["vector"] == results["block"]

    def test_permission_mutation_between_programs(self):
        """Monitor-side permission drops invalidate cached vector snapshots."""
        results = {}
        for mode in ("vector", "block"):
            system = build_system(mode, kind="hpmp")
            space = system.new_address_space()
            space.map(VA, PAGE_SIZE, Permission.rw())
            write_prog = [(VA, 0, 8, WRITE)]
            first = run_spans(system, space, write_prog, mode)
            # Revoke write at the checker and drop the inlined copies (the
            # shootdown path); the next program must fault, not hit stale
            # vectorized permissions.
            system.setup.table.set_page_perm(space.pa_of(VA), Permission(r=True))
            system.machine.tlb.drop_inlined_permissions()
            with pytest.raises(AccessFault):
                run_spans(system, space, write_prog, mode)
            results[mode] = (first, state(system))
        assert results["vector"] == results["block"]


class TestModeLatches:
    def test_machine_kwarg_overrides_global(self):
        set_modes("vector")
        system = System(machine="rocket", checker_kind="pmp", mem_mib=128)
        assert system.machine.vector_mode == HAVE_NUMPY
        from repro.soc.machine import Machine

        pinned = Machine(system.machine.params, system.memory, system.machine.checker, vector_mode=False)
        assert not pinned.vector_mode

    def test_vector_requires_block_mode(self):
        """--no-block implies no vector dispatch (block latch gates it)."""
        set_block_mode(False)
        set_vector_mode(True)
        system = System(machine="rocket", checker_kind="pmp", mem_mib=128)
        space = system.new_address_space()
        space.map(VA, 4 * PAGE_SIZE, Permission.rw())
        system.machine.vector_min_refs = 1
        prog = SpanProgram().run(VA, 8, 64, READ)
        system.machine.access_program(space.page_table, prog, U, space.asid)
        assert not hasattr(system.machine.tlb, "_vector_snapshot")

    def test_threshold_gates_vector_dispatch(self):
        if not HAVE_NUMPY:
            pytest.skip("needs numpy to observe vector dispatch")
        set_modes("vector")
        system = System(machine="rocket", checker_kind="pmp", mem_mib=128)
        space = system.new_address_space()
        space.map(VA, 8 * PAGE_SIZE, Permission.rw())
        machine = system.machine
        small = SpanProgram().run(VA, 8, 64, READ)
        machine.access_program(space.page_table, small, U, space.asid)
        assert not hasattr(machine.tlb, "_vector_snapshot")  # block fallback
        big = SpanProgram().run(VA, 8, machine.vector_min_refs, READ)
        machine.access_program(space.page_table, big, U, space.asid)
        assert hasattr(machine.tlb, "_vector_snapshot")  # evaluator engaged

    def test_no_numpy_fallback(self, monkeypatch):
        from repro.engine import vector as vec

        monkeypatch.setattr(vec, "HAVE_NUMPY", False)
        set_modes("vector")
        system = System(machine="rocket", checker_kind="pmp", mem_mib=128)
        assert not system.machine.vector_mode  # latched off without numpy
        space = system.new_address_space()
        space.map(VA, 4 * PAGE_SIZE, Permission.rw())
        prog = SpanProgram().run(VA, 8, 2000, READ)
        cycles, hits, _, _ = system.machine.access_program(space.page_table, prog, U, space.asid)
        assert cycles > 0  # block path served the program


class TestMultiHartParity:
    def test_secondary_hart_program_parity(self):
        results = {}
        for mode in MODES:
            system = build_system(mode, harts=2)
            secondary = system.machine.harts[1]
            space = system.new_address_space()
            space.map(VA, 32 * PAGE_SIZE, Permission.rw())  # MIXED_SPANS reaches page 17
            pt, asid = space.page_table, space.asid
            if mode == "scalar":
                got = [0, 0, 0, 0]
                for va, stride, count, access in MIXED_SPANS:
                    part = scalar_loop(secondary, pt, va, stride, count, access, asid)
                    got = [a + b for a, b in zip(got, part)]
                got = tuple(got)
            else:
                prog = SpanProgram() if mode == "vector" else AccessBlock()
                for va, stride, count, access in MIXED_SPANS:
                    prog.run(va, stride, count, access)
                got = secondary.access_program(pt, prog, U, asid)
            results[mode] = (
                got,
                [
                    (h.stats.snapshot(), h.tlb.stats.snapshot(), h.hierarchy.stats.snapshot())
                    for h in system.machine.harts
                ],
            )
        assert results["vector"] == results["block"] == results["scalar"]


def _all_modes(fn):
    out = {}
    for mode in MODES:
        set_modes(mode)
        out[mode] = fn()
    return out


class TestWorkloadParity:
    """Converted workload generators, vector vs block vs scalar."""

    def test_gap_bfs(self):
        from repro.workloads.gap import run_kernel

        results = _all_modes(lambda: run_kernel("bfs", "hpmp", machine="rocket", scale=8))
        assert results["vector"] == results["block"] == results["scalar"]

    def test_redis_lrange(self):
        from repro.workloads.redis import run_command

        results = _all_modes(
            lambda: run_command("LRANGE_600", "hpmp", machine="rocket", requests=4, warmup=1, num_keys=512)
        )
        assert results["vector"] == results["block"] == results["scalar"]

    def test_functionbench_gzip(self):
        from repro.workloads.functionbench import run_function

        results = _all_modes(lambda: run_function("gzip", "pmpt", machine="rocket"))
        assert results["vector"] == results["block"] == results["scalar"]

    def test_harness_program_buffering(self):
        from repro.workloads.harness import ArrayMap

        def run():
            set_modes_value = None  # buffering is mode-transparent
            system = System(machine="rocket", checker_kind="hpmp", mem_mib=64)
            arrays = ArrayMap(system)
            arrays.add("data", 4096)
            arrays.begin_program(flush_refs=512)
            for i in range(300):
                arrays.read("data", (i * 7) % 4096)
            arrays.read_run("data", 0, 2048)
            arrays.write("data", 5)
            arrays.end_program()
            return arrays.cycles, arrays.accesses, state(system)

        results = _all_modes(run)
        assert results["vector"] == results["block"] == results["scalar"]


class TestRunnerIntegration:
    def test_execute_vector_flag_is_scoped_and_digest_stable(self):
        from repro.experiments.report import rows_digest
        from repro.runner.tasks import campaign_tasks, execute

        spec = min(campaign_tasks(["fig02"]), key=lambda s: s.task_id)
        set_modes("vector")
        rows_vec, stats_vec = execute(spec, telemetry="light", vector=True)
        assert vector_mode_enabled()  # restored
        rows_novec, stats_novec = execute(spec, telemetry="light", vector=False)
        assert vector_mode_enabled()  # restored even after a no-vector cell
        assert rows_digest(rows_vec) == rows_digest(rows_novec)
        assert stats_vec.snapshot() == stats_novec.snapshot()
