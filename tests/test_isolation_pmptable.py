"""Unit tests for the PMP Table structure (paper Figure 6)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ConfigurationError
from repro.common.types import GIB, KIB, MIB, PAGE_SIZE, MemRegion, Permission
from repro.isolation.pmptable import (
    ENTRIES_PER_TABLE,
    LEAF_PTE_SPAN,
    LEAF_TABLE_SPAN,
    MODE_2LEVEL,
    MODE_3LEVEL,
    MODE_FLAT,
    PAGES_PER_LEAF_PTE,
    ROOT_TABLE_SPAN,
    PMPTable,
    leaf_pmpte_get,
    leaf_pmpte_set,
    leaf_pmpte_uniform,
    root_pmpte_huge,
    root_pmpte_is_huge,
    root_pmpte_is_valid,
    root_pmpte_leaf_pa,
    root_pmpte_perm,
    root_pmpte_pointer,
    split_offset,
    tables_needed,
)
from repro.mem.allocator import FrameAllocator
from repro.mem.physical import PhysicalMemory

BASE = 0x8000_0000


@pytest.fixture
def env():
    mem = PhysicalMemory(128 * MIB, base=BASE)
    alloc = FrameAllocator(MemRegion(BASE, 32 * MIB))
    region = MemRegion(BASE + 32 * MIB, 96 * MIB)
    return mem, alloc, region


def make_table(env, mode=MODE_2LEVEL):
    mem, alloc, region = env
    return PMPTable(mem, alloc, region, mode=mode)


class TestEncodings:
    def test_geometry_constants_match_paper(self):
        # One leaf pmpte: 16 x 4 KiB pages = 64 KiB; one leaf table: 32 MiB;
        # a 2-level table: 16 GiB (paper section 4.3).
        assert PAGES_PER_LEAF_PTE == 16
        assert LEAF_PTE_SPAN == 64 * KIB
        assert LEAF_TABLE_SPAN == 32 * MIB
        assert ROOT_TABLE_SPAN == 16 * GIB

    def test_root_pointer_roundtrip(self):
        pmpte = root_pmpte_pointer(BASE + 4 * PAGE_SIZE)
        assert root_pmpte_is_valid(pmpte)
        assert not root_pmpte_is_huge(pmpte)
        assert root_pmpte_leaf_pa(pmpte) == BASE + 4 * PAGE_SIZE

    def test_root_huge_roundtrip(self):
        pmpte = root_pmpte_huge(Permission.rx())
        assert root_pmpte_is_valid(pmpte)
        assert root_pmpte_is_huge(pmpte)
        assert root_pmpte_perm(pmpte) == Permission.rx()

    def test_invalid_root(self):
        assert not root_pmpte_is_valid(0)

    @given(st.integers(0, 15), st.integers(0, 7))
    def test_leaf_set_get_property(self, index, bits):
        perm = Permission.from_bits(bits)
        pmpte = leaf_pmpte_set(0, index, perm)
        assert leaf_pmpte_get(pmpte, index) == perm
        # Other slots untouched.
        for other in range(16):
            if other != index:
                assert leaf_pmpte_get(pmpte, other) == Permission.none()

    def test_leaf_uniform(self):
        pmpte = leaf_pmpte_uniform(Permission.rw())
        assert all(leaf_pmpte_get(pmpte, i) == Permission.rw() for i in range(16))

    def test_leaf_index_bounds(self):
        with pytest.raises(ConfigurationError):
            leaf_pmpte_get(0, 16)
        with pytest.raises(ConfigurationError):
            leaf_pmpte_set(0, -1, Permission.rw())

    def test_split_offset_fields(self):
        offset = (3 << 25) | (7 << 16) | (5 << 12) | 0xABC
        off1, off0, page_index = split_offset(offset)
        assert (off1, off0, page_index) == (3, 7, 5)

    def test_tables_needed(self):
        assert tables_needed(16 * GIB) == 1
        assert tables_needed(16 * GIB + 1) == 2
        assert tables_needed(128 * GIB) == 8  # paper: 16 entries -> 8 tables -> 128 GiB


class TestPMPTable:
    def test_lookup_unset_page_faults(self, env):
        table = make_table(env)
        lookup = table.lookup(table.region.base)
        assert lookup.perm is None
        assert len(lookup.pmpte_addrs) == 1  # root read is enough to fault

    def test_set_then_lookup(self, env):
        table = make_table(env)
        pa = table.region.base + 4 * PAGE_SIZE
        table.set_page_perm(pa, Permission.rw())
        lookup = table.lookup(pa)
        assert lookup.perm == Permission.rw()
        assert len(lookup.pmpte_addrs) == 2  # root + leaf: the paper's 2 refs

    def test_neighbor_page_has_no_perm(self, env):
        table = make_table(env)
        pa = table.region.base
        table.set_page_perm(pa, Permission.rw())
        assert table.lookup(pa + PAGE_SIZE).perm == Permission.none()

    def test_set_range_page_granular(self, env):
        table = make_table(env)
        base = table.region.base
        table.set_range(base, 8 * PAGE_SIZE, Permission.rwx())
        for i in range(8):
            assert table.lookup(base + i * PAGE_SIZE).perm == Permission.rwx()
        assert table.lookup(base + 8 * PAGE_SIZE).perm == Permission.none()

    def test_huge_root_entry_single_ref(self, env):
        mem, alloc, _ = env
        region = MemRegion(BASE + 32 * MIB, 64 * MIB)
        table = PMPTable(mem, alloc, region)
        table.set_range(region.base, LEAF_TABLE_SPAN, Permission.rw())  # one 32 MiB chunk
        lookup = table.lookup(region.base + 5 * PAGE_SIZE)
        assert lookup.perm == Permission.rw()
        assert len(lookup.pmpte_addrs) == 1  # huge pmpte: root only

    def test_huge_disabled_forces_leaf_walk(self, env):
        mem, alloc, _ = env
        region = MemRegion(BASE + 32 * MIB, 64 * MIB)
        table = PMPTable(mem, alloc, region)
        table.set_range(region.base, LEAF_TABLE_SPAN, Permission.rw(), huge_ok=False)
        assert len(table.lookup(region.base).pmpte_addrs) == 2

    def test_huge_shatters_on_finer_write(self, env):
        mem, alloc, _ = env
        region = MemRegion(BASE + 32 * MIB, 64 * MIB)
        table = PMPTable(mem, alloc, region)
        table.set_range(region.base, LEAF_TABLE_SPAN, Permission.rw())
        table.set_page_perm(region.base + PAGE_SIZE, Permission.none())
        assert table.lookup(region.base).perm == Permission.rw()
        assert table.lookup(region.base + PAGE_SIZE).perm == Permission.none()
        assert len(table.lookup(region.base).pmpte_addrs) == 2  # now a leaf walk

    def test_write_counts_for_64k_region(self, env):
        table = make_table(env)
        writes = table.set_range(table.region.base, 64 * KIB, Permission.rw())
        # One uniform leaf pmpte + the root pointer created on demand.
        assert writes == 2
        writes = table.set_range(table.region.base, 64 * KIB, Permission.none())
        assert writes == 1  # leaf table already exists

    def test_clear_range(self, env):
        table = make_table(env)
        base = table.region.base
        table.set_range(base, 4 * PAGE_SIZE, Permission.rwx())
        table.clear_range(base, 4 * PAGE_SIZE)
        assert table.lookup(base).perm == Permission.none()

    def test_outside_region_rejected(self, env):
        table = make_table(env)
        with pytest.raises(ConfigurationError):
            table.lookup(BASE)  # allocator region, not table region
        with pytest.raises(ConfigurationError):
            table.set_page_perm(BASE, Permission.rw())

    def test_unaligned_rejected(self, env):
        table = make_table(env)
        with pytest.raises(ConfigurationError):
            table.set_page_perm(table.region.base + 1, Permission.rw())
        with pytest.raises(ConfigurationError):
            table.set_range(table.region.base, 100, Permission.rw())

    def test_region_too_large_rejected(self, env):
        mem, alloc, _ = env
        with pytest.raises(ConfigurationError):
            PMPTable(mem, alloc, MemRegion(0, 17 * GIB))

    def test_footprint_grows_with_leaf_tables(self, env):
        table = make_table(env)
        before = table.footprint_bytes()
        table.set_page_perm(table.region.base, Permission.rw())
        table.set_page_perm(table.region.base + LEAF_TABLE_SPAN, Permission.rw())
        assert table.footprint_bytes() == before + 2 * PAGE_SIZE

    def test_flat_mode_single_ref(self, env):
        table = make_table(env, mode=MODE_FLAT)
        pa = table.region.base + 3 * PAGE_SIZE
        table.set_page_perm(pa, Permission.rw())
        lookup = table.lookup(pa)
        assert lookup.perm == Permission.rw()
        assert len(lookup.pmpte_addrs) == 1

    def test_3level_mode_three_refs(self, env):
        table = make_table(env, mode=MODE_3LEVEL)
        pa = table.region.base
        table.set_page_perm(pa, Permission.rw())
        lookup = table.lookup(pa)
        assert lookup.perm == Permission.rw()
        assert len(lookup.pmpte_addrs) == 3

    @settings(max_examples=20)
    @given(st.integers(0, 96 * MIB // PAGE_SIZE - 1), st.integers(0, 7))
    def test_set_lookup_property(self, page_index, bits):
        mem = PhysicalMemory(128 * MIB, base=BASE)
        alloc = FrameAllocator(MemRegion(BASE, 32 * MIB))
        region = MemRegion(BASE + 32 * MIB, 96 * MIB)
        table = PMPTable(mem, alloc, region)
        perm = Permission.from_bits(bits)
        pa = region.base + page_index * PAGE_SIZE
        table.set_page_perm(pa, perm)
        assert table.lookup(pa).perm == perm


def _uniform_by_nibbles(perm):
    """The nibble-by-nibble uniform leaf pmpte (independent of the closed form)."""
    value = 0
    for i in range(PAGES_PER_LEAF_PTE):
        value |= perm.bits << (i * 4)
    return value


class _PerPmpteTable(PMPTable):
    """Reference: ``set_range`` writing one leaf pmpte per call to ``write64``.

    This is the write loop the bulk run path replaced, kept here as the
    differential reference: every 64 KiB pmpte re-resolves its leaf table,
    and a shattered huge pmpte is expanded word by word.
    """

    def _leaf_table_for(self, offset, create):
        root_table = self._root_table_for(offset, create)
        if root_table is None:
            return None
        off1, _off0, _pidx = split_offset(offset)
        root_addr = root_table + off1 * 8
        root = self.memory.read64(root_addr)
        if not root_pmpte_is_valid(root):
            if not create:
                return None
            leaf = self._new_table_page()
            self._write(root_addr, root_pmpte_pointer(leaf))
            return leaf
        if root_pmpte_is_huge(root):
            if not create:
                return None
            leaf = self._new_table_page()
            uniform = _uniform_by_nibbles(root_pmpte_perm(root))
            for i in range(ENTRIES_PER_TABLE):
                self.memory.write64(leaf + i * 8, uniform)
            self.entry_writes += ENTRIES_PER_TABLE
            self._write(root_addr, root_pmpte_pointer(leaf))
            return leaf
        return root_pmpte_leaf_pa(root)

    def set_range(self, base, size, perm, huge_ok=True):
        if base % PAGE_SIZE or size % PAGE_SIZE:
            raise ConfigurationError("set_range arguments must be page aligned")
        if size == 0:
            return 0
        if not self.region.contains(base, size):
            raise ConfigurationError(f"range [{base:#x},+{size:#x}) outside {self.region}")
        writes_before = self.entry_writes
        addr = base
        end = base + size
        while addr < end:
            offset = self._offset(addr)
            if (
                huge_ok
                and self.mode != MODE_FLAT
                and offset % LEAF_TABLE_SPAN == 0
                and addr + LEAF_TABLE_SPAN <= end
            ):
                root_table = self._root_table_for(offset, create=True)
                off1, _o0, _pi = split_offset(offset)
                root_addr = root_table + off1 * 8
                old = self.memory.read64(root_addr)
                new = root_pmpte_huge(perm) if perm != Permission.none() else 0
                self._write(root_addr, new)
                if root_pmpte_is_valid(old) and not root_pmpte_is_huge(old):
                    self._release_table_page(root_pmpte_leaf_pa(old))
                addr += LEAF_TABLE_SPAN
                continue
            if offset % LEAF_PTE_SPAN == 0 and addr + LEAF_PTE_SPAN <= end:
                if self.mode == MODE_FLAT:
                    pte_addr = self.root_pa + (offset // LEAF_PTE_SPAN) * 8
                else:
                    leaf = self._leaf_table_for(offset, create=True)
                    assert leaf is not None
                    _o1, off0, _pi = split_offset(offset)
                    pte_addr = leaf + off0 * 8
                self._write(pte_addr, _uniform_by_nibbles(perm))
                addr += LEAF_PTE_SPAN
                continue
            self.set_page_perm(addr, perm)
            addr += PAGE_SIZE
        return self.entry_writes - writes_before


#: The differential test's activity window: three leaf tables' worth.
_WINDOW = 3 * LEAF_TABLE_SPAN
#: A page-aligned but not 64 KiB-aligned region base, so table offsets and
#: physical addresses disagree on every alignment the write path tests.
_REGION_BASE = 0x10_0000_0000 + 5 * PAGE_SIZE

_differential_op = st.tuples(
    st.sampled_from(("set_range", "clear_range", "set_page_perm")),
    st.sampled_from((PAGE_SIZE, LEAF_PTE_SPAN, LEAF_TABLE_SPAN)),  # base alignment
    st.integers(0, _WINDOW // PAGE_SIZE),  # base index, wrapped into the window
    st.one_of(
        st.integers(1, 48).map(lambda pages: pages * PAGE_SIZE),
        st.sampled_from((LEAF_PTE_SPAN, LEAF_TABLE_SPAN, 2 * LEAF_TABLE_SPAN)),
        st.integers(1, 2 * LEAF_TABLE_SPAN // PAGE_SIZE).map(lambda pages: pages * PAGE_SIZE),
    ),
    st.integers(0, 7),  # permission bits
    st.booleans(),  # huge_ok
)


def _differential_tables(mode):
    """(bulk table, reference table, window base) over identical fresh memories."""
    if mode == MODE_3LEVEL:
        # The window straddles the first top-level boundary (16 GiB).
        region = MemRegion(_REGION_BASE, ROOT_TABLE_SPAN + 2 * LEAF_TABLE_SPAN)
        window = region.base + ROOT_TABLE_SPAN - LEAF_TABLE_SPAN
    else:
        region = MemRegion(_REGION_BASE, _WINDOW)
        window = region.base
    tables = []
    for cls in (PMPTable, _PerPmpteTable):
        mem = PhysicalMemory(8 * MIB, base=BASE)
        tables.append(cls(mem, FrameAllocator(mem.region), region, mode=mode))
    return tables[0], tables[1], window


def _assert_tables_equal(table, ref, probes):
    assert table.entry_writes == ref.entry_writes
    assert table.table_pages == ref.table_pages
    for page in table.table_pages:
        for addr in range(page, page + PAGE_SIZE, 8):
            assert table.memory.read64(addr) == ref.memory.read64(addr), hex(addr)
    for paddr in probes:
        assert table.lookup(paddr) == ref.lookup(paddr), hex(paddr)


class TestBulkWriteDifferential:
    """Bulk run writes match the per-pmpte reference call by call and word by word."""

    @pytest.mark.parametrize(
        "mode", [MODE_2LEVEL, MODE_3LEVEL, MODE_FLAT], ids=["2level", "3level", "flat"]
    )
    @settings(max_examples=40, deadline=None)
    @given(ops=st.lists(_differential_op, min_size=1, max_size=10))
    def test_matches_per_pmpte_reference(self, mode, ops):
        table, ref, window = _differential_tables(mode)
        window_end = window + _WINDOW
        grid = list(range(window, window_end, MIB + 3 * PAGE_SIZE))
        # Start from a huge pmpte in the middle leaf table, so finer writes
        # there shatter it and aligned clears reclaim the leaf they leave.
        middle = window + LEAF_TABLE_SPAN
        assert table.set_range(middle, LEAF_TABLE_SPAN, Permission.rx()) == ref.set_range(
            middle, LEAF_TABLE_SPAN, Permission.rx()
        )
        for kind, align, index, size, bits, huge_ok in ops:
            base = window + (index * align) % _WINDOW
            base -= (base - window) % align
            size = min(size, window_end - base)
            perm = Permission.from_bits(bits)
            if kind == "set_range":
                assert table.set_range(base, size, perm, huge_ok) == ref.set_range(
                    base, size, perm, huge_ok
                )
            elif kind == "clear_range":
                assert table.clear_range(base, size) == ref.clear_range(base, size)
            else:
                size = PAGE_SIZE
                table.set_page_perm(base, perm)
                ref.set_page_perm(base, perm)
            edges = [base, base + size - PAGE_SIZE]
            edges += [pa for pa in (base - PAGE_SIZE, base + size) if window <= pa < window_end]
            _assert_tables_equal(table, ref, edges + grid)
