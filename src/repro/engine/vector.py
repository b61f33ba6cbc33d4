"""Vectorized span programs: numpy array kernels for the invariant regime.

Block execution (:mod:`repro.engine.block`) collapsed N references to
counter arithmetic, but still crosses the Python interpreter once per
:class:`AccessBlock` run.  A :class:`SpanProgram` keeps whole *sequences*
of runs in columnar form — parallel VA / stride / count / access-type
arrays — and :func:`evaluate_machine` prices entire programs on a hart in
a handful of numpy calls:

1. **Decompose** every span into page-bounded chunks, in program order,
   entirely in-array (segmented ``arange`` over per-span chunk counts).
2. **Mask** each chunk against snapshots of the machine state the fused
   block path consults: L1-TLB residency (sorted-VPN membership via
   ``searchsorted`` against :meth:`TLB.l1_residency`), inlined checker
   permission bits per access type, and per-set MRU lines of the L1
   caches (:meth:`Cache.mru_lines`).  A chunk is *invariant* exactly when
   the scalar/block machinery would have priced every one of its
   references as an L1-TLB + MRU-line hit.
3. **Charge** each maximal invariant prefix as array reductions — cycle
   and stat totals are linear in the hit regime — and **replay** every
   non-invariant chunk (TLB miss, missing/denying inlined permission,
   non-MRU line, negative stride) through the block path's own span loop
   (:meth:`Hart._run_spans`), so the scalar core remains the single
   source of truth for every regime edge.

Snapshots are only valid while the underlying state stands still, which
is what the ``generation`` counters on :class:`~repro.paging.tlb.TLB` and
:class:`~repro.mem.cache.Cache` certify: every fill, flush, promotion,
eviction, invalidation and inlined-permission drop bumps one, and the
evaluator re-derives its mask whenever a replayed edge moved a counter.
Invariant chunks themselves never mutate residency or MRU state (MRU
hits re-touch ``cset[0]``; ``move_to_end`` changes recency only), so one
mask covers an arbitrarily long invariant prefix.  If edges churn the
generations too often the evaluator stops re-masking and hands the rest
of the program to the same span loop.

The replay makes exactly the calls block mode makes — whole spans through
:meth:`Hart._run_spans` (singletons straight to the scalar core), the
remainder of a partly charged span through ``access_run``'s fused loop —
and reads its span columns from Python lists, never numpy scalars.  So a
program that is all regime edges costs the block path plus the mask
sweeps (at most ``_MAX_MASK_ROUNDS``), never more calls than block mode.

numpy is optional (the ``repro[fast]`` extra): without it, or with
:func:`set_vector_mode` off, ``--no-vector``, or
``Machine(vector_mode=False)``, programs fall back to
:meth:`access_block` — the same latch discipline as ``--no-block``.
``tests/test_vector_exec.py`` proves vector, block and scalar execution
digest-identical differentially.
"""

from __future__ import annotations

import operator
from typing import List, Tuple

from ..common.types import PAGE_MASK, PAGE_SHIFT, PAGE_SIZE, AccessType

try:  # numpy is the optional `repro[fast]` extra — everything degrades without it
    import numpy as _np
except ImportError:  # pragma: no cover - exercised via HAVE_NUMPY monkeypatching
    _np = None

HAVE_NUMPY = _np is not None

#: Process-wide default for machines built from now on; mirrors
#: ``engine.block._BLOCK_MODE`` (read once per Machine at construction).
_VECTOR_MODE = True

#: Fixed numpy dispatch overhead is ~1-2µs per array op and an evaluation
#: is a few dozen ops, so programs below this many references are priced
#: faster by the per-run block path.
MIN_VECTOR_REFS = 1024

#: After this many mask rebuilds within one program the evaluator stops
#: re-masking and replays the remainder span-wise (block-path cost): an
#: edge-dominated program would otherwise pay a numpy sweep per edge.
_MAX_MASK_ROUNDS = 16

#: An access type's code is its index here.
_ACCESS_BY_CODE = (AccessType.READ, AccessType.WRITE, AccessType.FETCH)
_FETCH_CODE = 2
#: Access code by the member's value string.  ``Enum.__hash__`` is Python
#: code, so keying on the members themselves costs a call per span.
_CODE_BY_VALUE = {a._value_: code for code, a in enumerate(_ACCESS_BY_CODE)}
_member_value = operator.attrgetter("_value_")


def set_vector_mode(enabled: bool) -> None:
    """Set the process-wide default for machines built from now on."""
    global _VECTOR_MODE
    _VECTOR_MODE = bool(enabled)


def vector_mode_enabled() -> bool:
    """The current process-wide default (read by ``Machine.__init__``)."""
    return _VECTOR_MODE


class SpanProgram:
    """A sequence of timed access spans kept in columnar form.

    API-compatible with :class:`~repro.engine.block.AccessBlock` — same
    ``run`` / ``clear`` / ``count`` / ``runs`` surface, same strict
    program order — but the spans live in parallel per-field lists so the
    vector evaluator can lift the whole program into numpy arrays without
    a per-run Python loop.  Handing a program to
    :meth:`Machine.access_block` (or a machine with vector mode off) is
    always valid: ``runs`` re-zips the columns.
    """

    __slots__ = ("_va", "_stride", "_count", "_access", "count")

    def __init__(self) -> None:
        self._va: List[int] = []
        self._stride: List[int] = []
        self._count: List[int] = []
        self._access: List[AccessType] = []
        self.count = 0

    def run(self, va: int, stride: int, count: int, access: AccessType) -> "SpanProgram":
        """Append one span (no-op when ``count <= 0``); returns self."""
        if count > 0:
            self._va.append(va)
            self._stride.append(stride)
            self._count.append(count)
            self._access.append(access)
            self.count += count
        return self

    def clear(self) -> None:
        """Empty the program for reuse."""
        self._va.clear()
        self._stride.clear()
        self._count.clear()
        self._access.clear()
        self.count = 0

    @property
    def runs(self) -> List[Tuple[int, int, int, AccessType]]:
        """The spans as ``(va, stride, count, access)`` tuples, program order."""
        return list(zip(self._va, self._stride, self._count, self._access))

    def __len__(self) -> int:
        return self.count

    def __repr__(self) -> str:  # debug aid
        return f"SpanProgram({len(self._va)} spans, {self.count} refs)"


# ---------------------------------------------------------------------------
# Program -> page-bounded chunks, all in-array
# ---------------------------------------------------------------------------


class _Chunks:
    """The decomposed program: parallel arrays, one row per chunk.

    ``span`` maps a chunk back to its source span, ``start`` is the chunk's
    first reference index *within* that span (for span-wise replay), and
    ``span_first`` maps a span to its first chunk row.  ``multi`` marks
    chunks whose source span had ``count > 1`` — the machine's block path
    dispatches singleton runs straight to the scalar core, so only multi
    chunks emit ``block_done`` events.
    """

    __slots__ = ("va", "stride", "count", "acc", "edge", "span", "start", "multi", "span_first", "total")


def _program_columns(program):
    """A SpanProgram / AccessBlock as (va, stride, count, access) lists and arrays.

    Returns ``None`` for an empty program, else ``(lists, arrays)``: the
    Python lists the replay indexes (a SpanProgram's own columns) and the
    int64/int8 arrays the mask and the bulk charge compute on.
    """
    if not program.count:
        return None
    if isinstance(program, SpanProgram):
        lists = (program._va, program._stride, program._count, program._access)
    else:
        lists = tuple(map(list, zip(*program.runs)))
    va, stride, count, access = lists
    codes = map(_CODE_BY_VALUE.__getitem__, map(_member_value, access))
    return lists, (
        _np.asarray(va, dtype=_np.int64),
        _np.asarray(stride, dtype=_np.int64),
        _np.asarray(count, dtype=_np.int64),
        _np.fromiter(codes, dtype=_np.int8, count=len(access)),
    )


def _segment_index(reps):
    """Concatenated ``arange(reps[i])`` per segment (the classic repeat+cumsum)."""
    ends = _np.cumsum(reps)
    total = int(ends[-1])
    return _np.arange(total, dtype=_np.int64) - _np.repeat(ends - reps, reps), ends


def _decompose(s_va, s_stride, s_count, s_acc) -> _Chunks:
    """Split every span into page-bounded chunks, scattered to program order.

    Chunking mirrors ``access_run`` exactly: a positive sub-page stride
    chunks at every page boundary it crosses (consecutive references move
    less than a page, so the pages are consecutive and each chunk is the
    maximal same-page reference range); a page-or-larger stride makes every
    reference its own chunk; stride 0 and singletons are one chunk; a
    negative stride is one whole-span chunk pre-marked as an edge (the
    block path never fuses it).
    """
    nspans = int(s_va.shape[0])
    first_page = s_va >> PAGE_SHIFT
    last_page = (s_va + (s_count - 1) * s_stride) >> PAGE_SHIFT

    neg = s_stride < 0
    one = (s_count == 1) | neg | (s_stride == 0)
    big = ~one & (s_stride >= PAGE_SIZE)
    small = ~one & ~big  # 0 < stride < PAGE_SIZE, count > 1

    nchunks = _np.ones(nspans, dtype=_np.int64)
    nchunks[big] = s_count[big]
    nchunks[small] = last_page[small] - first_page[small] + 1

    offs = _np.zeros(nspans + 1, dtype=_np.int64)
    _np.cumsum(nchunks, out=offs[1:])
    total = int(offs[nspans])

    c = _Chunks()
    c.total = total
    c.span_first = offs
    c.va = _np.empty(total, dtype=_np.int64)
    c.stride = _np.empty(total, dtype=_np.int64)
    c.count = _np.empty(total, dtype=_np.int64)
    c.acc = _np.empty(total, dtype=_np.int8)
    c.edge = _np.zeros(total, dtype=bool)
    c.span = _np.empty(total, dtype=_np.int64)
    c.start = _np.zeros(total, dtype=_np.int64)

    if one.any():
        pos = offs[:-1][one]
        c.va[pos] = s_va[one]
        c.stride[pos] = s_stride[one]
        c.count[pos] = s_count[one]
        c.acc[pos] = s_acc[one]
        c.edge[pos] = neg[one]
        c.span[pos] = _np.nonzero(one)[0]

    if big.any():
        ids = _np.nonzero(big)[0]
        reps = s_count[ids]
        intra, _ends = _segment_index(reps)
        pos = _np.repeat(offs[:-1][big], reps) + intra
        st = _np.repeat(s_stride[ids], reps)
        c.va[pos] = _np.repeat(s_va[ids], reps) + intra * st
        c.stride[pos] = st
        c.count[pos] = 1
        c.acc[pos] = _np.repeat(s_acc[ids], reps)
        c.span[pos] = _np.repeat(ids, reps)
        c.start[pos] = intra

    if small.any():
        ids = _np.nonzero(small)[0]
        reps = nchunks[ids]
        k, ends = _segment_index(reps)
        va_r = _np.repeat(s_va[ids], reps)
        st_r = _np.repeat(s_stride[ids], reps)
        # First reference index on chunk k's page: ceil((page<<12 - va)/stride),
        # clamped at 0 for the span's own first page.
        start = ((_np.repeat(first_page[ids], reps) + k) << PAGE_SHIFT) - va_r
        start = -(-start // st_r)
        _np.maximum(start, 0, out=start)
        end = _np.empty_like(start)
        end[:-1] = start[1:]
        end[ends - 1] = _np.repeat(s_count[ids], reps)[ends - 1]
        pos = _np.repeat(offs[:-1][small], reps) + k
        c.va[pos] = va_r + start * st_r
        c.stride[pos] = st_r
        c.count[pos] = end - start
        c.acc[pos] = _np.repeat(s_acc[ids], reps)
        c.span[pos] = _np.repeat(ids, reps)
        c.start[pos] = start

    c.multi = s_count[c.span] > 1
    return c


# ---------------------------------------------------------------------------
# Generation-keyed residency snapshots
# ---------------------------------------------------------------------------


def _tlb_snapshot(tlb, asid: int):
    """(sorted VPNs, aligned PPNs, (3, n) allow-bits) for the L1-resident set.

    Cached on the TLB keyed by its generation counter, so consecutive
    programs in steady state pay a dict probe, not a rebuild.  Only
    entries with an inlined checker permission are listed, and the allow
    bits fold the page permission AND that inlined permission per access
    type — exactly the test the machine's fused fast path applies.
    """
    key = (tlb.generation, asid)
    cached = getattr(tlb, "_vector_snapshot", None)
    if cached is not None and cached[0] == key:
        return cached[1]
    vpns: List[int] = []
    ppns: List[int] = []
    ok_r: List[bool] = []
    ok_w: List[bool] = []
    ok_x: List[bool] = []
    for vpn, entry in tlb.l1_residency(asid):
        vpns.append(vpn)
        ppns.append(entry.ppn)
        perm = entry.perm
        checker_perm = entry.checker_perm
        ok_r.append(perm.r and checker_perm.r)
        ok_w.append(perm.w and checker_perm.w)
        ok_x.append(perm.x and checker_perm.x)
    if vpns:
        v = _np.asarray(vpns, dtype=_np.int64)
        order = _np.argsort(v, kind="stable")
        v = v[order]
        p = _np.asarray(ppns, dtype=_np.int64)[order]
        ok = _np.asarray([ok_r, ok_w, ok_x], dtype=bool)[:, order]
        snap = (v, p, ok)
    else:
        snap = (
            _np.empty(0, dtype=_np.int64),
            _np.empty(0, dtype=_np.int64),
            _np.empty((3, 0), dtype=bool),
        )
    tlb._vector_snapshot = (key, snap)
    return snap


def _mru_snapshot(cache):
    """Per-set MRU lines as an int64 array, cached by cache generation."""
    gen = cache.generation
    cached = getattr(cache, "_vector_mru", None)
    if cached is not None and cached[0] == gen:
        return cached[1]
    arr = _np.asarray(cache.mru_lines(), dtype=_np.int64)
    cache._vector_mru = (gen, arr)
    return arr


# ---------------------------------------------------------------------------
# The invariant mask
# ---------------------------------------------------------------------------


def _invariant_mask(c: _Chunks, lo: int, snap, mru_d, mru_i, shift_d, mask_d, shift_i, mask_i):
    """Per-chunk "fused path applies" mask over ``chunks[lo:]``.

    True exactly when the block machinery would price every reference of
    the chunk as an L1-TLB hit with an allowing inlined permission,
    landing on the line currently at MRU in its set.  Conservative by
    construction: anything the snapshot cannot prove stays False and is
    replayed through the scalar-capable path, so a stale-looking False
    costs time, never correctness.
    """
    va = c.va[lo:]
    stride = c.stride[lo:]
    count = c.count[lo:]
    acc = c.acc[lo:]

    v, ppn_tab, ok_tab = snap
    if not v.size:
        return _np.zeros(va.shape[0], dtype=bool)

    vpn = va >> PAGE_SHIFT
    idx = _np.searchsorted(v, vpn)
    idx[idx == v.size] = 0  # out-of-range probes fail the equality below
    mask = ~c.edge[lo:] & (v[idx] == vpn) & ok_tab[acc.astype(_np.int64), idx]

    sel = _np.nonzero(mask)[0]
    if not sel.size:
        return mask

    # Cache probes for the TLB-resident chunks.  A chunk never crosses a
    # page, so its physical addresses are affine: stride 0 probes one
    # line; a sub-line stride probes each line the chunk touches (the
    # lines are consecutive — no line is skipped when refs move less than
    # a line); a super-line stride probes every reference's line.
    pa = (ppn_tab[idx[sel]] << PAGE_SHIFT) | (va[sel] & PAGE_MASK)
    st = stride[sel]
    n = count[sel]
    fetch = acc[sel] == _FETCH_CODE
    line_bytes = _np.where(fetch, 1 << shift_i, 1 << shift_d)
    shift = _np.where(fetch, shift_i, shift_d)
    last = pa + (n - 1) * st
    nprobe = _np.where(st == 0, 1, _np.where(st > line_bytes, n, (last >> shift) - (pa >> shift) + 1))
    step = _np.where(st > line_bytes, st, line_bytes)

    intra, ends = _segment_index(nprobe)
    rows = _np.repeat(_np.arange(sel.size, dtype=_np.int64), nprobe)
    addr = pa[rows] + intra * step[rows]
    sh = shift[rows]
    line = (addr >> sh) << sh
    hit = _np.where(
        fetch[rows],
        mru_i[(addr >> shift_i) & mask_i],
        mru_d[(addr >> shift_d) & mask_d],
    ) == line
    all_hit = _np.add.reduceat(hit.astype(_np.int64), ends - nprobe) == nprobe
    mask[sel[~all_hit]] = False
    return mask


# ---------------------------------------------------------------------------
# Machine-path evaluation
# ---------------------------------------------------------------------------


def _charge_machine(hart, c: _Chunks, sl: slice, asid: int, extra_cycles: int) -> Tuple[int, int]:
    """Bulk-charge an invariant chunk prefix; returns (cycles, references).

    Per reference the fused path costs one L1-TLB hit latency plus the
    matching L1 side's hit latency plus ``extra_cycles`` — all linear, so
    the whole prefix folds into the TLB's bulk recency/hit charge, one
    hierarchy ``bulk_mru``, and two counter adds on the hart.  The LRU
    recency trail (one ``move_to_end`` per chunk, program order) and every
    counter end up exactly where chunk-at-a-time ``access_run`` fused
    charges would have left them.
    """
    tlb = hart.tlb
    hier = hart.hierarchy
    engine = hart.engine
    n = c.count[sl]
    acc = c.acc[sl]
    fetch = acc == _FETCH_CODE
    refs = int(n.sum())
    fetch_refs = int(n[fetch].sum())
    data_refs = refs - fetch_refs
    cycles = tlb.charge_l1_hit_vpns((c.va[sl] >> PAGE_SHIFT).tolist(), asid, refs)
    cycles += hier.bulk_mru(data_refs, fetch_refs) + refs * extra_cycles
    hart._s_accesses += refs
    hart._s_cycles += cycles
    if engine._block_hooks:
        # Replicate the block path's event stream: singleton spans go to
        # the scalar core (no event); a zero-stride span issues its first
        # reference scalar and reports the remaining count-1 as one block.
        tlb_lat = tlb._l1_lat
        per = tlb_lat + extra_cycles + _np.where(fetch, hier._l1i_lat, hier._l1d_lat)
        done = engine.block_done
        by_code = _ACCESS_BY_CODE
        for va, st, cnt, code, cyc_per, multi in zip(
            c.va[sl].tolist(), c.stride[sl].tolist(), n.tolist(), acc.tolist(), per.tolist(), c.multi[sl].tolist()
        ):
            if not multi:
                continue
            if st == 0:
                done(va, 0, cnt - 1, by_code[code], (cnt - 1) * cyc_per)
            else:
                done(va, st, cnt, by_code[code], cnt * cyc_per)
    return cycles, refs


def evaluate_machine(hart, page_table, program, priv, asid: int = 0, extra_cycles: int = 0) -> Tuple[int, int, int, int]:
    """Price a whole span program on a hart; returns the access_run tuple.

    ``(cycles, tlb_hits, pt_refs, checker_refs)`` — exactly what running
    the program's spans through :meth:`Hart.access_block` would have
    accumulated, with identical machine state (stats, cache/TLB residency
    and recency, faults with exact scalar state) and an identical
    ``block_done`` event stream.  The caller has already established
    eligibility (vector+block mode, TLB inlining, no per-reference/
    per-access hooks, numpy present).
    """
    cols = _program_columns(program)
    if cols is None:
        return (0, 0, 0, 0)
    (s_va, s_stride, s_count, s_acc), arrays = cols
    c = _decompose(*arrays)
    # The replay reads the chunk columns only where a replayed range starts
    # or stops; every span in between comes from the program's own lists.
    chunk_span, chunk_start, span_first = c.span, c.start, c.span_first
    tlb = hart.tlb
    l1d = hart.hierarchy.l1d
    l1i = hart.hierarchy.l1i
    shift_d, mask_d = l1d._line_shift, l1d._set_mask
    shift_i, mask_i = l1i._line_shift, l1i._set_mask
    run_spans = hart._run_spans
    run = hart.access_run
    run_chunks = hart._access_chunks

    def replay_part(span: int, first: int, stop: int) -> Tuple[int, int, int, int]:
        """Span *span* from reference *first* up to chunk *stop* (exclusive).

        The span has more than one reference (a singleton is one chunk,
        replayed whole), so block mode priced this part inside one
        ``access_run``: a lone reference left over still takes the fused
        loop, not ``access_run``'s singleton shortcut.
        """
        stride = s_stride[span]
        n = (int(chunk_start[stop]) if stop < span_first[span + 1] else s_count[span]) - first
        return (run if n > 1 else run_chunks)(
            page_table, s_va[span] + first * stride, stride, n, s_acc[span], priv, asid, extra_cycles
        )

    def replay(pos: int, end: int) -> Tuple[int, int, int, int]:
        """Chunks ``[pos, end)`` with the calls block mode makes for them."""
        parts = []
        span = int(chunk_span[pos])
        first = int(chunk_start[pos])
        if first:  # resumes inside a span whose head was bulk-charged
            stop = min(end, int(span_first[span + 1]))
            parts.append(replay_part(span, first, stop))
            if stop == end:
                return parts[0]
            span += 1
        last = int(chunk_span[end - 1])
        whole_end = last + 1 if span_first[last + 1] == end else last
        if span < whole_end:
            whole = slice(span, whole_end)
            spans = zip(s_va[whole], s_stride[whole], s_count[whole], s_acc[whole])
            parts.append(run_spans(page_table, spans, priv, asid, extra_cycles))
        if whole_end == last:  # stops inside a span whose tail is bulk-charged
            parts.append(replay_part(last, 0, end))
        return tuple(map(sum, zip(*parts)))

    cycles = hits = pt_refs = checker_refs = 0
    pos = 0
    mask = None
    mask_base = 0
    gens = None
    rounds = 0
    while pos < c.total:
        now = (tlb.generation, l1d.generation, l1i.generation)
        if mask is None or now != gens:
            if rounds >= _MAX_MASK_ROUNDS:
                break  # edges churn the snapshots: replay the rest below
            rounds += 1
            gens = now
            snap = _tlb_snapshot(tlb, asid)
            mask = _invariant_mask(c, pos, snap, _mru_snapshot(l1d), _mru_snapshot(l1i), shift_d, mask_d, shift_i, mask_i)
            mask_base = pos
        m = mask[pos - mask_base :]
        if m[0]:
            k = int(m.size if m.all() else m.argmin())
            cyc, refs = _charge_machine(hart, c, slice(pos, pos + k), asid, extra_cycles)
            cycles += cyc
            hits += refs
            pos += k
            continue
        j = int(m.size if not m.any() else m.argmax())
        cyc, h, p, k = replay(pos, pos + j)
        cycles += cyc
        hits += h
        pt_refs += p
        checker_refs += k
        pos += j
    if pos < c.total:
        cyc, h, p, k = replay(pos, c.total)
        cycles += cyc
        hits += h
        pt_refs += p
        checker_refs += k
    return cycles, hits, pt_refs, checker_refs
