"""Physical frame allocator with controllable fragmentation.

The OS-kernel model and the secure monitor both carve frames from here.  The
allocator hands out 4 KiB frames either contiguously (bump-pointer) or in a
deliberately scattered order, which is how the fragmentation experiments
(paper §8.8 / Figure 15) build "fragmented physical pages" layouts.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from typing import Dict, List, Optional, Set

from ..common.errors import MemoryError_
from ..common.stats import Histogram
from ..common.types import PAGE_SIZE, MemRegion


class FrameAllocator:
    """Allocates 4 KiB physical frames from a region.

    Parameters
    ----------
    region:
        The physical range to allocate from.
    scatter:
        If True, frames are handed out in a pseudo-random order (seeded),
        modelling a long-running system with fragmented free lists.
    seed:
        Seed for the scatter order.
    """

    def __init__(self, region: MemRegion, scatter: bool = False, seed: int = 0):
        if region.base % PAGE_SIZE or region.size % PAGE_SIZE:
            raise MemoryError_(f"allocator region {region} not page aligned")
        self.region = region
        # The free list is the source of truth for *order*: pop() yields
        # ascending (or shuffled) frames, alloc_scattered draws a slot.
        # Removals tombstone their slot with None instead of rebuilding the
        # list; ``_holes`` keeps the tombstoned slots sorted, so "slot of
        # the k-th live frame" is a bisect fixed point and costs nothing
        # while there are none.  Every frame of the region is either free or
        # in ``_allocated``, so membership needs no index of its own.
        #
        # A free frame's slot is ``_moved[frame]`` if recorded, else
        # ``(_top - frame) // PAGE_SIZE`` — where an unscattered pool put
        # it.  Slots are recorded only when a frame moves (scattered
        # draws, free, compaction) or, for a scattered pool, all at once.
        self._top = region.end - PAGE_SIZE
        frames = range(region.base, region.end, PAGE_SIZE)
        self._moved: Dict[int, int] = {}
        if scatter:
            self._free: List[Optional[int]] = list(frames)
            random.Random(seed).shuffle(self._free)
            self._free.reverse()
            self._moved = {frame: i for i, frame in enumerate(self._free)}
        else:
            self._free = list(frames[::-1])
        self._holes: List[int] = []
        # No free frame lies below the scan floor, so contiguous scans can
        # start there instead of at the region base.  Only free() lowers it.
        self._scan_floor = region.base
        self._allocated: Set[int] = set()
        self._rng = random.Random(seed ^ 0x5EED)

    @property
    def free_frames(self) -> int:
        return self.region.size // PAGE_SIZE - len(self._allocated)

    @property
    def allocated_frames(self) -> int:
        return len(self._allocated)

    def _tombstone(self, base: int, end: int) -> None:
        """Take the free frames ``[base, end)`` out of the free list."""
        free = self._free
        moved = self._moved
        top = self._top
        holes = self._holes
        for frame in range(base, end, PAGE_SIZE):
            slot = moved.get(frame)
            if slot is None:
                slot = (top - frame) // PAGE_SIZE
            free[slot] = None
            holes.append(slot)
        holes.sort()
        self._allocated.update(range(base, end, PAGE_SIZE))
        if len(holes) * 2 > len(free):
            # Compact: squeeze the tombstones out, preserving live order.
            # Frames below the first hole keep their slots; the rest move.
            start = holes[0]
            tail = [frame for frame in free[start:] if frame is not None]
            del free[start:]
            free.extend(tail)
            for slot, frame in enumerate(tail, start):
                moved[frame] = slot
            holes.clear()

    def alloc(self) -> int:
        """Allocate one frame; returns its base PA."""
        free = self._free
        while free:
            frame = free.pop()
            if frame is not None:
                self._allocated.add(frame)
                return frame
            self._holes.pop()  # the popped tombstone was the highest slot
        raise MemoryError_(f"frame allocator exhausted ({self.region})")

    def alloc_scattered(self) -> int:
        """Allocate one frame from a pseudo-random free-list position.

        Models a long-running buddy allocator whose free lists are shuffled
        by churn — used for page-table pages in unmodified-kernel baselines,
        whose PT pages end up dispersed through DRAM.

        Equivalent to compacting and then drawing ``randrange(len(free))``,
        swapping the last free frame into the drawn slot: the draw is over
        the live count either way, the k-th live frame's slot is the least
        fixed point of ``slot = k + (holes at or below slot)``, and the frame
        moved into the vacated slot is the last *live* frame — so the live
        order (and every future draw and pop) matches the compacting
        implementation exactly.
        """
        live_count = self.free_frames
        if not live_count:
            raise MemoryError_(f"frame allocator exhausted ({self.region})")
        free = self._free
        holes = self._holes
        index = self._rng.randrange(live_count)
        slot = index
        if holes:
            nxt = index + bisect_right(holes, slot)
            while nxt != slot:
                slot = nxt
                nxt = index + bisect_right(holes, slot)
            # Shed trailing tombstones so the swap source is the last live frame.
            while free[-1] is None:
                free.pop()
                holes.pop()
        frame = free[slot]
        moved = free.pop()
        if moved != frame:
            free[slot] = moved
            self._moved[moved] = slot
        self._allocated.add(frame)
        return frame

    def alloc_contiguous(self, num_frames: int, align_frames: int = 1) -> int:
        """Allocate *num_frames* physically contiguous frames; return base PA.

        First-fit over aligned bases (optionally aligned to *align_frames*
        frames, for NAPOT-shaped regions), so it works even on a scattered
        allocator — mirroring an OS falling back to compaction/CMA for
        contiguous requests.  Returns the lowest suitably aligned base whose
        whole run is free, exactly like a full scan from the region base.
        """
        if num_frames <= 0:
            raise MemoryError_("alloc_contiguous needs a positive frame count")
        if align_frames <= 0:
            raise MemoryError_("align_frames must be positive")
        step = align_frames * PAGE_SIZE
        allocated = self._allocated
        # Advance the floor over frames that are (still) allocated; every
        # candidate base below the first free frame would fail on its first
        # frame anyway.
        floor = self._scan_floor
        region_end = self.region.end
        while floor < region_end and floor in allocated:
            floor += PAGE_SIZE
        self._scan_floor = floor
        base = (floor + step - 1) // step * step
        limit = region_end - num_frames * PAGE_SIZE
        while base <= limit:
            frame = base
            run_end = base + num_frames * PAGE_SIZE
            while frame < run_end and frame not in allocated:
                frame += PAGE_SIZE
            if frame == run_end:
                self._tombstone(base, run_end)
                return base
            # The run broke at `frame`: no base at or below it can work.
            base = (frame + PAGE_SIZE + step - 1) // step * step
        raise MemoryError_(f"no contiguous run of {num_frames} frames in {self.region}")

    def free(self, frame: int) -> None:
        """Return one frame to the pool."""
        if frame not in self._allocated:
            raise MemoryError_(f"double free / foreign frame {frame:#x}")
        self._allocated.discard(frame)
        self._moved[frame] = len(self._free)
        self._free.append(frame)
        if frame < self._scan_floor:
            self._scan_floor = frame

    def reserve(self, base: int, size: int) -> None:
        """Remove ``[base, base+size)`` from the pool (e.g. monitor memory).

        *base* and *size* must be page aligned, *size* positive, the range
        inside the region and every frame of it free.
        """
        if base % PAGE_SIZE:
            raise MemoryError_(f"reserve: base {base:#x} not page aligned")
        if size <= 0 or size % PAGE_SIZE:
            raise MemoryError_(f"reserve: size {size:#x} not a positive multiple of the page size")
        if not self.region.contains(base, size):
            raise MemoryError_(f"reserve: [{base:#x}, {base + size:#x}) outside {self.region}")
        taken = self._allocated.intersection(range(base, base + size, PAGE_SIZE))
        if taken:
            raise MemoryError_(f"reserve: {len(taken)} frames not free (first {min(taken):#x})")
        self._tombstone(base, base + size)

    def fragmentation(self) -> Dict[str, object]:
        """Free-span metrics of the pool's current state (lazy, read-only).

        Walks the gaps between allocated frames in address order — the
        maximal contiguous free spans — and summarizes them: a span-length
        histogram, the largest-contiguous gauge, and a fragmentation
        percentage (the share of free memory *outside* the largest span —
        0.0 when all free memory is one run, approaching 100 as it
        shatters).  Pure observation: neither the free-list order, the
        tombstones, nor the scatter RNG is touched, so interleaving calls
        with allocations can never perturb the allocation sequence.  Cost is
        O(allocated log allocated) — meant for sync points, not the
        per-alloc hot path.
        """
        spans = Histogram("free_span_frames")
        start = self.region.base
        for frame in sorted(self._allocated):
            if frame > start:
                spans.observe((frame - start) // PAGE_SIZE)
            start = frame + PAGE_SIZE
        if self.region.end > start:
            spans.observe((self.region.end - start) // PAGE_SIZE)
        free = self.free_frames
        largest = spans.max or 0
        return {
            "free_frames": free,
            "allocated_frames": len(self._allocated),
            "spans": spans.count,
            "largest_free_frames": largest,
            "frag_pct": round(100.0 * (1.0 - largest / free), 2) if free else 0.0,
            "span_hist": spans.snapshot(),
        }

    def owns(self, frame: int) -> Optional[bool]:
        """True if allocated, False if free, None if outside the region."""
        if not self.region.contains(frame, PAGE_SIZE):
            return None
        return frame in self._allocated
