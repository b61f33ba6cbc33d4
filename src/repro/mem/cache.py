"""Generic set-associative cache timing model.

The cache tracks which line addresses are resident (tags only — data lives in
:class:`repro.mem.physical.PhysicalMemory`).  ``probe`` answers hit/miss,
``insert`` fills a line and returns the victim tag if one was evicted, and
``lookup_fill`` fuses the two for the hierarchy's per-reference hot path.
Replacement is true LRU by default; ``random`` is available for ablations.

Hot-path engineering (see DESIGN.md "Hot path engineering"): each set is a
flat Python list of line addresses ordered MRU-first.  Every lookup has the
same shape: one compare against the MRU line at index 0, then a C-level
``line in cset`` membership scan — for the small associativities real caches
use (2–16 ways) this beats an ``OrderedDict`` probe, and unlike
``list.index`` it never raises, so a miss costs no exception.  Only a hit off
the MRU slot moves its line to the front; a miss into a full LRU set drops
the victim inline with ``cset.pop()``.  Hit/miss/eviction counts accumulate
in plain instance ints and are published into the
:class:`~repro.common.stats.StatGroup` only when somebody reads it.
"""

from __future__ import annotations

import random as _random
from typing import List, Optional

from ..common.errors import ConfigurationError
from ..common.params import CacheParams
from ..common.stats import StatGroup
from ..common.types import is_pow2


class Cache:
    """One level of a set-associative cache.

    Parameters
    ----------
    params:
        Geometry (size, ways, line size) and hit latency.
    replacement:
        ``"lru"`` (default) or ``"random"``.
    seed:
        RNG seed used only by random replacement, for reproducibility.
    """

    def __init__(self, params: CacheParams, replacement: str = "lru", seed: int = 0):
        # Validate the divisors before any arithmetic uses them.
        if params.ways < 1:
            raise ConfigurationError(f"{params.name}: ways must be >= 1, got {params.ways}")
        if not is_pow2(params.line_bytes):
            raise ConfigurationError(f"{params.name}: line size must be a power of two")
        if params.size_bytes % (params.ways * params.line_bytes) != 0:
            raise ConfigurationError(
                f"{params.name}: size {params.size_bytes} not divisible by "
                f"ways*line ({params.ways}*{params.line_bytes})"
            )
        self.params = params
        self.num_sets = params.sets
        if not is_pow2(self.num_sets):
            raise ConfigurationError(f"{params.name}: set count {self.num_sets} not a power of two")
        if replacement not in ("lru", "random"):
            raise ConfigurationError(f"unknown replacement policy {replacement!r}")
        self._replacement = replacement
        self._lru = replacement == "lru"
        self._rng = _random.Random(seed)
        self._line_shift = params.line_bytes.bit_length() - 1
        self._set_mask = self.num_sets - 1
        self._ways = params.ways
        # One flat list per set: line addresses, most recently used FIRST.
        # (Index 0 is the MRU line, the last element is the LRU victim.)
        self._sets: List[List[int]] = [[] for _ in range(self.num_sets)]
        # Deferred statistics: the timed path adds to these plain ints; they
        # are published into ``stats`` by the sync callback on any read.
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self.stats = StatGroup(params.name, sync=self._publish_stats)
        # Bumped on every mutation that can change which line is MRU in some
        # set (fills, promotions, evictions, invalidations, flushes).  The
        # vector evaluator keys its MRU snapshots on this; MRU re-touches
        # (``cset[0]`` hits, ``mru_hits``) leave it alone so the dominant
        # hit path stays a single compare-and-add.
        self.generation = 0

    def _publish_stats(self) -> None:
        """Sync point: fold the pending hot-path deltas into the StatGroup."""
        if self._hits:
            self.stats.bump("hit", self._hits)
            self._hits = 0
        if self._misses:
            self.stats.bump("miss", self._misses)
            self._misses = 0
        if self._evictions:
            self.stats.bump("eviction", self._evictions)
            self._evictions = 0

    def _index(self, paddr: int) -> int:
        return (paddr >> self._line_shift) & self._set_mask

    def line_addr(self, paddr: int) -> int:
        """The line-aligned address containing *paddr*."""
        return paddr >> self._line_shift << self._line_shift

    def _evict(self, cset: List[int]) -> int:
        """Random replacement: drop and return one line of a full set.

        Preserves the historical draw: the OrderedDict implementation picked
        uniformly over LRU→MRU order, i.e. our list reversed.  (LRU victims
        are the set's last element and are popped inline by the callers.)
        """
        victim = self._rng.choice(cset[::-1])
        cset.remove(victim)
        self._evictions += 1
        return victim

    def lookup_fill(self, paddr: int) -> bool:
        """Fused probe+insert: return True on hit, fill (evicting) on miss.

        This is the hierarchy's per-reference primitive — one set lookup
        decides hit/miss, updates recency, and installs the line, so a miss
        never pays a second residency check the way ``probe`` + ``insert``
        would.  State and counters end up exactly as the unfused pair leaves
        them.
        """
        shifted = paddr >> self._line_shift
        line = shifted << self._line_shift
        cset = self._sets[shifted & self._set_mask]
        if cset:
            if cset[0] == line:  # MRU hit: the common case costs one compare
                self._hits += 1
                return True
            if line in cset:
                cset.remove(line)
                cset.insert(0, line)
                self._hits += 1
                self.generation += 1
                return True
            if len(cset) >= self._ways:
                if self._lru:
                    cset.pop()
                    self._evictions += 1
                else:
                    self._evict(cset)
        self._misses += 1
        cset.insert(0, line)
        self.generation += 1
        return False

    def mru_hits(self, count: int) -> None:
        """Account *count* repeat hits on the current MRU line (bulk touch).

        A ``lookup_fill`` hit on ``cset[0]`` mutates nothing but the hit
        counter, so N consecutive references to the line the previous
        reference just made MRU fold into one integer add.  Only valid
        under that regime — the hierarchy's ``access_run`` establishes it
        by issuing the first reference of each line through ``access``.
        """
        self._hits += count

    def mru_lines(self) -> List[int]:
        """Per-set MRU line addresses (``-1`` for an empty set).

        A read-only snapshot for the vector evaluator's hit mask; valid
        while :attr:`generation` is unchanged.
        """
        return [cset[0] if cset else -1 for cset in self._sets]

    def probe(self, paddr: int, update_lru: bool = True) -> bool:
        """Return True (hit) if the line holding *paddr* is resident.

        With ``update_lru=False`` this is a pure peek: neither recency nor
        any statistic changes (``MemoryHierarchy.peek_latency`` depends on
        that contract).
        """
        shifted = paddr >> self._line_shift
        line = shifted << self._line_shift
        cset = self._sets[shifted & self._set_mask]
        if not update_lru:
            return line in cset
        if line not in cset:
            self._misses += 1
            return False
        if cset[0] != line:
            cset.remove(line)
            cset.insert(0, line)
            self.generation += 1
        self._hits += 1
        return True

    def insert(self, paddr: int) -> Optional[int]:
        """Fill the line holding *paddr*; return the evicted line address, if any."""
        shifted = paddr >> self._line_shift
        line = shifted << self._line_shift
        cset = self._sets[shifted & self._set_mask]
        victim: Optional[int] = None
        if line in cset:
            if cset[0] == line:
                return None
            cset.remove(line)
        elif len(cset) >= self._ways:
            if self._lru:
                victim = cset.pop()
                self._evictions += 1
            else:
                victim = self._evict(cset)
        cset.insert(0, line)
        self.generation += 1
        return victim

    def invalidate(self, paddr: int) -> bool:
        """Drop the line holding *paddr*; return True if it was resident."""
        line = self.line_addr(paddr)
        cset = self._sets[self._index(paddr)]
        if line not in cset:
            return False
        cset.remove(line)
        self.generation += 1
        return True

    def flush(self) -> None:
        """Empty the cache."""
        for cset in self._sets:
            cset.clear()
        self.generation += 1

    def resident_lines(self) -> int:
        """Number of lines currently resident (for tests)."""
        return sum(len(s) for s in self._sets)
