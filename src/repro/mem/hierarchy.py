"""Three-level inclusive data-cache hierarchy.

Models the L1D / L2 / LLC chain of Table I. The LLC is inclusive: evicting
an LLC line back-invalidates it from L1 and L2 (the paper's baseline LLC is
"2MB per core, ..., inclusive"). Page-table walk accesses enter the
hierarchy at the L2, matching the usual hardware-walker attach point and
the paper's statement that "the page table contents are cached on the
processor caches as in the real hardware".

Bypassed LLC fills (cbPred's action) still deliver the block to L1/L2 —
bypass changes *allocation*, not data delivery — so bypassed blocks live
only in the upper levels, as in inclusive-LLC bypass schemes the paper
cites [Gupta et al., IPDPS'13].
"""

from __future__ import annotations

from repro.common.stats import Stats
from repro.mem.cache import SetAssocCache
from repro.mem.mainmem import MainMemory


class CacheHierarchy:
    """L1D -> L2 -> LLC -> memory access path with inclusion."""

    def __init__(
        self,
        l1: SetAssocCache,
        l2: SetAssocCache,
        llc: SetAssocCache,
        memory: MainMemory,
        l1_latency: int = 5,
        l2_latency: int = 11,
        llc_latency: int = 40,
    ):
        self.l1 = l1
        self.l2 = l2
        self.llc = llc
        self.memory = memory
        self.l1_latency = l1_latency
        self.l2_latency = l2_latency
        self.llc_latency = llc_latency
        self.stats = Stats()
        # Hot-path aliases: the caches never change after construction, and
        # the counter dict is bumped inline on the per-access path.
        self._stat = self.stats.counters
        self._stat.update(dict.fromkeys(
            ("accesses", "llc_demand_misses", "walk_accesses",
             "inclusion_victims", "orphan_writebacks"), 0,
        ))
        self._l1_lookup = l1.lookup
        self._l2_lookup = l2.lookup
        self._llc_lookup = llc.lookup

    # ------------------------------------------------------------------ #
    # Demand accesses (from the core, physical block address)
    # ------------------------------------------------------------------ #
    def access(self, block: int, now: int, is_write: bool = False):
        """One demand access; returns ``(latency_cycles, level)``.

        ``level`` is one of ``"l1"``, ``"l2"``, ``"llc"``, ``"mem"`` — the
        level that served the access; the timing model charges different
        exposed penalties per level.
        """
        stat = self._stat
        stat["accesses"] += 1
        if self._l1_lookup(block, now, is_write):
            return self.l1_latency, "l1"

        if self._l2_lookup(block, now, is_write):
            self._fill_l1(block, now, is_write)
            return self.l2_latency, "l2"

        if self._llc_lookup(block, now, is_write):
            self._fill_l2(block, now)
            self._fill_l1(block, now, is_write)
            return self.llc_latency, "llc"

        latency = self.llc_latency + self.memory.access(block, is_write)
        stat["llc_demand_misses"] += 1
        self._fill_llc(block, now)
        self._fill_l2(block, now)
        self._fill_l1(block, now, is_write)
        return latency, "mem"

    # ------------------------------------------------------------------ #
    # Page-walk accesses (from the page-table walker, enter at L2)
    # ------------------------------------------------------------------ #
    def walk_access(self, block: int, now: int) -> int:
        """One page-table load issued by the walker; returns latency."""
        self._stat["walk_accesses"] += 1
        if self._l2_lookup(block, now):
            return self.l2_latency
        if self._llc_lookup(block, now):
            self._fill_l2(block, now)
            return self.llc_latency
        latency = self.llc_latency + self.memory.access(block)
        self._fill_llc(block, now)
        self._fill_l2(block, now)
        return latency

    # ------------------------------------------------------------------ #
    # Fill helpers with inclusion maintenance
    # ------------------------------------------------------------------ #
    def _fill_l1(self, block: int, now: int, is_write: bool) -> None:
        victim = self.l1.fill(block, now, is_write)
        if victim is not None and victim.dirty:
            # Dirty L1 victims write back into L2 (cascading outward if
            # the outer copies are already gone or were bypassed).
            self._writeback(victim.tag, level=1)

    def _fill_l2(self, block: int, now: int) -> None:
        victim = self.l2.fill(block, now)
        if victim is not None and victim.dirty:
            self._writeback(victim.tag, level=2)

    def _fill_llc(self, block: int, now: int) -> None:
        """Fill the LLC and keep the hierarchy inclusive: the victim is
        invalidated from L1 and L2, and written back if any copy was
        dirty. Besides this class's own miss paths, the batched engine's
        flat interpreter calls it for every page-walk load that misses
        the LLC (its data path inlines the same chain)."""
        victim = self.llc.fill(block, now)
        if victim is not None:
            # Inclusive LLC: the victim must disappear from upper levels.
            inner1 = self.l1.invalidate(victim.tag, now)
            inner2 = self.l2.invalidate(victim.tag, now)
            if inner1 is not None or inner2 is not None:
                self._stat["inclusion_victims"] += 1
            if victim.dirty or (inner1 and inner1.dirty) or (inner2 and inner2.dirty):
                self.memory.access(victim.tag, is_write=True)

    def _writeback(self, block: int, level: int) -> None:
        """Propagate a dirty victim outward: mark the first outer level
        still holding the block dirty, or write to memory if none does
        (the copy was bypassed or already evicted). Writeback latency is
        off the critical path and not charged."""
        outer = (self.l2, self.llc)[level - 1:]
        for cache in outer:
            line = cache.probe(block)
            if line is not None:
                line.dirty = True
                return
        self.memory.access(block, is_write=True)
        self._stat["orphan_writebacks"] += 1

    # ------------------------------------------------------------------ #
    # End-of-run bookkeeping
    # ------------------------------------------------------------------ #
    def finalize(self, now: int) -> None:
        self.l1.flush_residency(now)
        self.l2.flush_residency(now)
        self.llc.flush_residency(now)

    def llc_mpki_counters(self) -> dict:
        """Raw hit/miss counters used for MPKI computation."""
        return {
            "llc_hits": self.llc.stats.get("hits"),
            "llc_misses": self.llc.stats.get("misses"),
        }
