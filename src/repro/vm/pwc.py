"""Page-walk caches (PWCs): fully-associative caches of partial walks.

Table I: "3 levels, fully associative, Entries: 4 (L1), 8 (L2), 16 (L3),
Lat. (cycles): 1 (L1), 1 (L2), 2 (L3)".

Conventionally (Bhattacharjee, MICRO'13) the L1 PWC caches page-directory
entries — a hit resolves the top *three* radix levels so the walk needs a
single memory access (the PTE). The L2 PWC resolves the top two levels and
the L3 PWC the top one. Lookups try L1 first; the deepest hit wins; all
levels are refilled when a walk completes.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Tuple

from repro.common.stats import Stats
from repro.vm.pagetable import LEVEL_BITS, NUM_LEVELS, VPN_BITS

#: ASIDs are folded into PWC tags above the VPN-prefix bits. Prefixes are
#: at most ``VPN_BITS - LEVEL_BITS`` wide, so ASID-0 tags stay the raw
#: prefixes (bit-identical to single-tenant behaviour) and distinct
#: address spaces never share partial-walk entries.
_ASID_SHIFT = VPN_BITS


class _FullyAssocLru:
    """A tiny fully-associative LRU cache of tags.

    ``_tags`` holds the resident tags in recency order, least recent
    first: a hit or refill moves its tag to the end, so the victim is
    always the first key and eviction is ``popitem(last=False)``. This
    class never reads a tag's value: :meth:`fill` stores None, and the
    batched engine's flat interpreter stores the region's leaf
    page-table node with each L1-PWC entry and reads it back on a hit
    to skip the radix descent (see :class:`repro.sim.engine._FlatStepper`).
    """

    __slots__ = ("capacity", "_tags")

    def __init__(self, capacity: int):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._tags: "OrderedDict[int, object]" = OrderedDict()

    def lookup(self, tag: int) -> bool:
        tags = self._tags
        if tag in tags:
            tags.move_to_end(tag)
            return True
        return False

    def fill(self, tag: int) -> None:
        tags = self._tags
        if tag not in tags and len(tags) >= self.capacity:
            tags.popitem(last=False)
        tags[tag] = None
        tags.move_to_end(tag)

    def __len__(self) -> int:
        return len(self._tags)


class PageWalkCaches:
    """The 3-level PWC stack consulted before a page walk.

    :meth:`consult` returns how many radix levels are already resolved
    (0..3) and the lookup latency paid. A walk that resolves ``k`` levels
    from the PWCs performs ``4 - k`` memory accesses, giving the paper's
    "1 to 3 memory accesses (on a hit to PWC)" range.
    """

    def __init__(
        self,
        entries: Tuple[int, int, int] = (4, 8, 16),
        latencies: Tuple[int, int, int] = (1, 1, 2),
    ):
        if len(entries) != 3 or len(latencies) != 3:
            raise ValueError("PWC needs exactly 3 levels of entries/latencies")
        # _levels[0] = L1 PWC (resolves 3 levels) ... _levels[2] = L3 PWC.
        self._levels = [_FullyAssocLru(n) for n in entries]
        self._latencies = list(latencies)
        self.stats = Stats()
        # Per-walk hot path: precomputed (level, resolved, tag shift, stat
        # key) tuples and the live counter dict, bumped inline.
        self._probe_plan = tuple(
            (
                self._levels[i],
                resolved,
                LEVEL_BITS * (NUM_LEVELS - resolved),
                self._latencies[i],
                f"pwc_l{i + 1}_hits",
            )
            for i, resolved in enumerate((3, 2, 1))
        )
        self._stat = self.stats.counters
        self._stat.update(dict.fromkeys(
            ("pwc_l1_hits", "pwc_l2_hits", "pwc_l3_hits", "pwc_misses"), 0,
        ))

    @staticmethod
    def _tag(vpn: int, levels_resolved: int) -> int:
        """Tag covering the top ``levels_resolved`` radix levels of ``vpn``."""
        return vpn >> (LEVEL_BITS * (NUM_LEVELS - levels_resolved))

    def consult(
        self, vpn: int, asid: int = 0, max_resolved: int = NUM_LEVELS - 1
    ) -> Tuple[int, int]:
        """Returns ``(levels_resolved, lookup_latency)``.

        Tries the L1 PWC (3 levels resolved) down to the L3 PWC (1 level);
        latency accumulates over the levels actually probed.

        ``max_resolved`` caps the probe plan for walks that terminate
        early: a 2 MB huge walk has only 3 loads (the PD entry *is* the
        leaf), so resolving 3 levels from the L1 PWC would wrongly skip
        the leaf load — huge walks consult with ``max_resolved=2`` and
        the L1 PWC is neither probed nor charged.
        """
        latency = 0
        stat = self._stat
        if asid == 0:
            for level, resolved, shift, level_latency, hit_key in (
                self._probe_plan
            ):
                if resolved > max_resolved:
                    continue
                latency += level_latency
                if level.lookup(vpn >> shift):
                    stat[hit_key] += 1
                    return resolved, latency
        else:
            base = asid << _ASID_SHIFT
            for level, resolved, shift, level_latency, hit_key in (
                self._probe_plan
            ):
                if resolved > max_resolved:
                    continue
                latency += level_latency
                if level.lookup(base | (vpn >> shift)):
                    stat[hit_key] += 1
                    return resolved, latency
        stat["pwc_misses"] += 1
        return 0, latency

    def fill(
        self, vpn: int, asid: int = 0, max_resolved: int = NUM_LEVELS - 1
    ) -> None:
        """Install the completed walk's partial translations at every level
        the walk actually resolved (huge walks cap at ``max_resolved=2``:
        an L1-PWC entry would claim a page-table node that does not
        exist below the huge leaf)."""
        base = 0 if asid == 0 else asid << _ASID_SHIFT
        for level, resolved, shift, _latency, _key in self._probe_plan:
            if resolved > max_resolved:
                continue
            level.fill(base | (vpn >> shift))

    # ------------------------------------------------------------------ #
    # Shootdown support (see Tlb.invalidate / Machine.shootdown_*)
    # ------------------------------------------------------------------ #
    def invalidate(self, vpn: int, asid: int = 0) -> int:
        """Drop every partial-walk entry covering ``vpn`` under ``asid``
        (INVLPG also invalidates paging-structure caches for the address).
        Returns the number of entries dropped."""
        base = 0 if asid == 0 else asid << _ASID_SHIFT
        dropped = 0
        for level, _resolved, shift, _latency, _key in self._probe_plan:
            tag = base | (vpn >> shift)
            if tag in level._tags:
                del level._tags[tag]
                dropped += 1
        if dropped:
            self.stats.add("pwc_invalidations", dropped)
        return dropped

    def invalidate_asid(self, asid: int) -> int:
        """Drop every entry belonging to ``asid`` (ASID recycle). Returns
        the number of entries dropped."""
        dropped = 0
        for level in self._levels:
            stale = [
                tag for tag in level._tags if tag >> _ASID_SHIFT == asid
            ]
            for tag in stale:
                del level._tags[tag]
            dropped += len(stale)
        if dropped:
            self.stats.add("pwc_invalidations", dropped)
        return dropped

    def flush(self) -> int:
        """Drop everything (broadcast shootdown). Returns entries dropped."""
        dropped = 0
        for level in self._levels:
            dropped += len(level._tags)
            level._tags.clear()
        if dropped:
            self.stats.add("pwc_invalidations", dropped)
        return dropped

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        sizes = ", ".join(str(lvl.capacity) for lvl in self._levels)
        return f"PageWalkCaches(entries=[{sizes}])"
