"""Set-associative TLB model with predictor hooks.

Used for the L1 I-TLB, L1 D-TLB, and the L2 TLB (the paper's LLT). The
LLT attaches a :class:`TlbListener` — dpPred, or one of the adapted cache
dead-block predictors (SHiP-TLB, AIP-TLB) — which can observe hits,
evictions and fills, bypass an incoming translation, demote an insertion to
the LRU/distant position, or serve a miss from a victim buffer (dpPred's
shadow table).

Per-entry metadata is exactly what the paper adds: an ``Accessed`` bit set
on the first hit, and a small hash of the PC of the instruction that
brought the entry in (stored at fill time; Section V-A).

Multi-tenant scenarios tag every entry with an ASID. Tags are stored as a
single combined key ``(asid << VPN_BITS) | vpn`` so that ASID-0 (the only
address space single-tenant runs ever use) keys are bit-identical to the
raw VPNs the rest of the simulator already handles. A second key
namespace shares the same tag dicts: 2 MB *huge* pages (one entry
covering 512 consecutive VPNs; only the LLT installs these — the L1 TLBs
are filled with splintered 4 KB granules, as several real cores do).
Its probe is gated on a per-TLB entry count, so 4 KB-only runs never
pay for it.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.common.bitops import is_power_of_two
from repro.common.residency import ResidencyTracker
from repro.common.stats import Stats
from repro.mem.replacement import (
    LruPolicy,
    ReplacementPolicy,
    insert_lru,
    make_policy,
)
from repro.vm.pagetable import LEVEL_BITS, VPN_BITS

FILL_ALLOCATE = "allocate"
FILL_BYPASS = "bypass"
FILL_DISTANT = "distant"

#: Bits by which the ASID is folded into a combined tag key. VPNs are
#: < 2**VPN_BITS, so ASID-0 keys equal the raw VPN (bit-identity with
#: every pre-multi-tenant trace) and distinct ASIDs never collide.
ASID_SHIFT = VPN_BITS
#: 2 MB huge pages span 2**LEVEL_BITS (512) base pages.
HUGE_SPAN_BITS = LEVEL_BITS
_HUGE_OFFSET_MASK = (1 << HUGE_SPAN_BITS) - 1
#: High-bit namespace for huge keys, far above any combined (asid, vpn)
#: key a real access can produce.
HUGE_KEY_BASE = 1 << 62


def tlb_key(vpn: int, asid: int) -> int:
    """Combined tag key for a 4 KB translation (== ``vpn`` at ASID 0)."""
    return vpn if asid == 0 else (asid << ASID_SHIFT) | vpn


class TlbEntry:
    """One TLB entry: translation plus the paper's predictor metadata."""

    __slots__ = (
        "vpn", "pfn", "pc_hash", "accessed", "aux", "asid", "huge",
    )

    def __init__(
        self,
        vpn: int,
        pfn: int,
        pc_hash: int,
        asid: int = 0,
        huge: bool = False,
    ):
        self.vpn = vpn
        self.pfn = pfn
        self.pc_hash = pc_hash
        self.accessed = False
        self.aux = None
        self.asid = asid
        self.huge = huge

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"TlbEntry(vpn={self.vpn:#x}, pfn={self.pfn:#x}, "
            f"pc_hash={self.pc_hash:#x}, accessed={self.accessed})"
        )


class TlbListener:
    """Predictor-side hooks; the default implementation is a no-op."""

    def on_lookup(self, tlb: "Tlb", set_idx: int, now: int) -> None:
        """Any lookup touched ``set_idx`` (hit or miss). Used by interval-
        counting predictors such as AIP."""

    def on_hit(self, tlb: "Tlb", entry: TlbEntry, now: int) -> None:
        """A lookup hit ``entry``."""

    def on_miss(self, tlb: "Tlb", vpn: int, now: int) -> Optional[int]:
        """A lookup missed. May return a PFN served from a victim buffer
        (shadow table); returning a PFN suppresses the page walk."""
        return None

    def on_fill(
        self, tlb: "Tlb", vpn: int, pfn: int, pc_hash: int, now: int
    ) -> str:
        """An incoming translation is about to be installed.

        Returns ``"allocate"``, ``"bypass"``, or ``"distant"``.
        """
        return FILL_ALLOCATE

    def filled(self, tlb: "Tlb", entry: TlbEntry, now: int) -> None:
        """``entry`` was installed (not called on bypass)."""

    def on_evict(self, tlb: "Tlb", entry: TlbEntry, now: int) -> None:
        """``entry`` is being evicted (training opportunity)."""

    def choose_victim(
        self, tlb: "Tlb", set_idx: int, entries: List[Optional[TlbEntry]], now: int
    ) -> Optional[int]:
        """Override victim selection for a full set (see CacheListener)."""
        return None


class Tlb:
    """A set-associative TLB."""

    def __init__(
        self,
        name: str,
        num_entries: int,
        assoc: int,
        policy: str = "lru",
        listener: Optional[TlbListener] = None,
        track_residency: bool = False,
    ):
        if num_entries % assoc != 0:
            raise ValueError(
                f"{name}: entries {num_entries} not divisible by assoc {assoc}"
            )
        num_sets = num_entries // assoc
        if not is_power_of_two(num_sets):
            raise ValueError(
                f"{name}: num_sets {num_sets} must be a power of two"
            )
        self.name = name
        self.num_entries = num_entries
        self.num_sets = num_sets
        self.assoc = assoc
        self._set_mask = num_sets - 1
        self.policy: ReplacementPolicy = make_policy(policy, num_sets, assoc)
        # None (no predictor attached — the L1 TLBs, baseline LLTs) lets
        # the access path skip listener dispatch instead of no-op calls.
        self.listener = listener
        self._entries: List[List[Optional[TlbEntry]]] = [
            [None] * assoc for _ in range(num_sets)
        ]
        self._tags: List[Dict[int, int]] = [dict() for _ in range(num_sets)]
        self.stats = Stats()
        # Hot-path alias (see SetAssocCache): inline counter bumps.
        # Counters are pre-seeded so bumps are plain `+= 1`, no .get().
        self._stat = self.stats.counters
        self._stat.update(dict.fromkeys(
            ("hits", "misses", "victim_buffer_hits", "fills", "evictions",
             "bypasses", "invalidations"), 0,
        ))
        # LRU (the default) never calls the policy: each set's tag dict
        # is kept in recency order, least recent first (see
        # SetAssocCache). Both key namespaces share that order. Other
        # policies get their hooks bound once.
        self._lru = type(self.policy) is LruPolicy
        if not self._lru:
            self._policy_on_hit = self.policy.on_hit
            self._policy_on_fill = self.policy.on_fill
            self._policy_victim = self.policy.victim
        self.residency: Optional[ResidencyTracker] = (
            ResidencyTracker() if track_residency else None
        )
        # Optional back-reference to the page-walk caches fed by walks
        # that refill this TLB (the machine wires it on the LLT). A
        # shootdown through :meth:`invalidate`/:meth:`invalidate_asid`/
        # :meth:`invalidate_all` must also drop the PWC's partial-walk
        # entries for the same region — otherwise a remap after the
        # shootdown can resolve through stale paging-structure entries.
        self.pwc = None
        # Resident huge entries: the huge probe in :meth:`lookup` is
        # skipped while this is zero, keeping the 4 KB miss path unchanged.
        self._huge_count = 0

    # ------------------------------------------------------------------ #
    # Access path
    # ------------------------------------------------------------------ #
    def probe(self, vpn: int, asid: int = 0) -> Optional[TlbEntry]:
        """Tag check with no side effects (4 KB namespace only)."""
        key = vpn if asid == 0 else (asid << ASID_SHIFT) | vpn
        set_idx = key & self._set_mask
        way = self._tags[set_idx].get(key)
        return None if way is None else self._entries[set_idx][way]

    def probe_translation(self, vpn: int, asid: int = 0) -> Optional[TlbEntry]:
        """Side-effect-free probe across both namespaces, in the same
        precedence order as :meth:`lookup`: exact 4 KB entry, then a
        covering huge entry."""
        entry = self.probe(vpn, asid)
        if entry is not None:
            return entry
        if self._huge_count:
            hkey = HUGE_KEY_BASE | tlb_key(vpn >> HUGE_SPAN_BITS, asid)
            hset = hkey & self._set_mask
            hway = self._tags[hset].get(hkey)
            if hway is not None:
                return self._entries[hset][hway]
        return None

    def _record_hit(self, set_idx: int, way: int, entry: TlbEntry, now: int):
        """Bookkeeping for a hit on a huge entry."""
        self._stat["hits"] += 1
        entry.accessed = True
        if self._lru:
            tags = self._tags[set_idx]
            del tags[entry.vpn]
            tags[entry.vpn] = way
        else:
            self._policy_on_hit(set_idx, way)
        if self.residency is not None:
            self.residency.hit((set_idx, way), now)
        if self.listener is not None:
            self.listener.on_hit(self, entry, now)

    def lookup(self, vpn: int, now: int, asid: int = 0) -> Optional[int]:
        """Translate ``vpn`` under ``asid``. Returns the PFN on a hit
        (including a hit in the listener's victim buffer or a covering
        huge entry) or None on a genuine miss."""
        key = vpn if asid == 0 else (asid << ASID_SHIFT) | vpn
        set_idx = key & self._set_mask
        listener = self.listener
        if listener is not None:
            listener.on_lookup(self, set_idx, now)
        stat = self._stat
        tags = self._tags[set_idx]
        way = tags.get(key)
        if way is not None:
            entry = self._entries[set_idx][way]
            stat["hits"] += 1
            entry.accessed = True
            if self._lru:
                del tags[key]
                tags[key] = way
            else:
                self._policy_on_hit(set_idx, way)
            if self.residency is not None:
                self.residency.hit((set_idx, way), now)
            if listener is not None:
                listener.on_hit(self, entry, now)
            return entry.pfn
        if self._huge_count:
            hkey = HUGE_KEY_BASE | (
                tlb_key(vpn >> HUGE_SPAN_BITS, asid)
            )
            hset = hkey & self._set_mask
            hway = self._tags[hset].get(hkey)
            if hway is not None:
                entry = self._entries[hset][hway]
                self._record_hit(hset, hway, entry, now)
                return entry.pfn + (vpn & _HUGE_OFFSET_MASK)
        stat["misses"] += 1
        if listener is None:
            return None
        buffered = listener.on_miss(self, key, now)
        if buffered is not None:
            stat["victim_buffer_hits"] += 1
        return buffered

    def fill(
        self,
        vpn: int,
        pfn: int,
        pc_hash: int,
        now: int,
        asid: int = 0,
        huge: bool = False,
    ) -> Optional[TlbEntry]:
        """Install a completed translation; returns the evicted entry.

        ``huge`` installs one entry covering ``vpn``'s whole 2 MB region;
        ``pfn`` must then be the region's 512-aligned base frame.
        """
        if huge:
            key = HUGE_KEY_BASE | tlb_key(vpn >> HUGE_SPAN_BITS, asid)
        else:
            key = vpn if asid == 0 else (asid << ASID_SHIFT) | vpn
        set_idx = key & self._set_mask
        tags = self._tags[set_idx]
        if key in tags:
            return None
        listener = self.listener
        distant = False
        if listener is not None:
            decision = listener.on_fill(self, key, pfn, pc_hash, now)
            if decision == FILL_BYPASS:
                self._stat["bypasses"] += 1
                return None
            distant = decision == FILL_DISTANT

        entries = self._entries[set_idx]
        victim: Optional[TlbEntry] = None
        # len(tags) counts valid entries. TlbEntry defines no __eq__, so
        # index() finds the first free way by identity.
        if len(tags) < self.assoc:
            way = entries.index(None)
        else:
            way = None
            if listener is not None:
                way = listener.choose_victim(self, set_idx, entries, now)
            if way is None:
                if self._lru:
                    for lru_key in tags:  # least recently used
                        break
                    way = tags[lru_key]
                else:
                    way = self._policy_victim(set_idx)
            victim = self._evict_way(set_idx, way, now)

        entry = TlbEntry(key, pfn, pc_hash, asid, huge)
        entries[way] = entry
        if huge:
            self._huge_count += 1
        if not self._lru:
            tags[key] = way
            self._policy_on_fill(set_idx, way, distant=distant)
        elif distant:
            insert_lru(tags, key, way)
        else:
            tags[key] = way
        self._stat["fills"] += 1
        if self.residency is not None:
            self.residency.fill((set_idx, way), now)
        if listener is not None:
            listener.filled(self, entry, now)
        return victim

    def invalidate(
        self, vpn: int, now: int, asid: int = 0
    ) -> Optional[TlbEntry]:
        """Shoot down ``vpn`` under ``asid`` (INVLPG semantics).

        Drops the exact 4 KB entry and any covering huge entry for
        ``vpn`` — and invalidates the page-walk caches' partial
        translations for the region when a PWC is attached, so a
        post-shootdown remap cannot resolve through stale paging-structure
        entries. Returns the most specific entry evicted, or None.
        """
        evicted: Optional[TlbEntry] = None
        key = vpn if asid == 0 else (asid << ASID_SHIFT) | vpn
        set_idx = key & self._set_mask
        way = self._tags[set_idx].get(key)
        if way is not None:
            self._stat["invalidations"] += 1
            evicted = self._evict_way(set_idx, way, now, external=True)
        if self._huge_count:
            hkey = HUGE_KEY_BASE | tlb_key(vpn >> HUGE_SPAN_BITS, asid)
            hset = hkey & self._set_mask
            hway = self._tags[hset].get(hkey)
            if hway is not None:
                self._stat["invalidations"] += 1
                entry = self._evict_way(hset, hway, now, external=True)
                evicted = evicted or entry
        if self.pwc is not None:
            self.pwc.invalidate(vpn, asid)
        return evicted

    def invalidate_asid(self, asid: int, now: int) -> int:
        """Shoot down every entry tagged ``asid``; returns the number of
        entries dropped. Also clears the attached PWC's entries for that
        address space (ASID-recycle semantics)."""
        dropped = 0
        for set_idx, ways in enumerate(self._entries):
            for way, entry in enumerate(ways):
                if entry is not None and entry.asid == asid:
                    self._stat["invalidations"] += 1
                    self._evict_way(set_idx, way, now, external=True)
                    dropped += 1
        if self.pwc is not None:
            self.pwc.invalidate_asid(asid)
        return dropped

    def invalidate_all(self, now: int) -> int:
        """Broadcast shootdown: drop every entry and flush the attached
        PWC entirely. Returns entries dropped."""
        dropped = 0
        for set_idx, ways in enumerate(self._entries):
            for way, entry in enumerate(ways):
                if entry is None:
                    continue
                self._stat["invalidations"] += 1
                self._evict_way(set_idx, way, now, external=True)
                dropped += 1
        if self.pwc is not None:
            self.pwc.flush()
        return dropped

    def _evict_way(
        self, set_idx: int, way: int, now: int, external: bool = False
    ) -> TlbEntry:
        entry = self._entries[set_idx][way]
        assert entry is not None
        del self._tags[set_idx][entry.vpn]
        self._entries[set_idx][way] = None
        self._stat["evictions"] += 1
        if entry.huge:
            self._huge_count -= 1
        if self.residency is not None:
            self.residency.evict((set_idx, way), now)
        if external:
            self.policy.on_invalidate(set_idx, way)
        if self.listener is not None:
            self.listener.on_evict(self, entry, now)
        return entry

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def occupancy(self) -> int:
        return sum(len(t) for t in self._tags)

    def resident_vpns(self) -> List[int]:
        return [
            e.vpn for ways in self._entries for e in ways if e is not None
        ]

    def flush_residency(self, now: int) -> None:
        if self.residency is not None:
            self.residency.flush(now)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Tlb({self.name}, entries={self.num_entries}, "
            f"assoc={self.assoc}, policy={self.policy.name()})"
        )
