"""A generic set-associative cache with predictor hooks.

This models one level of the data-cache hierarchy (L1D, L2, or the LLC).
Addresses handed to the cache are *block* addresses (physical address with
the block-offset bits already stripped). The cache supports:

* pluggable replacement (see :mod:`repro.mem.replacement`),
* a predictor attached via :class:`CacheListener` that can observe hits,
  evictions, and fills, bypass an incoming block, or demote an insertion to
  the distant/LRU position (how SHiP is adapted here),
* inclusion support (external invalidation, victim reporting),
* residency tracking for the Figure 3/4 deadness characterisation.
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


class CacheLine:
    """One cache line's bookkeeping state.

    ``accessed`` and ``dp`` are the two per-block bits cbPred adds to the
    LLC (Section V-B); ``aux`` is a free slot for baseline predictors
    (e.g. SHiP signatures, AIP counters).
    """

    __slots__ = ("tag", "dirty", "accessed", "dp", "aux")

    def __init__(self, tag: int, dirty: bool):
        self.tag = tag
        self.dirty = dirty
        self.accessed = False
        self.dp = False
        self.aux = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"CacheLine(tag={self.tag:#x}, dirty={self.dirty}, "
            f"accessed={self.accessed}, dp={self.dp})"
        )


class CacheListener:
    """Predictor-side hooks. The default implementation is a no-op."""

    def on_lookup(self, cache: "SetAssocCache", set_idx: int, now: int) -> None:
        """Any lookup touched ``set_idx`` (hit or miss). Used by interval-
        counting predictors such as AIP."""

    def on_hit(self, cache: "SetAssocCache", line: CacheLine, now: int) -> None:
        """A lookup hit ``line``."""

    def on_fill(self, cache: "SetAssocCache", block: int, now: int) -> str:
        """An incoming block is about to be installed.

        Returns one of ``"allocate"``, ``"bypass"``, ``"distant"``.
        """
        return "allocate"

    def filled(self, cache: "SetAssocCache", line: CacheLine, now: int) -> None:
        """``line`` was installed (not called on bypass)."""

    def on_evict(self, cache: "SetAssocCache", line: CacheLine, now: int) -> None:
        """``line`` is being evicted (training opportunity)."""

    def choose_victim(
        self, cache: "SetAssocCache", set_idx: int, lines: list, now: int
    ) -> Optional[int]:
        """Override victim selection for a full set.

        Return a way index to evict it instead of the replacement policy's
        choice, or None to defer to the policy. Used by predictors that
        *prioritise predicted-dead entries for victimisation* (e.g. AIP).
        """
        return None


FILL_ALLOCATE = "allocate"
FILL_BYPASS = "bypass"
FILL_DISTANT = "distant"


class SetAssocCache:
    """Set-associative cache keyed by block address."""

    def __init__(
        self,
        name: str,
        num_sets: int,
        assoc: int,
        policy: str = "lru",
        listener: Optional[CacheListener] = None,
        track_residency: bool = False,
    ):
        if not is_power_of_two(num_sets):
            raise ValueError(f"num_sets must be a power of two, got {num_sets}")
        if assoc <= 0:
            raise ValueError(f"assoc must be positive, got {assoc}")
        self.name = name
        self.num_sets = num_sets
        self.assoc = assoc
        self._set_mask = num_sets - 1
        self.policy: ReplacementPolicy = make_policy(policy, num_sets, assoc)
        # None (the common, predictor-less case) lets the access path skip
        # listener dispatch entirely instead of calling no-op hooks.
        self.listener = listener
        self._lines: List[List[Optional[CacheLine]]] = [
            [None] * assoc for _ in range(num_sets)
        ]
        self._tags: List[Dict[int, int]] = [dict() for _ in range(num_sets)]
        self.stats = Stats()
        # Hot-path alias: the live counter dict (bumped inline — a Stats
        # method call per event is measurable at millions of events).
        # Counters are pre-seeded so bumps are plain `+= 1`, no .get().
        self._stat = self.stats.counters
        self._stat.update(dict.fromkeys(
            ("hits", "misses", "fills", "evictions", "writebacks",
             "bypasses", "invalidations"), 0,
        ))
        # LRU (the default everywhere) never calls the policy: each set's
        # tag dict is kept in recency order, least recent first. A hit
        # moves its key to the end (del + re-insert), a fill appends, a
        # distant fill goes to the front, and the victim is the first
        # key. All are O(1) except the distant insertion, an O(assoc)
        # rebuild (see insert_lru) that SHiP requests on most fills.
        # Other policies get their hooks bound once (the policy never
        # changes after construction).
        self._lru = type(self.policy) is LruPolicy
        if not self._lru:
            self._policy_on_hit = self.policy.on_hit
            self._policy_on_fill = self.policy.on_fill
            self._policy_victim = self.policy.victim
        self.residency: Optional[ResidencyTracker] = (
            ResidencyTracker() if track_residency else None
        )

    # ------------------------------------------------------------------ #
    # Geometry helpers
    # ------------------------------------------------------------------ #
    @property
    def capacity_blocks(self) -> int:
        return self.num_sets * self.assoc

    def set_index(self, block: int) -> int:
        return block & self._set_mask

    # ------------------------------------------------------------------ #
    # Access path
    # ------------------------------------------------------------------ #
    def probe(self, block: int) -> Optional[CacheLine]:
        """Tag check with no side effects (no promotion, no stats)."""
        set_idx = block & self._set_mask
        way = self._tags[set_idx].get(block)
        if way is None:
            return None
        return self._lines[set_idx][way]

    def lookup(self, block: int, now: int, is_write: bool = False) -> bool:
        """Full lookup: promotes on hit, updates stats and residency.

        Returns True on hit. Misses do *not* allocate; callers fill
        explicitly after fetching from the next level, which is where the
        bypass decision belongs.
        """
        set_idx = block & self._set_mask
        listener = self.listener
        if listener is not None:
            listener.on_lookup(self, set_idx, now)
        stat = self._stat
        tags = self._tags[set_idx]
        way = tags.get(block)
        if way is None:
            stat["misses"] += 1
            return False
        line = self._lines[set_idx][way]
        stat["hits"] += 1
        line.accessed = True
        if is_write:
            line.dirty = True
        if self._lru:
            del tags[block]
            tags[block] = way
        else:
            self._policy_on_hit(set_idx, way)
        if self.residency is not None:
            self.residency.hit((set_idx, way), now)
        if listener is not None:
            listener.on_hit(self, line, now)
        return True

    def fill(
        self, block: int, now: int, is_write: bool = False
    ) -> Optional[CacheLine]:
        """Install ``block``; returns the evicted line, if any.

        The listener may bypass the fill entirely (returns None, counts a
        bypass) or request distant insertion. Filling a block that is
        already present is a no-op (can happen with a victim-buffer race).
        """
        set_idx = block & self._set_mask
        tags = self._tags[set_idx]
        if block in tags:
            return None
        listener = self.listener
        distant = False
        if listener is not None:
            decision = listener.on_fill(self, block, now)
            if decision == FILL_BYPASS:
                self._stat["bypasses"] += 1
                return None
            distant = decision == FILL_DISTANT

        lines = self._lines[set_idx]
        victim_line: Optional[CacheLine] = None
        # len(tags) counts the set's valid lines. CacheLine defines no
        # __eq__, so index() finds the first free way by identity.
        if len(tags) < self.assoc:
            way = lines.index(None)
        else:
            way = None
            if listener is not None:
                way = listener.choose_victim(self, set_idx, lines, now)
            if way is None:
                if self._lru:
                    for key in tags:  # least recently used
                        break
                    way = tags[key]
                else:
                    way = self._policy_victim(set_idx)
            victim_line = self._evict_way(set_idx, way, now)

        line = CacheLine(block, is_write)
        lines[way] = line
        if not self._lru:
            tags[block] = way
            self._policy_on_fill(set_idx, way, distant=distant)
        elif distant:
            insert_lru(tags, block, way)
        else:
            tags[block] = way
        self._stat["fills"] += 1
        if self.residency is not None:
            self.residency.fill((set_idx, way), now)
        if listener is not None:
            listener.filled(self, line, now)
        return victim_line

    def invalidate(self, block: int, now: int) -> Optional[CacheLine]:
        """Remove ``block`` (inclusion victim from an outer level)."""
        set_idx = block & self._set_mask
        way = self._tags[set_idx].get(block)
        if way is None:
            return None
        self._stat["invalidations"] += 1
        return self._evict_way(set_idx, way, now, external=True)

    def _evict_way(
        self, set_idx: int, way: int, now: int, external: bool = False
    ) -> CacheLine:
        line = self._lines[set_idx][way]
        assert line is not None
        del self._tags[set_idx][line.tag]
        self._lines[set_idx][way] = None
        stat = self._stat
        stat["evictions"] += 1
        if line.dirty:
            stat["writebacks"] += 1
        if self.residency is not None:
            self.residency.evict((set_idx, way), now)
        if external:
            self.policy.on_invalidate(set_idx, way)
        if self.listener is not None:
            self.listener.on_evict(self, line, now)
        return line

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def resident_blocks(self) -> List[int]:
        """All block addresses currently cached (test/inspection helper)."""
        return [
            line.tag
            for ways in self._lines
            for line in ways
            if line is not None
        ]

    def occupancy(self) -> int:
        return sum(len(t) for t in self._tags)

    def flush_residency(self, now: int) -> None:
        """Close out live residencies at end of simulation."""
        if self.residency is not None:
            self.residency.flush(now)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"SetAssocCache({self.name}, sets={self.num_sets}, "
            f"assoc={self.assoc}, policy={self.policy.name()})"
        )
