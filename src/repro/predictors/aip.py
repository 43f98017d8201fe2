"""AIP — the Access Interval Predictor [Kharbutli & Solihin, ICCD'05].

The evaluation's second baseline, applied to the LLC (AIP-LLC) and to the
LLT (AIP-TLB). AIP learns, per (hashed PC, hashed address), the maximum
number of *set accesses* that elapse between two consecutive accesses to an
entry while it is live. Once an entry's interval counter exceeds its
learned threshold (with a confirmed/confident learning bit), the entry is
predicted dead and prioritised for victimisation.

Design notes mirroring the original proposal and the paper's setup:

* the history table is two-dimensional, ``256 x 256`` by default ("since it
  needs 21 bits with every TLB entry, we use the default 256x256
  two-dimensional history table");
* a *confidence* bit is set only when the same maximum interval is observed
  in two consecutive generations, gating predictions;
* AIP predicts death *after* an entry has been resident and accessed — it
  was built for non-DOA dead blocks, which is precisely why the paper finds
  it nearly useless on LLTs where dead entries are dominated by DOAs.

An entry's interval counter counts the accesses to its set since its fill
or its last hit, saturating at ``max_interval``. Each listener counts
lookups per set, and each entry snapshots its set's count at fill and at
every hit, so the counter is ``min(max_interval, set count - snapshot)``
— read in O(1) where it is needed (a hit, a victim choice) instead of
ageing every way of the set on every lookup. Huge LLT entries age with
their own set. An entry's confidence is fixed at fill, so each listener
also counts its resident confident entries per set, and a victim choice
in a set that holds none returns at once instead of scanning the ways.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.common.bitops import fold_xor
from repro.common.stats import Stats
from repro.mem.cache import CacheLine, CacheListener, SetAssocCache
from repro.predictors.base import AccessContext
from repro.vm.tlb import Tlb, TlbEntry, TlbListener


@dataclass(frozen=True)
class AipConfig:
    """AIP knobs (defaults per the paper's Section VI-A)."""

    pc_hash_bits: int = 8
    addr_hash_bits: int = 8
    max_interval: int = 4095  # 12-bit interval counters
    #: Extra slack added to the learned interval before declaring death.
    margin: int = 1


class _AipState:
    """Per-entry AIP metadata (the '21 bits with every TLB entry')."""

    __slots__ = (
        "pc_h", "addr_h", "base", "max_seen", "hits", "threshold", "confident"
    )

    def __init__(self, pc_h: int, addr_h: int, threshold: int, confident: bool):
        self.pc_h = pc_h
        self.addr_h = addr_h
        self.base = 0  # the set's lookup count at fill or at the last hit
        self.max_seen = 0
        self.hits = 0
        self.threshold = threshold
        self.confident = confident


class _AipCore:
    """History table + training rules shared by the TLB and LLC variants."""

    def __init__(self, config: AipConfig = AipConfig()):
        self.config = config
        rows = 1 << config.pc_hash_bits
        cols = 1 << config.addr_hash_bits
        self._cols = cols
        # (interval, confident) per table cell; -1 interval = never trained.
        self._intervals: List[int] = [-1] * (rows * cols)
        self._confident: List[bool] = [False] * (rows * cols)
        self.stats = Stats()

    def _index(self, pc_h: int, addr_h: int) -> int:
        return pc_h * self._cols + addr_h

    def new_state(self, pc: int, addr: int, set_lookups: int = 0) -> _AipState:
        """State for an entry filled when its set had seen
        ``set_lookups`` lookups."""
        pc_h = fold_xor(pc, self.config.pc_hash_bits)
        addr_h = fold_xor(addr, self.config.addr_hash_bits)
        idx = self._index(pc_h, addr_h)
        state = _AipState(
            pc_h, addr_h, self._intervals[idx], self._confident[idx]
        )
        state.base = set_lookups
        return state

    def interval(self, state: _AipState, set_lookups: int) -> int:
        """The entry's interval counter: set accesses since its fill or
        last hit, saturating at ``max_interval``."""
        elapsed = set_lookups - state.base
        cap = self.config.max_interval
        return elapsed if elapsed < cap else cap

    def on_entry_hit(self, state: _AipState, set_lookups: int) -> None:
        count = self.interval(state, set_lookups)
        if count > state.max_seen:
            state.max_seen = count
        state.base = set_lookups  # the interval count restarts
        state.hits += 1

    def is_dead(self, state: _AipState, set_lookups: int) -> bool:
        """Predicted dead: learned, confident, and the interval expired."""
        return (
            state.confident
            and state.threshold >= 0
            and self.interval(state, set_lookups)
            > state.threshold + self.config.margin
        )

    def train_eviction(self, state: _AipState) -> None:
        """Store the generation's observed max interval; confirm if stable.

        An entry with zero hits produced *no interval sample* — AIP learns
        nothing from it. This is the crux of why AIP is ineffective on the
        LLT (Section IV-C): dead-on-arrival entries never train it.
        """
        if state.hits == 0:
            self.stats.add("untrainable_doa_evictions")
            return
        idx = self._index(state.pc_h, state.addr_h)
        old = self._intervals[idx]
        self._confident[idx] = old == state.max_seen and old >= 0
        self._intervals[idx] = state.max_seen
        self.stats.add("trainings")

    def storage_bits(self, num_entries: int, per_entry_bits: int = 21) -> int:
        """History table (interval + confidence per cell) + per-entry state."""
        cell_bits = 12 + 1
        return len(self._intervals) * cell_bits + num_entries * per_entry_bits


class AipTlbPredictor(TlbListener):
    """AIP applied to the LLT (AIP-TLB)."""

    def __init__(
        self,
        config: AipConfig = AipConfig(),
        prediction_observer: Optional[Callable[[int, bool], None]] = None,
    ):
        self.core = _AipCore(config)
        self.prediction_observer = prediction_observer
        self.stats = Stats()
        self._pending: Optional[_AipState] = None
        # Lookups per set (an entry's set is ``entry.vpn & _set_mask``).
        self._set_lookups = defaultdict(int)
        # Resident confident entries per set: a set without one has no
        # dead victim to offer.
        self._confident = defaultdict(int)

    def on_lookup(self, tlb: Tlb, set_idx: int, now: int) -> None:
        self._set_lookups[set_idx] += 1

    def on_hit(self, tlb: Tlb, entry: TlbEntry, now: int) -> None:
        if entry.aux is not None:
            self.core.on_entry_hit(
                entry.aux, self._set_lookups[entry.vpn & tlb._set_mask]
            )

    def on_fill(self, tlb: Tlb, vpn: int, pfn: int, pc: int, now: int) -> str:
        self._pending = self.core.new_state(
            pc, vpn, self._set_lookups[vpn & tlb._set_mask]
        )
        if self.prediction_observer is not None:
            # AIP makes no fill-time DOA prediction; observers record the
            # non-prediction so coverage reflects its blindness to DOAs.
            self.prediction_observer(vpn, False)
        return "allocate"

    def filled(self, tlb: Tlb, entry: TlbEntry, now: int) -> None:
        state = entry.aux = self._pending
        self._pending = None
        if state.confident:
            self._confident[entry.vpn & tlb._set_mask] += 1

    def on_evict(self, tlb: Tlb, entry: TlbEntry, now: int) -> None:
        state = entry.aux
        if state is not None:
            if state.confident:
                self._confident[entry.vpn & tlb._set_mask] -= 1
            self.core.train_eviction(state)

    def choose_victim(self, tlb: Tlb, set_idx: int, entries, now: int):
        if not self._confident[set_idx]:
            return None
        is_dead = self.core.is_dead
        set_lookups = self._set_lookups[set_idx]
        for way, entry in enumerate(entries):
            # ``is_dead``'s first test is hoisted: few entries are
            # confident, and most sets hold none.
            if (
                entry is not None
                and entry.aux is not None
                and entry.aux.confident
                and is_dead(entry.aux, set_lookups)
            ):
                self.stats.add("dead_victimisations")
                return way
        return None

    def storage_bits(self, llt_entries: int) -> int:
        return self.core.storage_bits(llt_entries)


class AipCachePredictor(CacheListener):
    """AIP applied to the LLC (AIP-LLC)."""

    def __init__(
        self,
        context: AccessContext,
        config: AipConfig = AipConfig(),
        prediction_observer: Optional[Callable[[int, bool], None]] = None,
    ):
        self.core = _AipCore(config)
        self.context = context
        self.prediction_observer = prediction_observer
        self.stats = Stats()
        self._pending: Optional[_AipState] = None
        # Lookups per set (a line's set is ``line.tag & _set_mask``).
        self._set_lookups = defaultdict(int)
        # Resident confident lines per set (see AipTlbPredictor).
        self._confident = defaultdict(int)

    def on_lookup(self, cache: SetAssocCache, set_idx: int, now: int) -> None:
        self._set_lookups[set_idx] += 1

    def on_hit(self, cache: SetAssocCache, line: CacheLine, now: int) -> None:
        if line.aux is not None:
            self.core.on_entry_hit(
                line.aux, self._set_lookups[line.tag & cache._set_mask]
            )

    def on_fill(self, cache: SetAssocCache, block: int, now: int) -> str:
        self._pending = self.core.new_state(
            self.context.pc, block, self._set_lookups[block & cache._set_mask]
        )
        if self.prediction_observer is not None:
            self.prediction_observer(block, False)
        return "allocate"

    def filled(self, cache: SetAssocCache, line: CacheLine, now: int) -> None:
        state = line.aux = self._pending
        self._pending = None
        if state.confident:
            self._confident[line.tag & cache._set_mask] += 1

    def on_evict(self, cache: SetAssocCache, line: CacheLine, now: int) -> None:
        state = line.aux
        if state is not None:
            if state.confident:
                self._confident[line.tag & cache._set_mask] -= 1
            self.core.train_eviction(state)

    def choose_victim(self, cache: SetAssocCache, set_idx: int, lines, now: int):
        if not self._confident[set_idx]:
            return None
        is_dead = self.core.is_dead
        set_lookups = self._set_lookups[set_idx]
        for way, line in enumerate(lines):
            # ``is_dead``'s first test is hoisted: few entries are
            # confident, and most sets hold none.
            if (
                line is not None
                and line.aux is not None
                and line.aux.confident
                and is_dead(line.aux, set_lookups)
            ):
                self.stats.add("dead_victimisations")
                return way
        return None

    def storage_bits(self, llc_blocks: int) -> int:
        return self.core.storage_bits(llc_blocks)
