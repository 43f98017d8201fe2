"""Leeway-style variability-aware reuse prediction [Faldu & Grot, PACT'17].

Faldu's Leeway observes that dead-block prediction with saturating
counters breaks down under *live-distance variability*: one reused
residency resets a counter that dozens of dead residencies trained, so
bursty signatures flap between predictions. Leeway instead tracks the
recent live-distance *distribution* per signature and applies a
variability-tolerant update policy.

This adaptation keeps the idea and the integer-only determinism, applied
to both structures the paper cleans together:

* the **live distance** of a residency is the number of set accesses that
  had elapsed when the entry was last hit — 0 for a dead-on-arrival
  residency (never hit). Each listener counts lookups per set and each
  entry records its set's count at fill time, so a hit reads the
  distance as a difference in O(1) instead of ageing every way of the
  set on every lookup (identical to the eager saturating count, huge
  entries included: they age with their own set);
* per PC signature (fold-XOR hash), a fixed ring of the last
  ``ring_entries`` observed live distances is kept; each eviction shifts
  exactly one slot, so one outlier residency moves the decision boundary
  by one sample instead of resetting it (the variability tolerance);
* at fill time the decision is keyed on a **percentile** of the ring: the
  entry is predicted dead-on-arrival iff at least ``percentile`` percent
  of the signature's recent residencies were DOA (live distance 0).
  Predicted-DOA fills bypass the structure (LLT shadow-less bypass /
  LLC bypass, matching dpPred's ``dppred_sh`` action). Live distances
  are never negative, so that percentile is zero exactly when the ring
  is full and holds more zeros than the percentile's rank: each
  signature keeps its count of zero samples and a ring-full flag,
  updated by the one slot each eviction shifts, and the fill-time
  decision reads them in O(1) instead of sorting the ring.

Bypassed fills produce no eviction and hence no training sample, so a
signature could lock into "dead" forever. Every ``sample_period``-th
predicted-DOA fill is therefore allocated anyway (a *reuse sample*,
Leeway's dueling-sampler analogue made deterministic), re-observing the
signature's behaviour.

Both listeners meet the flat-interpreter contract of
:class:`~repro.predictors.base.PredictorSpec` (hooks touch only their own
state and the entry or line they are handed), so Leeway configs run on the
batched engine's flat interpreter through its generic listener path.
Semantics live here only. Signatures are memoised per PC (a pure
function of the PC, so the memo is not predictor state and
``storage_bits`` does not count it). Each ``on_fill`` runs in one frame:
it reads the memo, makes the O(1) decision, advances the sample streak
and bumps its counters itself; :meth:`_LeewayCore.predicts_doa` and
:meth:`_LeewayCore.should_sample` stay the reference definitions. The
per-set lookup counts are a list, sized to the structure's sets by the
first hook that counts or reads one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.common.bitops import fold_xor
from repro.common.stats import Stats
from repro.mem.cache import FILL_ALLOCATE as CACHE_ALLOCATE
from repro.mem.cache import FILL_BYPASS as CACHE_BYPASS
from repro.mem.cache import CacheLine, CacheListener, SetAssocCache
from repro.obs.events import (
    EV_LLC_BYPASS,
    EV_LLC_VERDICT,
    EV_LLT_BYPASS,
    EV_LLT_VERDICT,
)
from repro.predictors.base import AccessContext
from repro.vm.tlb import FILL_ALLOCATE, FILL_BYPASS, Tlb, TlbEntry, TlbListener


@dataclass(frozen=True)
class LeewayConfig:
    """Leeway knobs.

    ``signature_bits`` — PC fold-XOR width indexing the live-distance
    table. ``ring_entries`` — live-distance samples kept per signature.
    ``percentile`` — the fraction (percent) of recent residencies that
    must be DOA before fills are predicted dead; higher is more
    conservative. ``max_distance`` — live-distance counter saturation
    (8-bit counters by default). ``sample_period`` — every N-th
    predicted-DOA fill is allocated anyway to keep the signature trained.
    """

    signature_bits: int = 8
    ring_entries: int = 8
    percentile: int = 75
    max_distance: int = 255
    sample_period: int = 16

    def validate(self) -> None:
        if self.signature_bits <= 0:
            raise ValueError("signature_bits must be positive")
        if self.ring_entries <= 0:
            raise ValueError("ring_entries must be positive")
        if not 1 <= self.percentile <= 100:
            raise ValueError(
                f"percentile must be in [1, 100], got {self.percentile}"
            )
        if self.max_distance <= 0:
            raise ValueError("max_distance must be positive")
        if self.sample_period <= 1:
            raise ValueError("sample_period must be > 1")


class _LeewayState:
    """Per-entry metadata: signature + live-distance bookkeeping."""

    __slots__ = ("sig", "base", "live")

    def __init__(self, sig: int):
        self.sig = sig
        self.base = 0     # the set's lookup count when the entry was filled
        self.live = 0     # set accesses since fill at the most recent hit
        #                   (0 = DOA so far), saturating at max_distance


class _LeewayCore:
    """Per-signature live-distance rings + the percentile decision rule."""

    def __init__(self, config: LeewayConfig = LeewayConfig()):
        config.validate()
        self.config = config
        rows = 1 << config.signature_bits
        n = config.ring_entries
        # ring value -1 = never trained; rings fill before predicting.
        self._rings: List[List[int]] = [[-1] * n for _ in range(rows)]
        self._cursor: List[int] = [0] * rows
        # Per signature: DOA (zero) samples in the ring, and whether
        # every slot has been trained (the cursor has wrapped once).
        self._zeros: List[int] = [0] * rows
        self._full: List[bool] = [False] * rows
        self._bypass_streak: List[int] = [0] * rows
        # Index of the smallest sample that must still be > 0 for the
        # signature to be predicted live: with n samples, at least
        # ceil(n * percentile / 100) of them must be DOA to predict DOA.
        self._rank = (n * config.percentile + 99) // 100 - 1
        self._signatures: Dict[int, int] = {}  # pc -> signature memo
        self.stats = Stats()

    def signature(self, pc: int) -> int:
        sig = self._signatures.get(pc)
        if sig is None:
            sig = self._signatures[pc] = fold_xor(
                pc, self.config.signature_bits
            )
        return sig

    def on_entry_hit(self, state: _LeewayState, set_lookups: int) -> None:
        """A hit: record the set accesses since the fill, saturating."""
        distance = set_lookups - state.base
        cap = self.config.max_distance
        state.live = distance if distance < cap else cap

    def predicts_doa(self, sig: int) -> bool:
        """The ring's ``percentile``-th smallest sample is 0. A ring not
        yet full never predicts (cold signatures allocate)."""
        return self._full[sig] and self._zeros[sig] > self._rank

    def should_sample(self, sig: int) -> bool:
        """Deterministic reuse sampling: allocate every N-th predicted-DOA
        fill of a signature so bypassing cannot starve its training."""
        streak = self._bypass_streak[sig] + 1
        if streak >= self.config.sample_period:
            self._bypass_streak[sig] = 0
            return True
        self._bypass_streak[sig] = streak
        return False

    def train_eviction(self, state: _LeewayState) -> None:
        sig = state.sig
        ring = self._rings[sig]
        cur = self._cursor[sig]
        live = state.live
        zeros = self._zeros[sig] + (live == 0) - (ring[cur] == 0)
        self._zeros[sig] = zeros
        ring[cur] = live
        cur += 1
        if cur == len(ring):
            cur = 0
            self._full[sig] = True
        self._cursor[sig] = cur
        self.stats.add("trainings")

    def storage_bits(self, num_entries: int) -> int:
        """Ring table + per-entry signature, age and live-distance."""
        cell_bits = 8  # live distances saturate at max_distance (8-bit)
        table = len(self._rings) * self.config.ring_entries * cell_bits
        per_entry = (self.config.signature_bits + 2 * cell_bits) * num_entries
        return table + per_entry


def _sized(listener, structure) -> List[int]:
    """``listener``'s per-set lookup counts, sized to ``structure``'s sets
    (its first hook that counts or reads one)."""
    listener._set_lookups = lookups = [0] * structure.num_sets
    return lookups


class LeewayTlbPredictor(TlbListener):
    """Leeway applied to the LLT: variability-aware dead-page bypass."""

    def __init__(
        self,
        config: LeewayConfig = LeewayConfig(),
        context: Optional[AccessContext] = None,
        prediction_observer: Optional[Callable[[int, bool], None]] = None,
    ):
        self.core = _LeewayCore(config)
        self.context = context  # unused: the LLT fill carries the PC
        self.prediction_observer = prediction_observer
        self.stats = Stats()
        self.probe = None
        self._pending: Optional[_LeewayState] = None
        # Lookups per set (an entry's set is ``entry.vpn & _set_mask``).
        self._set_lookups: List[int] = []

    def on_lookup(self, tlb: Tlb, set_idx: int, now: int) -> None:
        (self._set_lookups or _sized(self, tlb))[set_idx] += 1

    def on_hit(self, tlb: Tlb, entry: TlbEntry, now: int) -> None:
        if entry.aux is not None:
            self.core.on_entry_hit(
                entry.aux, self._set_lookups[entry.vpn & tlb._set_mask]
            )

    def on_fill(self, tlb: Tlb, vpn: int, pfn: int, pc: int, now: int) -> str:
        core = self.core
        sig = core._signatures.get(pc)
        if sig is None:
            sig = core.signature(pc)
        # core.predicts_doa(sig)
        predicted_doa = core._full[sig] and core._zeros[sig] > core._rank
        if self.prediction_observer is not None:
            self.prediction_observer(vpn, predicted_doa)
        if predicted_doa:
            # core.should_sample(sig)
            streaks = core._bypass_streak
            streak = streaks[sig] + 1
            counters = self.stats.counters
            if streak >= core.config.sample_period:
                streaks[sig] = 0
                counters["sampled_allocations"] = (
                    counters.get("sampled_allocations", 0) + 1
                )
            else:
                streaks[sig] = streak
                counters["doa_predictions"] = (
                    counters.get("doa_predictions", 0) + 1
                )
                if self.probe is not None:
                    self.probe.emit(now, EV_LLT_BYPASS, vpn, pfn)
                self._pending = None
                return FILL_BYPASS
        self._pending = _LeewayState(sig)
        return FILL_ALLOCATE

    def filled(self, tlb: Tlb, entry: TlbEntry, now: int) -> None:
        state = self._pending
        state.base = (self._set_lookups or _sized(self, tlb))[
            entry.vpn & tlb._set_mask
        ]
        entry.aux = state
        self._pending = None

    def on_evict(self, tlb: Tlb, entry: TlbEntry, now: int) -> None:
        if entry.aux is None:
            return
        self.core.train_eviction(entry.aux)
        if self.probe is not None:
            self.probe.emit(
                now, EV_LLT_VERDICT, entry.vpn, False, not entry.accessed
            )

    def storage_bits(self, llt_entries: int) -> int:
        return self.core.storage_bits(llt_entries)


class LeewayCachePredictor(CacheListener):
    """Leeway applied to the LLC: variability-aware dead-block bypass."""

    def __init__(
        self,
        config: LeewayConfig = LeewayConfig(),
        context: Optional[AccessContext] = None,
        prediction_observer: Optional[Callable[[int, bool], None]] = None,
    ):
        if context is None:
            raise ValueError(
                "LeewayCachePredictor needs the machine's AccessContext "
                "(block addresses carry no PC)"
            )
        self.core = _LeewayCore(config)
        self.context = context
        self.prediction_observer = prediction_observer
        self.stats = Stats()
        self.probe = None
        self._pending: Optional[_LeewayState] = None
        # Lookups per set (a line's set is ``line.tag & _set_mask``).
        self._set_lookups: List[int] = []

    def on_lookup(self, cache: SetAssocCache, set_idx: int, now: int) -> None:
        (self._set_lookups or _sized(self, cache))[set_idx] += 1

    def on_hit(self, cache: SetAssocCache, line: CacheLine, now: int) -> None:
        if line.aux is not None:
            self.core.on_entry_hit(
                line.aux, self._set_lookups[line.tag & cache._set_mask]
            )

    def on_fill(self, cache: SetAssocCache, block: int, now: int) -> str:
        core = self.core
        pc = self.context.pc
        sig = core._signatures.get(pc)
        if sig is None:
            sig = core.signature(pc)
        # core.predicts_doa(sig)
        predicted_doa = core._full[sig] and core._zeros[sig] > core._rank
        if self.prediction_observer is not None:
            self.prediction_observer(block, predicted_doa)
        if predicted_doa:
            # core.should_sample(sig)
            streaks = core._bypass_streak
            streak = streaks[sig] + 1
            counters = self.stats.counters
            if streak >= core.config.sample_period:
                streaks[sig] = 0
                counters["sampled_allocations"] = (
                    counters.get("sampled_allocations", 0) + 1
                )
            else:
                streaks[sig] = streak
                counters["doa_predictions"] = (
                    counters.get("doa_predictions", 0) + 1
                )
                if self.probe is not None:
                    self.probe.emit(now, EV_LLC_BYPASS, block)
                self._pending = None
                return CACHE_BYPASS
        self._pending = _LeewayState(sig)
        return CACHE_ALLOCATE

    def filled(self, cache: SetAssocCache, line: CacheLine, now: int) -> None:
        state = self._pending
        state.base = (self._set_lookups or _sized(self, cache))[
            line.tag & cache._set_mask
        ]
        line.aux = state
        self._pending = None

    def on_evict(self, cache: SetAssocCache, line: CacheLine, now: int) -> None:
        if line.aux is None:
            return
        self.core.train_eviction(line.aux)
        if self.probe is not None:
            self.probe.emit(
                now, EV_LLC_VERDICT, line.tag, False, not line.accessed
            )

    def storage_bits(self, llc_blocks: int) -> int:
        return self.core.storage_bits(llc_blocks)
