"""SHiP — Signature-based Hit Predictor [Wu et al., MICRO'11].

The evaluation's main cache-side baseline, applied both to the LLC
(SHiP-LLC) and, adapted, to the LLT (SHiP-TLB). SHiP associates a PC
signature with every filled entry plus an outcome bit; a Signature History
Counter Table (SHCT) of saturating counters learns whether fills by a
signature tend to be re-referenced:

* on a **hit**: set the entry's outcome bit and increment SHCT[sig];
* on an **eviction** with the outcome bit clear: decrement SHCT[sig];
* on a **fill**: SHCT[sig] == 0 predicts a *distant* re-reference.

The paper adapts SHiP to the baseline LRU structures by inserting
predicted-distant entries at the LRU position ("we adapt SHiP to mark
entries predicted to have distant re-reference as LRU"), and configures
SHiP-TLB "to use similar storage as dpPred, indexing with an 8-bit hash of
the PC".

Each fill computes its signature once and hands it to ``filled`` for
the entry's metadata.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.common.bitops import fold_xor
from repro.common.counters import CounterArray
from repro.common.stats import Stats
from repro.mem.cache import (
    FILL_ALLOCATE,
    FILL_DISTANT,
    CacheLine,
    CacheListener,
    SetAssocCache,
)
from repro.predictors.base import AccessContext
from repro.vm.tlb import Tlb, TlbEntry, TlbListener
from repro.vm.tlb import FILL_ALLOCATE as TLB_ALLOCATE
from repro.vm.tlb import FILL_DISTANT as TLB_DISTANT


@dataclass(frozen=True)
class ShipConfig:
    """SHiP knobs.

    ``signature_bits`` — PC-hash width indexing the SHCT (paper: 8 for the
    TLB variant; 14 is the original SHiP-PC's LLC configuration).
    ``counter_bits`` — SHCT counter width (original SHiP uses 2 or 3 bits).
    ``train_on_fill`` — original SHiP initialises mid-range; we start
    counters at the weakly-reusable value so cold signatures are not
    predicted distant immediately.
    """

    signature_bits: int = 14
    counter_bits: int = 2
    initial_counter: int = 1


class _ShipCore:
    """Signature table shared by the TLB and LLC front-ends."""

    def __init__(self, config: ShipConfig):
        if not 0 <= config.initial_counter < (1 << config.counter_bits):
            raise ValueError("initial_counter out of counter range")
        self.config = config
        self.shct = CounterArray(
            1 << config.signature_bits,
            config.counter_bits,
            initial=config.initial_counter,
        )
        self.stats = Stats()

    def signature(self, pc: int) -> int:
        return fold_xor(pc, self.config.signature_bits)

    def predicts_distant(self, sig: int) -> bool:
        return self.shct.get(sig) == 0

    def train_hit(self, sig: int) -> None:
        self.shct.increment(sig)
        self.stats.add("hit_trainings")

    def train_dead_eviction(self, sig: int) -> None:
        self.shct.decrement(sig)
        self.stats.add("dead_trainings")

    def storage_bits(self, num_entries: int) -> int:
        """SHCT plus a per-entry signature and outcome bit."""
        table = len(self.shct) * self.config.counter_bits
        per_entry = (self.config.signature_bits + 1) * num_entries
        return table + per_entry


class ShipTlbPredictor(TlbListener):
    """SHiP adapted to the LLT (SHiP-TLB)."""

    def __init__(
        self,
        config: ShipConfig = ShipConfig(signature_bits=8),
        prediction_observer: Optional[Callable[[int, bool], None]] = None,
    ):
        self.core = _ShipCore(config)
        self.prediction_observer = prediction_observer
        self.stats = Stats()
        self._pending: Optional[int] = None  # the filling entry's signature

    def on_fill(self, tlb: Tlb, vpn: int, pfn: int, pc_hash: int, now: int) -> str:
        # The machine passes the *full PC* as pc_hash for SHiP runs; the
        # signature uses SHiP's own width.
        sig = self._pending = self.core.signature(pc_hash)
        distant = self.core.predicts_distant(sig)
        if self.prediction_observer is not None:
            self.prediction_observer(vpn, distant)
        if distant:
            self.stats.add("distant_predictions")
            return TLB_DISTANT
        return TLB_ALLOCATE

    def filled(self, tlb: Tlb, entry: TlbEntry, now: int) -> None:
        entry.aux = self._pending
        self._pending = None

    def on_hit(self, tlb: Tlb, entry: TlbEntry, now: int) -> None:
        if entry.aux is not None:
            self.core.train_hit(entry.aux)

    def on_evict(self, tlb: Tlb, entry: TlbEntry, now: int) -> None:
        if entry.aux is not None and not entry.accessed:
            self.core.train_dead_eviction(entry.aux)

    def storage_bits(self, llt_entries: int) -> int:
        return self.core.storage_bits(llt_entries)


class ShipCachePredictor(CacheListener):
    """SHiP-PC on the LLC (SHiP-LLC)."""

    def __init__(
        self,
        context: AccessContext,
        config: ShipConfig = ShipConfig(signature_bits=14),
        prediction_observer: Optional[Callable[[int, bool], None]] = None,
    ):
        self.core = _ShipCore(config)
        self.context = context
        self.prediction_observer = prediction_observer
        self.stats = Stats()
        self._pending: Optional[int] = None  # the filling line's signature

    def on_fill(self, cache: SetAssocCache, block: int, now: int) -> str:
        sig = self._pending = self.core.signature(self.context.pc)
        distant = self.core.predicts_distant(sig)
        if self.prediction_observer is not None:
            self.prediction_observer(block, distant)
        if distant:
            self.stats.add("distant_predictions")
            return FILL_DISTANT
        return FILL_ALLOCATE

    def filled(self, cache: SetAssocCache, line: CacheLine, now: int) -> None:
        line.aux = self._pending
        self._pending = None

    def on_hit(self, cache: SetAssocCache, line: CacheLine, now: int) -> None:
        if line.aux is not None:
            self.core.train_hit(line.aux)

    def on_evict(self, cache: SetAssocCache, line: CacheLine, now: int) -> None:
        if line.aux is not None and not line.accessed:
            self.core.train_dead_eviction(line.aux)

    def storage_bits(self, llc_blocks: int) -> int:
        return self.core.storage_bits(llc_blocks)
