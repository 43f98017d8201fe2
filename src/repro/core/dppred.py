"""dpPred — the dead-page (DOA) predictor for the last-level TLB.

Implements Section V-A faithfully:

* **LLT lookup** (Figure 6a): a hit sets the entry's ``Accessed`` bit (done
  by :class:`~repro.vm.tlb.Tlb`). On a miss the shadow table is consulted;
  a match returns the translation (walk avoided), refills the LLT, removes
  the shadow entry, and flushes the pHIST column for h(VPN) — negative
  feedback for the detected misprediction.
* **LLT fill** (Figure 6b): pHIST is indexed with (h(PC) from the MSHR,
  h(VPN)); a counter above the threshold (default 6) predicts DOA: the
  translation bypasses the LLT into the shadow table's victim entry, and
  the PFN is forwarded to the LLC's PFQ (cbPred coupling).
* **LLT eviction** (Figure 6c): if the ``Accessed`` bit is set the pHIST
  counter is cleared (not DOA); otherwise it is incremented (true DOA).

The ``dpPred-SH`` ablation of Table VI (shadow table disabled) is the
``shadow_entries=0`` configuration: bypasses still happen but there is no
victim buffer and no negative feedback.

NOTE: the batched engine's flat interpreter
(:class:`repro.sim.engine._FlatStepper`) inlines the hot paths of
:meth:`DeadPagePredictor.on_fill`, :meth:`on_evict`, and the shadow-miss
branch of :meth:`on_miss` — stat names, event order, and table indexing
included. Changes here must be made there too;
``tests/test_engine_equivalence.py`` enforces the bit-identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.common.stats import Stats
from repro.core.hashing import pc_hash, vpn_hash
from repro.obs.events import (
    EV_LLT_BYPASS,
    EV_LLT_DEMOTE,
    EV_LLT_VERDICT,
    EV_PFQ_PUSH,
    EV_SHADOW_HIT,
    EV_SHADOW_PROMOTE,
)
from repro.core.phist import PageHistoryTable
from repro.core.shadow import ShadowTable
from repro.vm.tlb import (
    FILL_ALLOCATE,
    FILL_BYPASS,
    FILL_DISTANT,
    Tlb,
    TlbEntry,
    TlbListener,
)


#: Predicted-DOA pages are not allocated at all (the paper's design).
ACTION_BYPASS = "bypass"
#: Ablation: allocate predicted-DOA pages at the LRU position instead.
ACTION_DEMOTE = "demote"


@dataclass(frozen=True)
class DpPredConfig:
    """dpPred knobs; defaults are the paper's (Section V-A, Figure 11b/c).

    ``action`` ablates the paper's bypass decision: ``"demote"`` inserts
    predicted-DOA pages at the LRU position (the SHiP-style adaptation)
    instead of bypassing, isolating how much of dpPred's win comes from
    the bypass itself versus the prediction.
    """

    pc_hash_bits: int = 6
    vpn_hash_bits: int = 4
    counter_bits: int = 3
    threshold: int = 6
    shadow_entries: int = 2
    action: str = ACTION_BYPASS

    def validate(self) -> None:
        if self.threshold < 0 or self.threshold >= (1 << self.counter_bits):
            raise ValueError(
                f"threshold {self.threshold} not representable in "
                f"{self.counter_bits}-bit counters"
            )
        if self.shadow_entries < 0:
            raise ValueError("shadow_entries must be >= 0")
        if self.action not in (ACTION_BYPASS, ACTION_DEMOTE):
            raise ValueError(
                f"action must be {ACTION_BYPASS!r} or {ACTION_DEMOTE!r}, "
                f"got {self.action!r}"
            )


class DeadPagePredictor(TlbListener):
    """The paper's dpPred, attached to the LLT as a :class:`TlbListener`.

    ``pfn_sink`` — if set, receives the PFN of every predicted-DOA page
    ("the corresponding PFN is sent to all LLC slices"); this is how cbPred
    is coupled.

    ``prediction_observer`` — optional instrumentation callback
    ``(vpn, predicted_doa)`` invoked at every fill-time prediction, used by
    the accuracy/coverage ground-truth machinery (Table VI).

    ``probe`` — nullable decision-event sink (see :mod:`repro.obs.events`).
    When set, bypass/demote decisions, shadow promotions, misprediction
    flushes, PFQ pushes and eviction-time verdicts are traced; when None
    (the default) the only cost is an identity test on decision paths.
    """

    def __init__(
        self,
        config: DpPredConfig = DpPredConfig(),
        pfn_sink: Optional[Callable[[int], None]] = None,
        prediction_observer: Optional[Callable[[int, bool], None]] = None,
    ):
        config.validate()
        self.config = config
        self.phist = PageHistoryTable(
            config.pc_hash_bits, config.vpn_hash_bits, config.counter_bits
        )
        self.shadow: Optional[ShadowTable] = (
            ShadowTable(config.shadow_entries) if config.shadow_entries else None
        )
        self.pfn_sink = pfn_sink
        self.prediction_observer = prediction_observer
        self.stats = Stats()
        self.probe = None
        self._refilling = False
        self._last_pc_hash = 0

    # ------------------------------------------------------------------ #
    # TlbListener interface
    # ------------------------------------------------------------------ #
    def on_miss(self, tlb: Tlb, vpn: int, now: int) -> Optional[int]:
        if self.shadow is None:
            return None
        entry = self.shadow.lookup(vpn)
        if entry is None:
            return None
        pfn, pc_h = entry
        self.stats.add("shadow_hits")
        probe = self.probe
        if probe is not None:
            # A shadow hit *is* a resolved verdict: predicted dead, wasn't.
            probe.emit(now, EV_SHADOW_HIT, vpn, pfn)
            probe.emit(now, EV_LLT_VERDICT, vpn, True, False)
        # Negative feedback: forget the mispredicted VPN's column. In the
        # pure-PC variant (Figure 11b) there is only one column, which
        # would wipe the whole table — clear just the offending PC's cell.
        if self.config.vpn_hash_bits == 0:
            self.phist.train_not_doa(pc_h, 0)
        else:
            self.phist.flush_column(vpn_hash(vpn, self.config.vpn_hash_bits))
        # Place the translation back in the LLT without a fresh prediction
        # (Figure 6a steps 1-4).
        self._refilling = True
        try:
            tlb.fill(vpn, pfn, pc_h, now)
        finally:
            self._refilling = False
        return pfn

    def on_fill(self, tlb: Tlb, vpn: int, pfn: int, pc: int, now: int) -> str:
        # ``pc`` is the full PC recorded in the LLT MSHR at miss time; only
        # its fold-XOR hash is ever stored (hashing is idempotent, so a
        # shadow-table refill carrying an already-hashed value is safe).
        pc_h = pc_hash(pc, self.config.pc_hash_bits)
        self._last_pc_hash = pc_h
        if self._refilling:
            return FILL_ALLOCATE
        vpn_h = vpn_hash(vpn, self.config.vpn_hash_bits)
        predicted_doa = self.phist.predicts_doa(
            pc_h, vpn_h, self.config.threshold
        )
        if self.prediction_observer is not None:
            self.prediction_observer(vpn, predicted_doa)
        if not predicted_doa:
            return FILL_ALLOCATE
        self.stats.add("doa_predictions")
        probe = self.probe
        if self.pfn_sink is not None:
            self.pfn_sink(pfn)
            if probe is not None:
                probe.emit(now, EV_PFQ_PUSH, pfn)
        if self.config.action == ACTION_DEMOTE:
            if probe is not None:
                probe.emit(now, EV_LLT_DEMOTE, vpn, pfn)
            return FILL_DISTANT
        if self.shadow is not None:
            self.shadow.insert(vpn, pfn, pc_h, now)
            if probe is not None:
                probe.emit(now, EV_SHADOW_PROMOTE, vpn, pfn)
        if probe is not None:
            probe.emit(now, EV_LLT_BYPASS, vpn, pfn)
        return FILL_BYPASS

    def filled(self, tlb: Tlb, entry, now: int) -> None:
        # The LLT entry keeps only the narrow hash, not the full PC
        # (the paper's 6-bit-per-entry storage budget).
        entry.pc_hash = self._last_pc_hash

    def on_evict(self, tlb: Tlb, entry: TlbEntry, now: int) -> None:
        vpn_h = vpn_hash(entry.vpn, self.config.vpn_hash_bits)
        if entry.accessed:
            self.phist.train_not_doa(entry.pc_hash, vpn_h)
        else:
            self.phist.train_doa(entry.pc_hash, vpn_h)
            self.stats.add("doa_evictions_observed")
        if self.probe is not None:
            # Allocated entries were predicted live at fill; eviction
            # resolves the ground truth (Accessed bit).
            self.probe.emit(
                now, EV_LLT_VERDICT, entry.vpn, False, not entry.accessed
            )

    # ------------------------------------------------------------------ #
    # Storage accounting (Section V-D)
    # ------------------------------------------------------------------ #
    def storage_bits(self, llt_entries: int) -> int:
        """Total dpPred state in bits for a given LLT size.

        Per-LLT-entry metadata (PC hash + Accessed bit) + pHIST + shadow.
        """
        per_entry = (self.config.pc_hash_bits + 1) * llt_entries
        shadow_bits = (
            self.shadow.storage_bits() if self.shadow is not None else 0
        )
        return per_entry + self.phist.storage_bits() + shadow_bits
