"""cbPred — the correlating dead-block predictor for the LLC (Section V-B).

cbPred only works coupled with dpPred: predicted-DOA PFNs arrive through
:meth:`CorrelatingDeadBlockPredictor.notify_doa_page` and are queued in the
PFQ. The LLC flows are exactly Figure 8:

* **LLC lookup** (8a): a hit on a DP-marked block sets its ``Accessed`` bit
  (the cache model sets ``accessed`` on every hit; the DP bit gates
  *training*, which is what matters architecturally).
* **LLC fill** (8b): the incoming block's PFN is matched against the PFQ.
  No match -> normal fill. On a match, bHIST is consulted with the 12-bit
  block-address hash: counter above threshold -> **bypass**; otherwise the
  block is allocated with its ``DP`` bit set.
* **LLC eviction** (8c): ignored unless ``DP`` is set. ``DP`` and not
  ``Accessed`` -> increment bHIST (true DOA); ``DP`` and ``Accessed`` ->
  clear bHIST (not DOA).

The ``cbPred-PFQ`` ablation of Table VII (PFQ disabled) trains and predicts
on *every* block, which shows exactly why the pre-filter is what buys the
paper its >98 % accuracy.

NOTE: the batched engine's flat interpreter
(:class:`repro.sim.engine._FlatStepper`) inlines the hot fill-time
decision (PFQ match, bHIST probe, bypass/DP-mark) at every LLC fill
site — stat names and event order included. Changes here must be
made there too; ``tests/test_engine_equivalence.py`` enforces the
bit-identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.common.stats import Stats
from repro.core.bhist import BlockHistoryTable
from repro.core.pfq import PfnFilterQueue
from repro.obs.events import (
    EV_LLC_BYPASS,
    EV_LLC_MARK_DP,
    EV_LLC_VERDICT,
    EV_PFQ_HIT,
)
from repro.mem.cache import (
    FILL_ALLOCATE,
    FILL_BYPASS,
    CacheLine,
    CacheListener,
    SetAssocCache,
)
from repro.vm.physmem import PAGE_SHIFT
from repro.vm.walker import BLOCK_SHIFT

#: Right-shift turning a block address into its physical frame number.
BLOCKS_PER_PAGE_SHIFT = PAGE_SHIFT - BLOCK_SHIFT


@dataclass(frozen=True)
class CbPredConfig:
    """cbPred knobs; defaults are the paper's (Section V-B, Figure 11d)."""

    bhist_entries: int = 4096
    counter_bits: int = 3
    threshold: int = 6
    pfq_entries: int = 8
    use_pfq: bool = True

    def validate(self) -> None:
        if self.threshold < 0 or self.threshold >= (1 << self.counter_bits):
            raise ValueError(
                f"threshold {self.threshold} not representable in "
                f"{self.counter_bits}-bit counters"
            )


class CorrelatingDeadBlockPredictor(CacheListener):
    """The paper's cbPred, attached to the LLC as a :class:`CacheListener`.

    ``prediction_observer`` — optional instrumentation callback
    ``(block, predicted_doa)`` invoked whenever a prediction is attempted
    (i.e. the block passed the PFQ filter), used for Table VII ground truth.

    ``probe`` — nullable decision-event sink (see :mod:`repro.obs.events`).
    When set, PFQ matches, bypasses, DP markings and eviction-time
    verdicts are traced; when None (the default) the only cost is an
    identity test on decision paths.
    """

    def __init__(
        self,
        config: CbPredConfig = CbPredConfig(),
        prediction_observer: Optional[Callable[[int, bool], None]] = None,
    ):
        config.validate()
        self.config = config
        self.bhist = BlockHistoryTable(config.bhist_entries, config.counter_bits)
        self.pfq = PfnFilterQueue(config.pfq_entries)
        self.prediction_observer = prediction_observer
        self.stats = Stats()
        self.probe = None
        self._mark_dp_next_fill = False

    # ------------------------------------------------------------------ #
    # dpPred coupling
    # ------------------------------------------------------------------ #
    def notify_doa_page(self, pfn: int) -> None:
        """Receive a predicted-DOA PFN from dpPred (TLB-fill message)."""
        self.pfq.insert(pfn)
        self.stats.add("pfn_notifications")

    # ------------------------------------------------------------------ #
    # CacheListener interface
    # ------------------------------------------------------------------ #
    def on_fill(self, cache: SetAssocCache, block: int, now: int) -> str:
        probe = self.probe
        if self.config.use_pfq:
            pfn = block >> BLOCKS_PER_PAGE_SHIFT
            if pfn not in self.pfq:
                self._mark_dp_next_fill = False
                return FILL_ALLOCATE
            self.stats.add("pfq_matches")
            if probe is not None:
                probe.emit(now, EV_PFQ_HIT, block)
        predicted_doa = self.bhist.predicts_doa(block, self.config.threshold)
        if self.prediction_observer is not None:
            self.prediction_observer(block, predicted_doa)
        if predicted_doa:
            self.stats.add("doa_predictions")
            self._mark_dp_next_fill = False
            if probe is not None:
                probe.emit(now, EV_LLC_BYPASS, block)
            return FILL_BYPASS
        # Falls on a DOA page but confidence is low: allocate with DP set.
        self._mark_dp_next_fill = True
        if probe is not None:
            probe.emit(now, EV_LLC_MARK_DP, block)
        return FILL_ALLOCATE

    def filled(self, cache: SetAssocCache, line: CacheLine, now: int) -> None:
        if self._mark_dp_next_fill:
            line.dp = True
            self._mark_dp_next_fill = False

    def on_evict(self, cache: SetAssocCache, line: CacheLine, now: int) -> None:
        if not line.dp:
            return
        if line.accessed:
            self.bhist.train_not_doa(line.tag)
        else:
            self.bhist.train_doa(line.tag)
            self.stats.add("doa_evictions_observed")
        if self.probe is not None:
            # DP-marked lines were predicted live (low confidence) at
            # fill; eviction resolves the ground truth.
            self.probe.emit(
                now, EV_LLC_VERDICT, line.tag, False, not line.accessed
            )

    # ------------------------------------------------------------------ #
    # Storage accounting (Section V-D)
    # ------------------------------------------------------------------ #
    def storage_bits(self, llc_blocks: int, pfn_bits: int = 39) -> int:
        """Total cbPred state in bits for a given LLC size (2 bits/block)."""
        return (
            2 * llc_blocks
            + self.bhist.storage_bits()
            + self.pfq.storage_bits(pfn_bits)
        )
