"""Hashed-perceptron bypass prediction (two-level neural approach, distilled).

Jamet et al.'s two-level neural dead-block approach (PAPERS.md) runs a
full neural predictor; the practical distillation — following the
hashed-perceptron line of Teran/Jiménez — is a set of small signed-weight
tables, one per hashed feature, whose sum drives the decision. This
module applies that to the paper's two structures:

* **features** are fold-XOR hashes the simulator already computes: for
  the LLT, the PC, the VPN and two PC⊕VPN mixes (the pHIST indexing
  idiom widened); for the LLC, the PC, the block address, the block's
  *page* (the paper's page↔block correlation, Section IV) and a
  PC⊕block mix;
* **prediction** at fill time: the entry is dead-on-arrival iff the sum
  of the feature weights reaches ``threshold``. Cold tables sum to 0 and
  allocate;
* **training** at eviction time only, margin-gated: weights move (by ±1,
  saturating at ``±weight_limit``) when the prediction was wrong or the
  sum's magnitude is below ``train_margin`` — the perceptron update rule,
  all in small integers, so runs are bit-reproducible across platforms.

Bypassed fills never evict and so never train; as in
:mod:`repro.predictors.leeway`, every ``sample_period``-th predicted-DOA
fill of a signature set is allocated anyway so the tables keep learning.

Both listeners meet the flat-interpreter contract of
:class:`~repro.predictors.base.PredictorSpec` and override no lookup
hook, so on the batched engine's flat interpreter (its generic listener
path) they cost nothing on lookups and hits: only their fills and
evictions call into this module.

Each listener folds one key per fill (the LLT key or the LLC block's
page) and reads the PC's folds from a per-PC memo, deriving the other
features through identities that are exact for ``fold_xor``:
``fold(a ^ b) == fold(a) ^ fold(b)``, and ``fold(x << k)`` is ``fold(x)``
rotated left by ``k`` bits within the table width while ``x << k`` stays
below ``2**64`` (every LLT key does for ``k = 1``: the huge namespace
starts at ``1 << 62``; every block's page does for ``k = 6``). So a
block's fold is its page's rotated fold XOR its offset's fold.

Each ``on_fill`` and ``on_evict`` runs in one frame: the fill reads the
memo, folds the key, rotates, sums the weights, advances the sample
streak and bumps its counters itself, and the eviction applies the
training rule in place. :func:`_tlb_features`, :func:`_cache_features`,
:meth:`_PerceptronCore.predict`, :meth:`~_PerceptronCore.should_sample`
and :meth:`~_PerceptronCore.train` stay the reference definitions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

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

#: Block-to-page shift (64-byte blocks in 4 KB pages).
_PAGE_OF_BLOCK_SHIFT = 6
_BLOCK_IN_PAGE_MASK = (1 << _PAGE_OF_BLOCK_SHIFT) - 1
#: ``fold_xor`` folds the low 64 bits of its input.
_FOLD_INPUT_MASK = (1 << 64) - 1


@dataclass(frozen=True)
class PerceptronConfig:
    """Hashed-perceptron knobs.

    ``table_bits`` — per-feature weight-table index width.
    ``weight_bits`` — signed weight width; weights saturate at
    ``±(2^(weight_bits-1) - 1)``. ``threshold`` — weight sum at which a
    fill is predicted dead. ``train_margin`` — confidence margin below
    which correct predictions still train. ``sample_period`` — every N-th
    predicted-DOA fill is allocated anyway to keep training samples
    flowing.
    """

    table_bits: int = 8
    weight_bits: int = 6
    threshold: int = 4
    train_margin: int = 32
    sample_period: int = 64

    def validate(self) -> None:
        if self.table_bits <= 0:
            raise ValueError("table_bits must be positive")
        if self.weight_bits < 2:
            raise ValueError("weight_bits must be >= 2")
        if self.threshold < 1:
            raise ValueError("threshold must be >= 1")
        if self.train_margin < 0:
            raise ValueError("train_margin must be >= 0")
        if self.sample_period <= 1:
            raise ValueError("sample_period must be > 1")


class _PerceptronState:
    """Per-entry metadata: the feature indices and the fill-time sum."""

    __slots__ = ("features", "yout")

    def __init__(self, features: Tuple[int, ...], yout: int):
        self.features = features
        self.yout = yout


class _PerceptronCore:
    """Weight tables + the margin-gated integer training rule."""

    NUM_FEATURES = 4

    def __init__(self, config: PerceptronConfig = PerceptronConfig()):
        config.validate()
        self.config = config
        self.weight_limit = (1 << (config.weight_bits - 1)) - 1
        rows = 1 << config.table_bits
        self._tables: List[List[int]] = [
            [0] * rows for _ in range(self.NUM_FEATURES)
        ]
        self._bypass_streak = 0
        self.stats = Stats()

    def predict(self, features: Tuple[int, ...]) -> _PerceptronState:
        yout = 0
        for table, idx in zip(self._tables, features):
            yout += table[idx]
        return _PerceptronState(features, yout)

    def predicts_doa(self, state: _PerceptronState) -> bool:
        return state.yout >= self.config.threshold

    def should_sample(self) -> bool:
        streak = self._bypass_streak + 1
        if streak >= self.config.sample_period:
            self._bypass_streak = 0
            return True
        self._bypass_streak = streak
        return False

    def train(self, state: _PerceptronState, was_doa: bool) -> None:
        """Perceptron update: move toward the eviction-time ground truth
        when mispredicted or insufficiently confident."""
        predicted = self.predicts_doa(state)
        if predicted == was_doa and abs(state.yout) > self.config.train_margin:
            return
        limit = self.weight_limit
        step = 1 if was_doa else -1
        for table, idx in zip(self._tables, state.features):
            w = table[idx] + step
            if -limit <= w <= limit:
                table[idx] = w
        self.stats.add("trainings")

    def storage_bits(self, num_entries: int) -> int:
        """Weight tables + per-entry feature indices and fill-time sum."""
        rows = 1 << self.config.table_bits
        tables = self.NUM_FEATURES * rows * self.config.weight_bits
        # Per-entry: the hashed feature indices plus a sum wide enough
        # for NUM_FEATURES saturated weights (weight_bits + 2 bits).
        per_entry = (
            self.NUM_FEATURES * self.config.table_bits
            + self.config.weight_bits + 2
        ) * num_entries
        return tables + per_entry


def _tlb_features(pc: int, vpn: int, bits: int) -> Tuple[int, ...]:
    return (
        fold_xor(pc, bits),
        fold_xor(vpn, bits),
        fold_xor(pc ^ (vpn << 1), bits),
        fold_xor((pc >> 4) ^ vpn, bits),
    )


def _cache_features(pc: int, block: int, bits: int) -> Tuple[int, ...]:
    return (
        fold_xor(pc, bits),
        fold_xor(block, bits),
        fold_xor(block >> _PAGE_OF_BLOCK_SHIFT, bits),  # the block's page
        fold_xor(pc ^ (block << 1), bits),
    )


class _PerceptronEviction:
    """The eviction hook both listeners share, in one frame:
    :meth:`_PerceptronCore.train` applied in place, then the verdict
    event. Subclasses name the event and the slot's key field."""

    _verdict_event: str
    _key_field: str

    def on_evict(self, structure, slot, now: int) -> None:
        state = slot.aux
        if state is None:
            return
        was_doa = not slot.accessed
        core = self.core
        config = core.config
        yout = state.yout
        margin = config.train_margin
        # core.train(state, was_doa)
        if (yout >= config.threshold) != was_doa or -margin <= yout <= margin:
            limit = core.weight_limit
            step = 1 if was_doa else -1
            f0, f1, f2, f3 = state.features
            t0, t1, t2, t3 = core._tables
            w = t0[f0] + step
            if -limit <= w <= limit:
                t0[f0] = w
            w = t1[f1] + step
            if -limit <= w <= limit:
                t1[f1] = w
            w = t2[f2] + step
            if -limit <= w <= limit:
                t2[f2] = w
            w = t3[f3] + step
            if -limit <= w <= limit:
                t3[f3] = w
            counters = core.stats.counters
            counters["trainings"] = counters.get("trainings", 0) + 1
        if self.probe is not None:
            self.probe.emit(
                now, self._verdict_event, getattr(slot, self._key_field),
                False, was_doa,
            )


class PerceptronTlbPredictor(_PerceptronEviction, TlbListener):
    """Hashed-perceptron dead-page bypass on the LLT."""

    _verdict_event = EV_LLT_VERDICT
    _key_field = "vpn"

    def __init__(
        self,
        config: PerceptronConfig = PerceptronConfig(),
        context: Optional[AccessContext] = None,
        prediction_observer: Optional[Callable[[int, bool], None]] = None,
    ):
        self.core = _PerceptronCore(config)
        self.context = context  # unused: the LLT fill carries the PC
        self.prediction_observer = prediction_observer
        self.stats = Stats()
        self.probe = None
        self._pending: Optional[_PerceptronState] = None
        # Memoised folds: pc -> (fold(pc), fold(pc >> 4)).
        self._pc_folds: Dict[int, Tuple[int, int]] = {}
        self._bits = bits = config.table_bits
        self._mask = (1 << bits) - 1
        self._shift1 = 1 % bits

    def on_fill(self, tlb: Tlb, vpn: int, pfn: int, pc: int, now: int) -> str:
        core = self.core
        bits = self._bits
        mask = self._mask
        pc_folds = self._pc_folds.get(pc)
        if pc_folds is None:
            pc_folds = self._pc_folds[pc] = (
                fold_xor(pc, bits), fold_xor(pc >> 4, bits)
            )
        f_pc, f_pc4 = pc_folds
        # fold_xor(vpn, bits)
        f_vpn = 0
        value = vpn & _FOLD_INPUT_MASK
        while value:
            f_vpn ^= value & mask
            value >>= bits
        # fold(pc ^ (vpn << 1)): fold(vpn) rotated left by one bit
        shift = self._shift1
        f_mix = f_pc ^ (((f_vpn << shift) | (f_vpn >> (bits - shift))) & mask)
        f_mix4 = f_pc4 ^ f_vpn
        t0, t1, t2, t3 = core._tables
        yout = t0[f_pc] + t1[f_vpn] + t2[f_mix] + t3[f_mix4]
        predicted_doa = yout >= core.config.threshold
        if self.prediction_observer is not None:
            self.prediction_observer(vpn, predicted_doa)
        if predicted_doa:
            # core.should_sample()
            streak = core._bypass_streak + 1
            counters = self.stats.counters
            if streak >= core.config.sample_period:
                core._bypass_streak = 0
                counters["sampled_allocations"] = (
                    counters.get("sampled_allocations", 0) + 1
                )
            else:
                core._bypass_streak = streak
                counters["doa_predictions"] = (
                    counters.get("doa_predictions", 0) + 1
                )
                if self.probe is not None:
                    self.probe.emit(now, EV_LLT_BYPASS, vpn, pfn)
                self._pending = None
                return FILL_BYPASS
        self._pending = _PerceptronState((f_pc, f_vpn, f_mix, f_mix4), yout)
        return FILL_ALLOCATE

    def filled(self, tlb: Tlb, entry: TlbEntry, now: int) -> None:
        entry.aux = self._pending
        self._pending = None

    def storage_bits(self, llt_entries: int) -> int:
        return self.core.storage_bits(llt_entries)


class PerceptronCachePredictor(_PerceptronEviction, CacheListener):
    """Hashed-perceptron dead-block bypass on the LLC."""

    _verdict_event = EV_LLC_VERDICT
    _key_field = "tag"

    def __init__(
        self,
        config: PerceptronConfig = PerceptronConfig(),
        context: Optional[AccessContext] = None,
        prediction_observer: Optional[Callable[[int, bool], None]] = None,
    ):
        if context is None:
            raise ValueError(
                "PerceptronCachePredictor needs the machine's AccessContext "
                "(block addresses carry no PC)"
            )
        self.core = _PerceptronCore(config)
        self.context = context
        self.prediction_observer = prediction_observer
        self.stats = Stats()
        self.probe = None
        self._pending: Optional[_PerceptronState] = None
        # Memoised folds: pc -> fold(pc).
        self._pc_folds: Dict[int, int] = {}
        self._bits = bits = config.table_bits
        self._mask = (1 << bits) - 1
        self._shift1 = 1 % bits
        self._shift_page = _PAGE_OF_BLOCK_SHIFT % bits
        # fold(offset) for each block offset in a page: the identity from
        # 6 table bits up.
        self._offset_folds = [
            fold_xor(off, bits) for off in range(1 << _PAGE_OF_BLOCK_SHIFT)
        ]

    def on_fill(self, cache: SetAssocCache, block: int, now: int) -> str:
        core = self.core
        bits = self._bits
        mask = self._mask
        pc = self.context.pc
        f_pc = self._pc_folds.get(pc)
        if f_pc is None:
            f_pc = self._pc_folds[pc] = fold_xor(pc, bits)
        # fold_xor(block >> 6, bits): the block's page
        f_page = 0
        value = (block >> _PAGE_OF_BLOCK_SHIFT) & _FOLD_INPUT_MASK
        while value:
            f_page ^= value & mask
            value >>= bits
        # fold(block): the page's fold rotated left by the page shift,
        # XOR the offset's fold
        shift = self._shift_page
        f_block = (
            ((f_page << shift) | (f_page >> (bits - shift))) & mask
        ) ^ self._offset_folds[block & _BLOCK_IN_PAGE_MASK]
        # fold(pc ^ (block << 1)): fold(block) rotated left by one bit
        shift = self._shift1
        f_mix = f_pc ^ (
            ((f_block << shift) | (f_block >> (bits - shift))) & mask
        )
        t0, t1, t2, t3 = core._tables
        yout = t0[f_pc] + t1[f_block] + t2[f_page] + t3[f_mix]
        predicted_doa = yout >= core.config.threshold
        if self.prediction_observer is not None:
            self.prediction_observer(block, predicted_doa)
        if predicted_doa:
            # core.should_sample()
            streak = core._bypass_streak + 1
            counters = self.stats.counters
            if streak >= core.config.sample_period:
                core._bypass_streak = 0
                counters["sampled_allocations"] = (
                    counters.get("sampled_allocations", 0) + 1
                )
            else:
                core._bypass_streak = streak
                counters["doa_predictions"] = (
                    counters.get("doa_predictions", 0) + 1
                )
                if self.probe is not None:
                    self.probe.emit(now, EV_LLC_BYPASS, block)
                self._pending = None
                return CACHE_BYPASS
        self._pending = _PerceptronState((f_pc, f_block, f_page, f_mix), yout)
        return CACHE_ALLOCATE

    def filled(self, cache: SetAssocCache, line: CacheLine, now: int) -> None:
        line.aux = self._pending
        self._pending = None

    def storage_bits(self, llc_blocks: int) -> int:
        return self.core.storage_bits(llc_blocks)
