"""The registry predictors' fast hooks against the reference rules.

Each fast path is pinned to the definition it replaced:

* ``fold_xor`` against the mask-calling loop it was;
* each perceptron listener's one-frame ``on_fill`` (decision, sample
  streak, counters, and the state ``filled`` stores) against
  ``_tlb_features``/``_cache_features``, ``_PerceptronCore.predict`` and
  ``should_sample``, and its one-frame ``on_evict`` against
  ``_PerceptronCore.train``;
* Leeway's O(1) percentile decision, and each Leeway listener's
  one-frame ``on_fill`` (decision, sample streak, counters, and the
  signature and set lookup count ``filled`` stores), against sorting an
  independently kept ring of the last ``ring_entries`` samples and
  ``should_sample``;
* AIP's per-set lookup counters against the eager rule that aged every
  way of a set on every lookup, on whole machines and both engines, and
  its per-set counts of confident entries against recounts.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.bitops import fold_xor, mask
from repro.predictors.aip import (
    AipCachePredictor,
    AipConfig,
    AipTlbPredictor,
    _AipState,
)
from repro.predictors.base import AccessContext
from repro.mem.cache import CacheLine, SetAssocCache
from repro.predictors.leeway import (
    LeewayCachePredictor,
    LeewayConfig,
    LeewayTlbPredictor,
    _LeewayCore,
    _LeewayState,
)
from repro.predictors.perceptron import (
    PerceptronCachePredictor,
    PerceptronConfig,
    PerceptronTlbPredictor,
    _cache_features,
    _PerceptronCore,
    _PerceptronState,
    _tlb_features,
)
from repro.sim.config import CacheGeometry, TlbGeometry, fast_config
from repro.sim.engine import ENGINE_BATCHED, ENGINE_SCALAR
from repro.sim.machine import Machine
from repro.vm.tlb import Tlb, TlbEntry
from repro.workloads.trace import Trace

SEED = 7
#: Every LLT key and physical block address is below 2**63.
KEYS = st.integers(0, 2**63 - 1)


# ------------------------------------------------------------------ #
# fold_xor
# ------------------------------------------------------------------ #
def _fold_xor_loop(value, width, input_bits=64):
    """``fold_xor`` as it was, calling ``mask()`` for both masks."""
    if width <= 0:
        raise ValueError(f"width must be positive, got {width}")
    value &= mask(input_bits)
    result = 0
    m = mask(width)
    while value:
        result ^= value & m
        value >>= width
    return result


@settings(deadline=None)
@given(
    value=st.integers(0, 2**80),
    width=st.integers(1, 64),
    input_bits=st.integers(0, 72),
)
def test_fold_xor_matches_the_mask_loop(value, width, input_bits):
    assert fold_xor(value, width, input_bits) == _fold_xor_loop(
        value, width, input_bits
    )
    assert fold_xor(value, width) == _fold_xor_loop(value, width)


# ------------------------------------------------------------------ #
# Perceptron fill and eviction hooks
# ------------------------------------------------------------------ #
def _slot(pred, key):
    """A fresh entry (LLT) or line (LLC) for ``key``."""
    if isinstance(pred, PerceptronTlbPredictor):
        return TlbEntry(key, 0, 0)
    return CacheLine(key, False)


def _perceptron_fill(pred, ctx, pc, key):
    """``on_fill`` on ``pred``'s structure side, with ``pc`` in flight."""
    if isinstance(pred, PerceptronTlbPredictor):
        return pred.on_fill(None, key, 0, pc, 0)
    ctx.pc = pc
    return pred.on_fill(None, key, 0)


@settings(max_examples=300, deadline=None)
@given(bits=st.integers(1, 16), pc=KEYS, key=KEYS)
def test_perceptron_fast_features_match_reference(bits, pc, key):
    """With all-zero weights every fill allocates, and ``filled`` stores
    the reference features (memo filled by the first fill, read by the
    second)."""
    ctx = AccessContext()
    config = PerceptronConfig(table_bits=bits)
    for pred, reference in (
        (PerceptronTlbPredictor(config), _tlb_features),
        (PerceptronCachePredictor(config, context=ctx), _cache_features),
    ):
        for _ in range(2):
            assert _perceptron_fill(pred, ctx, pc, key) == "allocate"
            slot = _slot(pred, key)
            pred.filled(None, slot, 0)
            assert slot.aux.features == reference(pc, key, bits)
            assert slot.aux.yout == 0
            assert pred._pending is None


@settings(max_examples=100, deadline=None)
@given(
    bits=st.integers(1, 10),
    weights=st.lists(st.integers(-31, 31), min_size=64, max_size=64),
    fills=st.lists(st.tuples(KEYS, KEYS), min_size=1, max_size=20),
    period=st.sampled_from([2, 3, 10**6]),
)
def test_perceptron_fill_decision_matches_predict(bits, weights, fills, period):
    """Each fill decides as ``predict`` and ``should_sample`` on a twin
    core: bypass iff the reference sum predicts DOA and the twin's
    streak does not sample it. An allocated entry carries the reference
    features and sum, and the decision counters match the twin's
    decisions."""
    ctx = AccessContext()
    config = PerceptronConfig(table_bits=bits, sample_period=period)
    for pred, reference in (
        (PerceptronTlbPredictor(config), _tlb_features),
        (PerceptronCachePredictor(config, context=ctx), _cache_features),
    ):
        core = pred.core
        twin = _PerceptronCore(config)
        rows = 1 << bits
        for t, table in enumerate(core._tables):
            for row in range(rows):
                table[row] = weights[(t * 16 + row) % len(weights)]
        expected = {}
        for pc, key in fills:
            state = core.predict(reference(pc, key, bits))
            bypass = False
            if core.predicts_doa(state):
                name = (
                    "sampled_allocations" if twin.should_sample()
                    else "doa_predictions"
                )
                expected[name] = expected.get(name, 0) + 1
                bypass = name == "doa_predictions"
            decision = _perceptron_fill(pred, ctx, pc, key)
            assert decision == ("bypass" if bypass else "allocate")
            assert core._bypass_streak == twin._bypass_streak
            if bypass:
                assert pred._pending is None
                continue
            slot = _slot(pred, key)
            pred.filled(None, slot, 0)
            assert slot.aux.features == state.features
            assert slot.aux.yout == state.yout
        assert pred.stats.snapshot() == expected


@settings(max_examples=100, deadline=None)
@given(
    bits=st.integers(1, 6),
    margin=st.integers(0, 40),
    weights=st.lists(st.integers(-31, 31), min_size=64, max_size=64),
    evictions=st.lists(
        st.tuples(
            st.tuples(*[st.integers(0, 63)] * 4),
            st.integers(-130, 130),
            st.booleans(),
        ),
        min_size=1,
        max_size=20,
    ),
)
def test_perceptron_eviction_matches_train(bits, margin, weights, evictions):
    """``on_evict`` updates the weights and the training count exactly as
    ``train`` does on a twin core, saturating weights included."""
    ctx = AccessContext()
    config = PerceptronConfig(table_bits=bits, train_margin=margin)
    rows = 1 << bits
    for pred in (
        PerceptronTlbPredictor(config),
        PerceptronCachePredictor(config, context=ctx),
    ):
        core = pred.core
        twin = _PerceptronCore(config)
        for t in range(core.NUM_FEATURES):
            for row in range(rows):
                core._tables[t][row] = twin._tables[t][row] = weights[
                    (t * 16 + row) % len(weights)
                ]
        for features, yout, accessed in evictions:
            features = tuple(f % rows for f in features)
            slot = _slot(pred, 0)
            slot.aux = _PerceptronState(features, yout)
            slot.accessed = accessed
            pred.on_evict(None, slot, 0)
            twin.train(_PerceptronState(features, yout), not accessed)
            assert core._tables == twin._tables
        assert core.stats.snapshot() == twin.stats.snapshot()


# ------------------------------------------------------------------ #
# Leeway's fill hook and percentile decision
# ------------------------------------------------------------------ #
@settings(max_examples=100, deadline=None)
@given(
    bits=st.integers(1, 4),
    ring_entries=st.integers(1, 5),
    percentile=st.integers(1, 100),
    period=st.sampled_from([2, 3, 10**6]),
    ops=st.lists(
        st.one_of(
            # train a residency: (signature, live distance)
            st.tuples(st.just("train"), st.integers(0, 15),
                      st.sampled_from([0, 0, 1, 9])),
            # fill: (pc, key)
            st.tuples(st.just("fill"), st.integers(0, 2**20), KEYS),
            # lookup of a set
            st.tuples(st.just("lookup"), st.integers(0, 3), st.just(0)),
        ),
        max_size=60,
    ),
)
def test_leeway_fill_hook_matches_sorted_ring(
    bits, ring_entries, percentile, period, ops
):
    """Each fill of both Leeway listeners decides as the sorted-ring
    rule on an independently kept history, with ``should_sample`` on a
    twin core deciding which predicted-DOA fills allocate; ``filled``
    stores the PC's fold-XOR signature and the set's lookup count, and
    the decision counters match."""
    config = LeewayConfig(
        signature_bits=bits, ring_entries=ring_entries,
        percentile=percentile, sample_period=period,
    )
    rank = -(-ring_entries * percentile // 100) - 1
    ctx = AccessContext()
    for pred, struct in (
        (LeewayTlbPredictor(config), Tlb("t", 8, 2)),
        (LeewayCachePredictor(config, context=ctx),
         SetAssocCache("c", 4, 2)),
    ):
        core = pred.core
        twin = _LeewayCore(config)
        history = {}
        lookups = [0] * struct.num_sets
        expected = {}
        for op, a, b in ops:
            if op == "train":
                sig = a % (1 << bits)
                state = _LeewayState(sig)
                state.live = b
                core.train_eviction(state)
                history.setdefault(sig, []).append(b)
                continue
            if op == "lookup":
                pred.on_lookup(struct, a, 0)
                lookups[a] += 1
                continue
            pc, key = a, b
            sig = fold_xor(pc, bits)
            ring = history.get(sig, [])[-ring_entries:]
            bypass = False
            if len(ring) == ring_entries and sorted(ring)[rank] == 0:
                name = (
                    "sampled_allocations" if twin.should_sample(sig)
                    else "doa_predictions"
                )
                expected[name] = expected.get(name, 0) + 1
                bypass = name == "doa_predictions"
            if isinstance(pred, LeewayTlbPredictor):
                decision = pred.on_fill(struct, key, 0, pc, 0)
                slot = TlbEntry(key, 0, 0)
            else:
                ctx.pc = pc
                decision = pred.on_fill(struct, key, 0)
                slot = CacheLine(key, False)
            assert decision == ("bypass" if bypass else "allocate")
            assert core._bypass_streak == twin._bypass_streak
            if bypass:
                assert pred._pending is None
                continue
            pred.filled(struct, slot, 0)
            assert slot.aux.sig == sig
            assert slot.aux.base == lookups[key & struct._set_mask]
            assert slot.aux.live == 0
        assert pred.stats.snapshot() == expected


@settings(max_examples=200, deadline=None)
@given(
    ring_entries=st.integers(1, 9),
    percentile=st.one_of(st.just(100), st.integers(1, 100)),
    samples=st.lists(
        st.tuples(st.integers(0, 3), st.sampled_from([0, 0, 1, 7, 255])),
        max_size=80,
    ),
)
def test_leeway_o1_decision_matches_sorted_ring(ring_entries, percentile, samples):
    """After every training sample, each signature's O(1) decision is
    the old rule on the last ``ring_entries`` samples: no prediction
    until the ring is full, then DOA iff the percentile-th smallest
    sample is 0."""
    core = _LeewayCore(LeewayConfig(
        signature_bits=2, ring_entries=ring_entries, percentile=percentile,
    ))
    rank = -(-ring_entries * percentile // 100) - 1
    history = {sig: [] for sig in range(4)}
    for sig, live in samples:
        state = _LeewayState(sig)
        state.live = live
        core.train_eviction(state)
        history[sig].append(live)
        for s, seen in history.items():
            ring = seen[-ring_entries:]
            expected = (
                len(ring) == ring_entries and sorted(ring)[rank] == 0
            )
            assert core.predicts_doa(s) == expected


# ------------------------------------------------------------------ #
# AIP's lazy ageing vs the eager per-way rule (whole machines)
# ------------------------------------------------------------------ #
class _EagerAipState(_AipState):
    __slots__ = ("count",)


class _EagerAip:
    """The replaced rule: every lookup ages each valid way of its set by
    one (saturating at ``max_interval``); a hit records the count as a
    candidate maximum and restarts it; a confident entry whose count
    passes its learned interval plus the margin is the victim."""

    def on_lookup(self, structure, set_idx, now):
        cap = self.core.config.max_interval
        for slot in self._slots(structure)[set_idx]:
            if slot is not None and slot.aux is not None:
                if slot.aux.count < cap:
                    slot.aux.count += 1

    def on_hit(self, structure, slot, now):
        state = slot.aux
        if state is not None:
            if state.count > state.max_seen:
                state.max_seen = state.count
            state.count = 0
            state.hits += 1

    def on_fill(self, *args):
        decision = super().on_fill(*args)
        lazy = self._pending
        state = _EagerAipState(
            lazy.pc_h, lazy.addr_h, lazy.threshold, lazy.confident
        )
        state.count = 0
        self._pending = state
        return decision

    def choose_victim(self, structure, set_idx, slots, now):
        margin = self.core.config.margin
        for way, slot in enumerate(slots):
            state = None if slot is None else slot.aux
            if (
                state is not None
                and state.confident
                and state.threshold >= 0
                and state.count > state.threshold + margin
            ):
                self.stats.add("dead_victimisations")
                return way
        return None


class _EagerAipTlb(_EagerAip, AipTlbPredictor):
    @staticmethod
    def _slots(tlb):
        return tlb._entries


class _EagerAipCache(_EagerAip, AipCachePredictor):
    @staticmethod
    def _slots(cache):
        return cache._lines


def _confident_in(ways):
    return sum(
        1 for way in ways
        if way is not None and way.aux is not None and way.aux.confident
    )


def _check_confident_counts(pred, sets):
    """Wrap ``pred.choose_victim`` to check the set's count of resident
    confident entries against a recount on every call; returns a check
    of every set's count for the end of the run."""
    choose = pred.choose_victim

    def checked(structure, set_idx, ways, now):
        assert pred._confident[set_idx] == _confident_in(ways)
        return choose(structure, set_idx, ways, now)

    pred.choose_victim = checked
    return lambda: [pred._confident.get(i, 0) for i in range(len(sets))] == [
        _confident_in(ways) for ways in sets
    ]


def _aip_run(trace, engine, aip, eager):
    """Run ``trace`` with fresh AIP listeners at both levels, recording
    every training sample and the listeners' stats. The lazy listeners'
    per-set confident counts are checked against recounts at every
    victim choice and at the end."""
    config = fast_config(
        tlb_predictor="aip",
        llc_predictor="aip",
        # small structures, so both levels hit, evict and train within
        # a few hundred records
        l1_itlb=TlbGeometry(4, 2, 1),
        l1_dtlb=TlbGeometry(4, 2, 1),
        l2_tlb=TlbGeometry(16, 4, 8),
        l1d=CacheGeometry(2, 2, 5),
        l2=CacheGeometry(4, 4, 11),
        llc=CacheGeometry(8, 4, 40),
    )
    machine = Machine(config, seed=SEED)
    tlb_cls, llc_cls = (
        (_EagerAipTlb, _EagerAipCache) if eager
        else (AipTlbPredictor, AipCachePredictor)
    )
    tlb_pred = tlb_cls(aip)
    llc_pred = llc_cls(machine.context, aip)
    machine.l2_tlb.listener = machine._tlb_predictor = tlb_pred
    machine.llc.listener = machine._llc_predictor = llc_pred
    samples = []
    for side, pred in enumerate((tlb_pred, llc_pred)):
        train = pred.core.train_eviction

        def logged(state, train=train, side=side):
            samples.append((side, state.pc_h, state.addr_h, state.hits,
                            state.max_seen))
            train(state)

        pred.core.train_eviction = logged
    checks = [] if eager else [
        _check_confident_counts(tlb_pred, machine.l2_tlb._entries),
        _check_confident_counts(llc_pred, machine.llc._lines),
    ]
    result = machine.run(trace, engine=engine)
    assert all(check() for check in checks)
    stats = (tlb_pred.stats.snapshot(), llc_pred.stats.snapshot())
    return result.to_wire(), samples, stats, machine.engine_stats


def _check_aip_rules(records, max_interval):
    trace = Trace(
        "aip-hypo",
        np.array([0x400000 + s * 4 for s, _, _, _ in records], np.uint64),
        np.array(
            [0x10000000 + p * 4096 + b * 64 for _, p, b, _ in records],
            np.uint64,
        ),
        np.array([w for *_, w in records], np.bool_),
        np.zeros(len(records), np.uint16),
    )
    aip = AipConfig(pc_hash_bits=4, addr_hash_bits=4,
                    max_interval=max_interval, margin=0)
    expected = _aip_run(trace, ENGINE_SCALAR, aip, eager=True)[:3]
    for engine in (ENGINE_SCALAR, ENGINE_BATCHED):
        *got, engine_stats = _aip_run(trace, engine, aip, eager=False)
        assert tuple(got) == expected
    assert engine_stats["mode"] == "flat"
    return expected


AIP_RECORDS = st.lists(
    st.tuples(
        st.integers(0, 3),        # pc site
        st.integers(0, 24),       # page (the LLT below holds 16)
        st.integers(0, 7),        # block within the page
        st.booleans(),            # write
    ),
    min_size=50,
    max_size=400,
)


@settings(max_examples=25, deadline=None)
@given(records=AIP_RECORDS, max_interval=st.sampled_from([2, 3, 4095]))
def test_aip_lazy_aging_matches_eager_rule(records, max_interval):
    """Per-set lookup counters give every training sample, every dead
    victimisation and every wire byte the eager per-way ageing gave, at
    the LLT and the LLC, on both engines, saturating or not."""
    _check_aip_rules(records, max_interval)


def _phased_records(rounds=4, cycles=3, scan=30):
    """Hot sets that AIP learns with confidence, then scans that expire
    them: six hot pages (one block each) for the LLT, three hot pages
    (every block) for the LLC."""
    records = []
    for r in range(rounds):
        for _ in range(cycles):
            records += [(0, page, 0, False) for page in range(6)]
            records += [
                (1, 10 + page, block, False)
                for page in range(3) for block in range(8)
            ]
        records += [(2, 100 + r * scan + i, i % 8, False) for i in range(scan)]
    return records


@pytest.mark.parametrize("max_interval", [3, 4095])
def test_aip_aging_differential_is_not_vacuous(max_interval):
    """Guard the guard: both levels train on hit residencies; unsaturated,
    both pick dead victims; at a cap of 3, both saturate an interval."""
    _, samples, stats = _check_aip_rules(_phased_records(), max_interval)
    for side in (0, 1):
        hit_maxima = [m for s, _, _, hits, m in samples if s == side and hits]
        assert hit_maxima
        if max_interval == 3:
            assert max_interval in hit_maxima
        else:
            assert stats[side].get("dead_victimisations", 0) > 0
    assert stats[0].get("dead_victimisations", 0) > 0
