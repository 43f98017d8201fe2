"""Tests for the AIP baseline predictor."""

from repro.mem.cache import SetAssocCache
from repro.predictors.aip import (
    AipCachePredictor,
    AipConfig,
    AipTlbPredictor,
    _AipCore,
)
from repro.predictors.base import AccessContext
from repro.vm.tlb import Tlb


class TestAipCore:
    def test_new_state_untrained(self):
        core = _AipCore()
        state = core.new_state(0x400000, 0x10)
        assert state.threshold == -1
        assert not state.confident

    # The core reads an entry's interval from its set's lookup count:
    # ``n`` below is that count, advanced by one per set access.
    def test_interval_learning(self):
        core = _AipCore()
        state = core.new_state(0x400000, 0x10)
        n = 5  # five set accesses since the fill
        core.on_entry_hit(state, n)
        assert state.max_seen == 5
        assert core.interval(state, n) == 0
        core.train_eviction(state)
        fresh = core.new_state(0x400000, 0x10)
        assert fresh.threshold == 5
        assert not fresh.confident  # needs a second confirming generation

    def test_confidence_after_stable_intervals(self):
        core = _AipCore()
        for _ in range(2):
            state = core.new_state(0x400000, 0x10)
            core.on_entry_hit(state, 5)
            core.train_eviction(state)
        state = core.new_state(0x400000, 0x10)
        assert state.confident
        assert state.threshold == 5

    def test_dead_prediction_requires_expired_interval(self):
        core = _AipCore(AipConfig(margin=1))
        for _ in range(2):
            state = core.new_state(0x400000, 0x10)
            core.on_entry_hit(state, 3)
            core.train_eviction(state)
        state = core.new_state(0x400000, 0x10, set_lookups=100)
        assert not core.is_dead(state, 104)  # 4 <= 3 + margin
        assert core.is_dead(state, 105)  # 5 > 4

    def test_hit_restarts_the_interval(self):
        core = _AipCore(AipConfig(max_interval=10))
        state = core.new_state(0, 0, set_lookups=7)
        core.on_entry_hit(state, 9)
        core.on_entry_hit(state, 12)
        assert state.max_seen == 3
        assert core.interval(state, 14) == 2
        assert state.hits == 2

    def test_doa_generations_do_not_train(self):
        """The crux of Section IV-C: zero-hit entries give AIP nothing."""
        core = _AipCore()
        for _ in range(5):
            state = core.new_state(0x400000, 0x10)
            assert core.interval(state, 9) == 9
            core.train_eviction(state)  # never hit
        fresh = core.new_state(0x400000, 0x10)
        assert fresh.threshold == -1
        assert not fresh.confident
        assert core.stats.get("untrainable_doa_evictions") == 5

    def test_interval_counter_saturates(self):
        core = _AipCore(AipConfig(max_interval=3))
        state = core.new_state(0, 0)
        assert core.interval(state, 10) == 3


class TestAipTlb:
    def test_dead_entry_victimised_first(self):
        pred = AipTlbPredictor(AipConfig(margin=0))
        tlb = Tlb("LLT", num_entries=2, assoc=2, listener=pred)
        pc = 0x400000
        # Train vpn 0's interval (hit once per 1 set access) twice.
        for gen in range(2):
            tlb.fill(0, 100, pc, now=gen)
            tlb.lookup(0, now=gen)
            tlb.invalidate(0, now=gen)
        tlb.fill(0, 100, pc, now=10)
        tlb.lookup(0, now=11)
        tlb.fill(2, 102, 0x400004, now=12)
        # Several set accesses expire vpn 0's interval.
        for t in range(13, 18):
            tlb.lookup(4, now=t)  # misses; counts as set accesses
        victim = tlb.fill(4, 104, 0x400008, now=20)
        assert victim.vpn == 0
        assert pred.stats.get("dead_victimisations") == 1

    def test_untrained_defers_to_lru(self):
        pred = AipTlbPredictor()
        tlb = Tlb("LLT", num_entries=2, assoc=2, listener=pred)
        tlb.fill(0, 100, 0x400000, now=0)
        tlb.fill(2, 102, 0x400004, now=1)
        victim = tlb.fill(4, 104, 0x400008, now=2)
        assert victim.vpn == 0  # plain LRU order


class TestAipCache:
    def test_per_line_state_attached(self):
        ctx = AccessContext()
        pred = AipCachePredictor(ctx)
        llc = SetAssocCache("LLC", 4, 2, listener=pred)
        ctx.pc = 0x400100
        llc.fill(0, now=0)
        assert llc.probe(0).aux is not None

    def test_storage_larger_than_dppred(self):
        """AIP's storage is the paper's motivation for dpPred (Sec VI-D)."""
        ctx = AccessContext()
        pred = AipCachePredictor(ctx)
        assert pred.storage_bits(32768) > 100 * 8 * 1024  # way over 100KB
