"""The two frontier predictor families: Leeway and hashed-perceptron.

Unit tests pin the decision cores (percentile rule, ring training,
margin-gated integer perceptron updates), the machine-level contracts
(bypass accounting, counted ``predictor`` flat declines — never a silent
engine change), and a hypothesis differential pinning bit-determinism:
two identically seeded runs of either family produce identical results.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sim.engine as engine_mod
from repro.predictors.base import AccessContext, PredictorSpec
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
    _PerceptronCore,
    _cache_features,
    _tlb_features,
)
from repro.sim.config import fast_config, leeway_config, perceptron_config
from repro.sim.engine import ENGINE_BATCHED, flat_reason
from repro.sim.machine import Machine
from repro.workloads.suite import get_trace

BUDGET = 3000
SEED = 7


def _evict(core, sig, live):
    state = _LeewayState(sig)
    state.live = live
    core.train_eviction(state)


class TestLeewayCore:
    def test_cold_ring_never_predicts(self):
        core = _LeewayCore(LeewayConfig(ring_entries=4))
        assert not core.predicts_doa(0)
        for _ in range(3):  # still one -1 slot left
            _evict(core, 0, 0)
        assert not core.predicts_doa(0)

    def test_all_doa_signature_predicts_dead(self):
        core = _LeewayCore(LeewayConfig(ring_entries=4, percentile=75))
        for _ in range(4):
            _evict(core, 0, 0)
        assert core.predicts_doa(0)
        assert not core.predicts_doa(1)  # other signatures untouched

    def test_percentile_tolerates_outlier_reuse(self):
        """One live residency among four at percentile 75 keeps the
        signature dead (the variability tolerance); at 100 it flips."""
        strict = _LeewayCore(LeewayConfig(ring_entries=4, percentile=100))
        tolerant = _LeewayCore(LeewayConfig(ring_entries=4, percentile=75))
        for core in (strict, tolerant):
            for live in (0, 0, 0, 9):
                _evict(core, 0, live)
        assert tolerant.predicts_doa(0)
        assert not strict.predicts_doa(0)

    def test_mostly_live_signature_allocates(self):
        core = _LeewayCore(LeewayConfig(ring_entries=4, percentile=75))
        for live in (5, 3, 0, 7):
            _evict(core, 0, live)
        assert not core.predicts_doa(0)

    def test_ring_shifts_one_sample_per_eviction(self):
        """Recovery is gradual: an all-dead ring needs enough live
        evictions to cross the percentile back, not just one."""
        core = _LeewayCore(LeewayConfig(ring_entries=4, percentile=75))
        for _ in range(4):
            _evict(core, 0, 0)
        assert core.predicts_doa(0)
        _evict(core, 0, 9)
        assert core.predicts_doa(0)  # 3/4 dead still >= 75th percentile
        _evict(core, 0, 9)
        assert not core.predicts_doa(0)

    def test_sampling_period_is_deterministic(self):
        core = _LeewayCore(LeewayConfig(sample_period=4))
        picks = [core.should_sample(0) for _ in range(8)]
        assert picks == [False, False, False, True] * 2

    def test_age_saturates_at_max_distance(self):
        core = _LeewayCore(LeewayConfig(max_distance=3))
        state = _LeewayState(0)
        for _ in range(10):
            core.on_set_access(state)
        assert state.age == 3

    def test_storage_bits_positive(self):
        assert _LeewayCore().storage_bits(1024) > 0

    def test_config_validation(self):
        for bad in (
            {"signature_bits": 0},
            {"ring_entries": 0},
            {"percentile": 0},
            {"percentile": 101},
            {"max_distance": 0},
            {"sample_period": 1},
        ):
            with pytest.raises(ValueError):
                LeewayConfig(**bad).validate()


class TestPerceptronCore:
    def test_cold_tables_allocate(self):
        core = _PerceptronCore(PerceptronConfig())
        state = core.predict((1, 2, 3, 4))
        assert state.yout == 0
        assert not core.predicts_doa(state)

    def test_training_moves_weights_toward_doa(self):
        core = _PerceptronCore(PerceptronConfig(threshold=4))
        features = (1, 2, 3, 4)
        for _ in range(3):
            core.train(core.predict(features), was_doa=True)
        state = core.predict(features)
        assert state.yout == 12  # 3 trainings x 4 features
        assert core.predicts_doa(state)
        core.train(core.predict(features), was_doa=False)
        assert core.predict(features).yout == 8

    def test_weights_saturate(self):
        core = _PerceptronCore(PerceptronConfig(weight_bits=3))
        features = (0, 0, 0, 0)
        for _ in range(50):
            core.train(core.predict(features), was_doa=True)
        limit = core.weight_limit
        assert limit == 3
        assert core.predict(features).yout == 4 * limit

    def test_margin_gates_confident_correct_predictions(self):
        core = _PerceptronCore(PerceptronConfig(threshold=1, train_margin=8))
        features = (5, 6, 7, 8)
        # Train well past the margin, then a correct confident prediction
        # must leave the weights untouched.
        for _ in range(4):
            core.train(core.predict(features), was_doa=True)
        yout = core.predict(features).yout
        assert yout > 8
        core.train(core.predict(features), was_doa=True)
        assert core.predict(features).yout == yout

    def test_features_are_distinct_per_level(self):
        tlb = _tlb_features(0x400123, 0x10011, 8)
        cache = _cache_features(0x400123, 0x40044, 8)
        assert len(tlb) == len(cache) == _PerceptronCore.NUM_FEATURES
        assert all(0 <= f < 256 for f in tlb + cache)

    def test_storage_bits_positive(self):
        assert _PerceptronCore().storage_bits(4096) > 0

    def test_config_validation(self):
        for bad in (
            {"table_bits": 0},
            {"weight_bits": 1},
            {"threshold": 0},
            {"train_margin": -1},
            {"sample_period": 1},
        ):
            with pytest.raises(ValueError):
                PerceptronConfig(**bad).validate()


class TestPredictorSpecContract:
    def test_cache_variants_require_context(self):
        with pytest.raises(ValueError, match="AccessContext"):
            LeewayCachePredictor(LeewayConfig())
        with pytest.raises(ValueError, match="AccessContext"):
            PerceptronCachePredictor(PerceptronConfig())

    def test_new_predictors_satisfy_predictor_spec(self):
        ctx = AccessContext()
        for pred in (
            LeewayTlbPredictor(),
            LeewayCachePredictor(context=ctx),
            PerceptronTlbPredictor(),
            PerceptronCachePredictor(context=ctx),
        ):
            assert isinstance(pred, PredictorSpec)
            assert pred.probe is None
            assert pred.storage_bits(64) > 0


class TestMachineIntegration:
    @pytest.mark.parametrize("factory", [leeway_config, perceptron_config])
    def test_runs_and_bypasses(self, factory):
        trace = get_trace("cc", BUDGET, SEED)
        machine = Machine(factory(track_reference=True), seed=SEED)
        result = machine.run(trace)
        assert result.instructions > 0
        assert result.llt_bypasses > 0
        assert result.tlb_accuracy is not None

    @pytest.mark.parametrize("factory", [leeway_config, perceptron_config])
    def test_flat_decline_is_counted_not_silent(self, factory):
        """New families run on the scalar reference with a counted
        ``predictor`` decline — the no-silent-decline acceptance bar."""
        config = factory()
        machine = Machine(config, seed=SEED)
        assert flat_reason(machine) == "predictor"

        engine_mod.reset_engine_totals()
        trace = get_trace("locality", 500, SEED)
        machine = Machine(config, seed=SEED)
        machine.run(trace, engine=ENGINE_BATCHED)
        stats = machine.engine_stats
        assert stats["engine"] == ENGINE_BATCHED
        assert stats["mode"] == "scalar"
        assert stats["flat_reason"] == "predictor"
        assert stats["scalar_records"] == len(trace)
        totals = engine_mod.engine_totals()
        assert totals["flat_declines"] == {"predictor": 1}
        assert totals["scalar_records"] == len(trace)
        assert totals["flat_records"] == 0
        engine_mod.reset_engine_totals()

    def test_dppred_still_runs_flat(self):
        """Regression: the counted decline must not leak onto configs the
        flat interpreter does model."""
        machine = Machine(
            fast_config(tlb_predictor="dppred", llc_predictor="cbpred"),
            seed=SEED,
        )
        assert flat_reason(machine) is None


# ------------------------------------------------------------------ #
# Determinism differential (hypothesis)
# ------------------------------------------------------------------ #
PAGES = st.integers(0, 600)
STREAMS = st.lists(
    st.tuples(PAGES, st.booleans(), st.integers(0, 3)),
    min_size=20,
    max_size=250,
)


def drive(machine, stream):
    for page, write, site in stream:
        machine.access(
            0x400000 + site * 4, 0x10000000 + page * 4096, write, 2
        )


def _fingerprint(machine):
    return (
        machine.instructions,
        machine.cycles,
        machine.l2_tlb.stats.snapshot(),
        machine.llc.stats.snapshot(),
        sorted(machine.llc.resident_blocks()),
    )


@settings(max_examples=15, deadline=None)
@given(stream=STREAMS)
@pytest.mark.parametrize("factory", [leeway_config, perceptron_config])
def test_identical_streams_are_bit_deterministic(factory, stream):
    """Integer-only training: two machines fed the same stream agree on
    every counter and on the exact LLC contents."""
    a = Machine(factory())
    b = Machine(factory())
    drive(a, stream)
    drive(b, stream)
    assert _fingerprint(a) == _fingerprint(b)


@pytest.mark.parametrize("factory", [leeway_config, perceptron_config])
def test_identical_seeded_runs_produce_identical_results(factory):
    trace_a = get_trace("cc", BUDGET, SEED)
    trace_b = get_trace("cc", BUDGET, SEED)
    result_a = Machine(factory(), seed=SEED).run(trace_a)
    result_b = Machine(factory(), seed=SEED).run(trace_b)
    assert repr(result_a) == repr(result_b)
    assert result_a.raw == result_b.raw
