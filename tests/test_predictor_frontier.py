"""The two frontier predictor families: Leeway and hashed-perceptron.

Unit tests pin the decision cores (percentile rule, ring training,
margin-gated integer perceptron updates), the machine-level contracts
(bypass accounting, whole runs on the flat interpreter counted in the
engine totals), the frontier report's engine note, and hypothesis
differentials pinning bit-determinism (two identically seeded runs of
either family produce identical results) and Leeway's O(1) set-access
ageing against the eager per-way rule it replaced.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sim.engine as engine_mod
from repro.experiments.frontier import engine_note
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
from repro.sim.config import (
    CacheGeometry,
    TlbGeometry,
    fast_config,
    hugepage_config,
    leeway_config,
    perceptron_config,
)
from repro.sim.engine import (
    ENGINE_BATCHED,
    ENGINE_SCALAR,
    engine_totals,
    engine_totals_since,
    flat_reason,
)
from repro.sim.machine import Machine
from repro.workloads.suite import get_trace
from repro.workloads.trace import Trace

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
        state.base = 5
        core.on_entry_hit(state, 5 + 10)
        assert state.live == 3
        core.on_entry_hit(state, 5 + 2)
        assert state.live == 2

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
    def test_runs_flat_and_is_counted(self, factory):
        """Both families run whole on the flat interpreter (its generic
        listener path), and the run is counted as flat records."""
        config = factory()
        machine = Machine(config, seed=SEED)
        assert flat_reason(machine) is None

        engine_mod.reset_engine_totals()
        trace = get_trace("locality", 500, SEED)
        machine = Machine(config, seed=SEED)
        result = machine.run(trace, engine=ENGINE_BATCHED)
        assert machine.engine_stats == {
            "engine": ENGINE_BATCHED,
            "mode": "flat",
            "flat_records": len(trace),
        }
        totals = engine_mod.engine_totals()
        assert totals["flat_declines"] == {}
        assert totals["scalar_records"] == 0
        assert totals["flat_records"] == len(trace)
        engine_mod.reset_engine_totals()
        reference = Machine(config, seed=SEED).run(
            trace, engine=ENGINE_SCALAR
        )
        assert result.to_wire() == reference.to_wire()

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


# ------------------------------------------------------------------ #
# Leeway O(1) ageing vs the eager per-way rule (hypothesis)
# ------------------------------------------------------------------ #
class _EagerState(_LeewayState):
    __slots__ = ("age",)

    def __init__(self, sig):
        super().__init__(sig)
        self.age = 0


class _EagerAging:
    """The replaced rule: every lookup ages each valid way of its set by
    one (saturating), and a hit records the entry's age as its live
    distance."""

    def on_lookup(self, structure, set_idx, now):
        cap = self.core.config.max_distance
        for slot in self._slots(structure)[set_idx]:
            if slot is not None and slot.aux is not None:
                if slot.aux.age < cap:
                    slot.aux.age += 1

    def on_hit(self, structure, slot, now):
        if slot.aux is not None:
            slot.aux.live = slot.aux.age

    def filled(self, structure, slot, now):
        self._pending = _EagerState(self._pending.sig)
        super().filled(structure, slot, now)


class _EagerLeewayTlb(_EagerAging, LeewayTlbPredictor):
    @staticmethod
    def _slots(tlb):
        return tlb._entries


class _EagerLeewayCache(_EagerAging, LeewayCachePredictor):
    @staticmethod
    def _slots(cache):
        return cache._lines


def _record_training(pred):
    samples = []
    train = pred.core.train_eviction

    def logged(state):
        samples.append((state.sig, state.live))
        train(state)

    pred.core.train_eviction = logged
    return samples


def _leeway_run(config, trace, engine, leeway, eager):
    """Run ``trace`` with fresh Leeway listeners built from the
    :class:`LeewayConfig` ``leeway`` — the eager reference classes or the
    stock ones — recording every training sample."""
    machine = Machine(config, seed=SEED)
    tlb_cls, llc_cls = (
        (_EagerLeewayTlb, _EagerLeewayCache) if eager
        else (LeewayTlbPredictor, LeewayCachePredictor)
    )
    tlb_pred = tlb_cls(leeway)
    llc_pred = llc_cls(leeway, context=machine.context)
    machine.l2_tlb.listener = machine._tlb_predictor = tlb_pred
    machine.llc.listener = machine._llc_predictor = llc_pred
    samples = (_record_training(tlb_pred), _record_training(llc_pred))
    result = machine.run(trace, engine=engine)
    return result.to_wire(), samples, machine.engine_stats


LEEWAY_RECORDS = st.lists(
    st.tuples(
        st.integers(0, 5),        # pc site
        st.integers(0, 40),       # page (the LLT below holds 16)
        st.integers(0, 7),        # block within the page
        st.booleans(),            # write
    ),
    min_size=50,
    max_size=400,
)


def _check_leeway_rules(records, huge, max_distance):
    """Run ``records`` under the eager rule and the O(1) rule (both
    engines); assert identical training samples and wire bytes, and
    return the samples."""
    trace = Trace(
        "leeway-hypo",
        np.array([0x400000 + s * 4 for s, _, _, _ in records], np.uint64),
        np.array(
            [0x10000000 + p * 4096 + b * 64 for _, p, b, _ in records],
            np.uint64,
        ),
        np.array([w for *_, w in records], np.bool_),
        np.zeros(len(records), np.uint16),
    )
    config = (hugepage_config if huge else fast_config)(
        tlb_predictor="leeway",
        llc_predictor="leeway",
        # small structures, so the LLT and the LLC both hit, evict and
        # train within a few hundred records
        l1_itlb=TlbGeometry(4, 2, 1),
        l1_dtlb=TlbGeometry(4, 2, 1),
        l2_tlb=TlbGeometry(16, 4, 8),
        l1d=CacheGeometry(2, 2, 5),
        l2=CacheGeometry(4, 4, 11),
        llc=CacheGeometry(8, 4, 40),
    )
    leeway = LeewayConfig(
        signature_bits=4, ring_entries=4, max_distance=max_distance
    )
    wire, samples, _ = _leeway_run(
        config, trace, ENGINE_SCALAR, leeway, eager=True
    )
    for engine in (ENGINE_SCALAR, ENGINE_BATCHED):
        got_wire, got_samples, stats = _leeway_run(
            config, trace, engine, leeway, eager=False
        )
        assert got_samples == samples
        assert got_wire == wire
    assert stats["mode"] == "flat"
    return samples


@settings(max_examples=25, deadline=None)
@given(
    records=LEEWAY_RECORDS,
    huge=st.booleans(),
    max_distance=st.sampled_from([3, 255]),
)
def test_leeway_o1_aging_matches_eager_rule(records, huge, max_distance):
    """Per-set lookup counters give every training sample (signature,
    live distance) and every wire byte the eager per-way ageing gave, at
    the LLT (huge-key hits in another set included) and the LLC, on
    both engines, saturating or not."""
    _check_leeway_rules(records, huge, max_distance)


@pytest.mark.parametrize("huge", [False, True])
def test_leeway_aging_differential_is_not_vacuous(huge):
    """Guard the guard: on a seeded random stream both structures train
    on residencies that were hit, including saturated distances."""
    rng = np.random.default_rng(SEED)
    records = [
        (int(s), int(p), int(b), bool(w))
        for s, p, b, w in zip(
            rng.integers(0, 6, 400), rng.integers(0, 41, 400),
            rng.integers(0, 8, 400), rng.integers(0, 2, 400),
        )
    ]
    for side in _check_leeway_rules(records, huge, max_distance=3):
        lives = {live for _, live in side}
        assert 0 in lives and 3 in lives


# ------------------------------------------------------------------ #
# The frontier report's engine note
# ------------------------------------------------------------------ #
def test_engine_note_states_what_ran():
    before = engine_totals()
    trace = get_trace("locality", 500, SEED)
    Machine(leeway_config(), seed=SEED).run(trace, engine=ENGINE_BATCHED)
    Machine(fast_config(tlb_predictor="distance_prefetch"), seed=SEED).run(
        trace, engine=ENGINE_BATCHED
    )
    Machine(leeway_config(), seed=SEED).run(trace, engine=ENGINE_SCALAR)
    totals = engine_totals_since(before)
    assert totals == {
        "runs": 2,
        "flat_records": len(trace),
        "scalar_records": len(trace),
        "flat_declines": {"predictor": 1},
    }
    assert engine_note(totals) == (
        f"engine (this process): 2 runs, {len(trace)} flat / "
        f"{len(trace)} scalar records; flat declines (predictor: 1)"
    )


def test_engine_note_without_batched_runs():
    before = engine_totals()
    assert engine_note(engine_totals_since(before)) == (
        "engine: no batched-engine runs in this process (results came "
        "from the run cache, worker processes or the scalar engine)"
    )
