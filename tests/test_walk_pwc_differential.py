"""Hypothesis differentials for the flat tier's inlined walk/PWC path.

The flat interpreter (``_FlatStepper`` in :mod:`repro.sim.engine`) inlines
the 4-level radix walk and the 3-level PWC probe/fill; an L1-PWC hit
loads its PTE from the leaf node the entry holds, skipping the descent,
unless the scalar walker installed the entry (no node). The
reference implementations — :meth:`repro.vm.walker.PageTableWalker.walk`
over :class:`repro.vm.pagetable.PageTable` plus
:class:`repro.vm.pwc.PageWalkCaches` — still run on the scalar engine, so
scalar-vs-batched differentials over adversarial VPN/ASID/huge mixes pin
the inline byte-for-byte: walker stats (walks, walk_memory_accesses,
walk_cycles), PWC hit/miss splits, page-table allocation counters, and
the decision-event rings all travel through ``SimResult.to_dict()`` and
the telemetry payloads compared here.

The flat interpreter runs every trace here whole — single-tenant 4 KB,
ASID-carrying, and huge-mapped — so under both LRU and SRRIP it executes
the inlined walk (4 KB and 2 MB leaves), the per-ASID keys and the
context switches between ASID segments on *every* record. The last
differential drives every flat-eligible registry predictor pair through
the same traces, pinning the flat tier's generic listener path (hooks at
the lookup sites, LLT and LLC fills run inline with the listener's
``on_fill`` deciding).
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.telemetry import TelemetrySpec
from repro.predictors import registry
from repro.sim.config import (
    CacheGeometry,
    TlbGeometry,
    fast_config,
    hugepage_config,
    mix2_config,
)
from repro.sim.engine import (
    ENGINE_BATCHED,
    ENGINE_SCALAR,
    GENERIC_LLC_LISTENERS,
    GENERIC_TLB_LISTENERS,
    flat_reason,
)
from repro.sim.machine import Machine
from repro.workloads.trace import Trace

from tests.test_engine_equivalence import (
    SEED,
    assert_equivalent,
    assert_wholly_flat,
    run_both,
)

# Records deliberately spread VPNs across distinct 9-bit radix regions so
# every PWC outcome fires: same-2MB reuse (L1 PWC hits), same-1GB (L2),
# same-512GB (L3), and cross-region jumps (full misses). ``region``
# selects the top radix index, ``mid``/``lo`` the middle ones.
WALK_RECORD = st.tuples(
    st.integers(0, 3),        # pc site
    st.integers(0, 3),        # region: vpn bits 27.. (L3 PWC tag)
    st.integers(0, 2),        # mid: vpn bits 18..26 (L2 PWC tag)
    st.integers(0, 2),        # sub: vpn bits 9..17 (L1 PWC tag)
    st.integers(0, 6),        # page within the 2MB granule
    st.booleans(),            # write
    st.integers(0, 4),        # gap
)
WALK_RECORDS = st.lists(WALK_RECORD, min_size=1, max_size=300)
# Long enough that 1-50-record ASID slices always switch at least once.
SCHEDULED_RECORDS = st.lists(WALK_RECORD, min_size=60, max_size=300)


def build_walk_trace(records, asids=None) -> Trace:
    pcs = np.array(
        [0x400000 + s * 4 for s, *_ in records], np.uint64
    )
    vpns = [
        (r << 27) | (m << 18) | (u << 9) | p
        for _, r, m, u, p, _, _ in records
    ]
    vaddrs = np.array([v << 12 for v in vpns], np.uint64)
    writes = np.array([w for *_, w, _ in records], np.bool_)
    gaps = np.array([g for *_, g in records], np.uint32)
    return Trace("hypo-walk", pcs, vaddrs, writes, gaps, asids)


@pytest.mark.parametrize("policy", ["lru", "srrip"])
@settings(max_examples=25, deadline=None)
@given(records=WALK_RECORDS)
def test_inlined_walk_pwc_matches_walker_reference(policy, records):
    """Flat runs execute the inlined walk/PWC on every record; the
    fingerprint + telemetry comparison covers walker, PWC, and
    page-table stats plus the decision-event rings."""
    trace = build_walk_trace(records)
    config = fast_config(
        tlb_policy=policy,
        tlb_predictor="dppred",
        llc_predictor="cbpred",
    )
    machine = assert_equivalent(trace, config, telemetry=True)
    stats = machine.engine_stats
    assert stats["engine"] == ENGINE_BATCHED
    assert stats["mode"] == "flat"
    assert stats["flat_records"] == len(trace)
    # Not vacuous: the flat tier really walked and consulted the PWCs.
    pwc = machine.walker.pwc.stats
    walks = machine.walker.stats.get("walks")
    assert walks > 0
    assert (
        pwc.get("pwc_l1_hits") + pwc.get("pwc_l2_hits")
        + pwc.get("pwc_l3_hits") + pwc.get("pwc_misses")
    ) == walks


def schedule_asids(n, asid_runs) -> np.ndarray:
    """Cycle through ``(asid, run_length)`` slices over ``n`` records."""
    asids = np.empty(n, np.int64)
    pos = i = 0
    while pos < n:
        asid, length = asid_runs[i % len(asid_runs)]
        asids[pos:pos + length] = asid
        pos += length
        i += 1
    return asids


@settings(max_examples=20, deadline=None)
@given(
    records=WALK_RECORDS,
    asid_runs=st.lists(
        st.tuples(st.integers(1, 3), st.integers(1, 60)),
        min_size=1,
        max_size=12,
    ),
)
def test_asid_mix_matches_scalar_tenant_loop(records, asid_runs):
    """Random ASID run-lengths over random VPN mixes: the flat tier runs
    ASID-carrying traces whole, byte-for-byte with the scalar tenant
    loop, including context switches and shootdown effects."""
    trace = build_walk_trace(
        records, asids=schedule_asids(len(records), asid_runs)
    )
    config = mix2_config(tlb_predictor="dppred", llc_predictor="cbpred")
    machine = assert_equivalent(trace, config, telemetry=True)
    assert_wholly_flat(machine, trace)


@settings(max_examples=20, deadline=None)
@given(records=WALK_RECORDS)
def test_hugepage_mix_matches_scalar_reference(records):
    """Huge-mapped tables run the inlined 2 MB leaf walk on the flat
    tier. Byte-identity includes the LLT's huge-entry namespace."""
    trace = build_walk_trace(records)
    config = hugepage_config(tlb_predictor="dppred")
    machine = assert_equivalent(trace, config, telemetry=True)
    assert_wholly_flat(machine, trace)


@settings(max_examples=40, deadline=None)
@given(
    records=SCHEDULED_RECORDS,
    tenants=st.integers(1, 4),
    slices=st.lists(st.integers(1, 50), min_size=1, max_size=12),
    shootdown=st.booleans(),
    huge_fraction=st.sampled_from([0.0, 0.5, 1.0]),
    policy=st.sampled_from(["lru", "srrip"]),
    predictors=st.booleans(),
)
def test_tenant_huge_schedules_match_scalar(
    records, tenants, slices, shootdown, huge_fraction, policy, predictors
):
    """Random ASID schedules (1-4 tenants, 1-50-record slices, with and
    without shootdown on switch) over 4 KB, mixed and all-huge tables,
    LRU and SRRIP, bare and dpPred+cbPred: wire bytes, timeline samples
    and the decision-event rings (context switches and shootdowns
    included) match the scalar engine, and the run is wholly flat."""
    asid_runs = [
        (1 + i % tenants, slices[i % len(slices)])
        for i in range(len(records))
    ]
    trace = build_walk_trace(
        records, asids=schedule_asids(len(records), asid_runs)
    )
    kwargs = {"tlb_predictor": "dppred", "llc_predictor": "cbpred"}
    config = mix2_config(
        num_tenants=tenants,
        shootdown_on_switch=shootdown,
        huge_fraction=huge_fraction,
        tlb_policy=policy,
        cache_policy=policy,
        **(kwargs if predictors else {}),
    )
    (r_s, m_s), (r_b, m_b) = run_both(trace, config, telemetry=True)
    assert r_s.to_wire() == r_b.to_wire()
    tel_s, tel_b = m_s.telemetry, m_b.telemetry
    assert tel_s.timeline.to_payload() == tel_b.timeline.to_payload()
    assert (
        json.dumps(tel_s.probe.events()).encode()
        == json.dumps(tel_b.probe.events()).encode()
    )
    assert tel_s.probe.emitted == tel_b.probe.emitted
    assert_wholly_flat(m_b, trace)
    # Not vacuous: every multi-tenant schedule really switched.
    switches = tel_b.probe.counts().get("ctx_switch", 0)
    assert (switches > 0) == (tenants > 1)


def test_walker_pwc_stat_keys_compared():
    """Guard the guard: the stats compared by the differentials above
    actually contain the walker/PWC/page-table keys the inline bumps —
    if a refactor renames them, the differentials would go vacuous."""
    trace = build_walk_trace([(0, r, m, u, p, False, 0)
                              for r in range(2)
                              for m in range(2)
                              for u in range(2)
                              for p in range(3)])
    config = fast_config(tlb_policy="srrip")
    (r_s, m_s), (r_b, m_b) = run_both(trace, config, seed=SEED)
    for machine in (m_s, m_b):
        walker = machine.walker.stats
        for key in ("walks", "walk_memory_accesses", "walk_cycles"):
            assert walker.get(key) > 0, key
        pt = machine.walker.page_table.stats
        for key in ("nodes_allocated", "pages_mapped"):
            assert pt.get(key) > 0, key
        pwc = machine.walker.pwc.stats
        assert pwc.get("pwc_misses") > 0
    for key in ("walks", "walk_memory_accesses", "walk_cycles"):
        assert m_s.walker.stats.get(key) == m_b.walker.stats.get(key), key
    for key in ("pwc_l1_hits", "pwc_l2_hits", "pwc_l3_hits", "pwc_misses"):
        assert (
            m_s.walker.pwc.stats.get(key)
            == m_b.walker.pwc.stats.get(key)
        ), key


# --------------------------------------------------------------------- #
# Registry predictors on the generic listener path
# --------------------------------------------------------------------- #
def _generic_pairs():
    """Every valid (TLB, LLC) registry pair the flat tier runs with at
    least one listener on its generic path (dpPred/cbPred are inlined
    and pinned by the differentials above)."""
    inlined = {"none", "dppred", "dppred_sh", "dppred_demote",
               "cbpred", "cbpred_nopfq"}
    pairs = []
    for tlb in ("none",) + registry.registered_names(registry.KIND_TLB):
        for llc in ("none",) + registry.registered_names(registry.KIND_LLC):
            if tlb in inlined and llc in inlined:
                continue
            try:
                config = fast_config(tlb_predictor=tlb, llc_predictor=llc)
                config.validate()
            except ValueError:
                continue
            if flat_reason(Machine(config, seed=SEED)) is None:
                pairs.append((tlb, llc))
    return pairs


GENERIC_PAIRS = _generic_pairs()


def _observed_run(trace, config, engine, oracle):
    """One telemetry-on run with every predictor's prediction observer
    recorded; returns the result, the machine and the observations."""
    machine = Machine(
        config,
        seed=SEED,
        telemetry=TelemetrySpec(interval=97).build(),
        oracle_outcomes=oracle[0],
        llc_oracle_outcomes=oracle[1],
    )
    seen = []
    for side, pred in (
        ("tlb", machine.tlb_predictor), ("llc", machine.llc_predictor)
    ):
        if pred is not None and hasattr(pred, "prediction_observer"):
            pred.prediction_observer = (
                lambda key, doa, side=side: seen.append((side, key, doa))
            )
    return machine.run(trace, engine=engine), machine, seen


#: Structures small enough that a few hundred records evict from every
#: level, so predictors train, predict and pick victims.
TINY = dict(
    l1_itlb=TlbGeometry(4, 2, 1),
    l1_dtlb=TlbGeometry(4, 2, 1),
    l2_tlb=TlbGeometry(16, 4, 8),
    l1d=CacheGeometry(2, 2, 5),
    l2=CacheGeometry(4, 4, 11),
    llc=CacheGeometry(8, 4, 40),
)


def _plain(value):
    """Comparable form of predictor state: per-entry ``aux`` objects by
    their slots, counter arrays by their values, stats by snapshot."""
    if hasattr(value, "__slots__") and not isinstance(value, tuple):
        return tuple(_plain(getattr(value, s)) for s in value.__slots__)
    if hasattr(value, "_values"):
        return list(value._values)
    if hasattr(value, "counters"):
        return value.snapshot()
    return value


def _predictor_state(machine):
    """Each generic-path predictor's own tables and stats, its core's,
    and the ``aux`` metadata of every resident LLT entry and LLC line.
    Inlined dpPred/cbPred contribute their stats only: the inline keeps
    their tables exact, not their between-hook scratch fields."""
    state = {}
    for side, pred in (
        ("tlb", machine.tlb_predictor), ("llc", machine.llc_predictor)
    ):
        if pred is None:
            continue
        if type(pred) not in GENERIC_TLB_LISTENERS | GENERIC_LLC_LISTENERS:
            state[side] = pred.stats.snapshot()
            continue
        for owner, obj in ((side, pred), (side + "_core",
                                          getattr(pred, "core", None))):
            if obj is None:
                continue
            state[owner] = {
                name: _plain(value)
                for name, value in vars(obj).items()
                if isinstance(value, (bool, int, list, dict))
                or hasattr(value, "_values")
                or hasattr(value, "counters")
            }
    state["llt_aux"] = [
        (entry.vpn, _plain(entry.aux))
        for ways in machine.l2_tlb._entries
        for entry in ways
        if entry is not None
    ]
    state["llc_aux"] = [
        (line.tag, _plain(line.aux))
        for ways in machine.llc._lines
        for line in ways
        if line is not None
    ]
    return state


@settings(max_examples=60, deadline=None)
@given(
    records=SCHEDULED_RECORDS,
    pair=st.sampled_from(GENERIC_PAIRS),
    policy=st.sampled_from(["lru", "srrip"]),
    scenario=st.sampled_from(["plain", "mix2", "huge"]),
    oracle_replay=st.booleans(),
    slices=st.lists(st.integers(1, 50), min_size=1, max_size=8),
)
def test_registry_pairs_match_scalar(
    records, pair, policy, scenario, oracle_replay, slices
):
    """Every flat-eligible registry pair x LRU/SRRIP x {plain, mix2 ASID
    schedule, huge_fraction 0.5} on tiny structures, telemetry on: wire
    bytes, timeline samples, decision-event rings, each predictor's
    tables, stats and prediction-observer sequence, and the per-entry
    predictor metadata match the scalar engine, and the run is wholly
    flat. Oracle pairs also replay pass 1's outcomes (pass 2)."""
    tlb, llc = pair
    kwargs = dict(
        tlb_predictor=tlb,
        llc_predictor=llc,
        tlb_policy=policy,
        cache_policy=policy,
        **TINY,
    )
    asids = None
    if scenario == "mix2":
        config = mix2_config(**kwargs)
        asids = schedule_asids(
            len(records),
            [(1 + i % 2, slices[i % len(slices)]) for i in range(len(records))],
        )
    elif scenario == "huge":
        config = fast_config(huge_fraction=0.5, **kwargs)
    else:
        config = fast_config(**kwargs)
    trace = build_walk_trace(records, asids=asids)
    oracle = (None, None)
    if oracle_replay and "oracle" in pair:
        _, recorder, _ = _observed_run(trace, config, ENGINE_SCALAR, oracle)
        oracle = (
            getattr(recorder.oracle_recorder, "outcomes", None),
            getattr(recorder.llc_oracle_recorder, "outcomes", None),
        )
    r_s, m_s, seen_s = _observed_run(trace, config, ENGINE_SCALAR, oracle)
    r_b, m_b, seen_b = _observed_run(trace, config, ENGINE_BATCHED, oracle)
    assert r_s.to_wire() == r_b.to_wire()
    tel_s, tel_b = m_s.telemetry, m_b.telemetry
    assert tel_s.timeline.to_payload() == tel_b.timeline.to_payload()
    assert (
        json.dumps(tel_s.probe.events()).encode()
        == json.dumps(tel_b.probe.events()).encode()
    )
    assert tel_s.probe.emitted == tel_b.probe.emitted
    assert seen_s == seen_b
    assert _predictor_state(m_s) == _predictor_state(m_b)
    assert m_s.context.pc == m_b.context.pc
    assert_wholly_flat(m_b, trace)


def test_generic_pairs_cover_every_flat_family():
    """Guard the guard: the sampled pairs include each generic family on
    both structures."""
    tlbs = {tlb for tlb, _ in GENERIC_PAIRS}
    llcs = {llc for _, llc in GENERIC_PAIRS}
    for name in ("leeway", "perceptron", "ship", "aip", "oracle"):
        assert name in tlbs and name in llcs, name
    assert "distance_prefetch" not in tlbs
