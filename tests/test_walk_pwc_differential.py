"""Hypothesis differentials for the flat tier's inlined walk/PWC path.

PR 10 inlined the 4-level radix walk, the 3-level PWC probe/fill, and the
cache-line pool into ``_FlatStepper`` (:mod:`repro.sim.engine`). The
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
context switches between ASID segments on *every* record.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.config import fast_config, hugepage_config, mix2_config
from repro.sim.engine import ENGINE_BATCHED
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
