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

The flat interpreter runs single-tenant 4 KB traces whole, so under both
LRU and SRRIP it executes the inlined walk on *every* record. ASID and
huge-page traces run the scalar reference, compared here too.
"""

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
    run_both,
)

# Records deliberately spread VPNs across distinct 9-bit radix regions so
# every PWC outcome fires: same-2MB reuse (L1 PWC hits), same-1GB (L2),
# same-512GB (L3), and cross-region jumps (full misses). ``region``
# selects the top radix index, ``mid``/``lo`` the middle ones.
WALK_RECORDS = st.lists(
    st.tuples(
        st.integers(0, 3),        # pc site
        st.integers(0, 3),        # region: vpn bits 27.. (L3 PWC tag)
        st.integers(0, 2),        # mid: vpn bits 18..26 (L2 PWC tag)
        st.integers(0, 2),        # sub: vpn bits 9..17 (L1 PWC tag)
        st.integers(0, 6),        # page within the 2MB granule
        st.booleans(),            # write
        st.integers(0, 4),        # gap
    ),
    min_size=1,
    max_size=300,
)


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
    """Random ASID run-lengths over random VPN mixes: the batched engine
    sends ASID-carrying traces to the scalar tenant loop with a counted
    ``tenant`` reason, byte-for-byte, including context switches and
    shootdown effects."""
    n = len(records)
    asids = np.empty(n, np.int64)
    pos = 0
    runs = list(asid_runs)
    while pos < n:
        asid, length = runs[pos % len(runs)]
        asids[pos:pos + length] = asid
        pos += length
    trace = build_walk_trace(records, asids=asids)
    config = mix2_config(tlb_predictor="dppred", llc_predictor="cbpred")
    machine = assert_equivalent(trace, config, telemetry=True)
    stats = machine.engine_stats
    assert stats["engine"] == ENGINE_BATCHED
    assert stats["mode"] == "scalar"
    assert stats["flat_reason"] == "tenant"
    assert stats["scalar_records"] == len(trace)


@settings(max_examples=20, deadline=None)
@given(records=WALK_RECORDS)
def test_hugepage_mix_matches_scalar_reference(records):
    """Huge-mapped tables run the real walker on the scalar reference
    (the flat tier declines). Byte-identity includes the LLT's
    huge-entry namespace."""
    trace = build_walk_trace(records)
    config = hugepage_config(tlb_predictor="dppred")
    machine = assert_equivalent(trace, config, telemetry=True)
    stats = machine.engine_stats
    assert stats["engine"] == ENGINE_BATCHED
    assert stats["mode"] == "scalar"
    assert stats["flat_reason"] == "hugepage"
    assert stats["scalar_records"] == len(trace)


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
