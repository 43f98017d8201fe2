"""Multi-tenant scenario layer: scheduler, shootdowns, machine plumbing.

Covers the tenancy tentpole end to end: deterministic ASID-tagged mix
traces whose components are byte-identical to their standalone runs, the
machine's context-switch/shootdown path (including the PWC-staleness
regression), per-tenant page-table isolation, and byte-identical results
through ``run_matrix`` and the serve path.
"""

import json

import numpy as np
import pytest

import repro.sim.diskcache as diskcache
from repro.serve import ServeClient, start_background
from repro.sim.config import fast_config, hugepage_config, mix2_config, mix4_config
from repro.sim.inflight import reset_global_inflight
from repro.sim.machine import Machine
from repro.sim.parallel import RunRequest, run_matrix
from repro.sim.results import wire_bytes
from repro.sim.runner import clear_run_cache, machine_seed_for, run_trace
from repro.vm.pwc import PageWalkCaches
from repro.vm.tlb import Tlb
from repro.workloads.suite import clear_trace_cache, get_trace
from repro.workloads.tenants import (
    MIX_COMPONENTS,
    TenantScheduler,
    build_mix_trace,
)

BUDGET = 4000
SEED = 42


# --------------------------------------------------------------------- #
# Scheduler and mix-trace construction
# --------------------------------------------------------------------- #
class TestScheduler:
    def test_validation(self):
        with pytest.raises(ValueError):
            TenantScheduler(quantum=0)
        with pytest.raises(ValueError):
            TenantScheduler(jitter=1.0)
        with pytest.raises(ValueError):
            TenantScheduler().schedule("empty", [])
        with pytest.raises(ValueError):
            build_mix_trace("mix9", BUDGET)

    def test_mix_trace_is_deterministic(self):
        a = build_mix_trace("mix2", BUDGET, SEED)
        b = build_mix_trace("mix2", BUDGET, SEED)
        for field in ("pcs", "vaddrs", "writes", "gaps", "asids"):
            np.testing.assert_array_equal(
                getattr(a, field), getattr(b, field)
            )
        c = build_mix_trace("mix2", BUDGET, SEED + 1)
        assert not np.array_equal(a.asids, c.asids) or not np.array_equal(
            a.vaddrs, c.vaddrs
        )

    @pytest.mark.parametrize("mix", sorted(MIX_COMPONENTS))
    def test_components_match_standalone_traces(self, mix):
        """Per-ASID sub-streams are exactly the standalone component
        traces — record order preserved — so mix-vs-solo comparisons
        measure consolidation, not trace drift."""
        names = MIX_COMPONENTS[mix]
        trace = build_mix_trace(mix, BUDGET, SEED)
        per_tenant = BUDGET // len(names)
        for asid, comp in enumerate(names, start=1):
            solo = get_trace(comp, per_tenant, SEED)
            mask = trace.asids == asid
            np.testing.assert_array_equal(trace.vaddrs[mask], solo.vaddrs)
            np.testing.assert_array_equal(trace.pcs[mask], solo.pcs)
            np.testing.assert_array_equal(trace.writes[mask], solo.writes)
            np.testing.assert_array_equal(trace.gaps[mask], solo.gaps)

    def test_interleaving_respects_jittered_quanta(self):
        trace = build_mix_trace("mix2", BUDGET, SEED)
        asids = trace.asids
        boundaries = np.flatnonzero(np.diff(asids)) + 1
        assert len(boundaries) >= 2  # genuinely interleaved
        slices = np.diff(np.concatenate(([0], boundaries, [len(asids)])))
        scheduler = TenantScheduler()
        lo = int(scheduler.quantum * (1 - scheduler.jitter))
        hi = int(scheduler.quantum * (1 + scheduler.jitter))
        # Every slice except per-tenant tails obeys the jitter window.
        assert (slices[:-2] >= lo).all() and (slices[:-2] <= hi).all()

    def test_iter_asids_matches_array(self):
        trace = build_mix_trace("mix2", 2000, SEED)
        assert list(trace.iter_asids(chunk=256)) == trace.asids.tolist()
        plain = get_trace("stream", 500, SEED)
        with pytest.raises(ValueError):
            list(plain.iter_asids())

    def test_truncated_preserves_asids(self):
        trace = build_mix_trace("mix2", 2000, SEED)
        head = trace.truncated(100)
        assert head.asids is not None and len(head.asids) == 100
        np.testing.assert_array_equal(head.asids, trace.asids[:100])


# --------------------------------------------------------------------- #
# Machine plumbing: tenancy counters, shootdowns, isolation
# --------------------------------------------------------------------- #
class TestMachineTenancy:
    def test_mix_run_counts_tenancy(self):
        trace = build_mix_trace("mix2", BUDGET, SEED)
        machine = Machine(mix2_config(), seed=SEED)
        result = machine.run_scalar(trace)
        tenants = result.raw["tenants"]
        assert tenants["tenants_seen"] == 2
        assert tenants["context_switches"] >= 2
        # shootdown_on_switch: one shootdown per switch.
        assert tenants["shootdowns"] == tenants["context_switches"]

    def test_no_shootdown_when_disabled(self):
        trace = build_mix_trace("mix2", BUDGET, SEED)
        machine = Machine(
            mix2_config(shootdown_on_switch=False), seed=SEED
        )
        result = machine.run_scalar(trace)
        tenants = result.raw["tenants"]
        assert tenants["context_switches"] >= 2
        assert "shootdowns" not in tenants

    def test_single_tenant_results_carry_no_tenant_key(self):
        """Byte-stability guard: classic runs must not grow a raw key."""
        trace = get_trace("stream", 1000, SEED)
        result = Machine(fast_config(), seed=SEED).run_scalar(trace)
        assert "tenants" not in result.raw

    def test_tenants_share_frames_but_not_translations(self):
        machine = Machine(mix2_config(), seed=SEED)
        walker = machine.walker
        pfn1, _, _ = walker.walk(0x123, 0, asid=1)
        pfn2, _, _ = walker.walk(0x123, 1, asid=2)
        assert pfn1 != pfn2  # same VPN, disjoint address spaces
        again, _, _ = walker.walk(0x123, 2, asid=1)
        assert again == pfn1  # translations are stable per tenant

    def test_shootdown_asid_spares_other_tenants(self):
        machine = Machine(mix2_config(), seed=SEED)
        machine.access(0x400000, 0x10000000, False, 2, asid=1)
        machine.access(0x400004, 0x10000000, False, 2, asid=2)
        machine.shootdown_asid(1)
        assert machine.l1_dtlb.probe(0x10000, asid=1) is None
        assert machine.l1_dtlb.probe(0x10000, asid=2) is not None
        assert machine.l2_tlb.probe(0x10000, asid=2) is not None

    def test_shootdown_all_empties_every_tlb(self):
        machine = Machine(mix2_config(), seed=SEED)
        machine.access(0x400000, 0x10000000, False, 2, asid=1)
        machine.access(0x400004, 0x20000000, True, 2, asid=2)
        dropped = machine.shootdown_all()
        assert dropped > 0
        assert machine.l1_itlb.occupancy() == 0
        assert machine.l1_dtlb.occupancy() == 0
        assert machine.l2_tlb.occupancy() == 0


# --------------------------------------------------------------------- #
# PWC staleness regression (the shootdown bugfix)
# --------------------------------------------------------------------- #
class TestPwcShootdownConsistency:
    def test_invalidate_flushes_pwc_entries(self):
        """Regression: Tlb.invalidate used to shoot down the TLB entry
        but leave the page-walk caches holding partial translations for
        the same region, so a post-shootdown remap resolved through
        stale paging-structure entries."""
        tlb = Tlb("llt", 16, 4)
        pwc = PageWalkCaches()
        tlb.pwc = pwc
        vpn = 0x40
        tlb.fill(vpn, 0x99, 0, now=0)
        pwc.fill(vpn)
        resolved, _ = pwc.consult(vpn)
        assert resolved == 3
        tlb.invalidate(vpn, now=1)
        assert pwc.stats.get("pwc_invalidations") == 3
        assert pwc.invalidate(vpn) == 0
        resolved, _ = pwc.consult(vpn)
        assert resolved == 0

    def test_invalidate_asid_flushes_only_that_asid(self):
        tlb = Tlb("llt", 16, 4)
        pwc = PageWalkCaches()
        tlb.pwc = pwc
        tlb.fill(0x40, 0x99, 0, now=0, asid=1)
        tlb.fill(0x40, 0xAA, 0, now=0, asid=2)
        pwc.fill(0x40, asid=1)
        pwc.fill(0x40, asid=2)
        tlb.invalidate_asid(1, now=1)
        assert pwc.consult(0x40, asid=1)[0] == 0
        assert pwc.consult(0x40, asid=2)[0] == 3

    def test_invalidate_all_flushes_pwc(self):
        tlb = Tlb("llt", 16, 4)
        pwc = PageWalkCaches()
        tlb.pwc = pwc
        for vpn in (0x40, 0x41, 0x1000):
            tlb.fill(vpn, vpn + 1, 0, now=0)
            pwc.fill(vpn)
        tlb.invalidate_all(now=1)
        for vpn in (0x40, 0x41, 0x1000):
            assert pwc.consult(vpn)[0] == 0

    def test_machine_wires_llt_to_pwc(self):
        machine = Machine(fast_config(), seed=SEED)
        assert machine.l2_tlb.pwc is machine.walker.pwc

    def test_shootdown_then_remap_uses_fresh_translation(self):
        """End to end: walk, shoot down, unmap + rewalk — the second walk
        must re-load the full path (no stale PWC skip) and produce the
        new frame."""
        machine = Machine(fast_config(), seed=SEED)
        vaddr = 0x10000000
        vpn = vaddr >> 12
        machine.access(0x400000, vaddr, False, 2)
        old_pfn = machine.page_table.lookup(vpn)
        assert old_pfn is not None
        assert machine.walker.pwc.consult(vpn)[0] > 0
        machine.shootdown_page(vpn)
        assert machine.walker.pwc.consult(vpn)[0] == 0
        assert machine.l2_tlb.probe(vpn) is None
        machine.page_table.unmap(vpn)
        new_pfn, _, _ = machine.walker.walk(vpn, 10)
        assert new_pfn != old_pfn  # demand-remapped to a fresh frame

    def test_page_filter_reset_on_shootdown(self):
        """A shootdown between two accesses to one page makes the
        second miss the L1 D-TLB: nothing serves it from the dropped
        entry without a TLB probe."""
        machine = Machine(fast_config(), seed=SEED)
        vaddr = 0x10000000
        machine.access(0x400000, vaddr, False, 2)
        machine.access(0x400000, vaddr + 8, False, 2)  # an L1 D-TLB hit
        hits_before = machine.l1_dtlb.stats.get("hits")
        misses_before = machine.l1_dtlb.stats.get("misses")
        machine.shootdown_page(vaddr >> 12)
        machine.access(0x400000, vaddr + 16, False, 2)
        assert machine.l1_dtlb.stats.get("misses") == misses_before + 1
        assert machine.l1_dtlb.stats.get("hits") == hits_before


# --------------------------------------------------------------------- #
# End-to-end determinism through run_matrix and serve
# --------------------------------------------------------------------- #
def _scenario_requests():
    return [
        RunRequest("mix2", mix2_config(), BUDGET, SEED),
        RunRequest("mix4", mix4_config(), BUDGET, SEED),
        RunRequest("mcf", hugepage_config(), BUDGET, SEED),
    ]


def test_scenario_matrix_is_deterministic():
    requests = _scenario_requests()
    clear_run_cache()
    first = {
        r: json.dumps(res.to_dict(), sort_keys=True)
        for r, res in run_matrix(requests).items()
    }
    clear_run_cache()
    second = {
        r: json.dumps(res.to_dict(), sort_keys=True)
        for r, res in run_matrix(requests).items()
    }
    assert first == second
    clear_run_cache()


def test_served_mix2_is_byte_identical_to_cli(tmp_path):
    diskcache.enable(tmp_path / "cache")
    clear_run_cache()
    clear_trace_cache()
    reset_global_inflight()
    handle = start_background(workers=0)
    client = ServeClient(port=handle.port)
    try:
        body = client.run("mix2", "mix2", budget=BUDGET)
        ref = run_trace(
            get_trace("mix2", BUDGET, SEED),
            mix2_config(),
            seed=machine_seed_for(SEED),
        )
        assert wire_bytes(body["result"]) == ref.to_wire()
        assert body["result"]["raw"]["tenants"]["tenants_seen"] == 2
    finally:
        handle.stop()
        diskcache.disable()
        clear_run_cache()
        reset_global_inflight()


def test_served_hugepage_profile_round_trips(tmp_path):
    diskcache.enable(tmp_path / "cache")
    clear_run_cache()
    clear_trace_cache()
    reset_global_inflight()
    handle = start_background(workers=0)
    client = ServeClient(port=handle.port)
    try:
        body = client.run("mcf", "hugepage", budget=BUDGET)
        ref = run_trace(
            get_trace("mcf", BUDGET, SEED),
            hugepage_config(),
            seed=machine_seed_for(SEED),
        )
        assert wire_bytes(body["result"]) == ref.to_wire()
    finally:
        handle.stop()
        diskcache.disable()
        clear_run_cache()
        reset_global_inflight()
