"""Counter identities the flat interpreter's flush relies on.

``_FlatStepper.run`` counts each event once and derives the counters
that follow from others when it flushes: L1D and L1 D-TLB hits from the
record count, fills from misses, L2 and LLC hits from their lookups,
memory accesses from reads and writes, walks from their PWC outcomes,
walk loads from the PWC outcomes of 4 KB and 2 MB walks, and the LLT's
and LLC's fills and evictions from walks, misses, bypasses and free-way
fills under every listener. Each test here asserts the whole-machine
form of one such identity on both engines, so a change that breaks one
(in the scalar reference or in the flat interpreter) fails by name
rather than as a counter drift.
"""

from __future__ import annotations

import functools
from collections import Counter

import pytest

from repro.sim.config import (
    CacheGeometry,
    TlbGeometry,
    fast_config,
    hugepage_config,
    leeway_config,
    mix2_config,
    perceptron_config,
)
from repro.sim.engine import ENGINE_BATCHED, ENGINE_SCALAR
from repro.sim.machine import Machine
from repro.workloads.suite import get_trace

BUDGET = 4000
SEED = 42
DP_CB = {"tlb_predictor": "dppred", "llc_predictor": "cbpred"}

CONFIGS = {
    "lru": fast_config,
    "dppred+cbpred": lambda: fast_config(**DP_CB),
    "srrip": lambda: fast_config(cache_policy="srrip", **DP_CB),
    "mix2": lambda: mix2_config(**DP_CB),
    "hugepage": lambda: hugepage_config(**DP_CB),
    "leeway": leeway_config,
    "perceptron": perceptron_config,
    "ship": lambda: fast_config(tlb_predictor="ship", llc_predictor="ship"),
    "aip": lambda: fast_config(tlb_predictor="aip", llc_predictor="aip"),
    "demote": lambda: fast_config(
        tlb_predictor="dppred_demote", llc_predictor="cbpred"
    ),
    # 1-2-way structures with few sets: nearly every fill evicts.
    "tiny": lambda: fast_config(
        l1_dtlb=TlbGeometry(2, 1, 1), l2_tlb=TlbGeometry(8, 2, 8),
        l1d=CacheGeometry(2, 1, 5), l2=CacheGeometry(4, 2, 11),
        llc=CacheGeometry(8, 2, 40), **DP_CB,
    ),
}

CASES = [
    pytest.param((label, workload, engine), id=f"{label}-{workload}-{engine}")
    for label in CONFIGS
    for workload in ("mcf", "bfs")
    if not (label == "mix2" and workload == "bfs")
    for engine in (ENGINE_SCALAR, ENGINE_BATCHED)
]


@pytest.fixture(scope="module", params=CASES)
def run(request):
    """(record count, counter getter by structure) of one finished run."""
    label, workload, engine = request.param
    trace = get_trace("mix2" if label == "mix2" else workload, BUDGET, SEED)
    machine = Machine(CONFIGS[label](), seed=SEED)
    machine.run(trace, engine=engine)
    if engine == ENGINE_BATCHED:
        assert machine.engine_stats["mode"] == "flat", label
    structures = {
        "itlb": machine.l1_itlb,
        "dtlb": machine.l1_dtlb,
        "llt": machine.l2_tlb,
        "l1d": machine.l1d,
        "l2": machine.l2,
        "llc": machine.llc,
        "hier": machine.hierarchy,
        "mem": machine.hierarchy.memory,
        "walker": machine.walker,
        "pwc": machine.walker.pwc,
    }
    return len(trace), lambda name, counter: structures[name].stats.get(
        counter
    )


def test_hierarchy_accesses_equal_records(run):
    records, c = run
    assert c("hier", "accesses") == records


def test_l1d_lookups_equal_records(run):
    records, c = run
    assert c("l1d", "hits") + c("l1d", "misses") == records


@pytest.mark.parametrize("name", ["l1d", "dtlb", "l2"])
def test_fills_equal_misses(run, name):
    _, c = run
    assert c(name, "misses") > 0
    assert c(name, "fills") == c(name, "misses")


def test_memory_accesses_are_reads_plus_writes(run):
    _, c = run
    assert c("mem", "accesses") == c("mem", "reads") + c("mem", "writes")


def test_each_walk_ends_at_one_pwc_outcome(run):
    _, c = run
    assert c("walker", "walks") == (
        c("pwc", "pwc_l1_hits") + c("pwc", "pwc_l2_hits")
        + c("pwc", "pwc_l3_hits") + c("pwc", "pwc_misses")
    )


#: PTE loads of one walk, by page size and the PWC level it ends at: a
#: 4 KB walk loads 1/2/3/4 PTEs on an L1/L2/L3 hit/miss, a 2 MB walk
#: (its PD entry is the leaf; the L1 PWC is not probed) 1/2/3 on an
#: L2 hit/L3 hit/miss.
WALK_LOADS = {
    ("4k", "l1"): 1, ("4k", "l2"): 2, ("4k", "l3"): 3, ("4k", "miss"): 4,
    ("2m", "l2"): 1, ("2m", "l3"): 2, ("2m", "miss"): 3,
}
PWC_COUNTERS = {
    "l1": "pwc_l1_hits", "l2": "pwc_l2_hits", "l3": "pwc_l3_hits",
    "miss": "pwc_misses",
}


@functools.lru_cache(maxsize=None)
def walk_outcomes(label, workload):
    """(page size, PWC outcome) -> walks of one scalar run, seen at the
    walker's ``pwc.consult`` (no counter tells 4 KB from 2 MB walks)."""
    trace = get_trace("mix2" if label == "mix2" else workload, BUDGET, SEED)
    machine = Machine(CONFIGS[label](), seed=SEED)
    pwc = machine.walker.pwc
    consult = pwc.consult
    seen = Counter()
    outcome = {3: "l1", 2: "l2", 1: "l3", 0: "miss"}

    def observed(vpn, asid=0, max_resolved=3):
        resolved, latency = consult(vpn, asid, max_resolved)
        size = "4k" if max_resolved == 3 else "2m"
        seen[size, outcome[resolved]] += 1
        return resolved, latency

    pwc.consult = observed
    machine.run(trace, engine=ENGINE_SCALAR)
    return seen


def test_walk_loads_follow_pwc_outcomes_by_page_size(run, request):
    _, c = run
    label, workload, _ = request.node.callspec.params["run"]
    seen = walk_outcomes(label, workload)
    for level, counter in PWC_COUNTERS.items():
        assert c("pwc", counter) == seen["4k", level] + seen["2m", level]
    assert c("walker", "walk_memory_accesses") == sum(
        loads * seen[key] for key, loads in WALK_LOADS.items()
    )
    if label == "hugepage":
        assert seen["2m", "l2"] and seen["4k", "l1"]


def test_hierarchy_walk_accesses_equal_walk_loads(run):
    _, c = run
    assert c("hier", "walk_accesses") == c("walker", "walk_memory_accesses")


def test_llc_lookups_equal_l2_misses(run):
    _, c = run
    assert c("llc", "hits") + c("llc", "misses") == c("l2", "misses")


def test_l2_lookups_are_l1d_misses_plus_walk_loads(run):
    _, c = run
    assert c("l2", "hits") + c("l2", "misses") == (
        c("l1d", "misses") + c("hier", "walk_accesses")
    )


def test_llt_lookups_are_l1_tlb_misses(run):
    _, c = run
    assert c("llt", "hits") + c("llt", "misses") == (
        c("dtlb", "misses") + c("itlb", "misses")
    )


#: Configs whose LLT and LLC listeners run the flat interpreter's
#: generic fill path (a listener's own ``on_fill``, ``choose_victim``,
#: ``on_evict`` and ``filled``).
GENERIC = ("leeway", "perceptron", "ship", "aip")
#: Long enough for the LLC to evict under each of them.
GENERIC_BUDGET = 8000


@pytest.fixture(
    scope="module",
    params=[
        pytest.param((label, workload, engine), id=f"{label}-{workload}-{engine}")
        for label in GENERIC
        for workload in ("mcf", "bfs")
        for engine in (ENGINE_SCALAR, ENGINE_BATCHED)
    ],
)
def generic_run(request):
    """One finished single-tenant run under a generic listener."""
    label, workload, engine = request.param
    machine = Machine(CONFIGS[label](), seed=SEED)
    machine.run(get_trace(workload, GENERIC_BUDGET, SEED), engine=engine)
    if engine == ENGINE_BATCHED:
        assert machine.engine_stats["mode"] == "flat", label
    return machine


def test_llt_fills_plus_bypasses_are_walks(generic_run):
    """Every walk ends in one LLT fill decision: fill or bypass (no
    victim buffer refills the LLT under these listeners)."""
    llt = generic_run.l2_tlb.stats
    assert llt.get("fills") + llt.get("bypasses") == (
        generic_run.walker.stats.get("walks")
    )


def test_llc_fills_plus_bypasses_are_llc_misses(generic_run):
    """Every LLC miss ends in one fill decision: the data path's demand
    misses and the walk loads' misses (``llc_demand_misses`` counts the
    first)."""
    llc = generic_run.llc.stats
    demand = generic_run.hierarchy.stats.get("llc_demand_misses")
    assert 0 < demand <= llc.get("misses")
    assert llc.get("fills") + llc.get("bypasses") == llc.get("misses")


@pytest.mark.parametrize("name", ["l2_tlb", "llc"])
def test_evictions_are_fills_less_free_way_fills(generic_run, name):
    """A fill evicts unless it takes a free way. Nothing invalidates
    these structures in a single-tenant run, so a way once filled stays
    valid: the free-way fills are the final occupancy."""
    struct = getattr(generic_run, name)
    stats = struct.stats
    assert stats.get("invalidations") == 0
    assert stats.get("evictions") > 0
    assert stats.get("evictions") == stats.get("fills") - struct.occupancy()
