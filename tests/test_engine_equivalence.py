"""Differential tests: the batched engine is bit-identical to scalar.

The batched engine (:mod:`repro.sim.engine`) runs a trace either whole on
its flat interpreter or on the scalar reference loop. Its contract is
byte equality with the scalar reference loop — same
``SimResult.to_dict()``, same telemetry payloads (timeline marks/deltas
and decision-event streams), same disk-cache bytes — on every workload
kernel and on adversarial random traces. These tests are the contract's
enforcement.
"""

import json
from typing import Callable, NamedTuple, Optional

import numpy as np
import pytest
from hypothesis import given, note, settings
from hypothesis import strategies as st

import repro.sim.engine as engine_mod
from repro.common.stats import Stats
from repro.obs.telemetry import TelemetrySpec
from repro.predictors import registry
from repro.predictors.ship import ShipTlbPredictor
from repro.sim.config import (
    CacheGeometry,
    TlbGeometry,
    fast_config,
    hugepage_config,
    leeway_config,
    mix2_config,
    mix4_config,
    perceptron_config,
)
from repro.sim.engine import (
    ENGINE_BATCHED,
    ENGINE_SCALAR,
    resolve_engine,
    set_default_engine,
)
from repro.sim.machine import Machine
from repro.vm.pagetable import huge_region_policy
from repro.workloads.suite import (
    EXTRA_WORKLOAD_CLASSES,
    get_trace,
    workload_names,
)
from repro.workloads.trace import Trace

BUDGET = 6000
SEED = 42
DP_CB = {"tlb_predictor": "dppred", "llc_predictor": "cbpred"}


def fingerprint(result) -> bytes:
    return json.dumps(result.to_dict(), sort_keys=True).encode()


def run_both(
    trace, config, telemetry=False, seed=SEED, prepare=None,
    **machine_kwargs,
):
    """Run one trace under both engines; returns the two (result, machine)
    pairs. Telemetry uses a small interval so flat runs straddle many
    sampling boundaries. ``machine_kwargs`` go to both machines (e.g. an
    oracle's pass-1 outcomes), and ``prepare`` is called on each machine
    before it runs."""
    out = []
    for engine in (ENGINE_SCALAR, ENGINE_BATCHED):
        tel = (
            TelemetrySpec(interval=500).build() if telemetry else None
        )
        machine = Machine(
            config, seed=seed, telemetry=tel, **machine_kwargs
        )
        if prepare is not None:
            prepare(machine)
        result = machine.run(trace, engine=engine)
        out.append((result, machine))
    return out


def tag_orders(machine):
    """Every set's tag dict in order: the LRU state (recency order, least
    recent first) of the six set-associative structures."""
    return [
        [list(tags.items()) for tags in struct._tags]
        for struct in (
            machine.l1_itlb, machine.l1_dtlb, machine.l2_tlb,
            machine.l1d, machine.l2, machine.llc,
        )
    ]


def stats_bags(machine):
    """``Stats.snapshot()`` of every counter bag reachable from the
    machine through ``repro`` objects, keyed by attribute path: each
    structure, the walker, PWC, memory, hierarchy, tenancy, and both
    predictors with their pHIST/bHIST/PFQ/shadow. Many of these counters
    never reach ``SimResult``, so only this comparison sees them."""
    bags = {}
    seen = set()

    def is_ours(value):
        return type(value).__module__.startswith("repro.")

    def visit(obj, path):
        if id(obj) in seen:
            return
        seen.add(id(obj))
        if isinstance(obj, Stats):
            bags[path] = obj.snapshot()
            return
        items = list(getattr(obj, "__dict__", {}).items())
        items += [
            (slot, getattr(obj, slot))
            for slot in getattr(type(obj), "__slots__", ())
            if hasattr(obj, slot)
        ]
        for name, value in items:
            if isinstance(value, dict):
                children = value.items()
            elif isinstance(value, (list, tuple)):
                children = enumerate(value)
            else:
                if is_ours(value):
                    visit(value, f"{path}.{name}")
                continue
            for key, child in children:
                if is_ours(child):
                    visit(child, f"{path}.{name}[{key!r}]")

    visit(machine, "machine")
    return bags


TLB_FIELDS = ("vpn", "pfn", "pc_hash", "accessed", "asid", "huge")
LINE_FIELDS = ("tag", "dirty", "accessed", "dp")


def plain(value):
    """``value`` as plain data, so predictor ``aux`` state compares by
    value rather than by identity: an object becomes its class name and
    its ``__slots__`` (or ``__dict__``) values."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (tuple, list)):
        return tuple(plain(v) for v in value)
    if isinstance(value, dict):
        return tuple((plain(k), plain(v)) for k, v in value.items())
    slots = [
        slot
        for cls in type(value).__mro__
        for slot in getattr(cls, "__slots__", ())
    ]
    if slots:
        fields = tuple(plain(getattr(value, s, None)) for s in slots)
    else:
        fields = plain(vars(value))
    return (type(value).__name__, fields)


def structural_state(machine):
    """Every resident TLB entry's and cache line's fields (``aux`` by
    value), every SRRIP RRPV row, and each PWC level's key order (keys
    only: the flat interpreter stores a leaf node as an L1-PWC value
    where the scalar walker stores None). A store the flat interpreter
    drops on a recycled object, or a PWC recency slip, shows here even
    when a short trace's results and counters do not move."""
    state = {}
    for name, fields in (
        ("l1_itlb", TLB_FIELDS), ("l1_dtlb", TLB_FIELDS),
        ("l2_tlb", TLB_FIELDS), ("l1d", LINE_FIELDS),
        ("l2", LINE_FIELDS), ("llc", LINE_FIELDS),
    ):
        struct = getattr(machine, name)
        rows = struct._entries if fields is TLB_FIELDS else struct._lines
        state[name] = [
            {
                way: tuple(getattr(row[way], f) for f in fields)
                + (plain(row[way].aux),)
                for way in tags.values()
            }
            for tags, row in zip(struct._tags, rows)
        ]
        rrpv = getattr(struct.policy, "_rrpv", None)
        state[f"{name}.rrpv"] = (
            None if rrpv is None else [list(r) for r in rrpv]
        )
    state["pwc"] = [list(level._tags) for level in machine.walker.pwc._levels]
    return state


def correlation_state(machine):
    """The Table III correlation listeners' plain counters and each
    page's last LLT DOA verdict (None without ``track_correlation``):
    they are not ``Stats`` bags, so :func:`stats_bags` misses them."""
    cache = machine._correlation_cache
    if cache is None:
        return None
    return (
        cache.doa_blocks_total,
        cache.doa_blocks_classified,
        cache.doa_blocks_on_doa_page,
        sorted(machine._correlation_tlb.last_doa_status.items()),
    )


def assert_equivalent(
    trace, config, telemetry=False, seed=SEED, prepare=None,
    **machine_kwargs,
):
    (r_s, m_s), (r_b, m_b) = run_both(
        trace, config, telemetry, seed, prepare, **machine_kwargs
    )
    assert fingerprint(r_s) == fingerprint(r_b)
    assert tag_orders(m_s) == tag_orders(m_b)
    assert stats_bags(m_s) == stats_bags(m_b)
    assert structural_state(m_s) == structural_state(m_b)
    assert correlation_state(m_s) == correlation_state(m_b)
    if telemetry:
        assert m_s.telemetry.to_payload() == m_b.telemetry.to_payload()
    return m_b


# --------------------------------------------------------------------- #
# Every workload kernel
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("workload", workload_names())
def test_suite_workloads_bit_identical(workload):
    """The LRU baseline and the paper's dpPred+cbPred on every kernel.
    On cg.B and mcf, a flat LLC fill that kept a recycled line's DP bit
    left the wire bytes identical but moved cbPred's and bHIST's
    counters, so the counter comparison is what catches it here."""
    trace = get_trace(workload, BUDGET, SEED)
    for config in (fast_config(), fast_config(**DP_CB)):
        assert_equivalent(trace, config, telemetry=True)


SHIP = {"tlb_predictor": "ship", "llc_predictor": "ship"}
SRRIP = {"tlb_policy": "srrip", "cache_policy": "srrip"}
AIP = {"tlb_predictor": "aip", "llc_predictor": "aip"}
ORACLE = {"tlb_predictor": "oracle", "llc_predictor": "oracle"}
LEEWAY = {"tlb_predictor": "leeway", "llc_predictor": "leeway"}

class SparseShipTlb(ShipTlbPredictor):
    """SHiP-TLB that keeps a signature only on the fills it predicts
    reused: a distant fill leaves the entry's ``aux`` as the fill made it
    (None). So an inline fill that recycled an entry without resetting
    its ``aux`` would leave a stale signature for hits and evictions to
    train with, where the scalar ``Tlb.fill`` builds a fresh entry."""

    def on_fill(self, tlb, vpn, pfn, pc_hash, now):
        decision = super().on_fill(tlb, vpn, pfn, pc_hash, now)
        self._keep = decision != "distant"
        return decision

    def filled(self, tlb, entry, now):
        if self._keep:
            super().filled(tlb, entry, now)
        else:
            self._pending = None


def sparse_ship_llt(machine):
    machine.l2_tlb.listener = machine._tlb_predictor = SparseShipTlb()


class Cell(NamedTuple):
    """A structural-state cell: its workload and config factory, whether
    it is an oracle's second pass, the listener counters it must move at
    the LLT and at the LLC (so it reaches its fill path), and what to do
    to each machine before it runs."""

    workload: str
    make_config: Callable[[], object]
    second_pass: bool = False
    llt_counters: tuple = ()
    llc_counters: tuple = ()
    prepare: Optional[Callable] = None


BYPASSES = ("doa_predictions", "sampled_allocations")
STRUCTURAL_CELLS = {
    "mcf-dp_cb": Cell("mcf", lambda: fast_config(**DP_CB)),
    "bfs-lru": Cell("bfs", fast_config),
    "lbm-dp_cb": Cell("lbm", lambda: fast_config(**DP_CB)),
    "mix2-dp_cb": Cell("mix2", lambda: mix2_config(**DP_CB)),
    "mcf-hugepage": Cell("mcf", lambda: hugepage_config(**DP_CB)),
    "mcf-leeway": Cell(
        "mcf", leeway_config, llt_counters=BYPASSES, llc_counters=BYPASSES,
    ),
    "bfs-leeway": Cell(
        "bfs", leeway_config, llt_counters=BYPASSES, llc_counters=BYPASSES,
    ),
    "mcf-perceptron": Cell(
        "mcf", perceptron_config, llt_counters=BYPASSES,
        llc_counters=BYPASSES,
    ),
    "bfs-perceptron": Cell(
        "bfs", perceptron_config, llt_counters=BYPASSES,
        llc_counters=BYPASSES,
    ),
    "mcf-ship-lru": Cell(
        "mcf", lambda: fast_config(**SHIP),
        llt_counters=("distant_predictions",),
        llc_counters=("distant_predictions",),
    ),
    "mcf-ship-srrip": Cell(
        "mcf", lambda: fast_config(**SHIP, **SRRIP),
        llt_counters=("distant_predictions",),
        llc_counters=("distant_predictions",),
    ),
    "mcf-ship-sparse": Cell(
        "mcf", lambda: fast_config(**SHIP),
        llt_counters=("distant_predictions",),
        prepare=sparse_ship_llt,
    ),
    "bfs-aip": Cell(
        "bfs", lambda: fast_config(**AIP),
        llt_counters=("dead_victimisations",),
    ),
    "mcf-oracle-record": Cell(
        "mcf", lambda: fast_config(**ORACLE),
        llt_counters=("doa_residencies",), llc_counters=("doa_residencies",),
    ),
    "mcf-oracle-bypass": Cell(
        "mcf", lambda: fast_config(**ORACLE), second_pass=True,
        llt_counters=("oracle_bypasses",), llc_counters=("oracle_bypasses",),
    ),
    "mcf-demote": Cell(
        "mcf", lambda: fast_config(tlb_predictor="dppred_demote"),
        llt_counters=("doa_predictions",),
    ),
    "mix2-leeway": Cell(
        "mix2", lambda: mix2_config(**LEEWAY),
        llt_counters=("doa_predictions",), llc_counters=("doa_predictions",),
    ),
    "hugepage-leeway": Cell(
        "mcf", lambda: hugepage_config(**LEEWAY),
        llt_counters=("doa_predictions",), llc_counters=("doa_predictions",),
    ),
}


def oracle_outcomes(trace, config):
    """The oracle's pass-1 DOA recordings (scalar engine), as the
    keyword arguments of its pass-2 machine."""
    recorder = Machine(config, seed=SEED)
    recorder.run(trace, engine=ENGINE_SCALAR)
    return {
        "oracle_outcomes": recorder.oracle_recorder.outcomes,
        "llc_oracle_outcomes": recorder.llc_oracle_recorder.outcomes,
    }


@pytest.mark.parametrize("cell", sorted(STRUCTURAL_CELLS))
def test_structural_state_identical(cell, monkeypatch):
    """Entry and line fields, ``aux`` (by slot values), RRPV rows and PWC
    key order match after a run long enough for every structure to
    recycle its fills, for the inline predictors and for every generic
    listener: Leeway, the perceptron, SHiP's distant insertion under
    LRU and SRRIP, AIP's victim choice, both oracle passes, the dpPred
    demote ablation, Leeway under tenants and huge pages, and a SHiP
    variant that leaves some entries' ``aux`` unset (a recycled entry
    must start with none)."""
    spec = STRUCTURAL_CELLS[cell]
    monkeypatch.setattr(
        engine_mod, "GENERIC_TLB_LISTENERS",
        engine_mod.GENERIC_TLB_LISTENERS | {SparseShipTlb},
    )
    trace = get_trace(spec.workload, 8000, SEED)
    config = spec.make_config()
    kwargs = oracle_outcomes(trace, config) if spec.second_pass else {}
    machine = assert_equivalent(
        trace, config, prepare=spec.prepare, **kwargs
    )
    assert machine.engine_stats["mode"] == "flat"
    assert machine.l2_tlb.stats.get("evictions") > 0
    assert machine.l2.stats.get("evictions") > 0
    for struct, counters in (
        (machine.l2_tlb, spec.llt_counters), (machine.llc, spec.llc_counters),
    ):
        for counter in counters:
            assert struct.listener.stats.get(counter) > 0, counter


@pytest.mark.parametrize("edge", ["chunk-end", "every-record"])
def test_telemetry_across_chunk_edges(edge):
    """The flat interpreter predecodes the trace in chunks and ends a
    chunk early at each timeline boundary. On a trace longer than two
    chunks, sample with the first boundary on a chunk's last record, and
    at every record."""
    trace = get_trace("mcf", 40000, SEED)
    chunk = engine_mod._CHUNK_RECORDS
    assert len(trace) > 2 * chunk
    if edge == "chunk-end":
        interval = int(np.sum(trace.gaps[:chunk], dtype=np.int64)) + chunk
    else:
        interval = 1
    runs = []
    for engine in (ENGINE_SCALAR, ENGINE_BATCHED):
        tel = TelemetrySpec(interval=interval).build()
        machine = Machine(fast_config(**DP_CB), seed=SEED, telemetry=tel)
        result = machine.run(trace, engine=engine)
        marks = tel.timeline.marks
        if edge == "chunk-end":
            assert marks[0] == interval
        else:
            assert len(marks) == len(trace)
        runs.append((
            fingerprint(result),
            json.dumps(tel.to_payload(), sort_keys=True),
            json.dumps(stats_bags(machine), sort_keys=True),
        ))
    assert machine.engine_stats["mode"] == "flat"
    assert runs[0] == runs[1]


@pytest.mark.parametrize("workload", sorted(EXTRA_WORKLOAD_CLASSES))
def test_extra_workloads_bit_identical(workload):
    trace = get_trace(workload, BUDGET, SEED)
    assert_equivalent(trace, fast_config(), telemetry=True)


REF = {"track_reference": True}
PAIRS = ("sssp", "locality")
#: id -> (config, workloads): predictors and instrumentation beyond the
#: L1s, among them the Tables VI/VII ground-truth references under every
#: shipped predictor pair they score and the Table III correlation
#: listeners on the workloads fig1-4 characterise.
PREDICTOR_CASES = {
    "dppred": (fast_config(tlb_predictor="dppred"), PAIRS),
    "dppred+cbpred": (fast_config(**DP_CB), PAIRS),
    "ship": (fast_config(**SHIP), PAIRS),
    "residency": (fast_config(track_residency=True), PAIRS),
    "reference": (fast_config(**REF), PAIRS),
    "reference-dppred+cbpred": (fast_config(**DP_CB, **REF), PAIRS),
    "reference-dppred_sh": (
        fast_config(tlb_predictor="dppred_sh", **REF), PAIRS,
    ),
    "reference-ship": (fast_config(**SHIP, **REF), PAIRS),
    "reference-aip": (fast_config(**AIP, **REF), PAIRS),
    "reference-leeway": (leeway_config(**REF), ("mcf",)),
    "reference-perceptron": (perceptron_config(**REF), ("mcf",)),
    "reference-mix2": (mix2_config(**DP_CB, **REF), ("mix2",)),
    "reference-hugepage": (hugepage_config(**DP_CB, **REF), ("mcf",)),
    "correlation": (
        fast_config(track_residency=True, track_correlation=True),
        ("mcf", "bfs", "lbm"),
    ),
}


@pytest.mark.parametrize(
    "config,workloads",
    list(PREDICTOR_CASES.values()),
    ids=list(PREDICTOR_CASES),
)
def test_predictor_configs_bit_identical(config, workloads):
    """Predictors/instrumentation live beyond the L1s; their slow-path
    event streams, reference scores and correlation counters must match
    the scalar engine's, and the batched engine runs them wholly flat."""
    for workload in workloads:
        trace = get_trace(workload, BUDGET, SEED)
        machine = assert_equivalent(trace, config, telemetry=True)
        assert_wholly_flat(machine, trace)
        if config.track_reference:
            assert machine.ref_llt.stats.get("misses") > 0
            assert machine.ref_llc.stats.get("misses") > 0
        if config.track_correlation:
            assert machine._correlation_cache.doa_blocks_classified > 0


# --------------------------------------------------------------------- #
# Hypothesis traces
# --------------------------------------------------------------------- #
RECORDS = st.lists(
    st.tuples(
        st.integers(0, 7),        # pc site
        st.integers(0, 40),       # page
        st.integers(0, 70),       # byte offset within page (block varies)
        st.booleans(),            # write
        st.integers(0, 5),        # gap
    ),
    min_size=1,
    max_size=400,
)


def build_trace(records) -> Trace:
    pcs = np.array([0x400000 + s * 4 for s, _, _, _, _ in records], np.uint64)
    vaddrs = np.array(
        [0x10000000 + p * 4096 + o * 64 for _, p, o, _, _ in records],
        np.uint64,
    )
    writes = np.array([w for _, _, _, w, _ in records], bool)
    gaps = np.array([g for _, _, _, _, g in records], np.uint16)
    return Trace("hypothesis", pcs, vaddrs, writes, gaps)


@settings(max_examples=40, deadline=None)
@given(records=RECORDS)
def test_random_traces_bit_identical(records):
    assert_equivalent(build_trace(records), fast_config(), telemetry=True)


@settings(max_examples=15, deadline=None)
@given(records=RECORDS, run_length=st.integers(2, 64))
def test_repeated_traces_bit_identical(records, run_length):
    """Tiling the stream manufactures long all-hit stretches (same-page
    filter hits, LRU promotions without fills) across many telemetry
    boundaries."""
    trace = build_trace(records * run_length)
    assert_equivalent(trace, fast_config(), telemetry=True)


#: 1-2-way structures with few sets. Most records evict from several
#: of them, dirty victims write back, the LLC's victims are still
#: in L1/L2 (inclusion victims), and the direct-mapped L1 D-TLB evicts
#: the same-page filter's own entry whenever two pages in a row share
#: its set: the flat interpreter's fills that overwrite their victim in
#: place run on most records.
TINY = {
    "l1_dtlb": TlbGeometry(2, 1, 1),
    "l2_tlb": TlbGeometry(8, 2, 8),
    "l1d": CacheGeometry(2, 1, 5),
    "l2": CacheGeometry(4, 2, 11),
    "llc": CacheGeometry(8, 2, 40),
}
PREDICTOR_CONFIGS = (
    fast_config(**DP_CB),
    # LRU: the same-page filter is on
    fast_config(**TINY, **DP_CB),
    # SRRIP: the filter is off
    fast_config(
        tlb_policy="srrip", cache_policy="srrip", **TINY, **DP_CB
    ),
)


@settings(max_examples=15, deadline=None)
@given(records=RECORDS)
def test_random_traces_with_predictors(records):
    for config in PREDICTOR_CONFIGS:
        assert_equivalent(build_trace(records), config, telemetry=True)


@pytest.mark.parametrize("config", PREDICTOR_CONFIGS[1:],
                         ids=["tiny-lru", "tiny-srrip"])
def test_tiny_geometry_reaches_every_recycled_fill(config):
    """Guard the guard: on the tiny geometry, every structure evicts,
    dirty lines write back, the LLC makes inclusion victims, DP-marked
    LLC victims train cbPred's bHIST and, with the filter on,
    the D-TLB evicts the filter's own entry. One PC site lets dpPred
    learn dead pages, so cbPred marks their lines."""
    n = 1000
    rng = np.random.default_rng(SEED)
    records = list(zip(
        [0] * n, rng.integers(0, 41, n).tolist(),
        rng.integers(0, 71, n).tolist(), (rng.random(n) < 0.5).tolist(),
        rng.integers(0, 6, n).tolist(),
    ))
    trace = build_trace(records)
    machine = assert_equivalent(trace, config, telemetry=True)
    assert_wholly_flat(machine, trace)
    for struct in (machine.l1_dtlb, machine.l2_tlb, machine.l1d,
                   machine.l2, machine.llc):
        assert struct.stats.get("evictions") > 0, struct.name
    for struct in (machine.l1d, machine.l2, machine.llc):
        assert struct.stats.get("writebacks") > 0, struct.name
    assert machine.hierarchy.stats.get("inclusion_victims") > 0
    cbpred = machine.llc.listener
    assert cbpred.stats.get("doa_evictions_observed") > 0
    if machine.l1_itlb._lru:
        # Two pages in a row in the same one-way set (the set is the
        # page's parity): the second evicts the first's entry, which is
        # the filter's.
        pages = [page for _, page, _, _, _ in records]
        assert any(
            a != b and a % 2 == b % 2 for a, b in zip(pages, pages[1:])
        )


LLT_32 = TlbGeometry(32, 4, 8)

#: name -> (config, code-page stride in pages, data base, ASID segments).
#: Every case misses the I-TLB many times, so each runs the flat
#: interpreter's delegated instruction-side translate under a different
#: LLT/walk state: predictors, huge leaves, tenants, a PWC region shared
#: by code and data, and SRRIP (which turns the same-page filter off).
CODE_PAGE_CASES = {
    "baseline": (fast_config(l2_tlb=LLT_32), 1, 0x10000000, False),
    "dppred+cbpred": (
        fast_config(
            l2_tlb=LLT_32, tlb_predictor="dppred", llc_predictor="cbpred"
        ),
        1, 0x10000000, False,
    ),
    # 24 code pages over three 2 MB regions, all huge.
    "hugepage": (
        hugepage_config(huge_fraction=1.0, l2_tlb=LLT_32),
        64, 0x10000000, False,
    ),
    # Each tenant's first touch of memory is an I-fetch, so the delegated
    # walk creates its page table.
    "asid": (mix2_config(l2_tlb=LLT_32), 1, 0x10000000, True),
    # Data shares the code's huge region: a tenant's first data access
    # hits the 2 MB LLT entry its first I-fetch just installed.
    "asid+hugepage": (
        mix2_config(huge_fraction=1.0, l2_tlb=LLT_32), 1, 0x500000, True,
    ),
    "ship": (
        fast_config(l2_tlb=LLT_32, tlb_predictor="ship", llc_predictor="ship"),
        1, 0x10000000, False,
    ),
    # Data shares the code's 4 KB-mapped 2 MB region: a flat D-side walk
    # hits the L1-PWC entry the delegated I-side walk installed (with
    # no leaf node), and the I-side hits the one the D-side refilled.
    "shared-region": (fast_config(l2_tlb=LLT_32), 1, 0x500000, False),
    "leeway": (leeway_config(l2_tlb=LLT_32), 1, 0x10000000, False),
    "srrip": (
        fast_config(l2_tlb=LLT_32, tlb_policy="srrip"), 1, 0x10000000, False,
    ),
}


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_random_code_pages_bit_identical(seed):
    """PCs spread over 24 code pages thrash the 16-entry I-TLB against a
    32-entry LLT that thrashes less, so the instruction side's LLT hits,
    walks and LLT/I-TLB victims all run (the other random traces keep
    their code on one page), under every :data:`CODE_PAGE_CASES` case."""
    n = 600
    for name, (config, stride, data_base, tenants) in CODE_PAGE_CASES.items():
        note(f"case: {name}")
        rng = np.random.default_rng(seed)
        pcs = (
            0x400000 + rng.integers(0, 24, n) * stride * 4096
            + rng.integers(0, 8, n) * 4
        )
        vaddrs = (
            data_base + rng.integers(0, 41, n) * 4096
            + rng.integers(0, 71, n) * 64
        )
        asids = (
            np.repeat(rng.integers(1, 3, n // 20), 20) if tenants else None
        )
        trace = Trace(
            "hypothesis-code", pcs.astype(np.uint64),
            vaddrs.astype(np.uint64), rng.random(n) < 0.5,
            rng.integers(0, 6, n).astype(np.uint16), asids,
        )
        machine = assert_equivalent(trace, config, telemetry=True)
        assert_wholly_flat(machine, trace)
        assert machine.l1_itlb.stats.get("misses") > 24


# --------------------------------------------------------------------- #
# Edges of the code-page column and of the PWC recency tracking
# --------------------------------------------------------------------- #
# The flat interpreter runs the instruction side only where the code
# page changes (a miss applies the next record's hit when that record is
# in the same chunk), and skips a walk's L2/L3 PWC installs while its
# 1 GB region is the last walk's. Each case below sits on one edge of
# those shortcuts; all must be bit-identical and wholly flat.
CODE_BASE = 0x400000
FAR_CODE = 0x7F0000000000  # another 1 GB (and 512 GB) region than the data
DATA_BASE = 0x10000000


def edge_trace(pcs, vaddrs, asids=None) -> Trace:
    n = len(pcs)
    rng = np.random.default_rng(SEED)
    return Trace(
        "edge", np.asarray(pcs, np.uint64), np.asarray(vaddrs, np.uint64),
        rng.random(n) < 0.3, rng.integers(0, 4, n).astype(np.uint16),
        None if asids is None else np.asarray(asids, np.int64),
    )


def data_pages(n):
    rng = np.random.default_rng(SEED + 1)
    return (
        DATA_BASE + rng.integers(0, 300, n) * 4096
        + rng.integers(0, 64, n) * 64
    )


@pytest.mark.parametrize("policy", ["lru", "srrip"])
def test_itlb_miss_on_a_chunks_last_record(policy):
    """Record 16,384, the first chunk's last, misses the L1 I-TLB on a
    new code page, and the next chunk carries on on that page. Under LRU
    the same-page filter is on; under SRRIP it is off and the next hit
    also resets the entry's RRPV. No telemetry, so chunks end only at
    the chunk size."""
    chunk = engine_mod._CHUNK_RECORDS
    n = chunk + 64
    pcs = np.full(n, CODE_BASE, np.uint64)
    pcs[chunk - 1:] = CODE_BASE + 5 * 4096
    trace = edge_trace(pcs, data_pages(n))
    machine = assert_equivalent(trace, fast_config(tlb_policy=policy))
    assert_wholly_flat(machine, trace)
    assert machine.l1_itlb._lru == (policy == "lru")
    assert machine.l1_itlb.stats.get("misses") == 2


@pytest.mark.parametrize("policy", ["lru", "srrip"])
def test_code_page_changes_on_every_record(policy):
    """Every record is on another code page than the one before it (60
    pages against the 16-entry I-TLB), so every record runs the whole
    instruction side, many of them misses."""
    n = 3000
    rng = np.random.default_rng(SEED)
    pages = (np.arange(n) % 2) * 30 + rng.integers(0, 30, n)
    assert np.all(pages[1:] != pages[:-1])
    trace = edge_trace(CODE_BASE + pages * 4096, data_pages(n))
    config = fast_config(tlb_policy=policy, **DP_CB)
    machine = assert_equivalent(trace, config, telemetry=True)
    assert_wholly_flat(machine, trace)
    assert machine.l1_itlb.stats.get("misses") > 300


@pytest.mark.parametrize("dp_cb", [False, True], ids=["lru", "dp_cb"])
def test_delegated_walk_between_data_walks_in_one_region(dp_cb):
    """A new code page in a far region every third record: each is an
    L1 I-TLB miss whose walk runs in the scalar walker, between data
    walks (a new data page every record) in one 1 GB region. After it,
    the next data walk must move its region's PWC entries back to most
    recent."""
    n = 600
    pcs = FAR_CODE + (np.arange(n) // 3) * 4096
    vaddrs = DATA_BASE + np.arange(n) * 4096
    trace = edge_trace(pcs, vaddrs)
    config = fast_config(**DP_CB) if dp_cb else fast_config()
    machine = assert_equivalent(trace, config)
    assert_wholly_flat(machine, trace)
    assert machine.l1_itlb.stats.get("misses") == n // 3
    assert machine.walker.stats.get("walks") >= n


def test_walks_on_both_sides_of_a_context_switch():
    """mix2 segments of 40 records, each record on a new data page, the
    same VPNs for both tenants: walks run right before and right after
    every context switch and its shootdown."""
    seg = 40
    asids = np.repeat([1, 2, 1, 2, 1], seg)
    vaddrs = DATA_BASE + (np.arange(len(asids)) % (2 * seg)) * 4096
    pcs = np.full(len(asids), CODE_BASE, np.uint64)
    trace = edge_trace(pcs, vaddrs, asids)
    machine = assert_equivalent(trace, mix2_config(**DP_CB))
    assert_wholly_flat(machine, trace)
    assert machine.tenancy.get("context_switches") == 4
    assert machine.walker.stats.get("walks") >= len(asids)


def test_huge_walk_right_after_a_4k_walk_in_one_region():
    """Alternate a new 4 KB page and a new 2 MB region, all in one 1 GB
    region, so each huge walk follows a 4 KB walk whose L2/L3 PWC tags
    it shares (and skips installing)."""
    policy = huge_region_policy(0.5, SEED)
    first = DATA_BASE >> 21
    regions = range(first, first + 256)
    assert len({r >> 9 for r in regions}) == 1
    small = [r for r in regions if not policy(r)]
    huge = [r for r in regions if policy(r)]
    pairs = min(len(small), len(huge))
    assert pairs > 60
    vaddrs = np.empty(2 * pairs, np.uint64)
    vaddrs[0::2] = [(r << 21) + 8 * 4096 for r in small[:pairs]]
    vaddrs[1::2] = [(r << 21) + 3 * 4096 for r in huge[:pairs]]
    pcs = np.full(len(vaddrs), CODE_BASE, np.uint64)
    trace = edge_trace(pcs, vaddrs)
    machine = assert_equivalent(trace, hugepage_config(**DP_CB))
    assert_wholly_flat(machine, trace)
    assert machine.page_table.stats.get("huge_pages_mapped") == pairs


# --------------------------------------------------------------------- #
# The config space
# --------------------------------------------------------------------- #
LLT_LISTENERS = (
    "none", "ship", "aip", "leeway", "perceptron", "dppred", "dppred_demote",
)
LLC_LISTENERS = ("none", "ship", "aip", "leeway", "perceptron", "cbpred")


@st.composite
def machine_configs(draw):
    """A machine from the space the flat interpreter models: every LLT
    and LLC listener pair the config accepts (cbPred needs dpPred), LRU
    or SRRIP, the tiny or the ``fast`` geometry, 4 KB, mixed or all-huge
    pages, one or two tenants, ground-truth references on or off, and
    the Table III correlation listeners, which need a machine without
    predictors."""
    tlb = draw(st.sampled_from(LLT_LISTENERS))
    llc = draw(st.sampled_from(
        LLC_LISTENERS if tlb.startswith("dppred") else LLC_LISTENERS[:-1]
    ))
    policy = draw(st.sampled_from(("lru", "srrip")))
    kwargs = dict(
        tlb_predictor=tlb, llc_predictor=llc,
        tlb_policy=policy, cache_policy=policy,
        huge_fraction=draw(st.sampled_from((0.0, 0.5, 1.0))),
        track_reference=draw(st.booleans()),
    )
    if draw(st.booleans()):
        kwargs.update(TINY)
    if draw(st.booleans()):
        kwargs.update(
            num_tenants=2, shootdown_on_switch=draw(st.booleans())
        )
    if tlb == "none" and llc == "none" and draw(st.booleans()):
        kwargs.update(track_residency=True, track_correlation=True)
    return fast_config(**kwargs)


def config_space_trace(seed, tenants, n=1500) -> Trace:
    """``n`` records over 192 data pages in four 2 MB regions, hot pages
    drawn more often, with code on three pages, mostly the first; two
    tenants alternate in segments of 1-199 records."""
    rng = np.random.default_rng(seed)
    pages = np.minimum(rng.geometric(0.02, n), 192) - 1
    vaddrs = (
        DATA_BASE + (pages // 48) * (1 << 21) + (pages % 48) * 4096
        + rng.integers(0, 64, n) * 64
    )
    code = np.where(rng.random(n) < 0.05, rng.integers(1, 3, n), 0)
    pcs = CODE_BASE + code * 4096 + rng.integers(0, 8, n) * 4
    asids = None
    if tenants == 2:
        lengths = rng.integers(1, 200, n)
        asids = np.repeat(np.arange(n) % 2 + 1, lengths)[:n]
    return Trace(
        "config-space", pcs.astype(np.uint64), vaddrs.astype(np.uint64),
        rng.random(n) < 0.3, rng.integers(0, 6, n).astype(np.uint16),
        asids,
    )


@settings(max_examples=80, deadline=None)
@given(config=machine_configs(), seed=st.integers(0, 2**32 - 1))
def test_config_space_bit_identical(config, seed):
    """Any point of the config space runs wholly flat and matches the
    scalar engine on every comparison :func:`assert_equivalent` makes."""
    trace = config_space_trace(seed, config.num_tenants)
    machine = assert_equivalent(trace, config, telemetry=True)
    assert_wholly_flat(machine, trace)


# --------------------------------------------------------------------- #
# Dispatch + selection
# --------------------------------------------------------------------- #
def test_srrip_policy_runs_flat():
    """SRRIP disables the same-page filter; the flat interpreter models
    it and runs the whole trace."""
    trace = get_trace("locality", BUDGET, SEED)
    config = fast_config(tlb_policy="srrip", cache_policy="srrip")
    machine = assert_equivalent(trace, config, telemetry=True)
    stats = machine.engine_stats
    assert stats["engine"] == ENGINE_BATCHED
    assert stats["mode"] == "flat"
    assert stats["flat_records"] == len(trace)
    assert "flat_reason" not in stats


def test_predictor_configs_run_batched_without_fallback():
    """The headline configs — dpPred alone and dpPred+cbPred — must run
    the whole trace on the flat interpreter, not scalar."""
    trace = get_trace("sssp", BUDGET, SEED)
    for kwargs in (
        {"tlb_predictor": "dppred"},
        {"tlb_predictor": "dppred", "llc_predictor": "cbpred"},
    ):
        machine = assert_equivalent(trace, fast_config(**kwargs), telemetry=True)
        stats = machine.engine_stats
        assert stats == {
            "engine": ENGINE_BATCHED,
            "mode": "flat",
            "flat_records": len(trace),
        }


def test_engine_totals_accumulate_fallback_reasons():
    engine_mod.reset_engine_totals()
    trace = get_trace("locality", 500, SEED)
    Machine(fast_config(tlb_predictor="distance_prefetch"), seed=SEED).run(
        trace, engine=ENGINE_BATCHED
    )
    Machine(fast_config(), seed=SEED).run(trace, engine=ENGINE_BATCHED)
    totals = engine_mod.engine_totals()
    assert totals == {
        "runs": 2,
        "flat_records": len(trace),
        "scalar_records": len(trace),
        "flat_declines": {"predictor": 1},
    }
    engine_mod.reset_engine_totals()


def test_empty_trace_runs_scalar_with_reason():
    """A zero-record trace declines as ``empty`` and matches the scalar
    engine's wire bytes."""
    trace = get_trace("locality", 500, SEED).truncated(0)
    assert len(trace) == 0
    machine = Machine(fast_config(), seed=SEED)
    result = machine.run(trace, engine=ENGINE_BATCHED)
    assert machine.engine_stats == {
        "engine": ENGINE_BATCHED,
        "mode": "scalar",
        "scalar_records": 0,
        "flat_reason": "empty",
    }
    reference = Machine(fast_config(), seed=SEED).run(
        trace, engine=ENGINE_SCALAR
    )
    assert result.to_wire() == reference.to_wire()


@pytest.mark.parametrize("engine", [ENGINE_SCALAR, ENGINE_BATCHED])
def test_negative_address_in_a_signed_trace_raises(engine):
    """The flat interpreter reads only ``uint64`` addresses, whose page
    numbers are never negative. A signed trace declines as ``dtype``, so
    a negative address reaches the scalar walker's range check on both
    engines."""
    n = 100
    vaddrs = DATA_BASE + np.arange(n, dtype=np.int64) * 4096
    vaddrs[50] = -4096
    trace = Trace(
        "negative", np.full(n, CODE_BASE, np.uint64), vaddrs,
        np.zeros(n, bool), np.zeros(n, np.uint16),
    )
    machine = Machine(fast_config(), seed=SEED)
    with pytest.raises(ValueError, match="outside 36-bit space"):
        machine.run(trace, engine=engine)
    if engine == ENGINE_BATCHED:
        assert machine.engine_stats["flat_reason"] == "dtype"


# --------------------------------------------------------------------- #
# Multi-tenant / huge-page traces: flat, with no decline
# --------------------------------------------------------------------- #
def assert_wholly_flat(machine, trace):
    assert machine.engine_stats == {
        "engine": ENGINE_BATCHED,
        "mode": "flat",
        "flat_records": len(trace),
    }


@pytest.mark.parametrize("mix,profile", [("mix2", "mix2"), ("mix4", "mix4")])
def test_mix_configs_run_batched_and_bit_identical(mix, profile):
    """ASID-carrying traces run wholly on the flat interpreter (one
    segment per ASID run, the real context switch between segments),
    byte-identical to the scalar tenant loop, decision-event rings
    included."""
    from repro.workloads.tenants import build_mix_trace

    factory = {"mix2": mix2_config, "mix4": mix4_config}[profile]
    trace = build_mix_trace(mix, BUDGET, SEED)
    config = factory(tlb_predictor="dppred", llc_predictor="cbpred")
    (r_s, m_s), (r_b, m_b) = run_both(trace, config, telemetry=True)
    assert fingerprint(r_s) == fingerprint(r_b)
    assert stats_bags(m_s) == stats_bags(m_b)
    assert m_s.telemetry.to_payload() == m_b.telemetry.to_payload()
    ev_s = m_s.telemetry.probe.events()
    ev_b = m_b.telemetry.probe.events()
    assert json.dumps(ev_s).encode() == json.dumps(ev_b).encode()
    counts = m_b.telemetry.probe.counts()
    assert counts.get("ctx_switch", 0) > 0
    assert counts.get("shootdown", 0) > 0
    assert_wholly_flat(m_b, trace)


def test_hugepage_config_runs_batched_and_bit_identical():
    """Huge-mapped tables run wholly on the flat interpreter (2 MB leaf
    walks, the LLT's huge-key namespace), byte-identical to scalar."""
    config = hugepage_config(tlb_predictor="dppred")
    for workload in ("mcf", "locality"):
        trace = get_trace(workload, BUDGET, SEED)
        machine = assert_equivalent(trace, config, telemetry=True)
        assert_wholly_flat(machine, trace)
        if workload == "mcf":
            # Not vacuous: huge leaves were mapped, huge LLT entries live.
            assert machine.walker.page_table.huge_pages_mapped > 0
            assert machine.l2_tlb._huge_count > 0


def test_tenant_and_hugepage_runs_counted_flat_in_engine_totals():
    """Tenant and huge-page runs count as flat records in the process-
    wide dispatch accounting, with no decline."""
    from repro.workloads.tenants import build_mix_trace

    engine_mod.reset_engine_totals()
    trace = build_mix_trace("mix2", 2000, SEED)
    Machine(mix2_config(), seed=SEED).run(trace, engine=ENGINE_BATCHED)
    flat = get_trace("locality", 500, SEED)
    Machine(hugepage_config(), seed=SEED).run(flat, engine=ENGINE_BATCHED)
    totals = engine_mod.engine_totals()
    assert totals == {
        "runs": 2,
        "flat_records": len(trace) + len(flat),
        "scalar_records": 0,
        "flat_declines": {},
    }
    engine_mod.reset_engine_totals()


def test_same_vpn_different_tenants_never_share_a_filter_hit():
    """Two tenants touch the same VPN, mapped to different frames. The
    same-page filter caches raw VPNs inside a segment, so a switch
    without a shootdown must not serve tenant 2 from tenant 1's entry:
    each tenant's accesses land on its own frame, as in scalar."""
    n = 12
    vaddr = 0x10000000
    asids = np.array([1, 1, 1, 2, 2, 2] * 2, np.int64)
    trace = Trace(
        "shared-vpn",
        np.full(n, 0x400000, np.uint64),
        np.full(n, vaddr, np.uint64),
        np.zeros(n, bool),
        np.zeros(n, np.uint16),
        asids,
    )
    config = mix2_config(shootdown_on_switch=False)
    (r_s, m_s), (r_b, m_b) = run_both(trace, config, telemetry=True)
    assert fingerprint(r_s) == fingerprint(r_b)
    assert m_s.telemetry.to_payload() == m_b.telemetry.to_payload()
    assert_wholly_flat(m_b, trace)
    vpn = vaddr >> 12
    frames = {
        asid: m_b.walker.table_for(asid).lookup(vpn) for asid in (1, 2)
    }
    assert frames[1] != frames[2]
    # Both tenants' translations are live, each tagged with its ASID.
    for asid in (1, 2):
        entry = m_b.l1_dtlb.probe(vpn, asid)
        assert entry is not None and entry.asid == asid
        assert entry.pfn == frames[asid]
    # Each tenant walks its own table: 2 code + 2 data walks, as scalar.
    assert m_b.walker.stats.get("walks") == m_s.walker.stats.get("walks")
    assert m_b.walker.stats.get("walks") == 4
    assert r_b.raw["tenants"] == r_s.raw["tenants"]
    assert r_b.raw["tenants"]["context_switches"] == 3


def test_num_tenants_config_runs_batched_without_asids():
    """A multi-tenant *config* on a plain (asid-free) trace is ordinary
    single-tenant execution — the flat tier runs it with no decline."""
    trace = get_trace("locality", 500, SEED)
    machine = assert_equivalent(trace, mix2_config(), telemetry=True)
    stats = machine.engine_stats
    assert stats["engine"] == ENGINE_BATCHED
    assert stats["mode"] == "flat"
    assert "flat_reason" not in stats


# The README "Engines" coverage table, row by row: (profile, config,
# workload, batched-engine mode, counted flat_reason).
COVERAGE = [
    ("baseline", fast_config(), "sssp", "flat", None),
    ("dppred+cbpred",
     fast_config(tlb_predictor="dppred", llc_predictor="cbpred"),
     "sssp", "flat", None),
    ("residency", fast_config(track_residency=True), "sssp", "flat", None),
    ("srrip", fast_config(tlb_policy="srrip", cache_policy="srrip"),
     "sssp", "flat", None),
    ("mix2", mix2_config(tlb_predictor="dppred", llc_predictor="cbpred"),
     "mix2", "flat", None),
    ("mix4", mix4_config(), "mix4", "flat", None),
    ("hugepage", hugepage_config(tlb_predictor="dppred"), "sssp",
     "flat", None),
    ("leeway", leeway_config(), "sssp", "flat", None),
    ("perceptron", perceptron_config(), "sssp", "flat", None),
    ("ship", fast_config(tlb_predictor="ship", llc_predictor="ship"),
     "sssp", "flat", None),
    ("aip", fast_config(tlb_predictor="aip", llc_predictor="aip"),
     "sssp", "flat", None),
    ("oracle", fast_config(tlb_predictor="oracle", llc_predictor="oracle"),
     "sssp", "flat", None),
    ("distance_prefetch", fast_config(tlb_predictor="distance_prefetch"),
     "sssp", "scalar", "predictor"),
    ("reference", fast_config(track_reference=True), "sssp", "flat", None),
    ("track_correlation",
     fast_config(track_residency=True, track_correlation=True), "sssp",
     "flat", None),
]


def test_every_decline_reason_has_a_producer():
    """Each ``REASON_*`` the engine defines is either a trace-side reason
    (``dtype``, ``empty``) or shown by a row of the coverage table, so a
    reason nothing produces any more fails here."""
    reasons = {
        value for name, value in vars(engine_mod).items()
        if name.startswith("REASON_")
    }
    covered = {row[4] for row in COVERAGE if row[4] is not None}
    assert reasons == covered | {"dtype", "empty"}


@pytest.mark.parametrize(
    "config,workload,mode,reason",
    [row[1:] for row in COVERAGE],
    ids=[row[0] for row in COVERAGE],
)
def test_shipped_profile_coverage(config, workload, mode, reason):
    """Every shipped profile runs the mode and counted reason the docs'
    coverage table states, accounts for every record, and matches the
    scalar engine's wire bytes and counters."""
    trace = get_trace(workload, 2000, SEED)
    machine = Machine(config, seed=SEED)
    result = machine.run(trace, engine=ENGINE_BATCHED)
    stats = machine.engine_stats
    assert stats["mode"] == mode
    assert stats.get("flat_reason") == reason
    assert (
        stats.get("flat_records", 0) + stats.get("scalar_records", 0)
        == len(trace)
    )
    scalar = Machine(config, seed=SEED)
    reference = scalar.run(trace, engine=ENGINE_SCALAR)
    assert result.to_wire() == reference.to_wire()
    assert stats_bags(machine) == stats_bags(scalar)


#: Registered predictors the flat interpreter still declines, with the
#: counted reason. Every other registered name must run flat, so a newly
#: registered predictor fails here until it is classified.
EXPECTED_DECLINES = {
    (registry.KIND_TLB, "distance_prefetch"): "predictor",
}


def _registry_config(kind, name):
    if kind == registry.KIND_TLB:
        return fast_config(tlb_predictor=name)
    # cbPred only runs coupled with dpPred.
    partner = "dppred" if name.startswith("cbpred") else "none"
    return fast_config(tlb_predictor=partner, llc_predictor=name)


@pytest.mark.parametrize("kind", [registry.KIND_TLB, registry.KIND_LLC])
def test_every_registered_predictor_is_flat_or_an_expected_decline(kind):
    trace = get_trace("sssp", 1000, SEED)
    names = registry.registered_names(kind)
    assert names
    for name in names:
        config = _registry_config(kind, name)
        machine = Machine(config, seed=SEED)
        result = machine.run(trace, engine=ENGINE_BATCHED)
        expected = EXPECTED_DECLINES.get((kind, name))
        stats = machine.engine_stats
        assert stats.get("flat_reason") == expected, (kind, name, stats)
        assert stats["mode"] == ("flat" if expected is None else "scalar")
        reference = Machine(config, seed=SEED).run(
            trace, engine=ENGINE_SCALAR
        )
        assert result.to_wire() == reference.to_wire(), (kind, name)


def test_mix_trace_roundtrips_through_npz(tmp_path):
    """The asids array must survive disk-cache serialisation."""
    from repro.workloads.tenants import build_mix_trace

    trace = build_mix_trace("mix2", 2000, SEED)
    path = tmp_path / "mix2.npz"
    trace.save(path)
    loaded = Trace.load(path)
    assert loaded.asids is not None
    np.testing.assert_array_equal(loaded.asids, trace.asids)
    np.testing.assert_array_equal(loaded.vaddrs, trace.vaddrs)


# --------------------------------------------------------------------- #
# Decision-event rings (batched-mode obs telemetry)
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("workload", ["sssp", "mcf"])
def test_decision_event_rings_byte_identical(workload):
    """The predictors' decision-event ring buffers — LLT bypass/demote,
    shadow promote/hit/evict, PFQ push/hit, DP-mark, verdicts, walks —
    must be byte-identical between the batched and scalar engines."""
    trace = get_trace(workload, BUDGET, SEED)
    config = fast_config(tlb_predictor="dppred", llc_predictor="cbpred")
    (r_s, m_s), (r_b, m_b) = run_both(trace, config, telemetry=True)
    assert fingerprint(r_s) == fingerprint(r_b)
    ev_s = m_s.telemetry.probe.events()
    ev_b = m_b.telemetry.probe.events()
    assert json.dumps(ev_s).encode() == json.dumps(ev_b).encode()
    counts = m_b.telemetry.probe.counts()
    # The suite workloads must actually exercise the decision streams —
    # otherwise byte-equality above is vacuous.
    assert counts.get("walk", 0) > 0
    assert sum(
        counts.get(kind, 0)
        for kind in (
            "llt_bypass", "llt_demote", "shadow_promote", "shadow_hit",
            "shadow_evict", "pfq_push", "pfq_hit", "llc_bypass",
            "llc_mark_dp", "llt_verdict", "llc_verdict",
        )
    ) > 0
    assert m_s.telemetry.probe.emitted == m_b.telemetry.probe.emitted


def test_unexpected_trace_dtype_falls_back():
    trace = get_trace("locality", BUDGET, SEED)
    odd = Trace(
        trace.name,
        trace.pcs.astype(np.int64),
        trace.vaddrs.astype(np.int64),
        trace.writes,
        trace.gaps,
    )
    machine = Machine(fast_config(), seed=SEED)
    result = machine.run(odd, engine=ENGINE_BATCHED)
    assert machine.engine_stats["mode"] == "scalar"
    assert machine.engine_stats["flat_reason"] == "dtype"
    reference = Machine(fast_config(), seed=SEED).run_scalar(trace)
    assert fingerprint(result) == fingerprint(reference)


def test_scalar_engine_records_engine_stats():
    trace = get_trace("locality", 500, SEED)
    machine = Machine(fast_config(), seed=SEED)
    machine.run(trace, engine=ENGINE_SCALAR)
    assert machine.engine_stats == {"engine": ENGINE_SCALAR}


def test_resolve_engine_precedence(monkeypatch):
    assert resolve_engine() == ENGINE_BATCHED  # default
    monkeypatch.setenv("REPRO_ENGINE", ENGINE_SCALAR)
    assert resolve_engine() == ENGINE_SCALAR  # env beats default
    set_default_engine(ENGINE_BATCHED)
    assert resolve_engine() == ENGINE_BATCHED  # CLI beats env
    assert resolve_engine(ENGINE_SCALAR) == ENGINE_SCALAR  # arg beats all


def test_resolve_engine_validation(monkeypatch):
    with pytest.raises(ValueError):
        resolve_engine("turbo")
    with pytest.raises(ValueError):
        set_default_engine("turbo")
    monkeypatch.setenv("REPRO_ENGINE", "turbo")
    with pytest.raises(ValueError):
        resolve_engine()


def test_run_honours_env_engine(monkeypatch):
    trace = get_trace("locality", BUDGET, SEED)
    monkeypatch.setenv("REPRO_ENGINE", ENGINE_SCALAR)
    machine = Machine(fast_config(), seed=SEED)
    machine.run(trace)
    assert machine.engine_stats == {"engine": ENGINE_SCALAR}

