"""Batched trace-execution engine and engine selection.

The batched engine runs each trace one of two ways, both bit-identical
to the scalar reference loop (:meth:`Machine.run_scalar`):

* **flat** — :class:`_FlatStepper` runs the whole trace through one
  inlined per-record interpreter over the canonical structures: the L1
  TLBs with the same-page filter, the L2 TLB (LLT) with its 2 MB
  huge-entry namespace, the radix walker (4 KB and huge leaves) and its
  PWCs, L1D/L2/LLC with writeback and inclusion cascades, LRU and
  SRRIP, residency tracking, and the LLT/LLC predictors. An inline
  fill that evicts overwrites the victim's line or entry object in
  place, and a walk that hits the L1 PWC loads its PTE from the leaf
  node that entry holds, without descending the radix tree. dpPred's
  fill-time decision (pHIST probe, shadow-FIFO promote/evict, PFQ push,
  bypass, eviction-time training) and cbPred's fill decision (PFQ match,
  bHIST probe, LLC bypass, DP-marking) are inlined with their stats and
  decision events byte-for-byte; rare paths delegate to the real
  methods: shadow hits to the predictor's ``on_miss``,
  L1 I-TLB misses to :meth:`Machine._translate` (14 misses in 280,000
  records on the 14-workload suite under dpPred+cbPred, 88 in 320,000
  on the benchmark's scenario cells, against a 52% L1 D-TLB miss rate
  on the suite), and the LLC fill of a page-walk load that misses the
  LLC to :meth:`CacheHierarchy._fill_llc` (0.015 per record on the
  benchmark's suite cells, 0.017 on its scenario cells, against 0.62
  data-path L2 misses per suite record). The other registry
  predictors (Leeway, perceptron, SHiP, AIP, the oracle passes, and
  dpPred under its demote ablation) and the Table III correlation
  listeners run through one generic listener path: each hook a
  listener overrides is called where
  :meth:`Tlb.lookup` / :meth:`SetAssocCache.lookup` and
  :meth:`Tlb.fill` / :meth:`SetAssocCache.fill` call it, from the same
  inline fills every other run uses (a bypass, a ``"distant"`` insertion
  at the LRU end or at RRPV max, a listener's own victim choice), so
  every flat LLT and data-path LLC fill is counted one way. The
  ground-truth reference structures (Tables VI/VII) are fed at the
  scalar engine's two points. ASID-carrying traces run as segments of
  constant ASID: every key is the combined
  ``(asid, vpn)`` key, and the context switch between segments is the
  real :meth:`Machine._context_switch`.
* **scalar** — a machine or trace the flat interpreter does not model
  runs :meth:`Machine.run_scalar` instead, with exactly one counted
  reason (:func:`flat_reason`, ``engine_stats["flat_reason"]``,
  :func:`engine_totals`): listeners outside the flat-eligible set (the
  distance prefetcher, unlisted plug-ins), unexpected trace dtypes, or
  an empty trace.

Bit-identity with the scalar engine is a hard guarantee, not a goal
(``tests/test_engine_equivalence.py`` enforces it property-wise).

Engine selection: ``resolve_engine`` — explicit argument, then
:func:`set_default_engine` (the CLI's ``--engine``), then the
``REPRO_ENGINE`` environment variable, then the batched default.
"""

from __future__ import annotations

import os
from typing import Optional

import numpy as np

from repro.common.bitops import fold_xor
from repro.core.cbpred import CorrelatingDeadBlockPredictor
from repro.core.dppred import ACTION_BYPASS, DeadPagePredictor
from repro.mem.cache import CacheLine, CacheListener
from repro.mem.replacement import insert_lru
from repro.obs.events import (
    EV_LLC_BYPASS,
    EV_LLC_MARK_DP,
    EV_LLC_VERDICT,
    EV_LLT_BYPASS,
    EV_LLT_VERDICT,
    EV_PFQ_HIT,
    EV_PFQ_PUSH,
    EV_SHADOW_EVICT,
    EV_SHADOW_PROMOTE,
    EV_WALK,
)
from repro.predictors.aip import AipCachePredictor, AipTlbPredictor
from repro.predictors.leeway import LeewayCachePredictor, LeewayTlbPredictor
from repro.predictors.oracle import (
    DoaRecordingCacheListener,
    DoaRecordingListener,
    OracleCacheListener,
    OracleTlbListener,
)
from repro.predictors.perceptron import (
    PerceptronCachePredictor,
    PerceptronTlbPredictor,
)
from repro.predictors.ship import ShipCachePredictor, ShipTlbPredictor
from repro.sim.machine import (
    _CorrelationCacheListener,
    _CorrelationTlbListener,
)
from repro.vm.pagetable import (
    ENTRIES_PER_NODE,
    LEVEL_BITS,
    NUM_LEVELS,
    VPN_BITS,
    _HugeLeaf,
    _Node,
)
from repro.vm.physmem import PAGE_SHIFT
from repro.vm.tlb import (
    FILL_BYPASS,
    FILL_DISTANT,
    HUGE_KEY_BASE,
    TlbEntry,
    TlbListener,
)
from repro.vm.walker import BLOCK_SHIFT

ENGINE_BATCHED = "batched"
ENGINE_SCALAR = "scalar"
ENGINES = (ENGINE_BATCHED, ENGINE_SCALAR)

_default_engine: Optional[str] = None


def set_default_engine(engine: Optional[str]) -> None:
    """Pin the process-wide default engine (the CLI's ``--engine``)."""
    if engine is not None and engine not in ENGINES:
        raise ValueError(
            f"unknown engine {engine!r}; choose from {ENGINES}"
        )
    global _default_engine
    _default_engine = engine


def resolve_engine(engine: Optional[str] = None) -> str:
    """Effective engine: argument > set_default_engine > REPRO_ENGINE >
    batched."""
    if engine is not None:
        if engine not in ENGINES:
            raise ValueError(
                f"unknown engine {engine!r}; choose from {ENGINES}"
            )
        return engine
    if _default_engine is not None:
        return _default_engine
    env = os.environ.get("REPRO_ENGINE")
    if env:
        if env not in ENGINES:
            raise ValueError(
                f"REPRO_ENGINE must be one of {ENGINES}, got {env!r}"
            )
        return env
    return ENGINE_BATCHED


# --------------------------------------------------------------------- #
# Eligibility
# --------------------------------------------------------------------- #
#: Why a run went to the scalar reference instead of the flat tier
#: (``engine_stats["flat_reason"]`` and :func:`engine_totals`'s
#: ``flat_declines``).
REASON_PREDICTOR = "predictor"  # listener outside the flat-eligible sets
#                                 (the distance prefetcher, unlisted
#                                 plug-ins), or any L1 listener/residency
REASON_DTYPE = "dtype"          # unexpected trace array dtypes
REASON_EMPTY = "empty"          # zero-record trace

#: Listeners the flat tier runs through its generic path: hooks called
#: where the scalar ``lookup`` and ``fill`` call them, from the inline
#: fills. Each writes only its own state and the entry or line it is
#: handed, and at most reads other structures' resident state (see
#: :class:`~repro.predictors.base.PredictorSpec`): the Table III
#: correlation listener on the LLC probes the LLT. dpPred and cbPred
#: are inlined instead, so they are not listed; dpPred under the demote
#: ablation takes the generic path too.
GENERIC_TLB_LISTENERS = frozenset({
    LeewayTlbPredictor,
    PerceptronTlbPredictor,
    ShipTlbPredictor,
    AipTlbPredictor,
    DoaRecordingListener,
    OracleTlbListener,
    _CorrelationTlbListener,
})
GENERIC_LLC_LISTENERS = frozenset({
    LeewayCachePredictor,
    PerceptronCachePredictor,
    ShipCachePredictor,
    AipCachePredictor,
    DoaRecordingCacheListener,
    OracleCacheListener,
    _CorrelationCacheListener,
})


def flat_reason(machine) -> Optional[str]:
    """Why the flat interpreter cannot run this machine (None = it can).

    The flat path inlines the whole scalar access chain — L1 TLBs, LLT,
    walker, L1D/L2/LLC, dpPred/cbPred, and the ground-truth reference
    structures' two feeds — so it is restricted to the structures and
    hooks it models exactly:

    * the L1 TLBs, L1D and L2 must be bare (no listener, no residency) —
      true for every shipped configuration;
    * the LLT may carry dpPred (inlined; its ``on_miss`` slow path is
      a real call, and its demote ablation runs as a generic listener)
      or a listener in :data:`GENERIC_TLB_LISTENERS`; the LLC may carry
      cbPred (inlined)
      or a listener in :data:`GENERIC_LLC_LISTENERS`. Both checks are
      exact ``type()`` checks, so any other listener — the distance
      prefetcher (it re-enters ``tlb.fill`` from its own hooks), a
      subclass, or anything newly registered through
      :mod:`repro.predictors.registry` — declines with ``predictor``: it
      runs bit-exact on the scalar reference with zero engine work, and
      the decline is counted (``engine_stats["flat_reason"]``,
      ``engine_totals()``'s ``flat_declines``) — never silent.

    Both replacement policies (LRU's tag-dict reordering, SRRIP's RRPV
    aging), multi-tenant (ASID-carrying) traces, huge-page tables,
    ground-truth reference structures and the Table III correlation
    listeners run flat.
    """
    for struct in (
        machine.l1_itlb, machine.l1_dtlb, machine.l1d, machine.l2
    ):
        if struct.listener is not None or struct.residency is not None:
            return REASON_PREDICTOR
    lt_listener = machine.l2_tlb.listener
    if lt_listener is not None and not (
        type(lt_listener) is DeadPagePredictor
        or type(lt_listener) in GENERIC_TLB_LISTENERS
    ):
        return REASON_PREDICTOR
    llc_listener = machine.llc.listener
    if llc_listener is not None and not (
        type(llc_listener) is CorrelatingDeadBlockPredictor
        or type(llc_listener) in GENERIC_LLC_LISTENERS
    ):
        return REASON_PREDICTOR
    return None


def _own_hook(listener, base, name):
    """``listener``'s bound ``name`` hook, or None when its class keeps
    ``base``'s no-op (the flat tier then skips the call entirely)."""
    if listener is None or getattr(type(listener), name) is getattr(
        base, name
    ):
        return None
    return getattr(listener, name)


def _decline_reason(machine, trace) -> Optional[str]:
    """Why this run goes to the scalar reference (None = it runs flat)."""
    asids = getattr(trace, "asids", None)
    if len(trace) == 0:
        return REASON_EMPTY
    if not (
        trace.pcs.dtype == np.uint64
        and trace.vaddrs.dtype == np.uint64
        and trace.writes.dtype == np.bool_
        and trace.gaps.dtype.kind in "iu"
        and (asids is None or asids.dtype.kind in "iu")
    ):
        return REASON_DTYPE
    return flat_reason(machine)


# --------------------------------------------------------------------- #
# Process-wide dispatch accounting (surfaced by the CLI's --profile)
# --------------------------------------------------------------------- #
_totals = {
    "runs": 0,
    "flat_records": 0,
    "scalar_records": 0,
    "flat_declines": {},
}


def engine_totals() -> dict:
    """Snapshot of batched-engine dispatch since the last reset: runs,
    the flat/scalar record split, and per-reason counts of runs sent to
    the scalar reference (``flat_declines`` — e.g. every distance-
    prefetcher run counts one ``predictor``). Diagnostics only — never
    part of simulation results."""
    out = dict(_totals)
    out["flat_declines"] = dict(_totals["flat_declines"])
    return out


def engine_totals_since(before: dict) -> dict:
    """:func:`engine_totals` minus an earlier snapshot ``before`` (the
    dispatch of everything run in between, in this process)."""
    now = engine_totals()
    out = {
        key: now[key] - before[key]
        for key in ("runs", "flat_records", "scalar_records")
    }
    out["flat_declines"] = {
        why: n - before["flat_declines"].get(why, 0)
        for why, n in now["flat_declines"].items()
        if n != before["flat_declines"].get(why, 0)
    }
    return out


def describe_engine_totals(totals: dict) -> str:
    """One line for a totals dict: runs, the flat/scalar record split,
    and the counted decline reasons (if any)."""
    declines = totals["flat_declines"]
    return (
        f"{totals['runs']} runs, {totals['flat_records']} flat / "
        f"{totals['scalar_records']} scalar records"
        + (
            "; flat declines ("
            + ", ".join(f"{why}: {n}" for why, n in sorted(declines.items()))
            + ")"
            if declines
            else ""
        )
    )


def reset_engine_totals() -> None:
    for key, value in _totals.items():
        if isinstance(value, dict):
            value.clear()
        else:
            _totals[key] = 0


def run_batched(machine, trace):
    """Run ``trace`` on ``machine`` with the batched engine.

    The whole trace runs on the flat interpreter when it models this
    machine and trace; otherwise it runs on :meth:`Machine.run_scalar`
    and the reason is counted. Either way the result is bit-identical to
    the scalar engine.
    """
    _totals["runs"] += 1
    n = len(trace)
    why = _decline_reason(machine, trace)
    if why is not None:
        declines = _totals["flat_declines"]
        declines[why] = declines.get(why, 0) + 1
        _totals["scalar_records"] += n
        machine.engine_stats = {
            "engine": ENGINE_BATCHED,
            "mode": "scalar",
            "scalar_records": n,
            "flat_reason": why,
        }
        return machine.run_scalar(trace)
    _FlatStepper(machine).run(trace)
    _totals["flat_records"] += n
    machine.engine_stats = {
        "engine": ENGINE_BATCHED,
        "mode": "flat",
        "flat_records": n,
    }
    return machine.finalize(trace.name)


# --------------------------------------------------------------------- #
# Flat interpreter
# --------------------------------------------------------------------- #
# Records per predecoded chunk. The chunk's columns are most of a run's
# transient memory: one run's tracemalloc peak (mcf, LRU, budget 40,000,
# trace built beforehand) reads 7.2 MB at 65,536 records and 3.6 MB at
# 16,384, which runs at the same speed.
_CHUNK_RECORDS = 16384


class _FlatStepper:
    """Flattened per-record interpreter over the canonical structures.

    This interpreter executes every record of a trace — L1 hits and
    misses, LLT misses and page walks, LLC fills and inclusion victims,
    dpPred/cbPred decisions, SRRIP aging, residency tracking — by
    inlining the scalar access chain into one straight-line loop over
    Python scalars. It is what makes miss-dominated (TLB-thrashing)
    workloads faster than the scalar engine: the per-event method
    dispatch, listener checks and Stats lookups of ``machine.access()``
    collapse into locals and plain dict operations on the very same
    state objects.

    Soundness of mixing inline updates with real method calls: every
    simulated event is handled exactly once, either inline or by the
    real method. All *structural* state (tags, entries, RRPVs,
    predictor tables, residency trackers, the PFQ) lives on the real
    objects; the only locally buffered state is Stats counter deltas,
    flushed into the live dicts at the end of every chunk. The loop
    counts each event once, and the flush derives the counters that
    follow from others over the chunk's records: hits from the record
    count or from lookups less misses, L1 D-TLB/L1D/L2 fills from
    misses, evictions from fills less free-way fills, memory accesses
    from reads plus writes, and walks from their PWC outcomes. Rare events
    call the real methods: L1 I-TLB misses (the whole instruction-side
    chain after the filter and the I-TLB hit probe: 0.005% of suite
    records, 0.03% of scenario records), LLC fills by page-walk loads
    (:meth:`CacheHierarchy._fill_llc` — fill decision, victim training,
    inclusion cascade — for the PTE loads
    that miss the LLC: 0.015 per suite record, 0.017 per scenario one;
    the walk's L2 and LLC probes and its L2 fill stay inline), dpPred's
    shadow *hits* (misprediction refills) and LLT fills under the
    demote ablation. The hot paths stay inline: dpPred's fill-time
    prediction (pHIST probe, bypass bookkeeping, shadow-FIFO
    insert/evict, PFQ push) and eviction-time training, the shadow-miss
    probe, and on the data path cbPred's full fill decision (PFQ match,
    bHIST probe, bypass, DP-mark) and its eviction-time bHIST training
    (0.10 DP-marked victims per record on the suite's dpPred+cbPred
    cells) are replicated inline with identical stat bumps and
    decision-event emissions; dp=False LLC victims make ``on_evict`` a
    no-op and are skipped. Any other flat-eligible LLT/LLC listener
    (:data:`GENERIC_TLB_LISTENERS`, :data:`GENERIC_LLC_LISTENERS`, and
    dpPred under the demote ablation) takes the generic path: the hooks
    it overrides are called at the scalar ``lookup``'s and ``fill``'s
    points, from the inline fills. ``on_fill`` decides first (a bypass
    counts with dpPred's and cbPred's; ``"distant"`` moves the new key
    to the LRU end of its tag dict, or sets its RRPV to the maximum);
    on a full set, a class that overrides ``choose_victim`` (AIP) picks
    the victim, else the policy does; ``on_evict`` sees the victim before
    it is recycled, with its tag already gone from the set (the way
    still holds it, where ``_evict_way`` leaves None: see
    :class:`~repro.predictors.base.PredictorSpec`); the recycled
    object's ``aux`` is reset, and ``filled`` runs after residency
    tracking, in ``Tlb.fill``'s order. So every flat LLT fill and
    data-path LLC fill is counted the same way, whatever the listener.
    ``fold_xor`` hashes are memoized per run (pure function of its
    inputs).

    The ground-truth reference structures (Tables VI/VII) are fed where
    the scalar engine feeds them: the LLT reference on each L1 D-TLB
    miss, with the combined key, before the LLT probe (an L1 I-TLB miss
    feeds it inside the delegated :meth:`Machine._translate`), and the
    LLC reference on each data access that misses L2, after the fills;
    walk loads feed neither. Fill-time predictions reach them through
    the predictors' ``prediction_observer``, inline and generic alike.

    The trace runs in chunks of at most :data:`_CHUNK_RECORDS` records,
    predecoded by numpy into the columns the loop reads: the PC, a mark
    on each record whose code page differs from the previous record's
    (a chunk's first record is always marked), the data address's page
    number and block offset within the page, the write flag and each
    record's base cycles. The flush takes the running instruction count
    at the chunk's last record. A chunk ends at an ASID segment's end
    and at the record whose instruction count reaches the next timeline
    boundary, so every sample and context switch falls between chunks
    and observes exactly the scalar loop's counter values.

    The instruction side runs only at marked records (each Table II
    trace keeps its code on one page, so on the suite only each chunk's
    first record is marked). An unmarked record's instruction fetch
    is a hit on the entry the previous record used: a same-page filter
    hit, or, with the filter off (SRRIP L1 TLBs), an I-TLB hit on the
    most recent entry of its set. Nothing else touches the L1 I-TLB in
    between, so such a hit changes state only after a miss: the new
    entry's ``accessed`` bit, and its RRPV to 0 under SRRIP. A miss
    whose next record is unmarked applies that change itself.

    The same-page filter is this interpreter's own; the scalar loop
    probes both L1 TLBs on every record. With LRU L1 TLBs (``pf``), a
    record on the page of the previous D-side (or I-side) translation
    reuses that entry, setting its ``accessed`` bit, without probing
    its set. That is exact: after a translation its entry is the most
    recent of its set, nothing else touches that TLB before the next
    record (the L1 TLBs carry no listener, so no fill bypasses), and
    re-promoting the most recent entry under LRU moves nothing. An
    SRRIP hit resets the RRPV, so the filter is off there. It holds raw
    VPNs of one ASID segment and starts empty at each segment, after
    the context switch's shootdown.

    LRU state is each set's tag dict itself, least recent first, as in
    :class:`~repro.vm.tlb.Tlb` and :class:`~repro.mem.cache.SetAssocCache`:
    a hit is ``del tags[k]; tags[k] = way``, a fill appends, and the
    victim is the first key. Distant (LRU-position) insertions only come
    from generic listeners (SHiP, the demote ablation): the fill appends,
    then :func:`~repro.mem.replacement.insert_lru` moves the key to the
    front. A set with a free way finds the lowest one with
    ``lines.index(None)``: ``CacheLine`` and ``TlbEntry`` define no
    ``__eq__``, so the C scan matches ``None`` by identity.

    Only a fill into a free way constructs a ``CacheLine`` or
    ``TlbEntry``, whatever the listener; the fills that still go through
    the real ``fill`` (a delegated I-TLB miss's, a dpPred shadow hit's
    refill, a walk load's LLC fill) construct as the scalar engine does.
    A fill that evicts (L1D, L2 on the data and walk paths, the LLC, the
    L1 D-TLB and the LLT) first reads what the victim's writeback,
    inclusion cascade and predictor training need, then overwrites the
    victim object with the incoming block or translation, every field
    that can differ from a fresh object's value reset: an LLC line's
    ``aux`` always, an LLT entry's ``aux`` under a generic listener or
    residency tracking (after ``on_evict``; dpPred keeps no ``aux``). The
    rest never change: ``dp`` and ``aux`` on L1D and L2 lines (bare
    caches; only cbPred marks, only LLC lines), and ``aux`` and ``huge``
    on L1 D-TLB entries (bare, and :meth:`Machine._translate` fills the
    L1 TLBs with 4 KB entries too). Nothing else holds an evicted
    object: predictors copy what they keep (a generic listener's
    ``on_evict`` reads the victim and lets it go, as
    :class:`~repro.predictors.base.PredictorSpec` requires), residency
    trackers key by (set, way), and with the same-page filter on, every
    D-TLB fill becomes the filter's entry, so a recycled victim that was
    the filter's entry is its new entry in the same step.

    A 4 KB walk stores its region's leaf page-table node as the value of
    its L1-PWC entry (the scalar walker stores None). A walk whose L1
    PWC returns a node loads the one PTE from it and skips the descent:
    the node exists once any walk has installed the entry, and a
    region's leaf node is never replaced (``unmap`` drops PTEs only).

    The PWC fill after a walk skips what is already in place. An L1-PWC
    hit has moved its entry to most recent, which is all the L1 install
    would do. Every walk installs its L2 and L3 tags, so the loop keeps
    the last walk's L2 tag (its 1 GB region): a walk with the same tag
    finds both levels' most recent entries already its own and installs
    nothing there (every suite trace lies in one 1 GB region, and 89% of
    its walks hit the L1 PWC). The tracking resets where another walker
    fills the PWC (a delegated I-TLB miss) and at each ASID segment's
    start, after a context switch's shootdown has dropped entries.
    """

    __slots__ = ("m", "_fx_pc", "_fx_vpn", "_fx_blk", "_fx_pgb")

    def __init__(self, machine):
        self.m = machine
        # Memoized fold_xor results (pure function, narrow key spaces:
        # PCs repeat per site, VPNs per page working set). One dict per
        # bit width in use, living as long as the run.
        self._fx_pc = {}
        self._fx_vpn = {}
        self._fx_blk = {}
        # Page-level bHIST hash seeds: fold_xor(pfn << boff, bits).
        # A block hash is seed ^ block_offset (the offset bits sit
        # inside the lowest fold chunk whenever bits >= boff, and
        # xor-folding is linear over disjoint bit fields), so all 64
        # blocks of a page share one fold_xor call.
        self._fx_pgb = {}

    def run(self, trace) -> None:
        """Execute every record of ``trace``. Machine state is read at
        entry and written back at exit (and around each context switch
        of an ASID-carrying trace); counter deltas are flushed at every
        chunk end and before each timeline sample, so samples and
        switches observe exactly the scalar loop's counter values. The
        caller finalizes the machine."""
        # CPython numbers a function's locals in order of first
        # appearance, and an access to a local numbered above 255 needs
        # an EXTENDED_ARG prefix. This interpreter has 368 locals, so
        # the 250 its loop touches most are bound here first, most
        # accessed first (by opcode-level access counts over the
        # benchmark's suite and scenario cells at budget 40,000: LRU and
        # dpPred+cbPred suite runs, tenant mixes, huge pages, Leeway and
        # perceptron; EXTENDED_ARG-prefixed accesses included). At that
        # budget the function executes 414 bytecodes per suite record
        # (24 of them BINARY_OP) and 459 per scenario record (580 in
        # all frames, the listener hooks' included).
        # benchmarks/hot_locals.py prints that ranking and those counts;
        # re-derive the block with it after a change that adds or
        # renames hot locals.
        # Without this block the suite runs 7% slower (ten alternating
        # benchmark pairs on a 2-core x86-64 host, CPython 3.11).
        # tests/test_engine_hot_locals.py checks that every name here
        # keeps an index below 256 and is still used.
        ln = block = vt = dkey = dvpn = t1 = pfn = tags_d = penalty = None
        dent = t2 = t3 = set_1 = wl = tags_l = le = w1 = set_d = None
        is_write = blk = wd = pc = set_l = lkey = node = wlat = cycles = None
        inew = cpi = boff_v = w1f = set_2 = w2f = pf = last_dvpn = tc = None
        set_3 = l2_rrpv = abase = wd_ = l1_rrpv = l2_tags = l2_mask = None
        widx = wc = lines2 = l2_misses = dt_rrpv = w3f = boff = l1_mask = None
        l1_tags = w3_ = dentry = now = bypass3 = w2_ = lines1 = None
        l1_misses = set_c = wtag = l3_misses = l2_lines = wv2 = s2 = None
        path_rem = vdirty = wv = mark_dp = entries_d = dt_misses = None
        last_dent = m_reads = lines3 = l1_lines = lpfn = cb = lhuge = None
        sh_entries = lt_install = dt_mask = dt_tags = dt_entries = gtag = None
        lt_mask = lt_tags = l3_mask = l3_tags = l3_slow = hbase = None
        pte_paddr = huge_on = lt_pch = asid = pc_h = w_memacc = w_cycles = None
        s1 = l3_gen = l2_assoc = l3_lines = pw_l1h = cb_pfq = dp = None
        l1_assoc = ref_llc = l3_rrpv = lt_g_lookup = mem_penalty = None
        dt_assoc = ref_llt = entries_l = vh = doa = pw1 = widx_mask = None
        lt_slow = ps = l3_assoc = sh2 = sh3 = lt_rrpv = lt_entries = bs = None
        pt_root = s3 = wv3 = bhh = pw_last = vpn_limit = l2_tlb_latency = None
        walk_exposure = pfn_to_vpn = probe = pw1_mte = l3_vlru = None
        l3_g_fill = tc3 = wc3 = pw_lat1 = lt_hits = m_writes = ch = None
        ph_vals = hl2_lat = dp_probe = dec = fx_vpn = dp_vbits = vh2 = None
        sb_ = w2 = l1_wb = l2_wb = set_c3 = lt_g_fill = pfq_q = ph_cols = None
        lt_assoc = pidx = lt_vlru = cb_probe = lt_byp = fx_blk = l3_byp = None
        pg_ = lt_g_miss = pfq_members = lt_res = d_cb_pfqm = pv = None
        l3_free = lt_g_hit = bh_vals = lt = fx_pc = dp_obs = dp_thresh = None
        l3_wb = l2_tlb_hit_penalty = bhh2 = d_cb_note = d_dp_doap = None
        d_sh_ins = d_sh_ev = d_pfq_ins = d_pfq_ev = l3 = l3_res = None
        d_ph_doa = l3_g_lookup = l3_g_hit = hkey = cv_ = line_cls = None
        fx_pgb = cb_obs = bh_thresh = ph_rows = hl3_lat = bmask = bh_pg = None
        d_cb_doap = d_bh_doa = actx = pw_l2h = p0 = p1 = p2 = path = None
        wlat2 = dp_sink = sh_cap = sh_probe = ev_vpn = _ = pfq_cap = None
        ph_max = d_ph_ndoa = pt_stats_add = pt_alloc = h_orphan = None
        bh_cmax = llc_hit_penalty = pt_huge = pw2 = sh1 = pw2_mte = None
        pw_lat2 = wlat3 = pw1_cap = pw_lat3 = pw1_pop = huge_key_base = None
        w_llc_miss = lt_g_filled = lt_dist = lt_g_evict = l2_free = None
        lt_free = l3_g_filled = l3_dist = mem_lat = fill_llc = bh_bits = None
        entry_cls = l2_hit_penalty = l1_free = d_bh_ndoa = dt_free = None
        m = self.m
        pcs, vaddrs = trace.pcs, trace.vaddrs
        writes, gaps = trace.writes, trace.gaps
        n = len(pcs)
        sampler = m._timeline
        fx_pc = self._fx_pc
        fx_vpn = self._fx_vpn
        fx_blk = self._fx_blk
        fx_pgb = self._fx_pgb
        # A fill into a free way constructs its line or entry; a fill
        # that evicts overwrites the victim object in place.
        line_cls = CacheLine
        entry_cls = TlbEntry
        # Predictor-stat deltas, flushed with the structure-stat
        # deltas at every chunk end. The flushes are guarded so a
        # counter that never fired does not create a zero-valued key
        # the scalar engine would not have. Eviction-time training
        # counts each DOA verdict twice (the history table's
        # ``doa_trainings`` and the predictor's
        # ``doa_evictions_observed``), so ``d_ph_doa``/``d_bh_doa`` feed
        # both; dpPred's shadow misses are the LLT misses less its
        # shadow hits (``sh_hits``).
        d_cb_pfqm = d_cb_doap = d_cb_note = 0
        d_dp_doap = sh_hits = 0
        d_ph_doa = d_ph_ndoa = d_bh_doa = d_bh_ndoa = 0
        d_pfq_ins = d_pfq_ev = d_sh_ins = d_sh_ev = 0
        # --- machine scalars ------------------------------------------- #
        now = m.now
        instructions = m.instructions
        cycles = m.cycles
        base_cpi = m._base_cpi
        l2_tlb_hit_penalty = m._l2_tlb_hit_penalty
        l2_hit_penalty = m._l2_hit_penalty
        llc_hit_penalty = m._llc_hit_penalty
        mem_penalty = m._mem_penalty
        l2_tlb_latency = m._l2_tlb_latency
        walk_exposure = m._walk_exposure
        pfn_to_vpn = m.pfn_to_vpn
        probe = m._probe
        ref_llt = None if m.ref_llt is None else m.ref_llt.access
        ref_llc = None if m.ref_llc is None else m.ref_llc.access
        ps = PAGE_SHIFT
        bs = BLOCK_SHIFT
        boff = PAGE_SHIFT - BLOCK_SHIFT
        bmask = (1 << boff) - 1
        if sampler is not None:
            interval = sampler.interval
            sample = sampler.sample
            next_at = interval
        else:
            sample = None

        # --- L1 I-TLB --------------------------------------------------- #
        it = m.l1_itlb
        it_mask = it._set_mask
        it_tags = it._tags
        it_entries = it._entries
        it_rrpv = None if it._lru else it.policy._rrpv
        pf = it._lru  # the same-page filter (see the class docstring)
        it_stat = it._stat
        it_miss = 0
        translate = m._translate
        # --- L1 D-TLB --------------------------------------------------- #
        dt = m.l1_dtlb
        dt_mask = dt._set_mask
        dt_assoc = dt.assoc
        dt_tags = dt._tags
        dt_entries = dt._entries
        dt_rrpv = None if dt._lru else dt.policy._rrpv
        dt_rmax = 0 if dt._lru else dt.policy.rrpv_max
        dt_stat = dt._stat
        dt_misses = dt_free = 0
        # --- LLT (may carry dpPred and residency) ----------------------- #
        lt = m.l2_tlb
        lt_mask = lt._set_mask
        lt_assoc = lt.assoc
        lt_tags = lt._tags
        lt_entries = lt._entries
        lt_rrpv = None if lt._lru else lt.policy._rrpv
        lt_rmax = 0 if lt._lru else lt.policy.rrpv_max
        lt_stat = lt._stat
        lt_listener = lt.listener
        lt_on_miss = None if lt_listener is None else lt_listener.on_miss
        lt_res = lt.residency
        lt_hits = lt_vbh = lt_free = lt_byp = 0
        # dpPred wiring: fill-time prediction, bypass bookkeeping, the
        # shadow FIFO and eviction-time training are inlined; shadow
        # *hits* (misprediction refills) call the real ``on_miss``. The
        # demote ablation runs as a generic listener (below).
        dp = (
            lt_listener
            if type(lt_listener) is DeadPagePredictor
            and lt_listener.config.action == ACTION_BYPASS
            else None
        )
        if dp is not None:
            dp_stat = dp.stats.counters
            dp_probe = dp.probe
            dp_obs = dp.prediction_observer
            dp_sink = dp.pfn_sink
            dp_pcbits = dp.config.pc_hash_bits
            dp_vbits = dp.config.vpn_hash_bits
            dp_thresh = dp.config.threshold
            ph = dp.phist
            ph_vals = ph._counters._values
            ph_rows = ph.num_rows
            ph_cols = ph.num_cols
            ph_max = ph._counters._max
            ph_stat = ph.stats.counters
            sh = dp.shadow
            sh_entries = None if sh is None else sh._entries
            sh_cap = 0 if sh is None else sh.capacity
            sh_stat = None if sh is None else sh.stats.counters
            sh_probe = None if sh is None else sh.probe
        else:
            sh_entries = None
        # --- caches ----------------------------------------------------- #
        l1 = m.l1d
        l1_mask = l1._set_mask
        l1_assoc = l1.assoc
        l1_tags = l1._tags
        l1_lines = l1._lines
        l1_rrpv = None if l1._lru else l1.policy._rrpv
        l1_rmax = 0 if l1._lru else l1.policy.rrpv_max
        l1_stat = l1._stat
        l1_misses = l1_free = l1_wb = l1_inv = 0
        l2 = m.l2
        l2_mask = l2._set_mask
        l2_assoc = l2.assoc
        l2_tags = l2._tags
        l2_lines = l2._lines
        l2_rrpv = None if l2._lru else l2.policy._rrpv
        l2_rmax = 0 if l2._lru else l2.policy.rrpv_max
        l2_stat = l2._stat
        l2_misses = l2_free = l2_wb = l2_inv = 0
        l3 = m.llc
        l3_mask = l3._set_mask
        l3_assoc = l3.assoc
        l3_tags = l3._tags
        l3_lines = l3._lines
        l3_rrpv = None if l3._lru else l3.policy._rrpv
        l3_rmax = 0 if l3._lru else l3.policy.rrpv_max
        l3_stat = l3._stat
        l3_res = l3.residency
        l3_misses = l3_free = l3_wb = l3_byp = w_llc_miss = 0
        # cbPred wiring: every LLC fill decision is inlined — the PFQ-miss
        # fast path resets nothing and allocates; PFQ matches (and the
        # no-PFQ ablation, which predicts on every fill) replicate
        # ``on_fill``'s bHIST probe, bypass, and DP-marking exactly.
        l3_listener = l3.listener
        cb = (
            l3_listener
            if type(l3_listener) is CorrelatingDeadBlockPredictor
            else None
        )
        cb_pfq = (
            cb.pfq._members
            if cb is not None and cb.config.use_pfq
            else None
        )
        cb_probe = None if cb is None else cb.probe
        cb_obs = None if cb is None else cb.prediction_observer
        cb_stat = None if cb is None else cb.stats.counters
        if cb is not None:
            bh_vals = cb.bhist._counters._values
            bh_bits = cb.bhist.hash_bits
            bh_thresh = cb.config.threshold
            bh_stat = cb.bhist.stats.counters
            bh_cmax = cb.bhist._counters._max
        else:
            bh_vals = None
            bh_bits = bh_thresh = 0
            bh_stat = None
            bh_cmax = 0
        bh_pg = bh_bits >= boff
        # dpPred -> cbPred PFN messages: when the sink is the stock
        # ``notify_doa_page`` wiring, the PFQ insert is inlined too.
        if (
            cb is not None
            and dp is not None
            and dp.pfn_sink == cb.notify_doa_page
        ):
            pfq_q = cb.pfq._queue
            pfq_members = cb.pfq._members
            pfq_cap = cb.pfq.capacity
            pfq_stat = cb.pfq.stats.counters
        else:
            pfq_q = None
        # --- generic listeners ------------------------------------------ #
        # Any other flat-eligible LLT/LLC listener: each hook it
        # overrides is called where the scalar ``lookup`` and ``fill``
        # call it (a no-op hook is bound as None and skipped). Its fills
        # run inline like every other: ``on_fill`` decides (a bypass
        # counts into ``lt_byp``/``l3_byp``, ``"distant"`` inserts at the
        # LRU end or at RRPV max), ``choose_victim`` picks the victim of a
        # full set where the class overrides it, and ``on_evict``,
        # ``filled`` and the ``aux`` reset run in ``Tlb.fill``'s order.
        # Those steps and residency tracking sit behind one test
        # (``lt_slow``/``l3_slow``), and plain LRU victims behind another
        # (``lt_vlru``/``l3_vlru``), so LRU, dpPred and cbPred runs pay
        # for neither (an SRRIP victim pays one more test). The cache's
        # fill decisions are the same strings as the TLB's FILL_*. LLC
        # hooks read the in-flight PC from the machine's AccessContext,
        # which is set before every generic LLC call.
        lt_gen = None if dp is not None else lt_listener
        lt_g_lookup = _own_hook(lt_gen, TlbListener, "on_lookup")
        lt_g_hit = _own_hook(lt_gen, TlbListener, "on_hit")
        lt_g_miss = _own_hook(lt_gen, TlbListener, "on_miss")
        lt_g_fill = _own_hook(lt_gen, TlbListener, "on_fill")
        lt_g_filled = _own_hook(lt_gen, TlbListener, "filled")
        lt_g_evict = _own_hook(lt_gen, TlbListener, "on_evict")
        lt_choose = _own_hook(lt_gen, TlbListener, "choose_victim")
        lt_vlru = lt_rrpv is None and lt_choose is None
        lt_slow = lt_res is not None or lt_gen is not None
        lt_dist = False
        l3_gen = None if cb is not None else l3_listener
        l3_g_lookup = _own_hook(l3_gen, CacheListener, "on_lookup")
        l3_g_hit = _own_hook(l3_gen, CacheListener, "on_hit")
        l3_g_fill = _own_hook(l3_gen, CacheListener, "on_fill")
        l3_g_filled = _own_hook(l3_gen, CacheListener, "filled")
        l3_g_evict = _own_hook(l3_gen, CacheListener, "on_evict")
        l3_choose = _own_hook(l3_gen, CacheListener, "choose_victim")
        l3_vlru = l3_rrpv is None and l3_choose is None
        l3_slow = l3_res is not None or l3_gen is not None
        l3_dist = False
        actx = m.context
        # --- hierarchy / memory / walker -------------------------------- #
        hier = m.hierarchy
        h_stat = hier._stat
        h_incl = h_orphan = 0
        mem = hier.memory
        mem_stat = mem._stat
        mem_lat = mem.latency
        m_reads = m_writes = 0
        hl2_lat = hier.l2_latency
        hl3_lat = hier.llc_latency
        fill_llc = hier._fill_llc  # walk loads' LLC fills (see docstring)
        walker = m.walker
        w_stat = walker._stat
        w_memacc = w_cycles = 0
        # Radix walk inlined: local bindings of the current address
        # space's root node and huge-region policy, the shared frame
        # allocator, and the telemetry-unregistered page-table stats
        # (bumped live). A PD entry is either a PT node or a 2 MB
        # ``_HugeLeaf``; the latter ends the walk after three loads.
        # ``huge_on`` gates the LLT's huge-namespace probe and huge-entry
        # bookkeeping. It is fixed for the run: on if the machine maps
        # huge regions (every table shares its policy) or the LLT already
        # holds a huge entry, so 4 KB-only machines never pay for them,
        # and a 2 MB entry installed by a delegated I-TLB miss needs no
        # hand-back.
        page_table = walker.page_table
        pt_alloc = page_table.allocator.allocate
        pt_alloc_huge = page_table.allocator.allocate_huge
        huge_on = lt._huge_count > 0 or m._huge_policy is not None
        huge_key_base = HUGE_KEY_BASE
        hleaf_cls = _HugeLeaf
        vpn_limit = 1 << VPN_BITS
        sh1 = LEVEL_BITS * (NUM_LEVELS - 1)
        sh2 = LEVEL_BITS * (NUM_LEVELS - 2)
        sh3 = LEVEL_BITS
        widx_mask = (1 << LEVEL_BITS) - 1
        # PWC probe/fill inlined: the three fully-associative LRU levels
        # as their live tag OrderedDicts (least recent first), cumulative
        # probe latencies, and the telemetry-registered pwc stats as delta
        # counters flushed with the rest.
        pwcs = walker.pwc
        pwc_stat = pwcs._stat
        pwc1, pwc2, pwc3 = pwcs._levels
        pw1 = pwc1._tags
        pw2 = pwc2._tags
        pw3 = pwc3._tags
        pw1_cap = pwc1.capacity
        pw2_cap = pwc2.capacity
        pw3_cap = pwc3.capacity
        pw1_mte = pw1.move_to_end
        pw2_mte = pw2.move_to_end
        pw3_mte = pw3.move_to_end
        pw1_pop = pw1.popitem
        pw2_pop = pw2.popitem
        pw3_pop = pw3.popitem
        pw_lat1 = pwcs._latencies[0]
        pw_lat2 = pw_lat1 + pwcs._latencies[1]
        pw_lat3 = pw_lat2 + pwcs._latencies[2]
        # Huge walks skip the L1 PWC (neither probed nor charged).
        pw_hlat2 = pwcs._latencies[1]
        pw_hlat3 = pw_hlat2 + pwcs._latencies[2]
        pw_l1h = pw_l2h = pw_l3h = pw_miss = 0
        # --- ASID segments ---------------------------------------------- #
        # Runs of constant ASID. A plain trace is one segment at ASID 0,
        # where every combined key is the raw VPN (``abase == 0``).
        # Between segments the local state is handed back to the machine
        # and the real ``_context_switch`` runs (tenancy counters,
        # EV_CTX_SWITCH, the shootdown with its dpPred training and PWC
        # flush), exactly where the scalar tenant loop calls it.
        asids = trace.asids
        if asids is None:
            starts = [0]
            seg_asids = [0]
        else:
            starts = [0] + (
                np.flatnonzero(asids[1:] != asids[:-1]) + 1
            ).tolist()
            seg_asids = asids[starts].tolist()
        starts.append(n)
        tenancy = m.tenancy
        seen = set()
        current = -1
        table_for = walker.table_for
        si = 0
        pos = 0
        # Records retired up to the last flush: the flush window holds
        # ``now - now0`` records.
        now0 = now
        while pos < n:
            if pos == starts[si]:
                asid = seg_asids[si]
                si += 1
                if pos:
                    m.now = now
                    actx.pc = pc
                if asids is not None and asid != current:
                    if current >= 0:
                        m._context_switch(current, asid)
                    if asid not in seen:
                        seen.add(asid)
                        tenancy.add("tenants_seen")
                    current = asid
                abase = asid << VPN_BITS
                # No walk yet in this segment, and a context switch may
                # have flushed the PWC: the next walk installs.
                pw_last = None
                # The same-page filter holds raw VPNs of the segment's
                # ASID, and a shootdown may have dropped its entries: it
                # starts empty.
                last_ivpn = last_dvpn = None
                # The tenant's table is created by its first walk, as in
                # the scalar walker (root frames come from the shared
                # allocator, so creation order matters).
                table = (
                    page_table if asid == 0 else walker._tables.get(asid)
                )
                if table is None:
                    pt_root = None
                else:
                    pt_root = table._root
                    pt_stats_add = table.stats.add
                    pt_huge = table._huge_policy
            # ---- predecode one chunk ----------------------------------- #
            # Columns numpy derives once per chunk instead of per record:
            # the page numbers, the block offset within the page, the
            # running instruction count (taken in int64: ``gaps`` may be
            # uint16, so ``gap + 1`` must not wrap) and each record's base
            # cycles, ``(gap + 1) * base_cpi`` in float64 (the same IEEE
            # product as Python's int times float, so ``cycles`` adds in
            # the scalar loop's order). A chunk ends at the record whose
            # instruction count reaches the next timeline boundary, so
            # samples fall between chunks.
            seg = min(pos + _CHUNK_RECORDS, starts[si])
            c_ins = gaps[pos:seg].astype(np.int64)
            c_ins += 1
            np.cumsum(c_ins, out=c_ins)
            c_ins += instructions
            if sample is not None:
                cut = int(np.searchsorted(c_ins, next_at))
                if cut < seg - pos:
                    seg = pos + cut + 1
                    c_ins = c_ins[: cut + 1]
            c_cpi = gaps[pos:seg].astype(np.float64)
            c_cpi += 1.0
            c_cpi *= base_cpi
            c_pc = pcs[pos:seg]
            c_va = vaddrs[pos:seg]
            # Whether each record's code page differs from the previous
            # record's; a chunk's first record is always marked.
            c_ipg = c_pc >> ps
            c_inew = np.empty(seg - pos, dtype=np.bool_)
            c_inew[0] = True
            np.not_equal(c_ipg[1:], c_ipg[:-1], out=c_inew[1:])
            c_inew = c_inew.tolist()
            for (
                now, pc, inew, dvpn, boff_v, is_write, cpi,
            ) in zip(
                range(now + 1, now + 1 + seg - pos),
                c_pc.tolist(),
                c_inew,
                (c_va >> ps).tolist(),
                ((c_va >> bs) & bmask).tolist(),
                writes[pos:seg].tolist(),
                c_cpi.tolist(),
            ):
                # ---- instruction-side translation ---------------------- #
                # Only at a code-page change. On the previous record's
                # code page it is a hit on that record's entry, which
                # changes state only right after a miss: the miss applies
                # that change for it (see the class docstring).
                if inew:
                    ivpn = pc >> ps
                    if pf and ivpn == last_ivpn:
                        last_ient.accessed = True
                        penalty = 0.0
                    else:
                        ikey = ivpn | abase
                        set_i = ikey & it_mask
                        tags_i = it_tags[set_i]
                        way = tags_i.get(ikey)
                        if way is not None:
                            entry = it_entries[set_i][way]
                            entry.accessed = True
                            if it_rrpv is None:
                                del tags_i[ikey]
                                tags_i[ikey] = way
                            else:
                                it_rrpv[set_i][way] = 0
                            penalty = 0.0
                            if pf:
                                last_ivpn = ivpn
                                last_ient = entry
                        else:
                            # I-TLB miss: the real translate chain counts
                            # the miss, runs the LLT, the walk and both
                            # fills on the live structures, and hands back
                            # the penalty. Generic LLC hooks on its walk
                            # loads read the PC. Its ``pwc.fill`` ends the
                            # PWC recency tracking. No other local needs a
                            # hand-back: ``huge_on`` is fixed for the run,
                            # a tenant table the walk creates is bound by
                            # the next D-side walk, and nothing on the
                            # path reads ``m.now``.
                            it_miss += 1
                            actx.pc = pc
                            penalty = translate(it, ivpn, pc, now, asid)[1]
                            pw_last = None
                            entry = it.probe(ivpn, asid)
                            if pf:
                                last_ivpn = ivpn
                                last_ient = entry
                            # The next record, on the same code page and
                            # in this chunk, skips the I-side: apply its
                            # hit's state change to the new entry now.
                            # Nothing reads the L1 I-TLB in between.
                            nxt = now - now0
                            if nxt < seg - pos and not c_inew[nxt]:
                                entry.accessed = True
                                if it_rrpv is not None:
                                    it_rrpv[set_i][tags_i[ikey]] = 0
                else:
                    penalty = 0.0

                # ---- data-side translation ----------------------------- #
                if pf and dvpn == last_dvpn:
                    last_dent.accessed = True
                    pfn = last_dent.pfn
                else:
                    dkey = dvpn | abase
                    set_d = dkey & dt_mask
                    tags_d = dt_tags[set_d]
                    wd = tags_d.get(dkey)
                    if wd is not None:
                        dentry = dt_entries[set_d][wd]
                        dentry.accessed = True
                        if dt_rrpv is None:
                            del tags_d[dkey]
                            tags_d[dkey] = wd
                        else:
                            dt_rrpv[set_d][wd] = 0
                        pfn = dentry.pfn
                        if pf:
                            last_dvpn = dvpn
                            last_dent = dentry
                    else:
                        dt_misses += 1
                        pfn = None
                        if ref_llt is not None:
                            ref_llt(dkey, now)
                        set_l = dkey & lt_mask
                        if lt_g_lookup is not None:
                            lt_g_lookup(lt, set_l, now)
                        tags_l = lt_tags[set_l]
                        wl = tags_l.get(dkey)
                        if wl is None and huge_on and lt._huge_count:
                            # covering 2 MB entry (huge-key namespace)
                            hkey = huge_key_base | abase | (dvpn >> sh3)
                            wl = lt_tags[hkey & lt_mask].get(hkey)
                            if wl is not None:
                                set_l = hkey & lt_mask
                                tags_l = lt_tags[set_l]
                        if wl is not None:
                            lt_hits += 1
                            le = lt_entries[set_l][wl]
                            le.accessed = True
                            if lt_rrpv is None:
                                lkey = le.vpn
                                del tags_l[lkey]
                                tags_l[lkey] = wl
                            else:
                                lt_rrpv[set_l][wl] = 0
                            if lt_res is not None:
                                lt_res.hit((set_l, wl), now)
                            if lt_g_hit is not None:
                                lt_g_hit(lt, le, now)
                            pfn = le.pfn
                            if huge_on and le.huge:
                                pfn += dvpn & widx_mask
                            penalty += l2_tlb_hit_penalty
                        else:
                            if sh_entries is not None:
                                # shadow-miss fast path; hits (rare
                                # misprediction refills) take the real
                                # on_miss slow path
                                if dkey in sh_entries:
                                    sh_hits += 1
                                    buffered = lt_on_miss(lt, dkey, now)
                                    if buffered is not None:
                                        lt_vbh += 1
                                        pfn = buffered
                                        penalty += l2_tlb_hit_penalty
                            elif lt_g_miss is not None:
                                buffered = lt_g_miss(lt, dkey, now)
                                if buffered is not None:
                                    lt_vbh += 1
                                    pfn = buffered
                                    penalty += l2_tlb_hit_penalty
                            if pfn is None:
                                # ---- page walk (walker.walk, the radix
                                # descent and the PWC probe all inlined) - #
                                if pt_root is None:
                                    table = table_for(asid)
                                    pt_root = table._root
                                    pt_stats_add = table.stats.add
                                    pt_huge = table._huge_policy
                                if dvpn >= vpn_limit:
                                    raise ValueError(
                                        f"vpn {dvpn:#x} outside "
                                        f"{VPN_BITS}-bit space"
                                    )
                                # This loop's L1-PWC entries hold their
                                # region's leaf node, so a hit is the one
                                # PTE load from it, and the probe's move
                                # is the walk's L1 install. A None value
                                # is an entry the scalar walker installed:
                                # that walk descends like a miss.
                                wtag = abase | (dvpn >> sh3)
                                node = pw1.get(wtag)
                                if node is not None:
                                    pw1_mte(wtag)
                                    pw_l1h += 1
                                    wlat = pw_lat1
                                    hbase = None
                                    widx = dvpn & widx_mask
                                    pfn = node.children.get(widx)
                                    if pfn is None:
                                        pfn = pt_alloc()
                                        node.children[widx] = pfn
                                        pt_stats_add("pages_mapped")
                                    path_rem = ((node.frame << ps) | (widx << 3),)
                                else:
                                    node = pt_root
                                    widx = (dvpn >> sh1) & widx_mask
                                    p0 = (node.frame << ps) | (widx << 3)
                                    ch = node.children.get(widx)
                                    if ch is None:
                                        ch = _Node(pt_alloc())
                                        node.children[widx] = ch
                                        pt_stats_add("nodes_allocated")
                                    node = ch
                                    widx = (dvpn >> sh2) & widx_mask
                                    p1 = (node.frame << ps) | (widx << 3)
                                    ch = node.children.get(widx)
                                    if ch is None:
                                        ch = _Node(pt_alloc())
                                        node.children[widx] = ch
                                        pt_stats_add("nodes_allocated")
                                    node = ch
                                    widx = (dvpn >> sh3) & widx_mask
                                    p2 = (node.frame << ps) | (widx << 3)
                                    ch = node.children.get(widx)
                                    if ch is None:
                                        if pt_huge is not None and pt_huge(
                                            dvpn >> sh3
                                        ):
                                            ch = hleaf_cls(
                                                pt_alloc_huge(ENTRIES_PER_NODE)
                                            )
                                            pt_stats_add("huge_pages_mapped")
                                        else:
                                            ch = _Node(pt_alloc())
                                            pt_stats_add("nodes_allocated")
                                        node.children[widx] = ch
                                    if (
                                        pt_huge is not None
                                        and type(ch) is hleaf_cls
                                    ):
                                        # 2 MB leaf: three loads, and the
                                        # PWC plan skips the L1 PWC
                                        # (max_resolved=2)
                                        hbase = ch.base
                                        pfn = hbase + (dvpn & widx_mask)
                                        path = (p0, p1, p2)
                                        wlat2 = pw_hlat2
                                        wlat3 = pw_hlat3
                                    else:
                                        hbase = None
                                        node = ch
                                        widx = dvpn & widx_mask
                                        pfn = node.children.get(widx)
                                        if pfn is None:
                                            pfn = pt_alloc()
                                            node.children[widx] = pfn
                                            pt_stats_add("pages_mapped")
                                        path = (p0, p1, p2, (node.frame << ps) | (widx << 3))
                                        wlat2 = pw_lat2
                                        wlat3 = pw_lat3
                                    if hbase is None and wtag in pw1:
                                        pw1_mte(wtag)
                                        pw_l1h += 1
                                        wlat = pw_lat1
                                        path_rem = path[3:]
                                    else:
                                        gtag = abase | (dvpn >> sh2)
                                        if gtag in pw2:
                                            pw2_mte(gtag)
                                            pw_l2h += 1
                                            wlat = wlat2
                                            path_rem = path[2:]
                                        else:
                                            gtag = abase | (dvpn >> sh1)
                                            wlat = wlat3
                                            if gtag in pw3:
                                                pw3_mte(gtag)
                                                pw_l3h += 1
                                                path_rem = path[1:]
                                            else:
                                                pw_miss += 1
                                                path_rem = path
                                    # pwc.fill's L1 install (4 KB walks),
                                    # the entry holding the leaf node
                                    if hbase is None:
                                        if (
                                            wtag not in pw1
                                            and len(pw1) >= pw1_cap
                                        ):
                                            pw1_pop(last=False)
                                        pw1[wtag] = node
                                        pw1_mte(wtag)
                                # pwc.fill's L2 and L3 installs. Every walk
                                # installs both, so while ``pw_last`` is
                                # the L2 tag (1 GB region) of the last
                                # walk, both levels' most recent entries
                                # are that walk's, and a walk in the same
                                # region has nothing to move. Reset when
                                # another walker fills or the PWC flushes.
                                gtag = abase | (dvpn >> sh2)
                                if gtag != pw_last:
                                    pw_last = gtag
                                    if gtag not in pw2 and len(pw2) >= pw2_cap:
                                        pw2_pop(last=False)
                                    pw2[gtag] = None
                                    pw2_mte(gtag)
                                    gtag = abase | (dvpn >> sh1)
                                    if gtag not in pw3 and len(pw3) >= pw3_cap:
                                        pw3_pop(last=False)
                                    pw3[gtag] = None
                                    pw3_mte(gtag)
                                w_memacc += len(path_rem)
                                for pte_paddr in path_rem:
                                    blk = pte_paddr >> bs
                                    set_c = blk & l2_mask
                                    tc = l2_tags[set_c]
                                    wc = tc.get(blk)
                                    if wc is not None:
                                        ln = l2_lines[set_c][wc]
                                        ln.accessed = True
                                        if l2_rrpv is None:
                                            del tc[blk]
                                            tc[blk] = wc
                                        else:
                                            l2_rrpv[set_c][wc] = 0
                                        wlat += hl2_lat
                                        continue
                                    l2_misses += 1
                                    set_c3 = blk & l3_mask
                                    tc3 = l3_tags[set_c3]
                                    if l3_gen is not None:
                                        actx.pc = pc
                                        if l3_g_lookup is not None:
                                            l3_g_lookup(l3, set_c3, now)
                                    wc3 = tc3.get(blk)
                                    if wc3 is not None:
                                        ln = l3_lines[set_c3][wc3]
                                        ln.accessed = True
                                        if l3_rrpv is None:
                                            del tc3[blk]
                                            tc3[blk] = wc3
                                        else:
                                            l3_rrpv[set_c3][wc3] = 0
                                        if l3_res is not None:
                                            l3_res.hit((set_c3, wc3), now)
                                        if l3_g_hit is not None:
                                            l3_g_hit(l3, ln, now)
                                        wlat += hl3_lat
                                    else:
                                        l3_misses += 1
                                        w_llc_miss += 1
                                        m_reads += 1
                                        wlat += hl3_lat + mem_lat
                                        fill_llc(blk, now)
                                    # fill L2 (walk loads land in L2)
                                    lines2 = l2_lines[set_c]
                                    if len(tc) < l2_assoc:
                                        l2_free += 1
                                        w2 = lines2.index(None)
                                        lines2[w2] = line_cls(blk, False)
                                    else:
                                        if l2_rrpv is None:
                                            for vt in tc:
                                                break
                                            w2 = tc.pop(vt)
                                            ln = lines2[w2]
                                        else:
                                            row = l2_rrpv[set_c]
                                            while l2_rmax not in row:
                                                for wi2 in range(l2_assoc):
                                                    row[wi2] += 1
                                            w2 = row.index(l2_rmax)
                                            ln = lines2[w2]
                                            vt = ln.tag
                                            del tc[vt]
                                        if ln.dirty:
                                            l2_wb += 1
                                            s3 = vt & l3_mask
                                            wv3 = l3_tags[s3].get(vt)
                                            if wv3 is not None:
                                                l3_lines[s3][wv3].dirty = True
                                            else:
                                                m_writes += 1
                                                h_orphan += 1
                                            ln.dirty = False
                                        ln.tag = blk
                                        ln.accessed = False
                                    tc[blk] = w2
                                    if l2_rrpv is not None:
                                        l2_rrpv[set_c][w2] = l2_rmax - 1
                                w_cycles += wlat
                                pfn_to_vpn[pfn] = dkey
                                if probe is not None:
                                    probe.emit(now, EV_WALK, dvpn, wlat)
                                penalty += (
                                    l2_tlb_latency + wlat * walk_exposure
                                )
                                # LLT fill (dpPred decision inlined); a
                                # huge walk installs one entry covering
                                # the 2 MB region under its base frame
                                if hbase is None:
                                    lkey = dkey
                                    lpfn = pfn
                                    lhuge = False
                                else:
                                    lkey = (
                                        huge_key_base | abase | (dvpn >> sh3)
                                    )
                                    lpfn = hbase
                                    lhuge = True
                                lt_install = True
                                lt_pch = pc
                                if dp is not None:
                                    pc_h = fx_pc.get(pc)
                                    if pc_h is None:
                                        pc_h = fx_pc[pc] = fold_xor(
                                            pc, dp_pcbits
                                        )
                                    lt_pch = pc_h
                                    if dp_vbits:
                                        vh = fx_vpn.get(lkey)
                                        if vh is None:
                                            vh = fx_vpn[lkey] = (
                                                fold_xor(
                                                    lkey, dp_vbits
                                                )
                                            )
                                    else:
                                        vh = 0
                                    doa = (
                                        ph_vals[pc_h * ph_cols + vh]
                                        > dp_thresh
                                    )
                                    if dp_obs is not None:
                                        dp_obs(lkey, doa)
                                    if doa:
                                        lt_install = False
                                        d_dp_doap += 1
                                        if dp_sink is not None:
                                            # notify_doa_page + PFQ insert inlined
                                            if pfq_q is None:
                                                dp_sink(lpfn)
                                            else:
                                                if lpfn not in pfq_members:
                                                    if len(pfq_q) >= pfq_cap:
                                                        pfq_members.discard(
                                                            pfq_q.popleft()
                                                        )
                                                        d_pfq_ev += 1
                                                    pfq_q.append(lpfn)
                                                    pfq_members.add(lpfn)
                                                    d_pfq_ins += 1
                                                d_cb_note += 1
                                            if dp_probe is not None:
                                                dp_probe.emit(
                                                    now, EV_PFQ_PUSH,
                                                    lpfn,
                                                )
                                        if sh_entries is not None:
                                            if lkey in sh_entries:
                                                del sh_entries[lkey]
                                            elif (
                                                len(sh_entries)
                                                >= sh_cap
                                            ):
                                                ev_vpn, _ = (
                                                    sh_entries.popitem(
                                                        last=False
                                                    )
                                                )
                                                d_sh_ev += 1
                                                if sh_probe is not None:
                                                    sh_probe.emit(
                                                        now,
                                                        EV_SHADOW_EVICT,
                                                        ev_vpn,
                                                    )
                                            sh_entries[lkey] = (
                                                lpfn, pc_h
                                            )
                                            d_sh_ins += 1
                                            if dp_probe is not None:
                                                dp_probe.emit(
                                                    now,
                                                    EV_SHADOW_PROMOTE,
                                                    lkey, lpfn,
                                                )
                                        if dp_probe is not None:
                                            dp_probe.emit(
                                                now, EV_LLT_BYPASS,
                                                lkey, lpfn,
                                            )
                                        lt_byp += 1
                                elif lt_g_fill is not None:
                                    dec = lt_g_fill(lt, lkey, lpfn, pc, now)
                                    if dec == FILL_BYPASS:
                                        lt_install = False
                                        lt_byp += 1
                                    else:
                                        lt_dist = dec == FILL_DISTANT
                                if lt_install:
                                    set_l = lkey & lt_mask
                                    tags_l = lt_tags[set_l]
                                    entries_l = lt_entries[set_l]
                                    if len(tags_l) < lt_assoc:
                                        lt_free += 1
                                        wl = entries_l.index(None)
                                        entries_l[wl] = entry_cls(
                                            lkey, lpfn, lt_pch, asid, lhuge,
                                        )
                                    else:
                                        if lt_vlru:
                                            for vt in tags_l:
                                                break
                                            wl = tags_l.pop(vt)
                                            le = entries_l[wl]
                                        elif lt_choose is None:
                                            row = lt_rrpv[set_l]
                                            while lt_rmax not in row:
                                                for wi2 in range(lt_assoc):
                                                    row[wi2] += 1
                                            wl = row.index(lt_rmax)
                                            le = entries_l[wl]
                                            vt = le.vpn
                                            del tags_l[vt]
                                        else:
                                            # the listener's victim (AIP),
                                            # else the policy's
                                            wl = lt_choose(
                                                lt, set_l, entries_l, now
                                            )
                                            if wl is None:
                                                if lt_rrpv is None:
                                                    for vt in tags_l:
                                                        break
                                                    wl = tags_l[vt]
                                                else:
                                                    wl = lt.policy.victim(set_l)
                                            le = entries_l[wl]
                                            vt = le.vpn
                                            del tags_l[vt]
                                        if huge_on and le.huge:
                                            lt._huge_count -= 1
                                        if lt_slow:
                                            if lt_res is not None:
                                                lt_res.evict((set_l, wl), now)
                                            if lt_g_evict is not None:
                                                lt_g_evict(lt, le, now)
                                            le.aux = None
                                        if dp is not None:
                                            # on_evict training inlined
                                            if dp_vbits:
                                                vh2 = fx_vpn.get(vt)
                                                if vh2 is None:
                                                    vh2 = fx_vpn[vt] = (
                                                        fold_xor(
                                                            vt, dp_vbits
                                                        )
                                                    )
                                            else:
                                                vh2 = 0
                                            pidx = (
                                                (le.pc_hash % ph_rows)
                                                * ph_cols + vh2
                                            )
                                            if le.accessed:
                                                ph_vals[pidx] = 0
                                                d_ph_ndoa += 1
                                            else:
                                                pv = ph_vals[pidx]
                                                if pv < ph_max:
                                                    ph_vals[pidx] = pv + 1
                                                d_ph_doa += 1
                                            if dp_probe is not None:
                                                dp_probe.emit(
                                                    now, EV_LLT_VERDICT,
                                                    vt, False,
                                                    not le.accessed,
                                                )
                                        le.vpn = lkey
                                        le.pfn = lpfn
                                        le.pc_hash = lt_pch
                                        le.accessed = False
                                        le.asid = asid
                                        le.huge = lhuge
                                    tags_l[lkey] = wl
                                    if lhuge:
                                        lt._huge_count += 1
                                    if lt_rrpv is not None:
                                        lt_rrpv[set_l][wl] = lt_rmax - 1
                                    if lt_slow:
                                        if lt_dist:
                                            if lt_rrpv is None:
                                                del tags_l[lkey]
                                                insert_lru(tags_l, lkey, wl)
                                            else:
                                                lt_rrpv[set_l][wl] = lt_rmax
                                        if lt_res is not None:
                                            lt_res.fill((set_l, wl), now)
                                        if lt_g_filled is not None:
                                            lt_g_filled(
                                                lt, entries_l[wl], now
                                            )
                        # L1 D-TLB fill (``set_d``/``tags_d`` are the
                        # probe's). A recycled victim that is the
                        # filter's ``last_dent`` is its new entry too.
                        entries_d = dt_entries[set_d]
                        if len(tags_d) < dt_assoc:
                            dt_free += 1
                            wd_ = entries_d.index(None)
                            dent = entries_d[wd_] = entry_cls(
                                dkey, pfn, pc, asid
                            )
                        else:
                            if dt_rrpv is None:
                                for vt in tags_d:
                                    break
                                wd_ = tags_d.pop(vt)
                                dent = entries_d[wd_]
                            else:
                                row = dt_rrpv[set_d]
                                while dt_rmax not in row:
                                    for wi2 in range(dt_assoc):
                                        row[wi2] += 1
                                wd_ = row.index(dt_rmax)
                                dent = entries_d[wd_]
                                del tags_d[dent.vpn]
                            dent.vpn = dkey
                            dent.pfn = pfn
                            dent.pc_hash = pc
                            dent.accessed = False
                            dent.asid = asid
                        tags_d[dkey] = wd_
                        if dt_rrpv is not None:
                            dt_rrpv[set_d][wd_] = dt_rmax - 1
                        if pf:
                            last_dvpn = dvpn
                            last_dent = dent

                # ---- physical data access ------------------------------ #
                block = (pfn << boff) | boff_v
                set_1 = block & l1_mask
                t1 = l1_tags[set_1]
                w1 = t1.get(block)
                if w1 is not None:
                    ln = l1_lines[set_1][w1]
                    ln.accessed = True
                    if is_write:
                        ln.dirty = True
                    if l1_rrpv is None:
                        del t1[block]
                        t1[block] = w1
                    else:
                        l1_rrpv[set_1][w1] = 0
                else:
                    l1_misses += 1
                    set_2 = block & l2_mask
                    t2 = l2_tags[set_2]
                    w2_ = t2.get(block)
                    if w2_ is not None:
                        ln = l2_lines[set_2][w2_]
                        ln.accessed = True
                        if is_write:
                            ln.dirty = True
                        if l2_rrpv is None:
                            del t2[block]
                            t2[block] = w2_
                        else:
                            l2_rrpv[set_2][w2_] = 0
                        penalty += l2_hit_penalty
                    else:
                        l2_misses += 1
                        set_3 = block & l3_mask
                        t3 = l3_tags[set_3]
                        if l3_gen is not None:
                            actx.pc = pc
                            if l3_g_lookup is not None:
                                l3_g_lookup(l3, set_3, now)
                        w3_ = t3.get(block)
                        if w3_ is not None:
                            ln = l3_lines[set_3][w3_]
                            ln.accessed = True
                            if is_write:
                                ln.dirty = True
                            if l3_rrpv is None:
                                del t3[block]
                                t3[block] = w3_
                            else:
                                l3_rrpv[set_3][w3_] = 0
                            if l3_res is not None:
                                l3_res.hit((set_3, w3_), now)
                            if l3_g_hit is not None:
                                l3_g_hit(l3, ln, now)
                            penalty += llc_hit_penalty
                        else:
                            l3_misses += 1
                            if is_write:
                                m_writes += 1
                            else:
                                m_reads += 1
                            penalty += mem_penalty
                            # fill LLC (cbPred inlined)
                            bypass3 = mark_dp = False
                            if cb is None:
                                if l3_g_fill is not None:
                                    dec = l3_g_fill(l3, block, now)
                                    if dec == FILL_BYPASS:
                                        bypass3 = True
                                    else:
                                        l3_dist = dec == FILL_DISTANT
                            elif (
                                cb_pfq is None
                                or (block >> boff) in cb_pfq
                            ):
                                if cb_pfq is not None:
                                    d_cb_pfqm += 1
                                    if cb_probe is not None:
                                        cb_probe.emit(
                                            now, EV_PFQ_HIT, block
                                        )
                                bhh = fx_blk.get(block)
                                if bhh is None:
                                    if bh_pg:
                                        pg_ = block >> boff
                                        sb_ = fx_pgb.get(pg_)
                                        if sb_ is None:
                                            sb_ = fx_pgb[pg_] = fold_xor(
                                                pg_ << boff, bh_bits
                                            )
                                        bhh = fx_blk[block] = sb_ ^ (block & bmask)
                                    else:
                                        bhh = fx_blk[block] = fold_xor(
                                            block, bh_bits
                                        )
                                doa = bh_vals[bhh] > bh_thresh
                                if cb_obs is not None:
                                    cb_obs(block, doa)
                                if doa:
                                    d_cb_doap += 1
                                    if cb_probe is not None:
                                        cb_probe.emit(
                                            now, EV_LLC_BYPASS, block
                                        )
                                    bypass3 = True
                                elif cb_probe is not None:
                                    mark_dp = True
                                    cb_probe.emit(
                                        now, EV_LLC_MARK_DP, block
                                    )
                                else:
                                    mark_dp = True
                            vt = None
                            if bypass3:
                                l3_byp += 1
                            else:
                                lines3 = l3_lines[set_3]
                                if len(t3) < l3_assoc:
                                    l3_free += 1
                                    w3f = lines3.index(None)
                                    ln = lines3[w3f] = line_cls(block, False)
                                else:
                                    if l3_vlru:
                                        for vt in t3:
                                            break
                                        w3f = t3.pop(vt)
                                        ln = lines3[w3f]
                                    elif l3_choose is None:
                                        row = l3_rrpv[set_3]
                                        while l3_rmax not in row:
                                            for wi2 in range(l3_assoc):
                                                row[wi2] += 1
                                        w3f = row.index(l3_rmax)
                                        ln = lines3[w3f]
                                        vt = ln.tag
                                        del t3[vt]
                                    else:
                                        # the listener's victim (AIP), else
                                        # the policy's
                                        w3f = l3_choose(l3, set_3, lines3, now)
                                        if w3f is None:
                                            if l3_rrpv is None:
                                                for vt in t3:
                                                    break
                                                w3f = t3[vt]
                                            else:
                                                w3f = l3.policy.victim(set_3)
                                        ln = lines3[w3f]
                                        vt = ln.tag
                                        del t3[vt]
                                    vdirty = ln.dirty
                                    if vdirty:
                                        l3_wb += 1
                                    if l3_slow:
                                        if l3_res is not None:
                                            l3_res.evict((set_3, w3f), now)
                                        if l3_g_evict is not None:
                                            l3_g_evict(l3, ln, now)
                                    if cb is not None and ln.dp:
                                        # cb.on_evict inlined: bHIST training + verdict event
                                        bhh2 = fx_blk.get(vt)
                                        if bhh2 is None:
                                            if bh_pg:
                                                pg_ = vt >> boff
                                                sb_ = fx_pgb.get(pg_)
                                                if sb_ is None:
                                                    sb_ = fx_pgb[pg_] = fold_xor(
                                                        pg_ << boff, bh_bits
                                                    )
                                                bhh2 = fx_blk[vt] = sb_ ^ (vt & bmask)
                                            else:
                                                bhh2 = fx_blk[vt] = fold_xor(
                                                    vt, bh_bits
                                                )
                                        if ln.accessed:
                                            bh_vals[bhh2] = 0
                                            d_bh_ndoa += 1
                                        else:
                                            cv_ = bh_vals[bhh2]
                                            if cv_ < bh_cmax:
                                                bh_vals[bhh2] = cv_ + 1
                                            d_bh_doa += 1
                                        if cb_probe is not None:
                                            cb_probe.emit(
                                                now,
                                                EV_LLC_VERDICT,
                                                vt,
                                                False,
                                                not ln.accessed,
                                            )
                                    ln.tag = block
                                    ln.dirty = False
                                    ln.accessed = False
                                    ln.dp = False
                                    ln.aux = None
                                if mark_dp:
                                    ln.dp = True
                                t3[block] = w3f
                                if l3_rrpv is not None:
                                    l3_rrpv[set_3][w3f] = l3_rmax - 1
                                if l3_slow:
                                    if l3_dist:
                                        if l3_rrpv is None:
                                            del t3[block]
                                            insert_lru(t3, block, w3f)
                                        else:
                                            l3_rrpv[set_3][w3f] = l3_rmax
                                    if l3_res is not None:
                                        l3_res.fill((set_3, w3f), now)
                                    if l3_g_filled is not None:
                                        l3_g_filled(l3, ln, now)
                            if vt is not None:
                                # inclusion: the LLC victim leaves L1 and
                                # L2, written back if any copy was dirty
                                s1 = vt & l1_mask
                                wv = l1_tags[s1].pop(vt, None)
                                if wv is not None:
                                    l1_inv += 1
                                    lines1 = l1_lines[s1]
                                    if lines1[wv].dirty:
                                        l1_wb += 1
                                        vdirty = True
                                    lines1[wv] = None
                                    if l1_rrpv is not None:
                                        l1_rrpv[s1][wv] = l1_rmax
                                s2 = vt & l2_mask
                                wv2 = l2_tags[s2].pop(vt, None)
                                if wv2 is not None:
                                    l2_inv += 1
                                    lines2 = l2_lines[s2]
                                    if lines2[wv2].dirty:
                                        l2_wb += 1
                                        vdirty = True
                                    lines2[wv2] = None
                                    if l2_rrpv is not None:
                                        l2_rrpv[s2][wv2] = l2_rmax
                                    h_incl += 1
                                elif wv is not None:
                                    h_incl += 1
                                if vdirty:
                                    m_writes += 1
                        # fill L2 (``set_2``/``t2`` are the probe's)
                        lines2 = l2_lines[set_2]
                        if len(t2) < l2_assoc:
                            l2_free += 1
                            w2f = lines2.index(None)
                            lines2[w2f] = line_cls(block, False)
                        else:
                            if l2_rrpv is None:
                                for vt in t2:
                                    break
                                w2f = t2.pop(vt)
                                ln = lines2[w2f]
                            else:
                                row = l2_rrpv[set_2]
                                while l2_rmax not in row:
                                    for wi2 in range(l2_assoc):
                                        row[wi2] += 1
                                w2f = row.index(l2_rmax)
                                ln = lines2[w2f]
                                vt = ln.tag
                                del t2[vt]
                            if ln.dirty:
                                l2_wb += 1
                                s3 = vt & l3_mask
                                wv3 = l3_tags[s3].get(vt)
                                if wv3 is not None:
                                    l3_lines[s3][wv3].dirty = True
                                else:
                                    m_writes += 1
                                    h_orphan += 1
                                ln.dirty = False
                            ln.tag = block
                            ln.accessed = False
                        t2[block] = w2f
                        if l2_rrpv is not None:
                            l2_rrpv[set_2][w2f] = l2_rmax - 1
                        if ref_llc is not None:
                            ref_llc(block, now)
                    # fill L1
                    lines1 = l1_lines[set_1]
                    if len(t1) < l1_assoc:
                        l1_free += 1
                        w1f = lines1.index(None)
                        lines1[w1f] = line_cls(block, is_write)
                    else:
                        if l1_rrpv is None:
                            for vt in t1:
                                break
                            w1f = t1.pop(vt)
                            ln = lines1[w1f]
                        else:
                            row = l1_rrpv[set_1]
                            while l1_rmax not in row:
                                for wi2 in range(l1_assoc):
                                    row[wi2] += 1
                            w1f = row.index(l1_rmax)
                            ln = lines1[w1f]
                            vt = ln.tag
                            del t1[vt]
                        if ln.dirty:
                            l1_wb += 1
                            s2 = vt & l2_mask
                            wv2 = l2_tags[s2].get(vt)
                            if wv2 is not None:
                                l2_lines[s2][wv2].dirty = True
                            else:
                                s3 = vt & l3_mask
                                wv3 = l3_tags[s3].get(vt)
                                if wv3 is not None:
                                    l3_lines[s3][wv3].dirty = True
                                else:
                                    m_writes += 1
                                    h_orphan += 1
                        ln.tag = block
                        ln.dirty = is_write
                        ln.accessed = False
                    t1[block] = w1f
                    if l1_rrpv is not None:
                        l1_rrpv[set_1][w1f] = l1_rmax - 1

                cycles += cpi + penalty
            pos = seg
            instructions = int(c_ins[-1])

            # ---- flush counter deltas (chunk end) ---------------------- #
            # Each event is counted once; the counters it implies follow
            # from identities over the window's ``nrec`` records: every
            # record makes one I-TLB, D-TLB and L1D access (hits are the
            # rest after the misses), every L1 D-TLB/L1D/L2 miss fills,
            # L2 lookups are L1D misses plus walk loads, LLC lookups are
            # L2 misses, each memory access is a read or a write, each
            # walk ends at one PWC level or misses them all, and a fill
            # evicts unless it takes a free way.
            nrec = now - now0
            now0 = now
            it_stat["hits"] += nrec - it_miss
            it_miss = 0
            dt_stat["hits"] += nrec - dt_misses
            dt_stat["misses"] += dt_misses
            dt_stat["fills"] += dt_misses
            dt_stat["evictions"] += dt_misses - dt_free
            walks = pw_l1h + pw_l2h + pw_l3h + pw_miss
            # LLT fills: every walk's, less the bypasses (the real
            # ``Tlb.fill`` calls of a delegated I-TLB miss or a shadow
            # hit count themselves).
            lt_fills = walks - lt_byp
            lt_misses = dt_misses - lt_hits
            lt_stat["hits"] += lt_hits
            lt_stat["misses"] += lt_misses
            lt_stat["victim_buffer_hits"] += lt_vbh
            lt_stat["fills"] += lt_fills
            lt_stat["evictions"] += lt_fills - lt_free
            lt_stat["bypasses"] += lt_byp
            dt_misses = dt_free = 0
            lt_hits = lt_vbh = lt_free = lt_byp = 0
            l1_stat["hits"] += nrec - l1_misses
            l1_stat["misses"] += l1_misses
            l1_stat["fills"] += l1_misses
            l1_stat["evictions"] += l1_misses - l1_free + l1_inv
            l1_stat["writebacks"] += l1_wb
            l1_stat["invalidations"] += l1_inv
            l2_stat["hits"] += l1_misses + w_memacc - l2_misses
            l1_misses = l1_free = l1_wb = l1_inv = 0
            l2_stat["misses"] += l2_misses
            l2_stat["fills"] += l2_misses
            l2_stat["evictions"] += l2_misses - l2_free + l2_inv
            l2_stat["writebacks"] += l2_wb
            l2_stat["invalidations"] += l2_inv
            l3_stat["hits"] += l2_misses - l3_misses
            l2_misses = l2_free = l2_wb = l2_inv = 0
            # Data-path LLC misses fill unless bypassed (walk loads' LLC
            # fills are real ``fill`` calls that count themselves).
            h_demand = l3_misses - w_llc_miss
            l3_fills = h_demand - l3_byp
            l3_stat["misses"] += l3_misses
            l3_stat["fills"] += l3_fills
            l3_stat["evictions"] += l3_fills - l3_free
            l3_stat["writebacks"] += l3_wb
            l3_stat["bypasses"] += l3_byp
            l3_misses = l3_free = l3_wb = l3_byp = w_llc_miss = 0
            h_stat["accesses"] += nrec
            h_stat["llc_demand_misses"] += h_demand
            h_stat["walk_accesses"] += w_memacc
            h_stat["inclusion_victims"] += h_incl
            h_stat["orphan_writebacks"] += h_orphan
            h_incl = h_orphan = 0
            mem_stat["accesses"] += m_reads + m_writes
            mem_stat["reads"] += m_reads
            mem_stat["writes"] += m_writes
            m_reads = m_writes = 0
            w_stat["walks"] += walks
            w_stat["walk_memory_accesses"] += w_memacc
            w_stat["walk_cycles"] += w_cycles
            w_memacc = w_cycles = 0
            pwc_stat["pwc_l1_hits"] += pw_l1h
            pwc_stat["pwc_l2_hits"] += pw_l2h
            pwc_stat["pwc_l3_hits"] += pw_l3h
            pwc_stat["pwc_misses"] += pw_miss
            pw_l1h = pw_l2h = pw_l3h = pw_miss = 0
            if d_bh_doa:
                bh_stat["doa_trainings"] = (
                    bh_stat.get("doa_trainings", 0) + d_bh_doa
                )
            if d_bh_ndoa:
                bh_stat["not_doa_trainings"] = (
                    bh_stat.get("not_doa_trainings", 0) + d_bh_ndoa
                )
                d_bh_ndoa = 0
            if d_bh_doa:
                cb_stat["doa_evictions_observed"] = (
                    cb_stat.get("doa_evictions_observed", 0) + d_bh_doa
                )
                d_bh_doa = 0
            if d_cb_doap:
                cb_stat["doa_predictions"] = (
                    cb_stat.get("doa_predictions", 0) + d_cb_doap
                )
                d_cb_doap = 0
            if d_cb_note:
                cb_stat["pfn_notifications"] = (
                    cb_stat.get("pfn_notifications", 0) + d_cb_note
                )
                d_cb_note = 0
            if d_cb_pfqm:
                cb_stat["pfq_matches"] = (
                    cb_stat.get("pfq_matches", 0) + d_cb_pfqm
                )
                d_cb_pfqm = 0
            if d_ph_doa:
                dp_stat["doa_evictions_observed"] = (
                    dp_stat.get("doa_evictions_observed", 0) + d_ph_doa
                )
            if d_dp_doap:
                dp_stat["doa_predictions"] = (
                    dp_stat.get("doa_predictions", 0) + d_dp_doap
                )
                d_dp_doap = 0
            if d_pfq_ev:
                pfq_stat["evictions"] = (
                    pfq_stat.get("evictions", 0) + d_pfq_ev
                )
                d_pfq_ev = 0
            if d_pfq_ins:
                pfq_stat["inserts"] = (
                    pfq_stat.get("inserts", 0) + d_pfq_ins
                )
                d_pfq_ins = 0
            if d_ph_doa:
                ph_stat["doa_trainings"] = (
                    ph_stat.get("doa_trainings", 0) + d_ph_doa
                )
                d_ph_doa = 0
            if d_ph_ndoa:
                ph_stat["not_doa_trainings"] = (
                    ph_stat.get("not_doa_trainings", 0) + d_ph_ndoa
                )
                d_ph_ndoa = 0
            if d_sh_ev:
                sh_stat["evictions"] = (
                    sh_stat.get("evictions", 0) + d_sh_ev
                )
                d_sh_ev = 0
            if d_sh_ins:
                sh_stat["inserts"] = (
                    sh_stat.get("inserts", 0) + d_sh_ins
                )
                d_sh_ins = 0
            if sh_entries is not None:
                d_sh_miss = lt_misses - sh_hits
                sh_hits = 0
                if d_sh_miss:
                    sh_stat["misses"] = (
                        sh_stat.get("misses", 0) + d_sh_miss
                    )
            if sample is not None and instructions >= next_at:
                sample(instructions, cycles)
                next_at = instructions + interval

        # --- state write-back ------------------------------------------- #
        m.now = now
        actx.pc = pc
        m.instructions = instructions
        m.cycles = cycles
        if sampler is not None and (
            not sampler.marks or sampler.marks[-1] != instructions
        ):
            sample(instructions, cycles)
