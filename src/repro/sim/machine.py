"""The full machine model: TLBs + walker + caches + predictors + timing.

One :class:`Machine` simulates one core of the Table I system. The access
path per memory instruction is:

1. instruction-side translation (L1 I-TLB, falling back to the shared L2
   TLB and the page-table walker);
2. data-side translation (L1 D-TLB -> L2 TLB/LLT -> walker), where the LLT
   carries the configured dead-page predictor and the walker's page-table
   loads go through the data caches;
3. physical data access through the L1D/L2/LLC hierarchy, where the LLC
   carries the configured dead-block predictor;
4. timing accumulation per the mechanistic model in
   :class:`~repro.sim.config.TimingConfig`.

The PC of the instruction that triggered an LLT miss is handed to the fill
directly — the software equivalent of the paper's "the hash of the PC that
triggered the miss is stored in the LLT's MSHR".
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.cbpred import CorrelatingDeadBlockPredictor
from repro.core.dppred import DeadPagePredictor
from repro.mem.cache import CacheLine, CacheListener, SetAssocCache
from repro.mem.hierarchy import CacheHierarchy
from repro.mem.mainmem import MainMemory
from repro.common.stats import Stats
from repro.obs.events import EV_CTX_SWITCH, EV_SHOOTDOWN, EV_WALK
from repro.predictors import registry
from repro.predictors.base import AccessContext
from repro.predictors.oracle import (
    DoaRecordingCacheListener,
    DoaRecordingListener,
)
from repro.predictors.prefetch import DistanceTlbPrefetcher
from repro.sim.config import (
    LLC_PRED_NONE,
    TLB_PRED_NONE,
    SystemConfig,
)
from repro.sim.reference import ReferenceStructure
from repro.sim.results import SimResult
from repro.vm.pagetable import (
    RadixPageTable,
    huge_region_policy,
)
from repro.vm.physmem import PAGE_SHIFT, FrameAllocator
from repro.vm.pwc import PageWalkCaches
from repro.vm.tlb import (
    ASID_SHIFT,
    HUGE_KEY_BASE,
    HUGE_SPAN_BITS,
    Tlb,
    TlbEntry,
    TlbListener,
    tlb_key,
)
from repro.vm.walker import BLOCK_SHIFT, PageTableWalker

_BLOCK_OFFSET_BITS = PAGE_SHIFT - BLOCK_SHIFT  # block-in-page bits (6)
_BLOCK_IN_PAGE_MASK = (1 << _BLOCK_OFFSET_BITS) - 1
_VPN_KEY_MASK = (1 << ASID_SHIFT) - 1  # VPN bits of a combined (asid, vpn) key


class _CorrelationTlbListener(TlbListener):
    """Records each page's most recent LLT DOA outcome (Table III support).

    Keys are the LLT's namespaced tags (``entry.vpn`` stores the full
    key), so per-ASID 4 KB entries and huge-region entries record
    without colliding — and a shootdown, which ends the residency
    through the same eviction path, records the verdict too."""

    def __init__(self) -> None:
        self.last_doa_status: Dict[int, bool] = {}

    def on_evict(self, tlb: Tlb, entry: TlbEntry, now: int) -> None:
        self.last_doa_status[entry.vpn] = not entry.accessed

    def lookup(self, vpn: int, asid: int) -> Optional[bool]:
        """Most recent DOA verdict for ``(asid, vpn)``, trying the same
        namespaces a lookup would: 4 KB, then the covering huge region."""
        status = self.last_doa_status
        verdict = status.get(tlb_key(vpn, asid))
        if verdict is not None:
            return verdict
        return status.get(
            HUGE_KEY_BASE | tlb_key(vpn >> HUGE_SPAN_BITS, asid)
        )


class _CorrelationCacheListener(CacheListener):
    """Classifies evicted DOA LLC blocks by their page's DOA status.

    It holds the machine's PFN-to-key map and (once built) its LLT, not
    the machine itself, so the machine is freed by reference counting."""

    def __init__(
        self, pfn_to_vpn: Dict[int, int], tlb_side: _CorrelationTlbListener
    ):
        self.pfn_to_vpn = pfn_to_vpn
        self.llt: Optional[Tlb] = None  # the machine wires its LLT
        self.tlb_side = tlb_side
        self.doa_blocks_total = 0
        self.doa_blocks_classified = 0
        self.doa_blocks_on_doa_page = 0

    def on_evict(self, cache: SetAssocCache, line: CacheLine, now: int) -> None:
        if line.accessed:
            return
        self.doa_blocks_total += 1
        pfn = line.tag >> _BLOCK_OFFSET_BITS
        key = self.pfn_to_vpn.get(pfn)
        if key is None:
            return  # page-table block, not a demand page
        vpn = key & _VPN_KEY_MASK
        asid = key >> ASID_SHIFT
        resident = self.llt.probe_translation(vpn, asid)
        if resident is not None:
            page_doa = not resident.accessed
        else:
            verdict = self.tlb_side.lookup(vpn, asid)
            if verdict is None:
                return  # never completed an LLT residency; unclassifiable
            page_doa = verdict
        self.doa_blocks_classified += 1
        if page_doa:
            self.doa_blocks_on_doa_page += 1


class Machine:
    """A single-core trace-driven simulation of the paper's system."""

    def __init__(
        self,
        config: SystemConfig,
        oracle_outcomes: Optional[dict] = None,
        llc_oracle_outcomes: Optional[dict] = None,
        seed: int = 1,
        telemetry=None,
    ):
        """``telemetry`` — optional :class:`repro.obs.Telemetry` bundle.
        Its event probe is wired into the predictors (decision tracing)
        and its timeline sampler drives interval snapshots in :meth:`run`.
        Telemetry only observes: simulation outputs are bit-identical
        with and without it, and when it is None (the default) the
        per-access path is untouched."""
        config.validate()
        self._llc_oracle_outcomes = llc_oracle_outcomes
        self.config = config
        self.telemetry = telemetry
        self._timeline = telemetry.timeline if telemetry is not None else None
        self._probe = telemetry.probe if telemetry is not None else None
        self.context = AccessContext()
        self.now = 0
        self.instructions = 0
        self.cycles = 0.0
        self.pfn_to_vpn: Dict[int, int] = {}
        # Populated by run(): which engine executed the trace and, for the
        # batched engine, whether it ran flat or on the scalar reference
        # and why (diagnostics only — never part of SimResult).
        self.engine_stats: Optional[dict] = None

        # Timing scalars hoisted out of the per-access path (reading them
        # through two frozen dataclasses per access costs ~10% wall-clock).
        timing = config.timing
        self._base_cpi = timing.base_cpi
        self._l2_tlb_hit_penalty = timing.l2_tlb_hit_penalty
        self._walk_exposure = timing.walk_exposure
        self._l2_hit_penalty = timing.l2_hit_penalty
        self._llc_hit_penalty = timing.llc_hit_penalty
        self._mem_penalty = (
            timing.llc_hit_penalty + config.mem_latency / timing.mem_divisor
        )
        self._l2_tlb_latency = config.l2_tlb.latency

        # --- data-cache hierarchy -------------------------------------- #
        self._llc_predictor = self._build_llc_predictor()
        llc_listener = self._llc_predictor
        self._correlation_cache: Optional[_CorrelationCacheListener] = None
        self._correlation_tlb: Optional[_CorrelationTlbListener] = None
        if config.track_correlation:
            if (
                config.tlb_predictor != TLB_PRED_NONE
                or config.llc_predictor != LLC_PRED_NONE
            ):
                raise ValueError(
                    "track_correlation measures the *baseline* machine; "
                    "disable predictors"
                )
            self._correlation_tlb = _CorrelationTlbListener()
            self._correlation_cache = _CorrelationCacheListener(
                self.pfn_to_vpn, self._correlation_tlb
            )
            llc_listener = self._correlation_cache

        self.l1d = SetAssocCache(
            "L1D", config.l1d.num_sets, config.l1d.assoc, config.cache_policy
        )
        self.l2 = SetAssocCache(
            "L2", config.l2.num_sets, config.l2.assoc, config.cache_policy
        )
        self.llc = SetAssocCache(
            "LLC",
            config.llc.num_sets,
            config.llc.assoc,
            config.effective_llc_policy,
            listener=llc_listener,
            track_residency=config.track_residency,
        )
        self.hierarchy = CacheHierarchy(
            self.l1d,
            self.l2,
            self.llc,
            MainMemory(config.mem_latency),
            l1_latency=config.l1d.latency,
            l2_latency=config.l2.latency,
            llc_latency=config.llc.latency,
        )

        # --- virtual memory -------------------------------------------- #
        # Huge mappings are decided per 2 MB region by a seed-stable hash
        # (None at huge_fraction == 0: the table then behaves — and
        # performs — exactly as the pre-huge-page one).
        self._huge_policy = huge_policy = (
            huge_region_policy(config.huge_fraction, seed)
            if config.huge_fraction > 0
            else None
        )
        allocator = FrameAllocator(num_frames=config.phys_frames, seed=seed)
        self.page_table = RadixPageTable(allocator, huge_policy=huge_policy)
        # Every tenant's table shares one allocator: PFNs stay globally
        # unique, so the physically-indexed caches model real
        # inter-tenant interference. The factory closes over locals, not
        # ``self``, so a finished Machine is freed by reference counting
        # instead of waiting for the cyclic garbage collector.
        self.walker = PageTableWalker(
            self.page_table,
            PageWalkCaches(config.pwc_entries, config.pwc_latencies),
            self.hierarchy,
            table_factory=lambda asid: RadixPageTable(
                allocator, huge_policy=huge_policy
            ),
        )
        self._tlb_predictor = self._build_tlb_predictor(oracle_outcomes)
        if isinstance(self._tlb_predictor, DistanceTlbPrefetcher):
            # Prefetches resolve through the page table without faulting.
            self._tlb_predictor.resolver = self.page_table.lookup
        tlb_listener = self._tlb_predictor
        if self._correlation_tlb is not None:
            tlb_listener = self._correlation_tlb
        self.l1_itlb = Tlb(
            "L1-ITLB", config.l1_itlb.entries, config.l1_itlb.assoc,
            config.tlb_policy,
        )
        self.l1_dtlb = Tlb(
            "L1-DTLB", config.l1_dtlb.entries, config.l1_dtlb.assoc,
            config.tlb_policy,
        )
        self.l2_tlb = Tlb(
            "LLT",
            config.l2_tlb.entries,
            config.l2_tlb.assoc,
            config.tlb_policy,
            listener=tlb_listener,
            track_residency=config.track_residency,
        )
        if self._correlation_cache is not None:
            self._correlation_cache.llt = self.l2_tlb
        # Shootdowns through the LLT must also drop the PWC's partial
        # walks for the region (the walker refills the LLT, so the LLT is
        # the TLB whose invalidations track walk state).
        self.l2_tlb.pwc = self.walker.pwc

        # Multi-tenant bookkeeping (context switches, shootdowns). Kept
        # out of result.raw unless a multi-tenant trace actually ran, so
        # single-tenant SimResults stay byte-stable.
        self.tenancy = Stats()

        # --- ground-truth references (Tables VI/VII) ------------------- #
        self.ref_llt: Optional[ReferenceStructure] = None
        self.ref_llc: Optional[ReferenceStructure] = None
        if config.track_reference:
            self.ref_llt = ReferenceStructure(
                "ref-LLT", config.l2_tlb.entries, config.l2_tlb.assoc
            )
            self.ref_llc = ReferenceStructure(
                "ref-LLC", config.llc.blocks, config.llc.assoc
            )
            self._attach_observers()

        if telemetry is not None:
            self._attach_telemetry()

    # ------------------------------------------------------------------ #
    # Predictor construction
    # ------------------------------------------------------------------ #
    def _build_context(self, oracle_outcomes=None) -> registry.BuildContext:
        return registry.BuildContext(
            context=self.context,
            oracle_outcomes=oracle_outcomes,
            llc_oracle_outcomes=self._llc_oracle_outcomes,
        )

    def _build_tlb_predictor(self, oracle_outcomes):
        """Registry dispatch for the LLT listener (see
        :mod:`repro.predictors.registry`). Coupling that needs machine
        state — the dpPred→cbPred PFN forwarding and the prefetcher's
        page-table resolver — stays here, after construction, exactly as
        the pre-registry chain wired it."""
        kind = self.config.tlb_predictor
        if kind == TLB_PRED_NONE:
            return None
        pred = registry.build(
            registry.KIND_TLB,
            kind,
            self.config,
            self._build_context(oracle_outcomes),
        )
        if isinstance(pred, DeadPagePredictor) and isinstance(
            self._llc_predictor, CorrelatingDeadBlockPredictor
        ):
            pred.pfn_sink = self._llc_predictor.notify_doa_page
        return pred

    def _build_llc_predictor(self):
        kind = self.config.llc_predictor
        if kind == LLC_PRED_NONE:
            return None
        return registry.build(
            registry.KIND_LLC, kind, self.config, self._build_context()
        )

    def _attach_observers(self) -> None:
        tlb_pred = self._tlb_predictor
        if tlb_pred is not None and hasattr(tlb_pred, "prediction_observer"):
            tlb_pred.prediction_observer = self.ref_llt.record_prediction
        llc_pred = self._llc_predictor
        if llc_pred is not None and hasattr(llc_pred, "prediction_observer"):
            llc_pred.prediction_observer = self.ref_llc.record_prediction

    def _attach_telemetry(self) -> None:
        """Wire the telemetry bundle in: probes into the predictors,
        every stats bag into the timeline sampler. Pure observation — no
        simulated state is touched."""
        probe = self._probe
        if probe is not None:
            for pred in (self._tlb_predictor, self._llc_predictor):
                if pred is not None and hasattr(pred, "probe"):
                    pred.probe = probe
                    shadow = getattr(pred, "shadow", None)
                    if shadow is not None:
                        shadow.probe = probe
        sampler = self._timeline
        if sampler is not None:
            sources = [
                ("llt", self.l2_tlb.stats),
                ("l1_itlb", self.l1_itlb.stats),
                ("l1_dtlb", self.l1_dtlb.stats),
                ("l1d", self.l1d.stats),
                ("l2", self.l2.stats),
                ("llc", self.llc.stats),
                ("walker", self.walker.stats),
                ("pwc", self.walker.pwc.stats),
                ("memory", self.hierarchy.memory.stats),
            ]
            if self._tlb_predictor is not None and hasattr(
                self._tlb_predictor, "stats"
            ):
                sources.append(("tlb_pred", self._tlb_predictor.stats))
            if self._llc_predictor is not None and hasattr(
                self._llc_predictor, "stats"
            ):
                sources.append(("llc_pred", self._llc_predictor.stats))
            for name, stats in sources:
                sampler.register(name, stats)

    # ------------------------------------------------------------------ #
    # Access path
    # ------------------------------------------------------------------ #
    def _translate(self, l1_tlb: Tlb, vpn: int, pc: int, now: int, asid: int):
        """Returns ``(pfn, exposed_translation_penalty)``."""
        pfn = l1_tlb.lookup(vpn, now, asid)
        if pfn is not None:
            return pfn, 0.0
        if self.ref_llt is not None:
            self.ref_llt.access(tlb_key(vpn, asid), now)
        pfn = self.l2_tlb.lookup(vpn, now, asid)
        if pfn is not None:
            penalty = self._l2_tlb_hit_penalty
        else:
            # The PC travels in the LLT MSHR to be available at fill time.
            pfn, walk_latency, huge_base = self.walker.walk(vpn, now, asid)
            # Stored as the combined (asid, vpn) key — raw VPN at ASID 0 —
            # so the correlation listener can classify per address space.
            self.pfn_to_vpn[pfn] = tlb_key(vpn, asid)
            probe = self._probe
            if probe is not None:
                probe.emit(now, EV_WALK, vpn, walk_latency)
            penalty = (
                self._l2_tlb_latency + walk_latency * self._walk_exposure
            )
            if huge_base is None:
                self.l2_tlb.fill(vpn, pfn, pc, now, asid)
            else:
                # Only the LLT holds the 2 MB entry; the L1 TLBs below get
                # splintered 4 KB granules, so their geometry is untouched
                # by huge mappings.
                self.l2_tlb.fill(vpn, huge_base, pc, now, asid, huge=True)
        l1_tlb.fill(vpn, pfn, pc, now, asid)
        return pfn, penalty

    def access(
        self, pc: int, vaddr: int, is_write: bool, gap: int, asid: int = 0
    ) -> None:
        """Simulate one memory instruction preceded by ``gap`` non-memory
        instructions, issued by address space ``asid``."""
        self.now = now = self.now + 1
        self.instructions += gap + 1
        self.context.pc = pc

        # Instruction-side translation (small code footprint; nearly
        # always an L1 I-TLB hit after warm-up), then data-side.
        _, penalty = self._translate(
            self.l1_itlb, pc >> PAGE_SHIFT, pc, now, asid
        )
        pfn, dpenalty = self._translate(
            self.l1_dtlb, vaddr >> PAGE_SHIFT, pc, now, asid
        )
        penalty += dpenalty

        # Physical data access.
        block = (pfn << _BLOCK_OFFSET_BITS) | (
            (vaddr >> BLOCK_SHIFT) & _BLOCK_IN_PAGE_MASK
        )
        _, level = self.hierarchy.access(block, now, is_write)
        if level != "l1":
            if level == "l2":
                penalty += self._l2_hit_penalty
            else:
                penalty += (
                    self._llc_hit_penalty
                    if level == "llc"
                    else self._mem_penalty
                )
                if self.ref_llc is not None:
                    self.ref_llc.access(block, now)

        self.cycles += (gap + 1) * self._base_cpi + penalty

    def run(self, trace, engine: Optional[str] = None) -> SimResult:
        """Simulate a whole trace (a :class:`~repro.workloads.trace.Trace`).

        ``engine`` overrides the engine for this run; otherwise the
        process default applies (see :func:`repro.sim.engine.resolve_engine`
        — CLI ``--engine``, then ``REPRO_ENGINE``, then batched). Both
        engines are bit-identical; the batched one runs the scalar loop
        when its flat interpreter does not model this machine or trace.
        """
        from repro.sim.engine import ENGINE_BATCHED, resolve_engine, run_batched

        if resolve_engine(engine) == ENGINE_BATCHED:
            return run_batched(self, trace)
        self.engine_stats = {"engine": "scalar"}
        return self.run_scalar(trace)

    def run_scalar(self, trace) -> SimResult:
        """Reference per-record execution loop (the scalar engine)."""
        if getattr(trace, "asids", None) is not None:
            return self._run_scalar_tenants(trace)
        access = self.access
        sampler = self._timeline
        if sampler is None:
            for pc, vaddr, is_write, gap in trace.iter_records():
                access(pc, vaddr, is_write, gap)
            return self.finalize(trace.name)
        # Telemetry loop: identical simulation, plus an interval check per
        # record. Intervals close on the first access at or past each
        # boundary (instruction counts jump by gap+1, so marks are
        # boundary-aligned, not exact multiples).
        interval = sampler.interval
        next_at = interval
        for pc, vaddr, is_write, gap in trace.iter_records():
            access(pc, vaddr, is_write, gap)
            if self.instructions >= next_at:
                sampler.sample(self.instructions, self.cycles)
                next_at = self.instructions + interval
        if not sampler.marks or sampler.marks[-1] != self.instructions:
            sampler.sample(self.instructions, self.cycles)
        return self.finalize(trace.name)

    def _run_scalar_tenants(self, trace) -> SimResult:
        """Scalar loop for ASID-carrying traces: every record passes its
        tenant's ASID into :meth:`access`, and ASID changes between
        consecutive records become context-switch events (optionally
        shooting down the outgoing tenant, per ``shootdown_on_switch``)."""
        access = self.access
        sampler = self._timeline
        interval = sampler.interval if sampler is not None else None
        next_at = interval
        current = -1
        seen = set()
        tenancy = self.tenancy
        for (pc, vaddr, is_write, gap), asid in zip(
            trace.iter_records(), trace.iter_asids()
        ):
            if asid != current:
                if current >= 0:
                    self._context_switch(current, asid)
                if asid not in seen:
                    seen.add(asid)
                    tenancy.add("tenants_seen")
                current = asid
            access(pc, vaddr, is_write, gap, asid)
            if sampler is not None and self.instructions >= next_at:
                sampler.sample(self.instructions, self.cycles)
                next_at = self.instructions + interval
        if sampler is not None and (
            not sampler.marks or sampler.marks[-1] != self.instructions
        ):
            sampler.sample(self.instructions, self.cycles)
        return self.finalize(trace.name)

    def _context_switch(self, outgoing: int, incoming: int) -> None:
        tenancy = self.tenancy
        tenancy.add("context_switches")
        probe = self._probe
        if probe is not None:
            probe.emit(self.now, EV_CTX_SWITCH, outgoing, incoming)
        if self.config.shootdown_on_switch:
            self.shootdown_asid(outgoing)

    # ------------------------------------------------------------------ #
    # TLB shootdowns
    # ------------------------------------------------------------------ #
    def shootdown_page(self, vpn: int, asid: int = 0) -> None:
        """INVLPG: drop one translation (all TLB levels + PWC region)."""
        now = self.now
        self.tenancy.add("shootdowns")
        for tlb in (self.l1_itlb, self.l1_dtlb, self.l2_tlb):
            tlb.invalidate(vpn, now, asid)
        probe = self._probe
        if probe is not None:
            probe.emit(now, EV_SHOOTDOWN, asid, "page")

    def shootdown_asid(self, asid: int) -> int:
        """Drop every translation belonging to ``asid`` (ASID recycle);
        returns the number of TLB entries dropped across all levels."""
        now = self.now
        self.tenancy.add("shootdowns")
        dropped = 0
        for tlb in (self.l1_itlb, self.l1_dtlb, self.l2_tlb):
            dropped += tlb.invalidate_asid(asid, now)
        probe = self._probe
        if probe is not None:
            probe.emit(now, EV_SHOOTDOWN, asid, "asid")
        return dropped

    def shootdown_all(self) -> int:
        """Broadcast shootdown: every TLB level and the whole PWC;
        returns the number of TLB entries dropped across all levels."""
        now = self.now
        self.tenancy.add("shootdowns")
        dropped = 0
        for tlb in (self.l1_itlb, self.l1_dtlb, self.l2_tlb):
            dropped += tlb.invalidate_all(now)
        probe = self._probe
        if probe is not None:
            probe.emit(now, EV_SHOOTDOWN, -1, "all")
        return dropped

    # ------------------------------------------------------------------ #
    # Result assembly
    # ------------------------------------------------------------------ #
    def finalize(self, workload: str = "unnamed") -> SimResult:
        now = self.now
        self.l2_tlb.flush_residency(now)
        self.hierarchy.finalize(now)
        if self.ref_llt is not None:
            self.ref_llt.finalize()
        if self.ref_llc is not None:
            self.ref_llc.finalize()

        llt_stats = self.l2_tlb.stats
        shadow_hits = llt_stats.get("victim_buffer_hits")
        result = SimResult(
            workload=workload,
            config_name=self._config_label(),
            instructions=self.instructions,
            cycles=self.cycles,
            llt_hits=llt_stats.get("hits"),
            llt_misses=llt_stats.get("misses") - shadow_hits,
            llt_shadow_hits=shadow_hits,
            llt_bypasses=llt_stats.get("bypasses"),
            llc_hits=self.llc.stats.get("hits"),
            llc_misses=self.llc.stats.get("misses"),
            llc_bypasses=self.llc.stats.get("bypasses"),
            mem_accesses=self.hierarchy.memory.stats.get("accesses"),
            walk_cycles=self.walker.stats.get("walk_cycles"),
            walks=self.walker.stats.get("walks"),
        )
        if self.ref_llt is not None:
            result.tlb_accuracy = self.ref_llt.accuracy
            result.tlb_coverage = self.ref_llt.coverage
        if self.ref_llc is not None:
            result.llc_accuracy = self.ref_llc.accuracy
            result.llc_coverage = self.ref_llc.coverage
        if self.config.track_residency:
            result.llt_residency = self.l2_tlb.residency.summary
            result.llc_residency = self.llc.residency.summary
        if self._correlation_cache is not None:
            result.doa_blocks_on_doa_page = (
                self._correlation_cache.doa_blocks_on_doa_page
            )
            result.doa_blocks_classified = (
                self._correlation_cache.doa_blocks_classified
            )
        result.raw = {
            "llt": llt_stats.snapshot(),
            "l1d": self.l1d.stats.snapshot(),
            "l2": self.l2.stats.snapshot(),
            "llc": self.llc.stats.snapshot(),
            "walker": self.walker.stats.snapshot(),
            "memory": self.hierarchy.memory.stats.snapshot(),
        }
        # Multi-tenant runs carry their scheduling/shootdown counters;
        # the key is absent on single-tenant runs so their serialized
        # results stay byte-identical to pre-scenario-layer ones.
        if self.tenancy.counters:
            result.raw["tenants"] = self.tenancy.snapshot()
        return result

    def _config_label(self) -> str:
        return (
            f"{self.config.name}/tlb={self.config.tlb_predictor}"
            f"/llc={self.config.llc_predictor}"
        )

    # ------------------------------------------------------------------ #
    # Oracle support
    # ------------------------------------------------------------------ #
    @property
    def oracle_recorder(self) -> Optional[DoaRecordingListener]:
        """Pass-1 TLB recorder when running the oracle's first pass."""
        if isinstance(self._tlb_predictor, DoaRecordingListener):
            return self._tlb_predictor
        return None

    @property
    def llc_oracle_recorder(self) -> Optional[DoaRecordingCacheListener]:
        """Pass-1 LLC recorder when running the oracle's first pass."""
        if isinstance(self._llc_predictor, DoaRecordingCacheListener):
            return self._llc_predictor
        return None

    @property
    def tlb_predictor(self):
        return self._tlb_predictor

    @property
    def llc_predictor(self):
        return self._llc_predictor
