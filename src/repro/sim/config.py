"""System configuration: Table I parameters plus predictor selection.

Two profiles ship with the library:

* :func:`paper_config` — the exact Table I machine (1024-entry L2 TLB,
  2 MB 16-way LLC, ...). Faithful but slow in pure Python.
* :func:`fast_config` — every capacity divided by 8, associativities and
  latency ratios preserved, predictor tables scaled by the paper's own
  per-entry ratios (pHIST : LLT entries = 1:1, bHIST : LLC blocks = 1:8).
  All experiments use this profile by default; DESIGN.md §5 documents the
  scaling discipline.

Configs are frozen dataclasses so they can key run-memoization caches.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Tuple

from repro.mem.replacement import POLICY_NAMES

#: TLB-side predictor choices.
TLB_PRED_NONE = "none"
TLB_PRED_DPPRED = "dppred"
TLB_PRED_DPPRED_NOSHADOW = "dppred_sh"
TLB_PRED_DPPRED_DEMOTE = "dppred_demote"
TLB_PRED_SHIP = "ship"
TLB_PRED_AIP = "aip"
TLB_PRED_ORACLE = "oracle"
TLB_PRED_PREFETCH = "distance_prefetch"
TLB_PRED_LEEWAY = "leeway"
TLB_PRED_PERCEPTRON = "perceptron"

#: LLC-side predictor choices.
LLC_PRED_NONE = "none"
LLC_PRED_CBPRED = "cbpred"
LLC_PRED_CBPRED_NOPFQ = "cbpred_nopfq"
LLC_PRED_SHIP = "ship"
LLC_PRED_AIP = "aip"
LLC_PRED_ORACLE = "oracle"
LLC_PRED_LEEWAY = "leeway"
LLC_PRED_PERCEPTRON = "perceptron"

TLB_PREDICTORS = (
    TLB_PRED_NONE,
    TLB_PRED_DPPRED,
    TLB_PRED_DPPRED_NOSHADOW,
    TLB_PRED_DPPRED_DEMOTE,
    TLB_PRED_SHIP,
    TLB_PRED_AIP,
    TLB_PRED_ORACLE,
    TLB_PRED_PREFETCH,
    TLB_PRED_LEEWAY,
    TLB_PRED_PERCEPTRON,
)
LLC_PREDICTORS = (
    LLC_PRED_NONE,
    LLC_PRED_CBPRED,
    LLC_PRED_CBPRED_NOPFQ,
    LLC_PRED_SHIP,
    LLC_PRED_AIP,
    LLC_PRED_ORACLE,
    LLC_PRED_LEEWAY,
    LLC_PRED_PERCEPTRON,
)


def _known_predictors(kind: str, builtin: Tuple[str, ...]) -> Tuple[str, ...]:
    """Valid names for ``kind``: "none" plus everything registered.

    The registry import is deferred — the registry imports the predictor
    implementation modules, and keeping config import-light lets those
    modules (and anything else) import this one freely.
    """
    from repro.predictors import registry

    names = registry.registered_names(kind)
    return ("none",) + names if names else builtin


@dataclass(frozen=True)
class TlbGeometry:
    entries: int
    assoc: int
    latency: int


@dataclass(frozen=True)
class CacheGeometry:
    num_sets: int
    assoc: int
    latency: int

    @property
    def blocks(self) -> int:
        return self.num_sets * self.assoc

    @property
    def size_bytes(self) -> int:
        return self.blocks * 64


@dataclass(frozen=True)
class TimingConfig:
    """Mechanistic timing-model parameters (DESIGN.md §3 substitution).

    ``cycles = instructions * base_cpi + sum(exposed penalties)`` where the
    exposure factors encode how much of each event an OoO core hides:
    L2-TLB hits are "often hidden by out-of-order cores" (Section IV-A),
    page walks serialize (pointer-chasing the radix tree) and are fully
    exposed, and DRAM misses overlap with each other through memory-level
    parallelism (``mem_divisor``; large OoO windows sustain high MLP on
    these gather-heavy workloads, which is also why the paper charges
    walks but not loads to the critical path).
    """

    base_cpi: float = 0.4
    l2_tlb_hit_penalty: float = 2.0
    walk_exposure: float = 1.0
    l2_hit_penalty: float = 2.0
    llc_hit_penalty: float = 6.0
    mem_divisor: float = 8.0


@dataclass(frozen=True)
class SystemConfig:
    """Full machine + predictor configuration."""

    name: str = "fast"
    # --- TLBs (Table I) ---
    l1_itlb: TlbGeometry = TlbGeometry(16, 4, 1)
    l1_dtlb: TlbGeometry = TlbGeometry(16, 4, 1)
    l2_tlb: TlbGeometry = TlbGeometry(128, 8, 8)
    tlb_policy: str = "lru"
    # --- page walk caches ---
    pwc_entries: Tuple[int, int, int] = (4, 8, 16)
    pwc_latencies: Tuple[int, int, int] = (1, 1, 2)
    # --- data caches (Table I) ---
    l1d: CacheGeometry = CacheGeometry(8, 8, 5)
    l2: CacheGeometry = CacheGeometry(64, 8, 11)
    llc: CacheGeometry = CacheGeometry(256, 16, 40)
    cache_policy: str = "lru"
    llc_policy: Optional[str] = None  # None -> cache_policy
    mem_latency: int = 191
    phys_frames: int = 1 << 22
    # --- predictors ---
    tlb_predictor: str = TLB_PRED_NONE
    llc_predictor: str = LLC_PRED_NONE
    # dpPred knobs (Section V-A defaults)
    dppred_pc_bits: int = 6
    dppred_vpn_bits: int = 4
    dppred_threshold: int = 6
    dppred_shadow_entries: int = 2
    # cbPred knobs (Section V-B defaults; bhist scaled with the LLC)
    cbpred_bhist_entries: int = 512
    cbpred_threshold: int = 6
    cbpred_pfq_entries: int = 8
    # SHiP knobs
    ship_tlb_signature_bits: int = 8
    ship_llc_signature_bits: int = 14
    # Leeway knobs (live-distance percentile prediction)
    leeway_signature_bits: int = 8
    leeway_percentile: int = 75
    # Hashed-perceptron knobs
    perceptron_table_bits: int = 8
    perceptron_threshold: int = 4
    # --- multi-tenant / huge-page scenario layer ---
    #: Number of interleaved address spaces the workload trace carries
    #: (1 = the paper's single-process machine). Informational for cache
    #: keys and engine dispatch; the trace's asids array is authoritative.
    num_tenants: int = 1
    #: Shoot down the outgoing tenant's TLB + PWC entries on every
    #: context switch (models ASID-recycling kernels; False models
    #: ASID-rich hardware where entries survive switches).
    shootdown_on_switch: bool = False
    #: Fraction of 2 MB virtual regions backed by huge pages (leaf at the
    #: PD level). 0.0 keeps the paper's pure-4 KB address spaces.
    huge_fraction: float = 0.0
    # --- instrumentation ---
    track_residency: bool = False
    track_reference: bool = False
    track_correlation: bool = False
    # --- timing ---
    timing: TimingConfig = field(default_factory=TimingConfig)

    def __post_init__(self) -> None:
        # Fail on unknown predictor and policy names at *construction*,
        # not deep in Machine.__init__: every config reaches the
        # simulator through replace()/the constructor, so a typo
        # surfaces at the call site (the serve layer maps the ValueError
        # to HTTP 400). Predictor validity is registry membership, so
        # third-party ``register()``ed names pass.
        self._check_predictor_names()
        for name, value in (
            ("tlb_policy", self.tlb_policy),
            ("cache_policy", self.cache_policy),
            ("llc_policy", self.effective_llc_policy),
        ):
            if value not in POLICY_NAMES:
                raise ValueError(
                    f"unknown {name} {value!r}; choose from {POLICY_NAMES}"
                )

    def _check_predictor_names(self) -> None:
        if self.tlb_predictor != TLB_PRED_NONE:
            known = _known_predictors("tlb", TLB_PREDICTORS)
            if self.tlb_predictor not in known:
                raise ValueError(
                    f"unknown tlb_predictor {self.tlb_predictor!r}; "
                    f"choose from {known}"
                )
        if self.llc_predictor != LLC_PRED_NONE:
            known = _known_predictors("llc", LLC_PREDICTORS)
            if self.llc_predictor not in known:
                raise ValueError(
                    f"unknown llc_predictor {self.llc_predictor!r}; "
                    f"choose from {known}"
                )

    def validate(self) -> None:
        if self.num_tenants < 1:
            raise ValueError(
                f"num_tenants must be >= 1, got {self.num_tenants}"
            )
        if not 0.0 <= self.huge_fraction <= 1.0:
            raise ValueError(
                f"huge_fraction must be in [0, 1], got {self.huge_fraction}"
            )
        self._check_predictor_names()
        if self.llc_predictor in (LLC_PRED_CBPRED, LLC_PRED_CBPRED_NOPFQ):
            if self.tlb_predictor not in (
                TLB_PRED_DPPRED,
                TLB_PRED_DPPRED_NOSHADOW,
                TLB_PRED_DPPRED_DEMOTE,
            ):
                raise ValueError(
                    "cbPred only works coupled with dpPred (Section VI-B)"
                )

    @property
    def effective_llc_policy(self) -> str:
        return self.llc_policy if self.llc_policy is not None else self.cache_policy

    def with_predictors(
        self, tlb: Optional[str] = None, llc: Optional[str] = None
    ) -> "SystemConfig":
        """Derive a config with different predictors (convenience)."""
        changes = {}
        if tlb is not None:
            changes["tlb_predictor"] = tlb
        if llc is not None:
            changes["llc_predictor"] = llc
        return replace(self, **changes)


def fast_config(**overrides) -> SystemConfig:
    """The default scaled-down profile (capacities / 8 vs Table I)."""
    return replace(SystemConfig(), **overrides) if overrides else SystemConfig()


def paper_config(**overrides) -> SystemConfig:
    """The exact Table I machine. Slow in pure Python; use for spot checks."""
    cfg = SystemConfig(
        name="paper",
        l1_itlb=TlbGeometry(128, 4, 1),
        l1_dtlb=TlbGeometry(64, 4, 1),
        l2_tlb=TlbGeometry(1024, 8, 8),
        l1d=CacheGeometry(64, 8, 5),       # 32 KB
        l2=CacheGeometry(512, 8, 11),      # 256 KB
        llc=CacheGeometry(2048, 16, 40),   # 2 MB
        cbpred_bhist_entries=4096,
    )
    return replace(cfg, **overrides) if overrides else cfg


def mix2_config(**overrides) -> SystemConfig:
    """Two-tenant interleaving profile (fast geometry, shootdowns on
    context switch). Pair with the ``mix2`` workload."""
    cfg = SystemConfig(name="mix2", num_tenants=2, shootdown_on_switch=True)
    return replace(cfg, **overrides) if overrides else cfg


def mix4_config(**overrides) -> SystemConfig:
    """Four-tenant interleaving profile. Pair with the ``mix4`` workload."""
    cfg = SystemConfig(name="mix4", num_tenants=4, shootdown_on_switch=True)
    return replace(cfg, **overrides) if overrides else cfg


def hugepage_config(**overrides) -> SystemConfig:
    """Half the address space backed by 2 MB huge pages (fast geometry);
    works with any workload — the page tables splinter per region."""
    cfg = SystemConfig(name="hugepage", huge_fraction=0.5)
    return replace(cfg, **overrides) if overrides else cfg


def leeway_config(**overrides) -> SystemConfig:
    """Leeway at both levels (fast geometry): variability-aware
    live-distance-percentile bypass on the LLT and the LLC."""
    cfg = SystemConfig(
        name="leeway",
        tlb_predictor=TLB_PRED_LEEWAY,
        llc_predictor=LLC_PRED_LEEWAY,
    )
    return replace(cfg, **overrides) if overrides else cfg


def perceptron_config(**overrides) -> SystemConfig:
    """Hashed-perceptron bypass at both levels (fast geometry)."""
    cfg = SystemConfig(
        name="perceptron",
        tlb_predictor=TLB_PRED_PERCEPTRON,
        llc_predictor=LLC_PRED_PERCEPTRON,
    )
    return replace(cfg, **overrides) if overrides else cfg


def iso_storage_config(base: SystemConfig) -> SystemConfig:
    """The Figure 9 "iso-storage" LLT: the baseline L2 TLB grown by one way
    (+12.5 % entries), slightly *more* extra storage than dpPred costs."""
    grown = TlbGeometry(
        entries=base.l2_tlb.entries + base.l2_tlb.entries // 8,
        assoc=base.l2_tlb.assoc + 1,
        latency=base.l2_tlb.latency,
    )
    return replace(base, l2_tlb=grown, tlb_predictor=TLB_PRED_NONE)


def scale_llt(base: SystemConfig, entries: int) -> SystemConfig:
    """Resize the L2 TLB, keeping associativity where the set count stays a
    power of two (Figure 11a sweeps). 1536-style "x1.5" sizes switch to
    12-way — the paper's 1536-entry LLT point likewise cannot keep 8 ways
    over a power-of-two set count."""
    from repro.common.bitops import is_power_of_two

    assoc = base.l2_tlb.assoc
    if entries % assoc != 0 or not is_power_of_two(entries // assoc):
        assoc = 12
        if entries % assoc != 0 or not is_power_of_two(entries // assoc):
            raise ValueError(
                f"cannot arrange {entries} LLT entries into power-of-two sets"
            )
    return replace(
        base,
        l2_tlb=TlbGeometry(entries, assoc, base.l2_tlb.latency),
    )


def scale_llc(base: SystemConfig, factor: float) -> SystemConfig:
    """Grow the LLC by ``factor`` via associativity (Figure 11e's 2->3 MB
    step is 16->24 ways at constant sets; bHIST stays at its default size,
    as in the paper)."""
    new_assoc = max(1, round(base.llc.assoc * factor))
    return replace(
        base,
        llc=CacheGeometry(base.llc.num_sets, new_assoc, base.llc.latency),
    )
