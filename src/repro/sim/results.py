"""Simulation results: the metrics every experiment consumes."""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, replace
from typing import Dict, Optional

from repro.common.residency import ResidencySummary


def wire_bytes(data: dict) -> bytes:
    """Canonical byte encoding of a JSON-safe payload dict.

    Sorted keys and fixed separators make the encoding a pure function of
    the data: two equal payloads always serialise to identical bytes.
    This is the transport form the serve subsystem puts on the wire, and
    the form the byte-identity contract (served result == CLI result) is
    asserted over.
    """
    return json.dumps(
        data, sort_keys=True, separators=(",", ":")
    ).encode()


@dataclass
class SimResult:
    """Outcome of one workload x configuration simulation run."""

    workload: str
    config_name: str
    instructions: int = 0
    cycles: float = 0.0
    # LLT (L2 TLB)
    llt_hits: int = 0
    llt_misses: int = 0          # misses that triggered a page walk
    llt_shadow_hits: int = 0     # misses served by dpPred's victim buffer
    llt_bypasses: int = 0
    # LLC
    llc_hits: int = 0
    llc_misses: int = 0
    llc_bypasses: int = 0
    mem_accesses: int = 0
    walk_cycles: int = 0
    walks: int = 0
    # Ground-truth prediction quality (None when not tracked / no events)
    tlb_accuracy: Optional[float] = None
    tlb_coverage: Optional[float] = None
    llc_accuracy: Optional[float] = None
    llc_coverage: Optional[float] = None
    # Deadness characterisation (None when not tracked)
    llt_residency: Optional[ResidencySummary] = None
    llc_residency: Optional[ResidencySummary] = None
    # Table III correlation (None when not tracked)
    doa_blocks_on_doa_page: int = 0
    doa_blocks_classified: int = 0
    # Raw per-structure counters for debugging / extra analyses
    raw: Dict[str, Dict[str, int]] = field(default_factory=dict)

    # ------------------------------------------------------------------ #
    # Derived metrics
    # ------------------------------------------------------------------ #
    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    @property
    def llt_mpki(self) -> float:
        if not self.instructions:
            return 0.0
        return 1000.0 * self.llt_misses / self.instructions

    @property
    def llc_mpki(self) -> float:
        if not self.instructions:
            return 0.0
        return 1000.0 * self.llc_misses / self.instructions

    @property
    def avg_walk_latency(self) -> float:
        return self.walk_cycles / self.walks if self.walks else 0.0

    @property
    def doa_block_on_doa_page_fraction(self) -> float:
        """Table III: share of DOA LLC blocks that fell on a DOA page."""
        if not self.doa_blocks_classified:
            return 0.0
        return self.doa_blocks_on_doa_page / self.doa_blocks_classified

    def speedup_over(self, baseline: "SimResult") -> float:
        """Normalized IPC relative to ``baseline`` (Figures 9-11)."""
        if baseline.ipc == 0:
            return 0.0
        return self.ipc / baseline.ipc

    def metrics(self) -> Dict[str, Optional[float]]:
        """The headline scalar metrics, by name.

        This is the flat view the observability subsystem consumes
        (baseline gate, run manifests); ``None`` marks metrics the run did
        not track (accuracy/coverage without ``track_reference``).
        """
        return {
            "ipc": self.ipc,
            "llt_mpki": self.llt_mpki,
            "llc_mpki": self.llc_mpki,
            "avg_walk_latency": self.avg_walk_latency,
            "tlb_accuracy": self.tlb_accuracy,
            "tlb_coverage": self.tlb_coverage,
            "llc_accuracy": self.llc_accuracy,
            "llc_coverage": self.llc_coverage,
        }

    def merge(self, other: "SimResult") -> "SimResult":
        """Combine two runs' aggregates into a new :class:`SimResult`.

        Counts and cycles add; ratio metrics (accuracy/coverage) are
        weighted by each side's instruction count, staying ``None`` only
        when neither side tracked them; residency summaries add field-wise
        when both sides tracked residency. Used for multi-seed and
        sharded-trace aggregation, where per-run weighting by instructions
        is the right convention.
        """
        def label(a: str, b: str) -> str:
            return a if a == b else f"{a}+{b}"

        def weighted(a: Optional[float], b: Optional[float]) -> Optional[float]:
            if a is None:
                return b
            if b is None:
                return a
            total = self.instructions + other.instructions
            if not total:
                # Two empty intervals carry no weights; fall back to the
                # unweighted mean rather than inventing a 0.0 ratio.
                return (a + b) / 2
            return (
                a * self.instructions + b * other.instructions
            ) / total

        residency = {}
        for side in ("llt_residency", "llc_residency"):
            mine, theirs = getattr(self, side), getattr(other, side)
            if mine is None or theirs is None:
                # Copy the surviving summary: the merged result must not
                # alias (and later mutate) either input's residency.
                kept = mine if theirs is None else theirs
                residency[side] = replace(kept) if kept is not None else None
            else:
                residency[side] = ResidencySummary(**{
                    f.name: getattr(mine, f.name) + getattr(theirs, f.name)
                    for f in fields(ResidencySummary)
                })

        raw: Dict[str, Dict[str, int]] = {}
        for source in (self.raw, other.raw):
            for structure, counters in source.items():
                bag = raw.setdefault(structure, {})
                for name, value in counters.items():
                    bag[name] = bag.get(name, 0) + value

        return SimResult(
            workload=label(self.workload, other.workload),
            config_name=label(self.config_name, other.config_name),
            instructions=self.instructions + other.instructions,
            cycles=self.cycles + other.cycles,
            llt_hits=self.llt_hits + other.llt_hits,
            llt_misses=self.llt_misses + other.llt_misses,
            llt_shadow_hits=self.llt_shadow_hits + other.llt_shadow_hits,
            llt_bypasses=self.llt_bypasses + other.llt_bypasses,
            llc_hits=self.llc_hits + other.llc_hits,
            llc_misses=self.llc_misses + other.llc_misses,
            llc_bypasses=self.llc_bypasses + other.llc_bypasses,
            mem_accesses=self.mem_accesses + other.mem_accesses,
            walk_cycles=self.walk_cycles + other.walk_cycles,
            walks=self.walks + other.walks,
            tlb_accuracy=weighted(self.tlb_accuracy, other.tlb_accuracy),
            tlb_coverage=weighted(self.tlb_coverage, other.tlb_coverage),
            llc_accuracy=weighted(self.llc_accuracy, other.llc_accuracy),
            llc_coverage=weighted(self.llc_coverage, other.llc_coverage),
            llt_residency=residency["llt_residency"],
            llc_residency=residency["llc_residency"],
            doa_blocks_on_doa_page=(
                self.doa_blocks_on_doa_page + other.doa_blocks_on_doa_page
            ),
            doa_blocks_classified=(
                self.doa_blocks_classified + other.doa_blocks_classified
            ),
            raw=raw,
        )

    # ------------------------------------------------------------------ #
    # Serialisation (disk cache, cross-process transfer checks)
    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict:
        """A JSON-safe dict losslessly round-trippable via :meth:`from_dict`.

        The ``raw`` counter dicts are emitted with sorted keys so the
        serialised form is byte-stable regardless of counter creation
        order (two equal results always serialise identically). The
        other fields hold scalars, or a residency summary of scalars, so
        a copy per field gives what ``dataclasses.asdict`` gives without
        its recursive deep copy.
        """
        data = {name: getattr(self, name) for name in _RESULT_FIELDS}
        for key in ("llt_residency", "llc_residency"):
            summary = data[key]
            if summary is not None:
                data[key] = {
                    name: getattr(summary, name) for name in _RESIDENCY_FIELDS
                }
        data["raw"] = {
            structure: dict(sorted(counters.items()))
            for structure, counters in sorted(self.raw.items())
        }
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "SimResult":
        """Rebuild a result produced by :meth:`to_dict`."""
        data = dict(data)
        for key in ("llt_residency", "llc_residency"):
            if data.get(key) is not None:
                data[key] = ResidencySummary(**data[key])
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown SimResult fields: {sorted(unknown)}")
        return cls(**data)

    def to_wire(self) -> bytes:
        """Byte-stable wire encoding (see :func:`wire_bytes`)."""
        return wire_bytes(self.to_dict())

    @classmethod
    def from_wire(cls, blob: bytes) -> "SimResult":
        """Rebuild a result from its :meth:`to_wire` bytes."""
        return cls.from_dict(json.loads(blob.decode()))

    def summary_line(self) -> str:
        return (
            f"{self.workload:12s} {self.config_name:22s} "
            f"IPC={self.ipc:6.3f} LLT-MPKI={self.llt_mpki:7.3f} "
            f"LLC-MPKI={self.llc_mpki:7.3f}"
        )


_RESULT_FIELDS = tuple(f.name for f in fields(SimResult))
_RESIDENCY_FIELDS = tuple(f.name for f in fields(ResidencySummary))
