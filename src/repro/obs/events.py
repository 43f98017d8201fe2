"""Bounded ring-buffer tracing of structured predictor decisions.

The paper's mechanisms are sequences of *decisions* — an LLT fill is
bypassed, a shadow-table entry is promoted back (misprediction, column
flush), a PFN is pushed into the LLC's PFQ, a block on a DOA page is
bypassed — and end-of-run aggregates cannot show how those decisions
cluster in time. :class:`EventTrace` records each decision as a compact
tuple ``(now, kind, *fields)`` in a bounded ring buffer (oldest events
drop first), cheap enough to leave on for whole runs.

Emission is via a *nullable probe*: structures hold ``probe = None`` by
default and guard every emission with ``if self.probe is not None`` —
one attribute load and identity test on decision paths (fills, misses,
evictions), and nothing at all on the per-access hot path. An
:class:`EventTrace` instance *is* the probe; there is no intermediate
dispatch object.

Event kinds and their payload field names are registered in
:data:`EVENT_FIELDS` so exporters can render self-describing JSONL.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterator, List, Tuple

# --------------------------------------------------------------------- #
# Event kinds (string constants keep the JSONL self-describing)
# --------------------------------------------------------------------- #
#: dpPred predicted DOA at LLT fill time; the translation bypassed the LLT.
EV_LLT_BYPASS = "llt_bypass"
#: dpPred predicted DOA but the config demotes instead of bypassing.
EV_LLT_DEMOTE = "llt_demote"
#: A bypassed translation was promoted into the shadow table.
EV_SHADOW_PROMOTE = "shadow_promote"
#: Shadow-table hit: detected misprediction; pHIST column flushed.
EV_SHADOW_HIT = "shadow_hit"
#: A shadow entry aged out unreferenced (the bypass went unpunished).
EV_SHADOW_EVICT = "shadow_evict"
#: dpPred forwarded a predicted-DOA PFN to the LLC (PFQ push).
EV_PFQ_PUSH = "pfq_push"
#: An LLC fill matched a PFQ entry (block lands on a predicted-DOA page).
EV_PFQ_HIT = "pfq_hit"
#: cbPred predicted DOA; the block bypassed the LLC.
EV_LLC_BYPASS = "llc_bypass"
#: cbPred allocated the block with its DP bit set (low confidence).
EV_LLC_MARK_DP = "llc_mark_dp"
#: Fill-time prediction resolved against eviction-time ground truth (LLT).
EV_LLT_VERDICT = "llt_verdict"
#: Fill-time prediction resolved against eviction-time ground truth (LLC).
EV_LLC_VERDICT = "llc_verdict"
#: A page walk completed (machine-level; rare enough to record each one).
EV_WALK = "walk"
#: The tenant scheduler switched address spaces (multi-tenant traces).
EV_CTX_SWITCH = "ctx_switch"
#: A TLB shootdown fired (scope: "page" / "asid" / "all").
EV_SHOOTDOWN = "shootdown"

# --------------------------------------------------------------------- #
# Harness (run-matrix resilience) event kinds — emitted by the executor
# and the disk cache into the process-wide trace in :mod:`repro.obs
# .harness`, not by simulated structures. ``now`` for these is a
# monotone sequence number, not a simulation timestamp.
# --------------------------------------------------------------------- #
#: A matrix cell failed and is being retried.
EV_RUN_RETRY = "run_retry"
#: A matrix cell exceeded its per-run wall-clock timeout.
EV_RUN_TIMEOUT = "run_timeout"
#: The worker pool died (a worker was killed) and was rebuilt.
EV_POOL_REBUILD = "pool_rebuild"
#: A ``.repro_cache/`` entry failed its integrity check and was quarantined.
EV_CACHE_CORRUPT = "cache_corrupt"
#: A :class:`~repro.sim.faults.FaultPlan` fault fired (test harness only).
EV_FAULT_INJECT = "fault_inject"
#: A duplicate in-flight computation was coalesced onto its leader
#: (matrix executor side of :mod:`repro.sim.inflight`).
EV_INFLIGHT_COALESCE = "inflight_coalesce"

# --------------------------------------------------------------------- #
# Serve (``repro.serve``) request-lifecycle event kinds — one event per
# request milestone, recorded into the process-wide harness trace so
# ``GET /status`` and the serve tests can audit exactly how each request
# was satisfied. ``now`` is the harness sequence number.
# --------------------------------------------------------------------- #
#: An HTTP request was accepted (any endpoint).
EV_SERVE_REQUEST = "serve_request"
#: A ``POST /run`` was answered straight from the result cache.
EV_SERVE_HIT = "serve_hit"
#: A ``POST /run`` missed and this request led the computation.
EV_SERVE_COMPUTE = "serve_compute"
#: A ``POST /run`` duplicated an in-flight computation and waited on it.
EV_SERVE_COALESCE = "serve_coalesce"
#: A timeline was streamed to a client as NDJSON chunks.
EV_SERVE_STREAM = "serve_stream"
#: Graceful shutdown began draining this many in-flight requests.
EV_SERVE_DRAIN = "serve_drain"

#: Payload field names per kind, in tuple order after ``(now, kind)``.
EVENT_FIELDS: Dict[str, Tuple[str, ...]] = {
    EV_LLT_BYPASS: ("vpn", "pfn"),
    EV_LLT_DEMOTE: ("vpn", "pfn"),
    EV_SHADOW_PROMOTE: ("vpn", "pfn"),
    EV_SHADOW_HIT: ("vpn", "pfn"),
    EV_SHADOW_EVICT: ("vpn",),
    EV_PFQ_PUSH: ("pfn",),
    EV_PFQ_HIT: ("block",),
    EV_LLC_BYPASS: ("block",),
    EV_LLC_MARK_DP: ("block",),
    EV_LLT_VERDICT: ("vpn", "predicted_doa", "actual_doa"),
    EV_LLC_VERDICT: ("block", "predicted_doa", "actual_doa"),
    EV_WALK: ("vpn", "latency"),
    EV_CTX_SWITCH: ("from_asid", "to_asid"),
    EV_SHOOTDOWN: ("asid", "scope"),
    EV_RUN_RETRY: ("workload", "config", "seed", "attempt", "reason"),
    EV_RUN_TIMEOUT: ("workload", "config", "seed", "attempt", "timeout_s"),
    EV_POOL_REBUILD: ("pending",),
    # Field names must not shadow the row-level "now"/"kind" keys.
    EV_CACHE_CORRUPT: ("store", "path", "reason"),
    EV_FAULT_INJECT: ("workload", "fault", "attempt"),
    EV_INFLIGHT_COALESCE: ("key",),
    EV_SERVE_REQUEST: ("method", "path"),
    EV_SERVE_HIT: ("key",),
    EV_SERVE_COMPUTE: ("key",),
    EV_SERVE_COALESCE: ("key",),
    EV_SERVE_STREAM: ("key", "rows"),
    EV_SERVE_DRAIN: ("pending",),
}


class EventTrace:
    """Bounded ring buffer of ``(now, kind, *fields)`` decision events.

    Structures treat an instance as their probe: ``probe.emit(now, kind,
    a, b)``. When the buffer is full the oldest events are dropped;
    :attr:`emitted` keeps the lifetime count so :meth:`dropped` reports
    how much history the window lost.
    """

    __slots__ = ("capacity", "emitted", "_buf")

    def __init__(self, capacity: int = 65536):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.emitted = 0
        self._buf: deque = deque(maxlen=capacity)

    def emit(self, now: int, kind: str, *fields) -> None:
        self.emitted += 1
        self._buf.append((now, kind) + fields)

    def __len__(self) -> int:
        return len(self._buf)

    def dropped(self) -> int:
        """Events lost to the ring bound (0 while under capacity)."""
        return self.emitted - len(self._buf)

    def events(self) -> List[tuple]:
        """The retained events, oldest first."""
        return list(self._buf)

    def counts(self) -> Dict[str, int]:
        """Retained events per kind (quick-look summary)."""
        out: Dict[str, int] = {}
        for event in self._buf:
            kind = event[1]
            out[kind] = out.get(kind, 0) + 1
        return out

    def rows(self) -> Iterator[dict]:
        """Self-describing dict per retained event (JSONL export form)."""
        for event in self._buf:
            now, kind = event[0], event[1]
            row = {"now": now, "kind": kind}
            names = EVENT_FIELDS.get(kind)
            if names is None:
                for i, value in enumerate(event[2:]):
                    row[f"f{i}"] = value
            else:
                row.update(zip(names, event[2:]))
            yield row

    # ------------------------------------------------------------------ #
    # Payload round-trip (cross-process transfer, JSON artifacts)
    # ------------------------------------------------------------------ #
    def to_payload(self) -> dict:
        return {
            "capacity": self.capacity,
            "emitted": self.emitted,
            "events": [list(event) for event in self._buf],
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "EventTrace":
        trace = cls(payload["capacity"])
        trace.emitted = payload["emitted"]
        trace._buf.extend(tuple(event) for event in payload["events"])
        return trace

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"EventTrace({len(self._buf)}/{self.capacity} retained, "
            f"{self.emitted} emitted)"
        )
