"""The traced run's wrappers and the per-layer metrics read from spans.

Every wrapper sits on a public entry point of one layer and is installed
from here, the benchmark's own file; the program itself is unchanged.
"""

from __future__ import annotations

import hashlib
from typing import Dict

import repro.sim.diskcache as diskcache
import repro.sim.parallel as parallel
from repro.sim.machine import Machine
from repro.sim.results import SimResult
from repro.workloads import suite as suite_mod

from benchcore import SpanRecorder, median_or_zero

#: Flat-tier decline reasons reported per workload: the ones the flat-tier
#: work on tenants, huge pages and registry predictors should remove.
DECLINE_REASONS = ("tenant", "hugepage", "predictor")


def _engine_attrs(span, args, result) -> None:
    machine, trace = args[0], args[1]
    stats = machine.engine_stats or {}
    records = len(trace)
    flat = stats.get("flat_records", 0)
    bulk = stats.get("bulk_records", 0)
    reason = stats.get("flat_reason")
    if reason is None and stats.get("fallback_reasons"):
        reason = next(iter(stats["fallback_reasons"]))
    span.attrs.update(
        records=records, flat=flat, bulk=bulk, scalar=records - flat - bulk,
        reason=reason,
        cell=hashlib.sha256(
            f"{trace.name}|{machine.config!r}".encode()
        ).hexdigest()[:16],
    )


def _wire_attrs(span, args, result) -> None:
    span.attrs["bytes"] = len(result)


def install(recorder: SpanRecorder) -> None:
    """Wrap each layer's entry points; undo with ``recorder.uninstall()``."""
    recorder.wrap(suite_mod, "get_trace", "workloads.get_trace")
    recorder.wrap(Machine, "__init__", "machine.build")
    recorder.wrap(Machine, "run", "engine.run", on_exit=_engine_attrs)
    recorder.wrap(Machine, "finalize", "machine.finalize")
    recorder.wrap(SimResult, "to_wire", "results.to_wire", on_exit=_wire_attrs)
    recorder.wrap(diskcache, "store_result", "diskcache.store")
    recorder.wrap(diskcache, "load_result", "diskcache.load")
    recorder.wrap(parallel, "run_matrix", "parallel.matrix")
    # Publishing generates any trace not yet memoised; those get_trace
    # calls are child spans, so publish self time is the copy alone.
    recorder.wrap(parallel, "_publish_traces", "shm.publish")


def generate_seconds(recorder: SpanRecorder, request: str) -> float:
    """Seconds of top-level trace generation in spans tagged ``request``
    (a mix's component traces are nested inside its own span)."""
    spans = [s for s in recorder.named("workloads.get_trace")
             if s.request == request]
    ids = {s.sid for s in spans}
    return sum(s.duration for s in spans if s.parent not in ids)


def span_metrics(recorder: SpanRecorder, since: int = 0) -> Dict[str, float]:
    """Per-layer times and engine-tier shares from spans ``since`` on."""

    def ms(name: str, self_time: bool = False) -> float:
        spans = recorder.named(name, since)
        if self_time:
            return 1e3 * median_or_zero(recorder.self_time(s) for s in spans)
        return 1e3 * median_or_zero(s.duration for s in spans)

    runs = recorder.named("engine.run", since)
    run_self = [recorder.self_time(s) for s in runs]
    records = sum(s.attrs["records"] for s in runs)
    metrics = {
        "machine.build_ms": ms("machine.build"),
        "machine.finalize_ms": ms("machine.finalize"),
        "engine.run_ms": 1e3 * median_or_zero(run_self),
        "engine.ns_per_rec": 1e9 * sum(run_self) / records if records else 0.0,
    }
    for tier in ("flat", "bulk", "scalar"):
        metrics[f"engine.{tier}_share"] = (
            sum(s.attrs[tier] for s in runs) / records if records else 0.0
        )
    for reason in DECLINE_REASONS:
        metrics[f"engine.declines.{reason}"] = len(
            {s.attrs["cell"] for s in runs if s.attrs["reason"] == reason}
        )
    wires = recorder.named("results.to_wire", since)
    metrics.update({
        "parallel.matrix_ms": ms("parallel.matrix"),
        "shm.publish_ms": ms("shm.publish", self_time=True),
        "results.to_wire_ms": ms("results.to_wire"),
        "results.wire_kb": median_or_zero(
            s.attrs["bytes"] / 1024.0 for s in wires
        ),
        "diskcache.store_ms": ms("diskcache.store"),
        "diskcache.load_ms": ms("diskcache.load"),
    })
    return metrics
