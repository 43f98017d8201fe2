"""Telemetry exporters: JSONL/CSV artifacts plus run manifests.

Every observed run exports a small, self-describing artifact set next to
the ``.repro_cache/`` results it corresponds to:

* ``<stem>.manifest.json`` — the run manifest: config name + content
  hash, seed, budget, cache schema version, wall time, peak RSS, and the
  headline metrics (:meth:`SimResult.metrics`);
* ``<stem>.timeline.csv`` / ``<stem>.timeline.jsonl`` — one row per
  sampling interval (instruction mark, per-interval deltas of every
  counter column, derived per-interval IPC and LLT/LLC MPKI);
* ``<stem>.events.jsonl`` — one decision event per line.

Stems are content-derived (``<workload>-<config digest>-b<budget>-
s<seed>``), so concurrent pool workers write disjoint files and a
directory of artifacts merges deterministically regardless of worker
scheduling. Writes go through temp-file + rename, mirroring
:mod:`repro.sim.diskcache`.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import sys
import tempfile
import time
from pathlib import Path
from typing import Iterable, Optional

from repro.obs.telemetry import Telemetry

try:  # Unix; absent on some platforms, in which case peak RSS is None.
    import resource
except ImportError:  # pragma: no cover - platform-dependent
    resource = None


def config_digest(config) -> str:
    """Content hash of a frozen :class:`SystemConfig` (its repr covers
    every field, nested dataclasses included)."""
    return hashlib.sha256(repr(config).encode()).hexdigest()


def peak_rss_bytes() -> Optional[int]:
    """Peak resident set size of this process, or None when unavailable.

    ``ru_maxrss`` is kilobytes on Linux and bytes on macOS.
    """
    if resource is None:  # pragma: no cover - platform-dependent
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - platform-dependent
        return peak
    return peak * 1024


def _write_atomic(path: Path, payload: bytes) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_jsonl(path, rows: Iterable[dict]) -> Path:
    """Write dict rows as JSON Lines (sorted keys: byte-stable output)."""
    path = Path(path)
    lines = [json.dumps(row, sort_keys=True) for row in rows]
    _write_atomic(path, ("\n".join(lines) + "\n").encode())
    return path


def ndjson_line(row: dict) -> bytes:
    """One NDJSON line (sorted keys: byte-stable streams).

    The serve subsystem streams timelines to clients chunk-by-chunk in
    exactly this encoding, so a streamed timeline concatenates to the
    same bytes :func:`write_jsonl` would have written.
    """
    return (json.dumps(row, sort_keys=True) + "\n").encode()


def stream_timeline_rows(timeline) -> Iterable[dict]:
    """Request-stream form of a timeline: :func:`timeline_rows` tagged
    with ``kind`` markers so NDJSON consumers can route rows without
    positional knowledge."""
    for row in timeline_rows(timeline):
        yield {"kind": "interval", **row}


# --------------------------------------------------------------------- #
# Timeline
# --------------------------------------------------------------------- #
def timeline_rows(timeline) -> Iterable[dict]:
    """Per-interval rows with derived rate metrics appended.

    ``ipc``, ``llt_mpki`` and ``llc_mpki`` are computed from the interval
    *deltas*, so each row is that interval's own behaviour, not a running
    average — the whole point of the timeline.
    """
    for row in timeline.rows():
        n = row["instructions"]
        c = row["cycles"]
        row["ipc"] = n / c if c else 0.0
        row["llt_mpki"] = 1000.0 * row.get("llt.misses", 0) / n if n else 0.0
        row["llc_mpki"] = 1000.0 * row.get("llc.misses", 0) / n if n else 0.0
        yield row


def write_timeline_jsonl(path, timeline) -> Path:
    return write_jsonl(path, timeline_rows(timeline))


def write_timeline_csv(path, timeline) -> Path:
    """Columnar CSV of the timeline (one column per counter, sorted)."""
    path = Path(path)
    rows = list(timeline_rows(timeline))
    if not rows:
        _write_atomic(path, b"")
        return path
    fieldnames = ["mark", "instructions", "cycles", "ipc",
                  "llt_mpki", "llc_mpki"]
    fieldnames += sorted(k for k in rows[0] if k not in fieldnames)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as f:
            writer = csv.DictWriter(f, fieldnames=fieldnames)
            writer.writeheader()
            writer.writerows(rows)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return path


# --------------------------------------------------------------------- #
# Events
# --------------------------------------------------------------------- #
def write_events_jsonl(path, events) -> Path:
    """One decision event per line, self-describing field names."""
    return write_jsonl(path, events.rows())


# --------------------------------------------------------------------- #
# Run manifest + full-run export
# --------------------------------------------------------------------- #
def run_manifest(
    *,
    workload: str,
    config,
    budget: int,
    seed: int,
    result=None,
    telemetry: Optional[Telemetry] = None,
    artifacts: Optional[dict] = None,
) -> dict:
    """The JSON-safe manifest describing one observed run."""
    # Imported here: export stays importable without the sim package.
    from repro.sim.diskcache import CACHE_SCHEMA_VERSION

    from repro.obs import harness as obs_harness

    manifest = {
        "schema": 1,
        "workload": workload,
        "config_name": getattr(config, "name", str(config)),
        "config_digest": config_digest(config),
        "budget": budget,
        "seed": seed,
        "cache_schema_version": CACHE_SCHEMA_VERSION,
        "created_unix": time.time(),
        "wall_time_s": telemetry.wall_time if telemetry else None,
        "peak_rss_bytes": peak_rss_bytes(),
        "python": sys.version.split()[0],
        # Per-kind harness counters (retries, timeouts, cache corruption,
        # pool rebuilds) accumulated so far in this process: a non-empty
        # value flags that this run's sweep needed fault recovery.
        "resilience": dict(sorted(obs_harness.counters_snapshot().items())),
    }
    if result is not None:
        manifest["metrics"] = result.metrics()
        manifest["instructions"] = result.instructions
    if telemetry is not None:
        manifest["telemetry"] = {
            "interval": telemetry.spec.interval,
            "intervals": len(telemetry.timeline) if telemetry.timeline else 0,
            "events_emitted": (
                telemetry.events.emitted if telemetry.events else 0
            ),
            "events_dropped": (
                telemetry.events.dropped() if telemetry.events else 0
            ),
        }
    if artifacts:
        manifest["artifacts"] = artifacts
    return manifest


def run_stem(workload: str, config, budget: int, seed: int) -> str:
    """Content-derived artifact filename stem for one run."""
    return f"{workload}-{config_digest(config)[:12]}-b{budget}-s{seed}"


def export_run(
    directory,
    *,
    workload: str,
    config,
    budget: int,
    seed: int,
    result=None,
    telemetry: Optional[Telemetry] = None,
) -> Path:
    """Write one run's full artifact set; returns the manifest path."""
    directory = Path(directory)
    stem = run_stem(workload, config, budget, seed)
    artifacts = {}
    if telemetry is not None and telemetry.timeline is not None:
        artifacts["timeline_csv"] = f"{stem}.timeline.csv"
        artifacts["timeline_jsonl"] = f"{stem}.timeline.jsonl"
        write_timeline_csv(
            directory / artifacts["timeline_csv"], telemetry.timeline
        )
        write_timeline_jsonl(
            directory / artifacts["timeline_jsonl"], telemetry.timeline
        )
    if telemetry is not None and telemetry.events is not None:
        artifacts["events_jsonl"] = f"{stem}.events.jsonl"
        write_events_jsonl(
            directory / artifacts["events_jsonl"], telemetry.events
        )
    manifest = run_manifest(
        workload=workload,
        config=config,
        budget=budget,
        seed=seed,
        result=result,
        telemetry=telemetry,
        artifacts=artifacts,
    )
    manifest_path = directory / f"{stem}.manifest.json"
    _write_atomic(
        manifest_path,
        json.dumps(manifest, indent=2, sort_keys=True).encode(),
    )
    return manifest_path


# --------------------------------------------------------------------- #
# Profile reports (the experiments CLI's --profile flag)
# --------------------------------------------------------------------- #
def profile_stats_top(profiler, top_n: int = 30) -> list:
    """Top-``top_n`` functions of a finished cProfile run, by cumulative
    time. JSON-safe rows, heaviest first."""
    import pstats

    stats = pstats.Stats(profiler)
    stats.sort_stats("cumulative")
    rows = []
    for func in stats.fcn_list[:top_n]:
        cc, nc, tt, ct, _callers = stats.stats[func]
        filename, lineno, name = func
        rows.append(
            {
                "function": f"{filename}:{lineno}({name})",
                "ncalls": nc,
                "primitive_calls": cc,
                "tottime_s": round(tt, 6),
                "cumtime_s": round(ct, 6),
            }
        )
    return rows


def write_profile_report(
    directory,
    *,
    experiment: str,
    rows: list,
    wall_time_s: Optional[float] = None,
    params: Optional[dict] = None,
) -> Path:
    """Persist one experiment's profile (manifest envelope + hot rows), so
    hot-path regressions are diagnosable from run artifacts alone."""
    payload = {
        "schema": 1,
        "kind": "profile",
        "experiment": experiment,
        "created_unix": time.time(),
        "python": sys.version.split()[0],
        "peak_rss_bytes": peak_rss_bytes(),
        "wall_time_s": wall_time_s,
        "params": params or {},
        "top_cumulative": rows,
    }
    path = Path(directory) / f"profile-{experiment}.json"
    _write_atomic(path, json.dumps(payload, indent=2, sort_keys=True).encode())
    return path


# --------------------------------------------------------------------- #
# Benchmark reports (machine-readable BENCH_*.json trajectories)
# --------------------------------------------------------------------- #
def write_benchmark_report(
    path, *, benchmark: str, measurements: dict, params: Optional[dict] = None
) -> Path:
    """Persist a benchmark's measurements wrapped in manifest metadata.

    Gives throughput benchmarks the same machine-readable envelope as
    run manifests, so successive ``BENCH_*.json`` files form a
    comparable trajectory (schema version, python, host memory state).
    """
    from repro.sim.diskcache import CACHE_SCHEMA_VERSION

    payload = {
        "schema": 1,
        "benchmark": benchmark,
        "cache_schema_version": CACHE_SCHEMA_VERSION,
        "created_unix": time.time(),
        "python": sys.version.split()[0],
        "peak_rss_bytes": peak_rss_bytes(),
        "params": params or {},
        "measurements": measurements,
    }
    path = Path(path)
    _write_atomic(path, json.dumps(payload, indent=2, sort_keys=True).encode())
    return path
