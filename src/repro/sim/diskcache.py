"""Persistent on-disk cache for simulation results and traces.

The in-process memo caches (:data:`repro.sim.runner._run_cache`,
:data:`repro.workloads.suite._trace_cache`) die with the process, so a
fresh ``python -m repro.experiments`` invocation re-simulates the same
LRU baseline for every figure. This module content-addresses

* :class:`~repro.sim.results.SimResult` by
  ``(config, workload, budget, seed, schema version)`` — stored as a
  checksummed JSON envelope around ``SimResult.to_dict``;
* :class:`~repro.workloads.trace.Trace` by
  ``(workload, budget, seed, schema version)`` — stored as ``.npz`` via
  the existing ``Trace.save``/``Trace.load`` plus a ``.sha256`` sidecar;

under a cache directory (default ``.repro_cache/``, override with the
``REPRO_CACHE_DIR`` environment variable), so repeated invocations skip
simulation and trace generation entirely.

The cache is *opt-in at the library level*: nothing is read or written
until :func:`enable` is called (the experiment CLI enables it unless
``--no-cache`` is passed; setting ``REPRO_CACHE_DIR`` enables it
everywhere). Keys are content hashes of the full frozen
:class:`~repro.sim.config.SystemConfig` repr, so any config field change
misses cleanly. :data:`CACHE_SCHEMA_VERSION` must be bumped whenever
simulator semantics change, invalidating all prior entries.

Integrity (schema 2): every entry carries a SHA-256 content checksum —
inside the JSON envelope for results, in a sidecar file for traces.
Loads verify the checksum; a truncated, bit-flipped, or torn entry is
*quarantined* (moved under ``quarantine/`` for post-mortem), surfaced as
an :data:`~repro.obs.events.EV_CACHE_CORRUPT` harness event, and
reported as a miss so the caller recomputes. A corrupt entry can cost a
re-simulation but can never replay a stale or mangled result.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import zipfile
import zlib
from contextlib import contextmanager
from pathlib import Path
from typing import Optional

try:  # POSIX advisory locks; Windows falls back to atomic-rename only.
    import fcntl
except ImportError:  # pragma: no cover - platform-dependent
    fcntl = None

from repro.obs import harness as obs_harness
from repro.obs.events import EV_CACHE_CORRUPT
from repro.sim.config import SystemConfig
from repro.sim.results import SimResult
from repro.workloads.trace import Trace

#: Bump on any change to simulator semantics or the on-disk layout; old
#: entries become unreachable (different key) rather than wrong.
#: 2: checksummed result envelopes + trace sidecars (fault-tolerant
#: executor); see :func:`migrate` for reclaiming schema-1 files.
CACHE_SCHEMA_VERSION = 2

#: Magic marker identifying a schema-2 result envelope.
RESULT_MAGIC = "repro-result"

#: Default cache directory (relative to the working directory).
DEFAULT_CACHE_DIR = ".repro_cache"

_enabled: bool = bool(os.environ.get("REPRO_CACHE_DIR"))
_cache_dir: Optional[Path] = None


# ---------------------------------------------------------------------- #
# Enable / disable / configure
# ---------------------------------------------------------------------- #
def enable(directory=None) -> Path:
    """Turn the disk cache on, optionally pinning its directory."""
    global _enabled, _cache_dir
    _enabled = True
    if directory is not None:
        _cache_dir = Path(directory)
    return cache_dir()


def disable() -> None:
    """Turn the disk cache off (existing files are left in place)."""
    global _enabled, _cache_dir
    _enabled = False
    _cache_dir = None


def is_enabled() -> bool:
    return _enabled


def cache_dir() -> Path:
    """The active cache directory (without creating it)."""
    if _cache_dir is not None:
        return _cache_dir
    return Path(os.environ.get("REPRO_CACHE_DIR", DEFAULT_CACHE_DIR))


# ---------------------------------------------------------------------- #
# Content addressing
# ---------------------------------------------------------------------- #
def result_key(
    workload: str, config: SystemConfig, budget: int, seed: int
) -> str:
    """Content hash identifying one simulation run.

    The frozen dataclass repr covers every config field (including nested
    geometry/timing dataclasses), so any parameter change changes the key.
    """
    text = (
        f"schema={CACHE_SCHEMA_VERSION}|workload={workload}|"
        f"budget={budget}|seed={seed}|config={config!r}"
    )
    return hashlib.sha256(text.encode()).hexdigest()


def trace_key(workload: str, budget: int, seed: int) -> str:
    """Content hash identifying one generated trace."""
    text = (
        f"schema={CACHE_SCHEMA_VERSION}|trace|workload={workload}|"
        f"budget={budget}|seed={seed}"
    )
    return hashlib.sha256(text.encode()).hexdigest()


def _result_path(key: str) -> Path:
    return cache_dir() / "results" / f"{key}.json"


def _trace_path(key: str) -> Path:
    return cache_dir() / "traces" / f"{key}.npz"


def _trace_sidecar(path: Path) -> Path:
    return path.with_suffix(".npz.sha256")


def _write_atomic(path: Path, write_fn) -> None:
    """Write via a temp file + rename so concurrent workers never observe
    a partially written entry (renames are atomic within a directory)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as f:
            write_fn(f)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


@contextmanager
def entry_lock(key: str):
    """Per-key advisory lock serialising publishers of one cache entry.

    Atomic rename already guarantees readers never see a torn envelope;
    this lock additionally serialises concurrent *writers* of the same
    key — two coalescing misses racing through ``store_result`` (server
    threads, pool workers, separate processes sharing one cache) take
    turns, and the loser sees the winner's file and skips its redundant
    republish. Lock files live under ``<cache>/locks/`` and are tiny and
    reusable; they are cleaned by :func:`purge`. No-op when the cache is
    disabled or the platform has no ``fcntl`` (atomic rename still keeps
    readers safe there).
    """
    if not _enabled or fcntl is None:
        yield
        return
    path = cache_dir() / "locks" / f"{key}.lock"
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as handle:
        fcntl.flock(handle, fcntl.LOCK_EX)
        try:
            yield
        finally:
            fcntl.flock(handle, fcntl.LOCK_UN)


# ---------------------------------------------------------------------- #
# Corruption handling
# ---------------------------------------------------------------------- #
def quarantine_dir() -> Path:
    return cache_dir() / "quarantine"


def _quarantine(path: Path, kind: str, reason: str) -> None:
    """Move a failed entry aside (never delete: post-mortem material) and
    surface the corruption as a harness event."""
    target = quarantine_dir() / path.name
    try:
        target.parent.mkdir(parents=True, exist_ok=True)
        os.replace(path, target)
    except OSError:
        # Racing workers may quarantine the same entry; losing the race
        # (or an unwritable cache) must not mask the corruption report.
        pass
    obs_harness.record(EV_CACHE_CORRUPT, kind, str(path), reason)


# ---------------------------------------------------------------------- #
# SimResult store
# ---------------------------------------------------------------------- #
def _result_payload_bytes(data: dict) -> bytes:
    """Canonical serialised form of a result payload (what is hashed)."""
    return json.dumps(data, sort_keys=True).encode()


def _load_payload(path: Path) -> Optional[dict]:
    """Integrity-checked payload dict of one result envelope, or None
    (quarantining the entry) on any failure."""
    try:
        with open(path, "rb") as f:
            envelope = json.loads(f.read().decode())
    except (ValueError, OSError):
        _quarantine(path, "result", "unparseable envelope")
        return None
    if not isinstance(envelope, dict) or envelope.get("magic") != RESULT_MAGIC:
        _quarantine(path, "result", "missing envelope magic")
        return None
    if envelope.get("schema") != CACHE_SCHEMA_VERSION:
        _quarantine(
            path, "result", f"schema {envelope.get('schema')!r} != "
            f"{CACHE_SCHEMA_VERSION}"
        )
        return None
    payload = envelope.get("payload")
    digest = hashlib.sha256(_result_payload_bytes(payload)).hexdigest()
    if digest != envelope.get("sha256"):
        _quarantine(path, "result", "payload checksum mismatch")
        return None
    return payload


def load_payload(key: str) -> Optional[dict]:
    """Fetch a stored result payload by raw content key (read-through
    lookup for the server's ``GET /result/<key>``), or None on miss,
    disabled cache, or a quarantined integrity failure."""
    if not _enabled:
        return None
    path = _result_path(key)
    if not path.exists():
        return None
    return _load_payload(path)


def load_result(
    workload: str, config: SystemConfig, budget: int, seed: int
) -> Optional[SimResult]:
    """Fetch a cached result, or None on miss / disabled cache.

    Entries failing any integrity check — unparseable, missing envelope
    fields, schema mismatch, checksum mismatch — are quarantined and
    reported as a miss so the caller recomputes.
    """
    if not _enabled:
        return None
    path = _result_path(result_key(workload, config, budget, seed))
    if not path.exists():
        return None
    payload = _load_payload(path)
    if payload is None:
        return None
    try:
        return SimResult.from_dict(payload)
    except (ValueError, TypeError):
        _quarantine(path, "result", "payload does not decode to SimResult")
        return None


def store_result(
    workload: str, config: SystemConfig, budget: int, seed: int,
    result: SimResult,
) -> None:
    """Persist a result inside a checksummed envelope (no-op when the
    cache is disabled).

    Publication is atomic (tmp file + rename) and serialised per key via
    :func:`entry_lock`; a writer that takes the lock and finds the entry
    already published — the other side of a coalesced miss got there
    first — skips its redundant rewrite (results are deterministic in
    their key, so the existing entry is byte-equal by contract).
    """
    if not _enabled:
        return
    key = result_key(workload, config, budget, seed)
    path = _result_path(key)
    with entry_lock(key):
        if path.exists():
            return
        data = result.to_dict()
        envelope = {
            "magic": RESULT_MAGIC,
            "schema": CACHE_SCHEMA_VERSION,
            "sha256": hashlib.sha256(_result_payload_bytes(data)).hexdigest(),
            "payload": data,
        }
        payload = json.dumps(envelope, sort_keys=True).encode()
        _write_atomic(path, lambda f: f.write(payload))


def tear_result_entry(
    workload: str, config: SystemConfig, budget: int, seed: int
) -> Optional[Path]:
    """Truncate a stored result mid-payload (fault injection only).

    Simulates the torn write a crash can leave behind *despite* the
    atomic-rename discipline (e.g. a power loss after rename but before
    the data blocks hit disk). Returns the damaged path, or None when
    there is nothing to damage.
    """
    if not _enabled:
        return None
    path = _result_path(result_key(workload, config, budget, seed))
    if not path.exists():
        return None
    size = path.stat().st_size
    with open(path, "r+b") as f:
        f.truncate(max(1, size // 2))
    return path


# ---------------------------------------------------------------------- #
# Trace store
# ---------------------------------------------------------------------- #
def _checked_trace(path: Path) -> Optional[Trace]:
    """The trace stored at ``path``, or None after quarantining it.

    The ``.npz`` bytes must match the ``.sha256`` sidecar written with
    them, and must decode to a :class:`Trace`: a sidecar hashed over
    damaged bytes matches them. A missing sidecar, a mismatch (which
    also drops the stale sidecar) or a failed decode quarantines the
    npz."""
    sidecar = _trace_sidecar(path)
    try:
        expected = sidecar.read_text().strip()
    except OSError:
        _quarantine(path, "trace", "missing checksum sidecar")
        return None
    try:
        actual = hashlib.sha256(path.read_bytes()).hexdigest()
    except OSError:
        actual = None
    if actual != expected:
        _quarantine(path, "trace", "npz checksum mismatch")
        try:
            sidecar.unlink()
        except OSError:
            pass
        return None
    try:
        return Trace.load(path)
    except (ValueError, OSError, KeyError, zipfile.BadZipFile, zlib.error):
        _quarantine(path, "trace", "npz does not decode to Trace")
        return None


def load_trace(workload: str, budget: int, seed: int) -> Optional[Trace]:
    """Fetch a cached trace, or None on miss / disabled cache / a
    quarantined integrity failure (see :func:`_checked_trace`)."""
    if not _enabled:
        return None
    path = _trace_path(trace_key(workload, budget, seed))
    if not path.exists():
        return None
    return _checked_trace(path)


def store_trace(workload: str, budget: int, seed: int, trace: Trace) -> None:
    """Persist a trace as .npz + checksum sidecar (no-op when disabled).

    The sidecar is written *after* the npz: a crash between the two
    leaves an npz without sidecar, which loads treat as corrupt — never
    an unverifiable entry."""
    if not _enabled:
        return
    key = trace_key(workload, budget, seed)
    path = _trace_path(key)
    with entry_lock(key):
        if path.exists() and _trace_sidecar(path).exists():
            return
        _write_atomic(path, trace.save)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        _write_atomic(
            _trace_sidecar(path), lambda f: f.write(digest.encode())
        )


# ---------------------------------------------------------------------- #
# Maintenance
# ---------------------------------------------------------------------- #
def purge() -> int:
    """Delete every cache entry (results, traces, sidecars, quarantined
    files, and the ``checkpoints/`` journals older versions wrote);
    returns the number of files removed."""
    removed = 0
    base = cache_dir()
    for sub in ("results", "traces", "checkpoints", "quarantine", "locks"):
        d = base / sub
        if not d.is_dir():
            continue
        for path in d.iterdir():
            if path.suffix in (".json", ".npz", ".sha256", ".jsonl", ".lock"):
                path.unlink()
                removed += 1
    return removed


def verify() -> dict:
    """Integrity-scan every entry in the active cache directory.

    Checks each result envelope, and each trace as :func:`load_trace`
    does (checksum and decode), without touching the in-process caches;
    corrupt entries are quarantined as a normal load would. Returns
    counts: ``{"results_ok", "results_bad", "traces_ok",
    "traces_bad"}``.
    """
    base = cache_dir()
    report = {"results_ok": 0, "results_bad": 0,
              "traces_ok": 0, "traces_bad": 0}
    results = base / "results"
    if results.is_dir():
        for path in sorted(results.glob("*.json")):
            ok = False
            try:
                envelope = json.loads(path.read_bytes().decode())
                payload = envelope.get("payload")
                ok = (
                    isinstance(envelope, dict)
                    and envelope.get("magic") == RESULT_MAGIC
                    and envelope.get("schema") == CACHE_SCHEMA_VERSION
                    and hashlib.sha256(
                        _result_payload_bytes(payload)
                    ).hexdigest() == envelope.get("sha256")
                )
            except (ValueError, OSError):
                ok = False
            if ok:
                report["results_ok"] += 1
            else:
                _quarantine(path, "result", "verify scan failure")
                report["results_bad"] += 1
    traces = base / "traces"
    if traces.is_dir():
        for path in sorted(traces.glob("*.npz")):
            if _checked_trace(path) is None:
                report["traces_bad"] += 1
            else:
                report["traces_ok"] += 1
    return report


def migrate() -> dict:
    """Reclaim space held by pre-schema-2 entries.

    Schema-1 files are keyed under schema-1 hashes, so after the bump
    they are unreachable (never *wrong* — just dead weight), and their
    raw-JSON layout carries no checksum to re-verify. They cannot be
    re-keyed in place (the key hashes the full config repr, which the
    stored payload does not contain), so migration means deletion: any
    ``results/*.json`` without a valid schema-2 envelope and any
    ``traces/*.npz`` without a sidecar is removed. Returns
    ``{"removed_results", "removed_traces"}``.
    """
    base = cache_dir()
    report = {"removed_results": 0, "removed_traces": 0}
    results = base / "results"
    if results.is_dir():
        for path in sorted(results.glob("*.json")):
            legacy = True
            try:
                envelope = json.loads(path.read_bytes().decode())
                legacy = not (
                    isinstance(envelope, dict)
                    and envelope.get("magic") == RESULT_MAGIC
                    and envelope.get("schema") == CACHE_SCHEMA_VERSION
                )
            except (ValueError, OSError):
                legacy = True
            if legacy:
                path.unlink()
                report["removed_results"] += 1
    traces = base / "traces"
    if traces.is_dir():
        for path in sorted(traces.glob("*.npz")):
            if not _trace_sidecar(path).exists():
                path.unlink()
                report["removed_traces"] += 1
    return report


def stats() -> dict:
    """Entry counts and on-disk footprint of the active cache directory."""
    base = cache_dir()
    out = {"dir": str(base), "results": 0, "traces": 0, "bytes": 0}
    entry_suffix = {"results": ".json", "traces": ".npz"}
    for sub in ("results", "traces"):
        d = base / sub
        if not d.is_dir():
            continue
        for path in d.iterdir():
            if path.is_file():
                # Sidecars contribute bytes but are not entries.
                if path.suffix == entry_suffix[sub]:
                    out[sub] += 1
                out["bytes"] += path.stat().st_size
    return out
