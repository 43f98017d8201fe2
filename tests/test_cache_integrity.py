"""Integrity tests for the checksummed on-disk cache (schema 2).

Every corruption mode — truncation, bit flips, payload tampering, schema
drift, a missing trace sidecar — must be *detected* (checksum/envelope
verification), *quarantined* (the damaged file moved aside for
post-mortem, surfaced as an ``cache_corrupt`` harness event), and
*recomputed* (the caller sees a miss, never a stale or mangled result).
"""

import hashlib
import json
import struct
import zipfile
import zlib

import numpy as np
import pytest

import repro.obs.harness as obs_harness
import repro.sim.diskcache as diskcache
from repro.sim.config import fast_config
from repro.sim.runner import clear_run_cache, run_cached
from repro.workloads.suite import get_trace
from repro.workloads.trace import Trace

BUDGET = 2000


@pytest.fixture
def cache_dir(tmp_path):
    directory = tmp_path / "cache"
    diskcache.enable(directory)
    clear_run_cache()
    yield directory
    clear_run_cache()
    diskcache.disable()


def _store_result(config=None):
    clear_run_cache()
    return run_cached("mcf", config or fast_config(), budget=BUDGET)


def _result_path(cache_dir, config):
    key = diskcache.result_key("mcf", config, BUDGET, 42)
    return cache_dir / "results" / f"{key}.json"


def _flip_byte(path, offset=-20):
    data = bytearray(path.read_bytes())
    data[offset] ^= 0xFF
    path.write_bytes(bytes(data))


def _corruption_events():
    return [
        row for row in obs_harness.harness_events().rows()
        if row["kind"] == "cache_corrupt"
    ]


class TestResultIntegrity:
    def test_truncated_entry_detected_and_quarantined(self, cache_dir):
        config = fast_config()
        _store_result(config)
        path = _result_path(cache_dir, config)
        size = path.stat().st_size
        with open(path, "r+b") as f:
            f.truncate(size // 2)
        assert diskcache.load_result("mcf", config, BUDGET, 42) is None
        assert not path.exists()
        assert (diskcache.quarantine_dir() / path.name).exists()
        (event,) = _corruption_events()
        assert event["store"] == "result"

    def test_bit_flip_in_payload_detected(self, cache_dir):
        config = fast_config()
        _store_result(config)
        path = _result_path(cache_dir, config)
        _flip_byte(path)
        assert diskcache.load_result("mcf", config, BUDGET, 42) is None
        assert _corruption_events()

    def test_tampered_payload_fails_checksum(self, cache_dir):
        """A mutated-but-parseable payload (checksum not recomputed) must
        not replay: only checksummed content is trusted."""
        config = fast_config()
        stored = _store_result(config)
        path = _result_path(cache_dir, config)
        envelope = json.loads(path.read_text())
        envelope["payload"]["cycles"] = stored.cycles + 1.0
        path.write_text(json.dumps(envelope, sort_keys=True))
        assert diskcache.load_result("mcf", config, BUDGET, 42) is None

    def test_schema_drift_quarantined(self, cache_dir):
        config = fast_config()
        _store_result(config)
        path = _result_path(cache_dir, config)
        envelope = json.loads(path.read_text())
        envelope["schema"] = diskcache.CACHE_SCHEMA_VERSION + 1
        path.write_text(json.dumps(envelope, sort_keys=True))
        assert diskcache.load_result("mcf", config, BUDGET, 42) is None
        assert _corruption_events()

    def test_corruption_recomputes_never_stale(self, cache_dir):
        """After corruption, a rerun recomputes the true result — and the
        repaired cache entry round-trips again."""
        config = fast_config()
        clean = _store_result(config)
        path = _result_path(cache_dir, config)
        _flip_byte(path)
        clear_run_cache()
        recomputed = run_cached("mcf", config, budget=BUDGET)
        assert recomputed.to_dict() == clean.to_dict()
        reloaded = diskcache.load_result("mcf", config, BUDGET, 42)
        assert reloaded is not None
        assert reloaded.to_dict() == clean.to_dict()


class TestTraceIntegrity:
    def _store_trace(self):
        trace = get_trace("mcf", BUDGET)
        diskcache.store_trace("mcf", BUDGET, 42, trace)
        key = diskcache.trace_key("mcf", BUDGET, 42)
        return trace, diskcache.cache_dir() / "traces" / f"{key}.npz"

    def test_round_trip_verifies(self, cache_dir):
        trace, _ = self._store_trace()
        loaded = diskcache.load_trace("mcf", BUDGET, 42)
        assert loaded is not None
        np.testing.assert_array_equal(loaded.vaddrs, trace.vaddrs)

    def test_bit_flip_detected(self, cache_dir):
        _, path = self._store_trace()
        _flip_byte(path, offset=len(path.read_bytes()) // 2)
        assert diskcache.load_trace("mcf", BUDGET, 42) is None
        (event,) = _corruption_events()
        assert event["store"] == "trace"
        assert (diskcache.quarantine_dir() / path.name).exists()

    def test_missing_sidecar_is_corrupt(self, cache_dir):
        _, path = self._store_trace()
        path.with_suffix(".npz.sha256").unlink()
        assert diskcache.load_trace("mcf", BUDGET, 42) is None
        assert _corruption_events()

    def test_stored_trace_round_trips_identical_arrays(self, cache_dir):
        trace, path = self._store_trace()
        with zipfile.ZipFile(path) as archive:
            members = archive.infolist()
        assert sorted(m.filename for m in members) == [
            "gaps.npy", "name.npy", "pcs.npy", "vaddrs.npy", "writes.npy",
        ]
        assert {m.compress_type for m in members} == {zipfile.ZIP_DEFLATED}
        loaded = diskcache.load_trace("mcf", BUDGET, 42)
        assert loaded.name == trace.name and loaded.asids is None
        for field in ("pcs", "vaddrs", "writes", "gaps"):
            got, expected = getattr(loaded, field), getattr(trace, field)
            assert got.dtype == expected.dtype
            np.testing.assert_array_equal(got, expected)

    def test_savez_compressed_entry_still_loads(self, cache_dir):
        """Entries written by ``np.savez_compressed`` (zlib level 6)
        before traces were stored at level 1 stay valid."""
        trace = get_trace("mcf", BUDGET)
        key = diskcache.trace_key("mcf", BUDGET, 42)
        path = cache_dir / "traces" / f"{key}.npz"
        path.parent.mkdir(parents=True)
        np.savez_compressed(
            path, name=np.asarray(trace.name), pcs=trace.pcs,
            vaddrs=trace.vaddrs, writes=trace.writes, gaps=trace.gaps,
        )
        path.with_suffix(".npz.sha256").write_text(
            hashlib.sha256(path.read_bytes()).hexdigest()
        )
        loaded = diskcache.load_trace("mcf", BUDGET, 42)
        assert loaded is not None and loaded.name == trace.name
        for field in ("pcs", "vaddrs", "writes", "gaps"):
            np.testing.assert_array_equal(
                getattr(loaded, field), getattr(trace, field)
            )
        assert not _corruption_events()

    def test_undecodable_member_quarantined(self, cache_dir):
        """A member whose deflate stream is invalid (its first block
        type set to the reserved 0b11) is quarantined even when the
        sidecar was hashed over the damaged bytes."""
        _, path = self._store_trace()
        data = bytearray(path.read_bytes())
        with zipfile.ZipFile(path) as archive:
            header = archive.getinfo("vaddrs.npy").header_offset
        name_len, extra_len = struct.unpack_from("<HH", data, header + 26)
        data[header + 30 + name_len + extra_len] = 0xFF
        path.write_bytes(bytes(data))
        path.with_suffix(".npz.sha256").write_text(
            hashlib.sha256(bytes(data)).hexdigest()
        )
        with pytest.raises(zlib.error):
            Trace.load(path)
        assert diskcache.load_trace("mcf", BUDGET, 42) is None
        assert (diskcache.quarantine_dir() / path.name).exists()

    @pytest.mark.parametrize("rehash", (False, True), ids=("stale", "rehashed"))
    def test_truncated_trace_quarantined(self, cache_dir, rehash):
        """A cut npz is quarantined whether its sidecar fails to match
        or (hashed after the cut) matches and the archive fails to
        decode."""
        _, path = self._store_trace()
        data = path.read_bytes()[: path.stat().st_size // 2]
        path.write_bytes(data)
        if rehash:
            path.with_suffix(".npz.sha256").write_text(
                hashlib.sha256(data).hexdigest()
            )
        assert diskcache.load_trace("mcf", BUDGET, 42) is None
        assert not path.exists()
        assert (diskcache.quarantine_dir() / path.name).exists()
        (event,) = _corruption_events()
        assert event["store"] == "trace"


class TestMaintenance:
    def test_verify_scans_and_quarantines(self, cache_dir):
        good_cfg = fast_config()
        bad_cfg = fast_config(tlb_predictor="dppred")
        _store_result(good_cfg)
        clear_run_cache()
        run_cached("mcf", bad_cfg, budget=BUDGET)
        _flip_byte(_result_path(cache_dir, bad_cfg))
        self_trace = get_trace("mcf", BUDGET)
        diskcache.store_trace("mcf", BUDGET, 42, self_trace)
        report = diskcache.verify()
        assert report == {
            "results_ok": 1, "results_bad": 1,
            "traces_ok": 1, "traces_bad": 0,
        }
        # The good entry still loads; the bad one is gone from the cache.
        assert diskcache.load_result("mcf", good_cfg, BUDGET, 42) is not None
        assert not _result_path(cache_dir, bad_cfg).exists()

    def test_verify_decodes_traces(self, cache_dir):
        """A trace cut short and re-hashed matches its sidecar but does
        not decode: ``verify`` counts it bad and quarantines it, as the
        next ``load_trace`` would."""
        diskcache.store_trace("mcf", BUDGET, 42, get_trace("mcf", BUDGET))
        diskcache.store_trace("bfs", BUDGET, 42, get_trace("bfs", BUDGET))
        key = diskcache.trace_key("mcf", BUDGET, 42)
        path = cache_dir / "traces" / f"{key}.npz"
        data = path.read_bytes()[:4000]
        path.write_bytes(data)
        path.with_suffix(".npz.sha256").write_text(
            hashlib.sha256(data).hexdigest()
        )
        report = diskcache.verify()
        assert report == {
            "results_ok": 0, "results_bad": 0,
            "traces_ok": 1, "traces_bad": 1,
        }
        assert not path.exists()
        assert (diskcache.quarantine_dir() / path.name).exists()
        (event,) = _corruption_events()
        assert event["store"] == "trace"
        assert diskcache.load_trace("bfs", BUDGET, 42) is not None

    def test_migrate_removes_legacy_entries(self, cache_dir):
        config = fast_config()
        kept = _store_result(config)
        results = cache_dir / "results"
        # A schema-1 entry: raw payload JSON, no envelope.
        (results / "legacy00.json").write_text(json.dumps(kept.to_dict()))
        traces = cache_dir / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        (traces / "legacy.npz").write_bytes(b"not really npz")
        report = diskcache.migrate()
        assert report == {"removed_results": 1, "removed_traces": 1}
        assert diskcache.load_result("mcf", config, BUDGET, 42) is not None

    def test_quarantine_preserves_damaged_bytes(self, cache_dir):
        config = fast_config()
        _store_result(config)
        path = _result_path(cache_dir, config)
        _flip_byte(path)
        damaged = path.read_bytes()
        diskcache.load_result("mcf", config, BUDGET, 42)
        assert (diskcache.quarantine_dir() / path.name).read_bytes() == damaged
