"""Tests for the shared-memory trace transport."""

import numpy as np
import pytest

from repro.workloads import shm, suite
from repro.workloads.trace import Trace


@pytest.fixture(autouse=True)
def _clean_registry():
    yield
    suite.clear_shared_traces()
    shm.detach_all()


def make_trace(n=100, name="shmtest"):
    return Trace(
        name,
        np.arange(n, dtype=np.uint64),
        np.arange(n, dtype=np.uint64) * 4096,
        (np.arange(n) % 2 == 0),
        np.full(n, 3, dtype=np.uint16),
    )


def test_publish_attach_roundtrip():
    trace = make_trace()
    arena = shm.SharedTraceArena()
    try:
        descriptor = arena.publish(("shmtest", 100, 1), trace)
        attached = shm.attach_trace(descriptor)
        assert attached is not None
        assert attached.name == trace.name
        np.testing.assert_array_equal(attached.pcs, trace.pcs)
        np.testing.assert_array_equal(attached.vaddrs, trace.vaddrs)
        np.testing.assert_array_equal(attached.writes, trace.writes)
        np.testing.assert_array_equal(attached.gaps, trace.gaps)
        # The batched engine's eligibility check keys on exact dtypes.
        assert attached.pcs.dtype == np.uint64
        assert attached.writes.dtype == np.bool_
        assert not attached.pcs.flags.writeable
    finally:
        arena.close()


def test_attach_unknown_segment_returns_none():
    missing = {
        "shm": "psm_repro_does_not_exist",
        "key": ["x", 1, 1],
        "name": "x",
        "fields": [],
    }
    assert shm.attach_trace(missing) is None


def test_registry_serves_get_trace_without_generation():
    trace = make_trace(name="locality")
    suite.register_shared_trace("locality", 12345, 7, trace)
    suite.clear_trace_cache()
    assert suite.get_trace("locality", 12345, 7) is trace


def test_close_is_idempotent():
    arena = shm.SharedTraceArena()
    arena.publish(("shmtest", 50, 1), make_trace(50))
    arena.close()
    arena.close()
    assert arena.descriptors == []


def test_shm_enabled_env(monkeypatch):
    assert shm.shm_enabled()
    monkeypatch.setenv("REPRO_SHM", "0")
    assert not shm.shm_enabled()


def test_descriptor_is_json_safe():
    import json

    arena = shm.SharedTraceArena()
    try:
        descriptor = arena.publish(("shmtest", 10, 1), make_trace(10))
        json.dumps(descriptor)
    finally:
        arena.close()


def test_worker_cell_attaches_descriptor(monkeypatch):
    """A pool task attaches its own trace's descriptor before the cell
    runs, so the cell's get_trace maps the segment instead of generating."""
    import repro.sim.parallel as parallel
    from repro.sim.config import fast_config

    def run_cell(request, attempt, faults, telemetry_spec, in_pool):
        return suite.get_trace(request.workload, request.budget, request.seed)

    monkeypatch.setattr(parallel, "_execute_cell", run_cell)
    monkeypatch.setattr(parallel, "_attached_trace_keys", set())
    trace = make_trace(name="locality")
    arena = shm.SharedTraceArena()
    try:
        descriptor = arena.publish(("locality", 77, 5), trace)
        suite.clear_trace_cache()
        request = parallel.RunRequest("locality", fast_config(), 77, 5)
        got = parallel._worker_cell((request, 1, None, None, descriptor))
        np.testing.assert_array_equal(got.vaddrs, trace.vaddrs)
        assert not got.vaddrs.flags.writeable
    finally:
        arena.close()


def test_matrix_identical_with_and_without_shm(monkeypatch):
    """Pooled execution produces byte-identical results whether traces
    travel by shared memory or are regenerated per worker."""
    import json

    from repro.sim.config import fast_config
    from repro.sim.parallel import RunRequest, run_matrix
    from repro.sim.runner import clear_run_cache

    requests = [
        RunRequest(wl, fast_config(), 2000, 42)
        for wl in ("stream", "locality", "sssp")
    ]

    def execute():
        clear_run_cache()
        suite.clear_trace_cache()
        results = run_matrix(requests, jobs=2)
        return {
            req.workload: json.dumps(results[req].to_dict(), sort_keys=True)
            for req in requests
        }

    with_shm = execute()
    monkeypatch.setenv("REPRO_SHM", "0")
    without_shm = execute()
    assert with_shm == without_shm
