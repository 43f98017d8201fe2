"""Tests for the trace hand-off to pool workers.

A pool worker makes each trace (:func:`repro.sim.parallel._make_trace`),
and :func:`repro.sim.parallel._publish_traces` turns it into the
``(key, trace)`` pair each pooled cell carries; the cell's worker puts it
into its ordinary bounded trace memo (:func:`suite.remember_trace`).
"""

import numpy as np
import pytest

import repro.sim.parallel as parallel
from repro.sim.config import fast_config
from repro.workloads import suite
from repro.workloads.trace import Trace


@pytest.fixture(autouse=True)
def _clean_memo(monkeypatch):
    def no_generation(name, seed=42):  # pragma: no cover - must not run
        raise AssertionError(f"generated {name} despite a carried trace")

    monkeypatch.setattr(suite, "make_workload", no_generation)
    suite.clear_trace_cache()
    yield
    suite.clear_trace_cache()


def make_trace(n=100, name="locality"):
    return Trace(
        name,
        np.arange(n, dtype=np.uint64),
        np.arange(n, dtype=np.uint64) * 4096,
        (np.arange(n) % 2 == 0),
        np.full(n, 3, dtype=np.uint16),
    )


def test_registry_serves_get_trace_without_generation():
    trace = make_trace()
    suite.remember_trace("locality", 12345, 7, trace)
    assert suite.get_trace("locality", 12345, 7) is trace


def test_worker_cell_attaches_descriptor(monkeypatch):
    """A pool task puts its own trace into the worker's trace memo
    before the cell runs, so the cell's get_trace returns it without
    generating; the memo stays within its LRU bound."""

    def run_cell(request, attempt, faults, telemetry_spec, in_pool):
        return suite.get_trace(request.workload, request.budget, request.seed)

    monkeypatch.setattr(parallel, "_execute_cell", run_cell)
    monkeypatch.setattr(suite, "TRACE_CACHE_MAX", 2)
    trace = make_trace()
    for seed in range(3):
        request = parallel.RunRequest("locality", fast_config(), 77, seed)
        descriptor = (parallel._trace_key(request), trace)
        got = parallel._worker_cell((request, 1, None, None, descriptor))
        assert got is trace
        assert suite.trace_cache_size() == min(seed + 1, 2)


def test_make_trace_reads_the_workers_memo():
    trace = make_trace()
    suite.remember_trace("locality", 77, 3, trace)
    assert parallel._make_trace(("locality", 77, 3)) is trace


def test_publish_memoises_and_returns_the_carried_pair():
    request = parallel.RunRequest("locality", fast_config(), 77, 5)
    assert parallel._publish_traces([request], None) is None
    assert suite.trace_cache_size() == 0
    trace = make_trace()
    key = parallel._trace_key(request)
    assert parallel._publish_traces([request], trace) == (key, trace)
    assert suite.get_trace(*key) is trace
