"""Tests for the parallel run-matrix executor (:mod:`repro.sim.parallel`)."""

import json

import pytest

import repro.sim.parallel as parallel
from repro.sim.config import fast_config
from repro.sim.parallel import (
    MatrixPlan,
    RunRequest,
    resolve_jobs,
    run_matrix,
    set_default_jobs,
)
from repro.sim.runner import cached_result, clear_run_cache
from repro.workloads import suite
from repro.workloads.suite import clear_trace_cache

BUDGET = 2000


def _requests():
    return [
        RunRequest(wl, cfg, BUDGET)
        for wl in ("mcf", "cg.B")
        for cfg in (fast_config(), fast_config(tlb_predictor="dppred"))
    ]


def _fingerprints(results):
    return {
        req: json.dumps(res.to_dict(), sort_keys=True)
        for req, res in results.items()
    }


class TestResolveJobs:
    def test_default_is_serial(self):
        assert resolve_jobs() == 1

    def test_env_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert resolve_jobs() == 3

    def test_env_must_be_integer(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "many")
        with pytest.raises(ValueError):
            resolve_jobs()

    def test_default_jobs_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        set_default_jobs(2)
        try:
            assert resolve_jobs() == 2
        finally:
            set_default_jobs(None)

    def test_argument_beats_everything(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        set_default_jobs(2)
        try:
            assert resolve_jobs(5) == 5
        finally:
            set_default_jobs(None)

    def test_clamped_to_at_least_one(self):
        assert resolve_jobs(0) == 1
        assert resolve_jobs(-4) == 1


class TestRunMatrix:
    def test_parallel_matches_serial_bit_for_bit(self):
        requests = _requests()
        clear_run_cache()
        clear_trace_cache()
        serial = run_matrix(requests, jobs=1)
        clear_run_cache()
        clear_trace_cache()
        parallel_results = run_matrix(requests, jobs=2)
        assert _fingerprints(serial) == _fingerprints(parallel_results)

    def test_duplicates_coalesce(self, monkeypatch):
        clear_run_cache()
        calls = []
        real = parallel.run_cached

        def counting(workload, config, budget, seed):
            calls.append(workload)
            return real(workload, config, budget, seed)

        monkeypatch.setattr(parallel, "run_cached", counting)
        req = RunRequest("mcf", fast_config(), BUDGET)
        results = run_matrix([req, req, req], jobs=1)
        assert len(results) == 1
        assert calls == ["mcf"]

    def test_cached_entries_never_resimulate(self, monkeypatch):
        requests = _requests()
        clear_run_cache()
        run_matrix(requests, jobs=1)

        def boom(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("simulated despite warm cache")

        monkeypatch.setattr(parallel, "run_cached", boom)
        replayed = run_matrix(requests, jobs=1)
        assert set(replayed) == set(requests)

    def test_results_primed_into_run_cache(self):
        req = RunRequest("mcf", fast_config(), BUDGET)
        clear_run_cache()
        results = run_matrix([req], jobs=1)
        hit = cached_result(req.workload, req.config, req.budget, req.seed)
        assert hit is results[req]


def record_dispatch(monkeypatch) -> list:
    """Log the parent's ``("publish", workload)`` and ``("submit",
    workload)`` steps, in order, while keeping their behaviour."""
    events = []
    real_publish = parallel._publish_traces
    real_next_attempt = parallel._Supervisor._next_attempt

    def publish(group, arena):
        events.append(("publish", group[0].workload))
        return real_publish(group, arena)

    def next_attempt(self, request):
        events.append(("submit", request.workload))
        return real_next_attempt(self, request)

    monkeypatch.setattr(parallel, "_publish_traces", publish)
    monkeypatch.setattr(parallel._Supervisor, "_next_attempt", next_attempt)
    return events


class TestPipelinedDispatch:
    """Traces are published one group at a time, overlapped with the
    simulation of the cells already submitted."""

    WORKLOADS = ("mcf", "cg.B", "lbm")

    def _requests(self):
        return [
            RunRequest(wl, cfg, BUDGET)
            for wl in self.WORKLOADS
            for cfg in (fast_config(), fast_config(tlb_predictor="dppred"))
        ]

    def _cold(self, requests, jobs):
        clear_run_cache()
        clear_trace_cache()
        return _fingerprints(run_matrix(requests, jobs=jobs))

    @pytest.mark.parametrize("shm", ["1", "0"])
    def test_bit_identical_across_jobs(self, monkeypatch, shm):
        monkeypatch.setenv("REPRO_SHM", shm)
        requests = self._requests()
        assert self._cold(requests, 1) == self._cold(requests, 2)

    def test_first_cell_submitted_before_last_trace_generated(
        self, monkeypatch
    ):
        events = record_dispatch(monkeypatch)
        self._cold(self._requests(), 2)
        publishes = [e for e in events if e[0] == "publish"]
        assert publishes == [("publish", wl) for wl in self.WORKLOADS]
        assert events[0] == ("publish", "mcf")
        assert events.index(("submit", "mcf")) < events.index(publishes[-1])

    def test_each_trace_generated_once_in_parent(self, monkeypatch):
        generated = []
        real_make = suite.make_workload

        def counting_make(name, seed=42):
            generated.append(name)
            return real_make(name, seed)

        monkeypatch.setattr(suite, "make_workload", counting_make)
        self._cold(self._requests(), 2)
        assert sorted(generated) == sorted(self.WORKLOADS)

    def test_no_publishing_without_shm(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHM", "0")
        events = record_dispatch(monkeypatch)
        self._cold(self._requests(), 2)
        assert [e for e in events if e[0] == "publish"] == []

    def test_group_by_trace_keeps_declared_order(self):
        a, b = fast_config(), fast_config(tlb_predictor="dppred")
        requests = [
            RunRequest("mcf", a, BUDGET), RunRequest("lbm", a, BUDGET),
            RunRequest("mcf", b, BUDGET), RunRequest("mcf", a, BUDGET, 7),
        ]
        assert parallel._group_by_trace(requests) == [
            [requests[0], requests[2]], [requests[1]], [requests[3]],
        ]


class TestMatrixPlan:
    def test_add_suite_cross_product(self):
        plan = MatrixPlan().add_suite(
            ["mcf", "cg.B"],
            [fast_config(), fast_config(tlb_predictor="dppred")],
            budget=BUDGET,
        )
        assert len(plan) == 4

    def test_execute_fills_run_cache(self):
        clear_run_cache()
        plan = MatrixPlan().add("mcf", fast_config(), budget=BUDGET)
        results = plan.execute(jobs=1)
        assert len(results) == 1
        req = plan.requests[0]
        assert cached_result(
            req.workload, req.config, req.budget, req.seed
        ) is not None
