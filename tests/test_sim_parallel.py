"""Tests for the parallel run-matrix executor (:mod:`repro.sim.parallel`)."""

import functools
import gc
import json
import os
import time
import weakref

import pytest

import repro.obs.harness as obs_harness
import repro.sim.parallel as parallel
from repro.obs.events import EV_POOL_REBUILD
from repro.sim.config import fast_config
from repro.sim.parallel import (
    MatrixError,
    MatrixPlan,
    RetryPolicy,
    RunRequest,
    resolve_jobs,
    run_matrix,
    set_default_jobs,
)
from repro.sim.runner import cached_result, clear_run_cache
from repro.workloads import suite
from repro.workloads.suite import clear_trace_cache

BUDGET = 2000
NO_BACKOFF = RetryPolicy(backoff=0)


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
    """Log the parent's dispatch steps, in order, while keeping their
    behaviour: ``("trace", workload)`` when a group's trace task is
    submitted, ``("publish", workload)`` when its trace comes back, and
    ``("submit", workload)`` for each cell attempt."""
    events = []
    real_publish = parallel._publish_traces
    real_submit_trace = parallel._Supervisor._submit_trace
    real_next_attempt = parallel._Supervisor._next_attempt

    def publish(group, trace):
        events.append(("publish", group[0].workload))
        return real_publish(group, trace)

    def submit_trace(self, executor):
        events.append(("trace", self.groups[0][0].workload))
        return real_submit_trace(self, executor)

    def next_attempt(self, request):
        events.append(("submit", request.workload))
        return real_next_attempt(self, request)

    monkeypatch.setattr(parallel, "_publish_traces", publish)
    monkeypatch.setattr(parallel._Supervisor, "_submit_trace", submit_trace)
    monkeypatch.setattr(parallel._Supervisor, "_next_attempt", next_attempt)
    return events


def count_generation(monkeypatch, log, slow=()):
    """Make every trace generation append ``"<pid> <workload>"`` to the
    file ``log``, sleeping first for workloads in ``slow``. Install it
    before the pool forks: the forked workers inherit the patch. Returns
    a reader of the ``(pid, workload)`` pairs logged so far."""
    real_make = suite.make_workload

    def logging_make(name, seed=42):
        with open(log, "a") as out:
            out.write(f"{os.getpid()} {name}\n")
        if name in slow:
            time.sleep(0.3)
        return real_make(name, seed)

    monkeypatch.setattr(suite, "make_workload", logging_make)

    def generated():
        if not os.path.exists(log):
            return []
        with open(log) as lines:
            return [
                (int(pid), name)
                for pid, name in (line.split() for line in lines)
            ]

    return generated


def _exit_once_then_make(marker, key):
    """A trace task whose first call, across all workers, kills its
    worker (``marker`` is created by that call)."""
    try:
        os.close(os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
    except FileExistsError:
        return suite.get_trace(*key)
    os._exit(86)


class TestPipelinedDispatch:
    """Traces are made in the workers, as pool tasks sharing the window
    with cells; each cell carries its group's trace."""

    WORKLOADS = ("mcf", "cg.B", "lbm")

    def _requests(self, seed=42):
        return [
            RunRequest(wl, cfg, BUDGET, seed)
            for wl in self.WORKLOADS
            for cfg in (fast_config(), fast_config(tlb_predictor="dppred"))
        ]

    def _cold(self, requests, jobs, **kwargs):
        clear_run_cache()
        clear_trace_cache()
        return _fingerprints(run_matrix(requests, jobs=jobs, **kwargs))

    @pytest.mark.parametrize("seed", [0, 1])
    def test_bit_identical_across_jobs(self, seed):
        requests = self._requests(seed)
        assert self._cold(requests, 1) == self._cold(requests, 2)

    def test_first_cell_submitted_before_last_trace_generated(
        self, monkeypatch, tmp_path
    ):
        """Both workers start on trace tasks (mcf's and cg.B's). lbm's
        trace task waits until mcf's cells are submitted, and no cell is
        submitted before its group's trace is published. cg.B's trace is
        slowed down so that mcf's comes back first, and the window is two
        tasks wide whatever the host's core count."""
        monkeypatch.setattr(parallel.os, "cpu_count", lambda: 2)
        count_generation(monkeypatch, tmp_path / "gen.log", slow=("cg.B",))
        events = record_dispatch(monkeypatch)
        self._cold(self._requests(), 2)
        assert events[:2] == [("trace", "mcf"), ("trace", "cg.B")]
        traces = [wl for kind, wl in events if kind == "trace"]
        assert traces == list(self.WORKLOADS)
        last_mcf_submit = max(
            i for i, e in enumerate(events) if e == ("submit", "mcf")
        )
        assert last_mcf_submit < events.index(("trace", "lbm"))
        for wl in self.WORKLOADS:
            assert events.index(("publish", wl)) < events.index(
                ("submit", wl)
            )

    def test_each_trace_generated_once_in_parent(self, monkeypatch, tmp_path):
        """The name predates worker-side generation. Each trace is still
        generated exactly once, now in a worker: the parent never calls
        ``make_workload``."""
        generated = count_generation(monkeypatch, tmp_path / "gen.log")
        self._cold(self._requests(), 2)
        assert sorted(name for _, name in generated()) == sorted(
            self.WORKLOADS
        )
        assert os.getpid() not in {pid for pid, _ in generated()}

    def test_cold_matrix_under_timeout_matches_serial(self):
        """With a per-run timeout, the deadline sweep must cope with a
        window holding only trace tasks, which carry no deadline."""
        requests = self._requests()
        assert self._cold(requests, 1) == self._cold(
            requests, 2, retry=RetryPolicy(timeout=30)
        )

    def test_trace_task_worker_death_runs_group_uncarried(
        self, monkeypatch, tmp_path
    ):
        """The first trace task kills its worker. The pool is rebuilt,
        the group's cells run without a carried trace (their workers
        make it), and the results match a serial run byte for byte."""
        requests = self._requests()
        serial = self._cold(requests, 1)
        monkeypatch.setattr(
            parallel, "_make_trace",
            functools.partial(_exit_once_then_make, str(tmp_path / "died")),
        )
        uncarried = []
        real_submit_cell = parallel._Supervisor._submit_cell

        def submit_cell(self, executor):
            if self.carried.get(self.queue[0]) is None:
                uncarried.append(self.queue[0].workload)
            return real_submit_cell(self, executor)

        monkeypatch.setattr(parallel._Supervisor, "_submit_cell", submit_cell)
        assert self._cold(requests, 2, retry=NO_BACKOFF) == serial
        assert (tmp_path / "died").exists()
        assert uncarried
        assert EV_POOL_REBUILD in [
            row["kind"] for row in obs_harness.harness_events().rows()
        ]

    def test_unknown_workload_raises_matrix_error(self):
        """Its trace task fails, its cells run uncarried, and each one
        fails in its worker until the retry budget is gone."""
        requests = [
            RunRequest("no-such-workload", fast_config(), BUDGET),
            RunRequest("mcf", fast_config(), BUDGET),
        ]
        with pytest.raises(MatrixError, match="no-such-workload"):
            self._cold(
                requests, 2, retry=RetryPolicy(max_attempts=2, backoff=0)
            )

    def test_finished_groups_traces_are_freed(self, monkeypatch):
        """With the trace memo bounded to one trace, a group whose cells
        have completed leaves no reference to its trace in the parent,
        while later groups still run."""
        monkeypatch.setattr(suite, "TRACE_CACHE_MAX", 1)
        workloads = ("mcf", "cg.B", "lbm", "stream", "urandom")
        requests = [RunRequest(wl, fast_config(), BUDGET) for wl in workloads]
        refs = {}
        finished = []
        freed = []
        real_publish = parallel._publish_traces

        def publish(group, trace):
            gc.collect()
            memoised = list(refs)[-1] if refs else None
            for wl in finished:
                if wl != memoised:
                    assert refs[wl]() is None, f"{wl}'s trace outlived it"
                    freed.append(wl)
            refs[group[0].workload] = weakref.ref(trace)
            return real_publish(group, trace)

        monkeypatch.setattr(parallel, "_publish_traces", publish)
        clear_run_cache()
        clear_trace_cache()
        run_matrix(
            requests, jobs=2,
            progress=lambda label: finished.append(label.split(" @ ")[0]),
        )
        assert len(refs) == len(workloads)
        assert freed

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
