"""Crash-injection tests for the fault-tolerant run-matrix executor.

Every scenario asserts the tentpole invariant: a sweep degraded by
injected worker kills, hangs, or cache corruption — possibly completed
across two invocations, the rerun skipping every cell the disk cache
already holds — produces ``SimResult.to_dict`` output byte-identical to
an uninterrupted run.
"""

import json

import pytest

import repro.obs.harness as obs_harness
import repro.sim.diskcache as diskcache
from repro.obs.events import (
    EV_FAULT_INJECT,
    EV_POOL_REBUILD,
    EV_RUN_RETRY,
    EV_RUN_TIMEOUT,
)
from repro.sim.config import fast_config, mix2_config
from repro.sim.faults import KILL, FaultPlan, FaultSpec, InjectedFault
from repro.sim.parallel import (
    MatrixError,
    RetryPolicy,
    RunRequest,
    resolve_retry,
    run_matrix,
)
import repro.sim.runner as runner
from repro.sim.runner import clear_run_cache
from repro.workloads.suite import clear_trace_cache

BUDGET = 2000


@pytest.fixture
def cache_dir(tmp_path):
    directory = tmp_path / "cache"
    diskcache.enable(directory)
    clear_run_cache()
    yield directory
    clear_run_cache()
    diskcache.disable()


def _requests():
    fast = fast_config()
    pred = fast_config(tlb_predictor="dppred")
    cells = [
        RunRequest(w, c, BUDGET, 42)
        for w in ("mcf", "cg.B")
        for c in (fast, pred)
    ]
    # A multi-tenant cell rides along: ASID-tagged traces and their
    # context switches must survive kills, hangs, corruption, and
    # reruns byte-identically, like every single-tenant cell.
    cells.append(RunRequest("mix2", mix2_config(), BUDGET, 42))
    return cells


def _fingerprints(requests, results):
    return [
        json.dumps(results[r].to_dict(), sort_keys=True) for r in requests
    ]


@pytest.fixture
def clean_fingerprints(cache_dir):
    """Byte-exact results of an unfaulted sweep (then caches wiped)."""
    requests = _requests()
    fps = _fingerprints(requests, run_matrix(requests))
    clear_run_cache()
    diskcache.purge()
    obs_harness.reset_harness()
    return fps


def _event_kinds():
    return [row["kind"] for row in obs_harness.harness_events().rows()]


NO_BACKOFF = RetryPolicy(backoff=0)


# --------------------------------------------------------------------- #
# Plans and policies
# --------------------------------------------------------------------- #
class TestFaultPlan:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            FaultSpec("explode", "mcf")
        with pytest.raises(ValueError):
            FaultSpec(KILL, "mcf", attempts=0)

    def test_matching_is_scoped_and_attempt_bounded(self):
        spec = FaultSpec(KILL, "mcf", config_name="fast", seed=42)
        assert spec.matches("mcf", "fast", 42, 1)
        assert not spec.matches("mcf", "fast", 42, 2)   # recovered
        assert not spec.matches("mcf", "fast", 7, 1)
        assert not spec.matches("cg.B", "fast", 42, 1)

    def test_random_plan_is_deterministic(self):
        cells = [("mcf", "fast", s) for s in range(20)]
        a = FaultPlan.random(cells, seed=5, rate=0.5)
        b = FaultPlan.random(cells, seed=5, rate=0.5)
        c = FaultPlan.random(cells, seed=6, rate=0.5)
        assert a == b
        assert a != c
        assert 0 < len(a.specs) < len(cells)

    def test_retry_policy_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(timeout=0)
        assert RetryPolicy(backoff=0.5).delay(3) == 0.5 * 2.0 ** 2

    def test_retry_policy_env_resolution(self, monkeypatch):
        monkeypatch.setenv("REPRO_RETRIES", "5")
        monkeypatch.setenv("REPRO_RUN_TIMEOUT", "12.5")
        monkeypatch.setenv("REPRO_BACKOFF", "0")
        policy = resolve_retry()
        assert policy.max_attempts == 5
        assert policy.timeout == 12.5
        assert policy.backoff == 0
        explicit = RetryPolicy(max_attempts=1)
        assert resolve_retry(explicit) is explicit


# --------------------------------------------------------------------- #
# Serial supervision
# --------------------------------------------------------------------- #
class TestSerialFaults:
    def test_kill_retries_to_identical_results(self, clean_fingerprints):
        requests = _requests()
        results = run_matrix(
            requests, retry=NO_BACKOFF, faults=FaultPlan.kill("mcf", hard=False)
        )
        assert _fingerprints(requests, results) == clean_fingerprints
        kinds = _event_kinds()
        assert EV_FAULT_INJECT in kinds
        assert EV_RUN_RETRY in kinds
        assert obs_harness.counters_snapshot()[EV_RUN_RETRY] == 2

    def test_corrupt_entry_is_detected_and_recomputed(
        self, cache_dir, clean_fingerprints
    ):
        requests = _requests()
        results = run_matrix(
            requests, retry=NO_BACKOFF,
            faults=FaultPlan.corrupt("mcf", seed=42),
        )
        assert _fingerprints(requests, results) == clean_fingerprints
        counters = obs_harness.counters_snapshot()
        assert counters["cache_corrupt"] == 2
        assert list(diskcache.quarantine_dir().iterdir())

    def test_exhausted_retries_raise_matrix_error(self, cache_dir):
        requests = _requests()
        fatal = FaultPlan.kill("cg.B", hard=False, attempts=99)
        with pytest.raises(MatrixError) as err:
            run_matrix(
                requests,
                retry=RetryPolicy(max_attempts=2, backoff=0),
                faults=fatal,
            )
        assert err.value.attempts == 2
        assert "cg.B" in str(err.value)

    def test_interrupt_then_resume_is_byte_identical(
        self, clean_fingerprints, monkeypatch
    ):
        """The acceptance criterion: kill a sweep partway, rerun it with
        no flag, and require byte-identical merged output with only the
        unfinished cells simulated."""
        requests = _requests()
        fatal = FaultPlan.kill("cg.B", hard=False, attempts=99)
        with pytest.raises(MatrixError):
            run_matrix(
                requests,
                retry=RetryPolicy(max_attempts=2, backoff=0),
                faults=fatal,
            )
        clear_run_cache()
        simulated = []
        real_run_trace = runner.run_trace

        def counting_run_trace(trace, config, *args, **kwargs):
            simulated.append(trace.name)
            return real_run_trace(trace, config, *args, **kwargs)

        monkeypatch.setattr(runner, "run_trace", counting_run_trace)
        resumed = run_matrix(requests, retry=NO_BACKOFF)
        assert _fingerprints(requests, resumed) == clean_fingerprints
        # mcf cells completed pre-crash and were read back, not re-run.
        assert simulated == ["cg.B", "cg.B", "mix2"]


# --------------------------------------------------------------------- #
# Pool supervision
# --------------------------------------------------------------------- #
class TestPoolFaults:
    def test_hard_kill_rebuilds_pool_and_recovers(self, clean_fingerprints):
        requests = _requests()
        results = run_matrix(
            requests, jobs=2, retry=NO_BACKOFF,
            faults=FaultPlan.kill("mcf", seed=42),  # hard: os._exit(87)
        )
        assert _fingerprints(requests, results) == clean_fingerprints
        kinds = _event_kinds()
        assert EV_POOL_REBUILD in kinds
        assert EV_RUN_RETRY in kinds

    def test_hard_kill_on_trace_published_after_pool_start(
        self, clean_fingerprints, monkeypatch, tmp_path
    ):
        """cg.B's trace is made in a worker once the pool runs and is
        published before its first cell is submitted. The workers that
        replace the killed one get it with their tasks, so it is
        generated once."""
        from tests.test_sim_parallel import count_generation, record_dispatch

        clear_trace_cache()
        generated = count_generation(monkeypatch, tmp_path / "gen.log")
        events = record_dispatch(monkeypatch)
        requests = _requests()
        results = run_matrix(
            requests, jobs=2, retry=NO_BACKOFF,
            faults=FaultPlan.kill("cg.B", seed=42),  # hard: os._exit(87)
        )
        assert _fingerprints(requests, results) == clean_fingerprints
        assert ("trace", "cg.B") in events
        assert events.index(("publish", "cg.B")) < events.index(
            ("submit", "cg.B")
        )
        assert [name for _, name in generated()].count("cg.B") == 1
        kinds = _event_kinds()
        assert EV_POOL_REBUILD in kinds
        assert EV_RUN_RETRY in kinds

    def test_hang_times_out_and_recovers(self, clean_fingerprints):
        requests = _requests()
        results = run_matrix(
            requests, jobs=2,
            retry=RetryPolicy(backoff=0, timeout=5.0),
            faults=FaultPlan.hang("cg.B", seconds=60.0, seed=42),
        )
        assert _fingerprints(requests, results) == clean_fingerprints
        kinds = _event_kinds()
        assert EV_RUN_TIMEOUT in kinds
        assert EV_POOL_REBUILD in kinds

    def test_resume_after_pool_crash_is_byte_identical(
        self, clean_fingerprints, monkeypatch
    ):
        from tests.test_sim_parallel import record_dispatch

        requests = _requests()
        fatal = FaultPlan.kill("cg.B", seed=42, attempts=99)
        with pytest.raises(MatrixError):
            run_matrix(
                requests, jobs=2,
                retry=RetryPolicy(max_attempts=2, backoff=0),
                faults=fatal,
            )
        clear_run_cache()
        stored = [
            req.workload for req in requests
            if diskcache.load_result(
                req.workload, req.config, req.budget, req.seed
            ) is not None
        ]
        # Cells are submitted in declared order, so a cg.B cell is only
        # submitted once an mcf cell has finished and freed its slot.
        assert "mcf" in stored
        clear_run_cache()
        events = record_dispatch(monkeypatch)
        resumed = run_matrix(requests, jobs=2, retry=NO_BACKOFF)
        assert _fingerprints(requests, resumed) == clean_fingerprints
        submitted = [wl for kind, wl in events if kind == "submit"]
        expected = [req.workload for req in requests]
        for workload in stored:
            expected.remove(workload)
        assert submitted == expected
