"""Parallel, fault-tolerant fan-out of simulation run matrices.

Every experiment reduces to a matrix of independent (workload, config,
budget, seed) simulations. :func:`run_matrix` executes such a matrix over
a :class:`~concurrent.futures.ProcessPoolExecutor` under a *supervisor*:
each cell is submitted individually, retried with exponential backoff
when its worker fails (:class:`RetryPolicy`), and bounded by a per-run
wall-clock timeout. Results are merged back in declared request order,
so a retried sweep is byte-identical to a clean one. Failures are
surfaced as :mod:`repro.obs.harness` events (``run_retry``,
``run_timeout``, ``pool_rebuild``).

The disk cache (:mod:`repro.sim.diskcache`) is the only checkpoint: the
parent stores every completed cell as it arrives, so rerunning an
interrupted sweep with the cache on simulates only the cells it is
missing, and the rerun's merged output is byte-identical.

Job count resolution, in priority order:

1. an explicit ``jobs=`` argument,
2. :func:`set_default_jobs` (the CLI's ``--jobs`` flag),
3. the ``REPRO_JOBS`` environment variable,
4. serial in-process execution (``1``).

Retry policy resolves the same way (argument, :func:`set_default_retry`
for the CLI's ``--retries``/``--run-timeout``/``--backoff`` flags, then
the ``REPRO_RETRIES`` / ``REPRO_RUN_TIMEOUT`` / ``REPRO_BACKOFF``
environment variables).

Workers are plain processes running :func:`repro.sim.runner.run_cached`,
so a worker that lands on a disk-cached entry skips simulation exactly
like the parent would; determinism is inherited from the simulator
(results are bit-identical across ``jobs=1`` and ``jobs=N``, and across
clean, retried, and rerun executions).

Traces are made in the workers too. The pending cells are grouped by
trace; each group's trace is a pool task of its own (:func:`_make_trace`),
submitted when a slot is free and no cell waits, so every worker starts
at once and the parent only dispatches, collects and stores. Each of the
group's cells then carries the trace to its worker, which keeps it in
its ordinary bounded trace memo
(:func:`repro.workloads.suite.remember_trace`); see
:meth:`_Supervisor.run_pool`, which also states the trade-off for pools
smaller than the core count.

Deterministic fault injection for tests goes through ``faults=`` — a
:class:`repro.sim.faults.FaultPlan` killing, hanging, or corrupting
chosen cells; see ``tests/test_sim_faults.py``.
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor
from concurrent.futures import wait as _futures_wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import repro.obs.harness as obs_harness
import repro.obs.telemetry as obs_telemetry
import repro.sim.diskcache as diskcache
import repro.sim.faults as faults_mod
from repro.obs.events import (
    EV_FAULT_INJECT,
    EV_INFLIGHT_COALESCE,
    EV_POOL_REBUILD,
    EV_RUN_RETRY,
    EV_RUN_TIMEOUT,
)
from repro.sim.inflight import global_inflight
from repro.sim.config import SystemConfig
from repro.sim.results import SimResult
from repro.sim.runner import (
    DEFAULT_SEED,
    cached_result,
    prime_run_cache,
    run_cached,
)
from repro.workloads import suite
from repro.workloads.suite import DEFAULT_BUDGET

_default_jobs: Optional[int] = None
_default_retry: Optional["RetryPolicy"] = None

#: True inside pool worker processes (set by the pool initializer); lets
#: injected kills hard-exit only where a supervisor is watching.
_in_pool_worker = False

#: Seconds a killed executor's manager thread gets to exit (it only has
#: to notice the dead workers and close its queues).
_MANAGER_EXIT_TIMEOUT_S = 5.0


@dataclass(frozen=True)
class RunRequest:
    """One cell of a run matrix. Hashable, so it can key result dicts."""

    workload: str
    config: SystemConfig
    budget: int = DEFAULT_BUDGET
    seed: int = DEFAULT_SEED


@dataclass(frozen=True)
class RetryPolicy:
    """How the supervisor treats a failing matrix cell.

    A cell is attempted up to ``max_attempts`` times; between attempts
    the supervisor sleeps ``backoff * backoff_factor**(attempt - 1)``
    seconds. ``timeout`` bounds one attempt's wall clock (pool mode
    only — a serial in-process run cannot be preempted); on expiry the
    hung worker pool is killed and rebuilt, and unaffected in-flight
    cells are resubmitted without losing an attempt.
    """

    max_attempts: int = 3
    backoff: float = 0.25
    backoff_factor: float = 2.0
    timeout: Optional[float] = None

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.backoff < 0 or self.backoff_factor < 1:
            raise ValueError("backoff must be >= 0 with factor >= 1")
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError(f"timeout must be positive, got {self.timeout}")

    def delay(self, attempt: int) -> float:
        """Backoff before re-running a cell that failed ``attempt``."""
        return self.backoff * self.backoff_factor ** (attempt - 1)


class MatrixError(RuntimeError):
    """A matrix cell exhausted its retry budget.

    With the disk cache on, completed cells up to the failure are
    stored, so rerunning the sweep only re-executes unfinished work.
    """

    def __init__(self, request: RunRequest, attempts: int, reason: str):
        self.request = request
        self.attempts = attempts
        self.reason = reason
        super().__init__(
            f"matrix cell {_label(request)} failed after {attempts} "
            f"attempt(s): {reason}"
        )


def set_default_jobs(jobs: Optional[int]) -> None:
    """Pin the process-wide default job count (the CLI's ``--jobs``)."""
    global _default_jobs
    _default_jobs = jobs


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Effective job count: argument > set_default_jobs > REPRO_JOBS > 1."""
    if jobs is not None:
        return max(1, jobs)
    if _default_jobs is not None:
        return max(1, _default_jobs)
    env = os.environ.get("REPRO_JOBS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ValueError(f"REPRO_JOBS must be an integer, got {env}")
    return 1


def set_default_retry(retry: Optional[RetryPolicy]) -> None:
    """Pin the process-wide retry policy (the CLI's resilience flags)."""
    global _default_retry
    _default_retry = retry


def _env_float(name: str) -> Optional[float]:
    raw = os.environ.get(name)
    if not raw:
        return None
    try:
        return float(raw)
    except ValueError:
        raise ValueError(f"{name} must be a number, got {raw!r}")


def resolve_retry(retry: Optional[RetryPolicy] = None) -> RetryPolicy:
    """Effective retry policy: argument > set_default_retry > env > default.

    Environment knobs: ``REPRO_RETRIES`` (max attempts),
    ``REPRO_RUN_TIMEOUT`` (seconds per attempt), ``REPRO_BACKOFF``
    (base seconds between attempts).
    """
    if retry is not None:
        return retry
    if _default_retry is not None:
        return _default_retry
    kwargs = {}
    env = os.environ.get("REPRO_RETRIES")
    if env:
        try:
            kwargs["max_attempts"] = max(1, int(env))
        except ValueError:
            raise ValueError(f"REPRO_RETRIES must be an integer, got {env!r}")
    timeout = _env_float("REPRO_RUN_TIMEOUT")
    if timeout is not None:
        kwargs["timeout"] = timeout
    backoff = _env_float("REPRO_BACKOFF")
    if backoff is not None:
        kwargs["backoff"] = backoff
    return RetryPolicy(**kwargs)


# ---------------------------------------------------------------------- #
# Worker side
# ---------------------------------------------------------------------- #
def _worker_init(cache_directory: Optional[str], obs_state=None) -> None:
    """Propagate the parent's disk-cache and auto-telemetry settings into
    pool workers (the fork start method would inherit them, but spawn
    would not), pre-import the simulator's lazily-loaded hot modules,
    and mark the process as a supervised worker."""
    global _in_pool_worker
    _in_pool_worker = True
    # Front-load the imports every cell would otherwise pay inside its
    # first (timed, supervised) run: Machine.run lazily imports the
    # batched engine, and the workload generators live behind their own
    # module boundary. Doing it here overlaps the cost across workers at
    # pool start instead of serialising it into the first wave of cells.
    import repro.sim.engine  # noqa: F401
    import repro.sim.machine  # noqa: F401
    import repro.workloads.suite  # noqa: F401

    if cache_directory is not None:
        diskcache.enable(cache_directory)
    else:
        diskcache.disable()
    obs_telemetry.set_auto_state(obs_state)


def _execute_cell(request, attempt, faults, telemetry_spec, in_pool):
    """Run one matrix cell (one retry attempt), faults applied.

    Returns ``(result, telemetry_payload_or_None)``.
    """
    spec = None
    if faults:
        spec = faults.spec_for(
            request.workload, request.config.name, request.seed, attempt
        )
        faults_mod.apply_pre_run(spec, in_pool)
    if telemetry_spec is None:
        result = run_cached(
            request.workload, request.config, request.budget, request.seed
        )
        payload = None
    else:
        telemetry = telemetry_spec.build()
        result = run_cached(
            request.workload,
            request.config,
            request.budget,
            request.seed,
            telemetry=telemetry,
        )
        payload = telemetry.to_payload()
    if spec is not None:
        faults_mod.apply_post_store(spec, request)
    return result, payload


def _worker_cell(args) -> tuple:
    """Pool task: put the cell's own trace (a ``(key, trace)`` pair, or
    ``None`` when the worker makes it itself) into this worker's trace
    memo, then run the cell."""
    request, attempt, faults, telemetry_spec, carried = args
    if carried is not None:
        key, trace = carried
        suite.remember_trace(*key, trace)
    return _execute_cell(
        request, attempt, faults, telemetry_spec, _in_pool_worker
    )


# ---------------------------------------------------------------------- #
# Warm worker pool
# ---------------------------------------------------------------------- #
def _kill_executor(executor: ProcessPoolExecutor) -> None:
    """Shut an executor down without waiting on possibly-hung workers."""
    processes = getattr(executor, "_processes", None) or {}
    # Taken before shutdown(), which drops the executor's reference.
    manager = getattr(executor, "_executor_manager_thread", None)
    for proc in list(processes.values()):
        try:
            proc.kill()
        except (OSError, ValueError, AttributeError):
            pass
    executor.shutdown(wait=False, cancel_futures=True)
    # Let the manager thread see the kills and exit before the caller
    # forks new workers. A fork while that thread holds the executor's
    # shutdown lock copies the lock, held, into each new worker, and a
    # worker that later garbage-collects the dead executor (exception
    # tracebacks keep it in reference cycles) waits on it forever.
    if manager is not None:
        manager.join(timeout=_MANAGER_EXIT_TIMEOUT_S)


class WarmPool:
    """A reusable handle on a warm, pre-initialised worker pool.

    ``run_matrix`` historically built and tore down a
    :class:`ProcessPoolExecutor` per call, so back-to-back matrix
    executions (and every server request) paid worker spawn plus the
    pre-import cost of :func:`_worker_init` each time. A ``WarmPool``
    decouples worker lifetime from matrix lifetime:

    * the executor is created lazily on first use and *kept alive* after
      a matrix finishes (idle-worker keepalive), so the next caller finds
      warm workers;
    * ``acquire()``/``release()`` refcount concurrent users — the pool
      only shuts down on an explicit :meth:`close` (or a ``release``
      with ``close_idle=True`` that drops the last reference);
    * :meth:`kill_workers` / :meth:`rebuild` give the supervisor the same
      crash/hang recovery it had with throwaway pools.

    Disk-cache and telemetry settings are captured at each executor
    (re)creation, so a pool built before ``diskcache.enable()`` picks the
    setting up on its next rebuild; :func:`shared_warm_pool` goes further
    and rebuilds automatically when the settings change. A matrix cell
    carries its trace (see :func:`_worker_cell`), so fresh, rebuilt and
    reused workers need not regenerate it.
    """

    def __init__(self, max_workers: Optional[int] = None):
        cores = os.cpu_count() or 1
        if max_workers is None:
            max_workers = cores
        self.max_workers = max(1, min(max_workers, cores))
        self._lock = threading.RLock()
        self._executor: Optional[ProcessPoolExecutor] = None
        self._settings: Optional[tuple] = None
        self._refs = 0
        self._closed = False

    @staticmethod
    def _current_settings() -> tuple:
        cache_directory = (
            str(diskcache.cache_dir()) if diskcache.is_enabled() else None
        )
        return (cache_directory, obs_telemetry.auto_state())

    def executor(self) -> ProcessPoolExecutor:
        """The live executor, created (warm) on first use."""
        with self._lock:
            if self._closed:
                raise RuntimeError("WarmPool is closed")
            if self._executor is None:
                self._settings = self._current_settings()
                self._executor = ProcessPoolExecutor(
                    max_workers=self.max_workers,
                    initializer=_worker_init,
                    initargs=self._settings,
                )
            return self._executor

    def matches_current_settings(self) -> bool:
        """Whether live workers were initialised under the caller's current
        disk-cache and telemetry settings (idle pools always match)."""
        with self._lock:
            return (
                self._executor is None
                or self._settings == self._current_settings()
            )

    def kill_workers(self) -> None:
        """Kill the executor (hang/crash recovery); the next
        :meth:`executor` call builds a fresh one."""
        with self._lock:
            if self._executor is not None:
                _kill_executor(self._executor)
                self._executor = None

    def rebuild(self) -> ProcessPoolExecutor:
        """Kill and immediately replace the executor."""
        with self._lock:
            self.kill_workers()
            return self.executor()

    @property
    def warm(self) -> bool:
        """True when worker processes are currently alive."""
        with self._lock:
            return self._executor is not None

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    def acquire(self) -> "WarmPool":
        with self._lock:
            if self._closed:
                raise RuntimeError("WarmPool is closed")
            self._refs += 1
            return self

    def release(self, close_idle: bool = False) -> None:
        """Drop one reference; with ``close_idle`` the last release shuts
        the pool down instead of keeping workers warm."""
        with self._lock:
            self._refs = max(0, self._refs - 1)
            if close_idle and self._refs == 0:
                self.close()

    def close(self) -> None:
        """Tear the pool down for good (idempotent)."""
        with self._lock:
            self.kill_workers()
            self._closed = True

    def describe(self) -> dict:
        with self._lock:
            return {
                "max_workers": self.max_workers,
                "warm": self._executor is not None,
                "refs": self._refs,
                "closed": self._closed,
            }


_shared_pool: Optional[WarmPool] = None
_shared_pool_lock = threading.Lock()


def shared_warm_pool(max_workers: Optional[int] = None) -> WarmPool:
    """The process-wide warm pool, (re)built on demand.

    Back-to-back ``run_matrix(pool=shared_warm_pool())`` calls — and the
    server, which holds one for its whole lifetime — reuse the same warm
    workers. The pool is replaced when the caller's disk-cache/telemetry
    settings no longer match the ones its workers were initialised with,
    or when a larger ``max_workers`` is requested.
    """
    global _shared_pool
    with _shared_pool_lock:
        want = max_workers if max_workers is not None else (os.cpu_count() or 1)
        pool = _shared_pool
        if pool is not None and (
            pool.closed
            or not pool.matches_current_settings()
            or pool.max_workers < min(want, os.cpu_count() or 1)
        ):
            pool.close()
            pool = None
        if pool is None:
            pool = _shared_pool = WarmPool(want)
        return pool


def close_shared_pool() -> None:
    """Shut down the process-wide warm pool (cleanup / test isolation)."""
    global _shared_pool
    with _shared_pool_lock:
        if _shared_pool is not None:
            _shared_pool.close()
            _shared_pool = None


# ---------------------------------------------------------------------- #
# Supervisor
# ---------------------------------------------------------------------- #
class _Supervisor:
    """Drives pending cells to completion under a retry policy."""

    def __init__(
        self,
        retry: RetryPolicy,
        faults,
        telemetry_spec,
        on_complete: Callable[[RunRequest, tuple], None],
    ):
        self.retry = retry
        self.faults = faults
        self.telemetry_spec = telemetry_spec
        self.on_complete = on_complete
        self.attempts: Dict[RunRequest, int] = {}
        # Pool state, shared by run_pool and its two recovery paths.
        self.groups: deque = deque()  # trace groups not yet started
        self.queue: deque = deque()  # cells ready to submit
        self.inflight: Dict[Future, tuple] = {}  # -> (request, deadline)
        self.tracing: Dict[Future, List[RunRequest]] = {}  # -> group
        self.carried: Dict[RunRequest, tuple] = {}  # -> (key, trace)

    # -- shared bookkeeping -------------------------------------------- #
    def _next_attempt(self, request: RunRequest) -> int:
        attempt = self.attempts.get(request, 0) + 1
        self.attempts[request] = attempt
        if self.faults:
            spec = self.faults.spec_for(
                request.workload, request.config.name, request.seed, attempt
            )
            if spec is not None:
                obs_harness.record(
                    EV_FAULT_INJECT, request.workload, spec.kind, attempt
                )
        return attempt

    def _failed(self, request: RunRequest, reason: str) -> None:
        """Account one failed attempt; raises when the budget is gone."""
        attempt = self.attempts[request]
        if attempt >= self.retry.max_attempts:
            raise MatrixError(request, attempt, reason)
        obs_harness.record(
            EV_RUN_RETRY,
            request.workload,
            request.config.name,
            request.seed,
            attempt,
            reason,
        )
        delay = self.retry.delay(attempt)
        if delay > 0:
            time.sleep(delay)

    # -- serial execution ---------------------------------------------- #
    def run_serial(self, pending: Sequence[RunRequest]) -> None:
        for request in pending:
            while True:
                attempt = self._next_attempt(request)
                try:
                    outcome = _execute_cell(
                        request, attempt, self.faults, self.telemetry_spec,
                        in_pool=False,
                    )
                except Exception as exc:
                    self._failed(request, f"{type(exc).__name__}: {exc}")
                    continue
                self.on_complete(request, outcome)
                break

    # -- pool execution ------------------------------------------------ #
    def run_pool(
        self,
        pending: Sequence[RunRequest],
        jobs: int,
        pool: Optional[WarmPool] = None,
    ) -> None:
        """Drive ``pending`` over a worker pool (transient, or a borrowed
        :class:`WarmPool`).

        Traces are made in the workers, as tasks of their own. The cells
        are grouped by trace key in declared order. Whenever a slot is
        free and no cell is queued, the next group's trace task
        (:func:`_make_trace`) is submitted, so every worker starts at
        once and this process only dispatches, collects and stores. A
        trace that comes back goes through :func:`_publish_traces`,
        which memoises and stores it here and returns the
        ``(key, trace)`` pair the group's cells carry. A trace task that
        returns no trace (it raised, or its worker died or was killed)
        queues its group's cells uncarried: each of their workers makes
        the trace itself, within the cells' own retry budget.

        Trace tasks and cells share the sliding window of ``max_workers``
        outstanding tasks, so the parent never runs more than
        ``max_workers`` groups ahead. Trace tasks carry no deadline; the
        per-run timeout bounds cells only. A cell's carried trace is
        dropped when the cell completes, so only the bounded trace memo
        keeps a trace past its cells.

        Trade-off: a trace takes a worker's slot. A pool smaller than
        the core count (``--jobs 2`` on an 8-core box, ``repro.serve
        --workers 1``) no longer makes traces on a spare core.
        """
        # Never oversubscribe the machine: workers beyond the real core
        # count only add scheduling and startup overhead (the requested
        # job count is an upper bound, not a demand).
        max_workers = min(jobs, len(pending), os.cpu_count() or 1)
        own_pool = pool is None
        if own_pool:
            pool = WarmPool(max_workers)
        else:
            pool.acquire()
            max_workers = min(max_workers, pool.max_workers)

        self.groups.extend(_group_by_trace(pending))
        queue, inflight, tracing = self.queue, self.inflight, self.tracing
        executor = pool.executor()
        try:
            while self.groups or queue or inflight or tracing:
                # Sliding window: at most max_workers outstanding, so a
                # submitted cell starts (nearly) immediately and its
                # deadline measures run time, not queueing time. Queued
                # cells go first; a trace task only when none waits.
                try:
                    while len(inflight) + len(tracing) < max_workers:
                        if queue:
                            self._submit_cell(executor)
                        elif self.groups:
                            self._submit_trace(executor)
                        else:
                            break
                except BrokenProcessPool:
                    # A worker died between the completion sweep and
                    # this submit; the task never ran and is back in
                    # line, so fall through to the rebuild path.
                    executor = self._rebuild_broken_pool(pool)
                    continue

                deadlines = [d for _, d in inflight.values() if d is not None]
                wait_for = (
                    max(0.0, min(deadlines) - time.monotonic())
                    if deadlines else None
                )
                done, _ = _futures_wait(
                    set(inflight) | set(tracing), timeout=wait_for,
                    return_when=FIRST_COMPLETED,
                )
                broken = False
                for future in done:
                    if isinstance(future.exception(), BrokenProcessPool):
                        # Left in flight: the rebuild accounts for it
                        # with every other in-flight task.
                        broken = True
                        break
                    if future in tracing:
                        self._publish(tracing.pop(future), _result_of(future))
                        continue
                    request, _deadline = inflight.pop(future)
                    try:
                        outcome = future.result()
                    except Exception as exc:
                        self._failed(request, f"{type(exc).__name__}: {exc}")
                        queue.append(request)
                    else:
                        self._complete(request, outcome)

                if broken:
                    executor = self._rebuild_broken_pool(pool)
                    continue

                # Per-run deadline sweep.
                if deadlines:
                    now = time.monotonic()
                    expired = [
                        future
                        for future, (req, deadline) in inflight.items()
                        if deadline is not None
                        and deadline <= now
                        and not future.done()
                    ]
                    if expired:
                        executor = self._handle_timeouts(pool, expired)
        finally:
            if own_pool:
                pool.close()
            else:
                # Borrowed pool: leave the workers warm for the next
                # matrix (that is the whole point of sharing it).
                pool.release()

    def _submit_cell(self, executor: ProcessPoolExecutor) -> None:
        """Submit the first queued cell with its carried trace, if any."""
        request = self.queue.popleft()
        attempt = self._next_attempt(request)
        deadline = (
            time.monotonic() + self.retry.timeout
            if self.retry.timeout is not None
            else None
        )
        try:
            future = executor.submit(
                _worker_cell,
                (request, attempt, self.faults, self.telemetry_spec,
                 self.carried.get(request)),
            )
        except BrokenProcessPool:
            # The cell never ran: refund its attempt.
            self.attempts[request] -= 1
            self.queue.appendleft(request)
            raise
        self.inflight[future] = (request, deadline)

    def _submit_trace(self, executor: ProcessPoolExecutor) -> None:
        """Start the next group: submit a task that makes its trace."""
        group = self.groups.popleft()
        try:
            future = executor.submit(_make_trace, _trace_key(group[0]))
        except BrokenProcessPool:
            self.groups.appendleft(group)
            raise
        self.tracing[future] = group

    def _publish(self, group: List[RunRequest], trace) -> None:
        """Queue ``group``'s cells, each carrying ``trace`` unless it is
        None (their workers then make it themselves)."""
        pair = _publish_traces(group, trace)
        if pair is not None:
            self.carried.update(dict.fromkeys(group, pair))
        self.queue.extend(group)

    def _complete(self, request: RunRequest, outcome: tuple) -> None:
        """A cell finished: report it and drop its carried trace (a
        retried cell keeps its own until it completes)."""
        self.carried.pop(request, None)
        self.on_complete(request, outcome)

    def _drain_traces(self) -> None:
        """After a pool kill, publish each in-flight trace task: its trace
        if it finished first, else none."""
        for future, group in self.tracing.items():
            self._publish(group, _result_of(future))
        self.tracing.clear()

    def _rebuild_broken_pool(self, pool: WarmPool) -> ProcessPoolExecutor:
        """A worker died hard (os._exit, OOM kill, segfault), so the pool
        is unusable; the breakage surfaces from ``submit`` or from a
        finished future. The culprit is indistinguishable from the
        victims, so each in-flight cell that did not finish cleanly is
        charged one attempt (bounded collateral; retries are cheap
        against the disk cache) and requeued. Cells that finished
        cleanly before the collapse keep their results; so do trace
        tasks, and an unfinished one queues its group uncarried."""
        obs_harness.record(
            EV_POOL_REBUILD, len(self.inflight) + len(self.tracing)
        )
        pool.kill_workers()
        self._drain_traces()
        for future, (request, _) in list(self.inflight.items()):
            if _succeeded(future):
                self._complete(request, future.result())
            else:
                self._failed(request, "worker process died")
                self.queue.append(request)
        self.inflight.clear()
        return pool.executor()

    def _handle_timeouts(
        self, pool: WarmPool, expired
    ) -> ProcessPoolExecutor:
        """A worker exceeded its per-run wall clock. Hung processes can
        only be stopped by killing them, which takes the pool down: the
        timed-out cells are charged an attempt, innocent in-flight cells
        are resubmitted with their attempt refunded, and trace tasks are
        drained as on a rebuild."""
        inflight = self.inflight
        for future in expired:
            request, _ = inflight[future]
            obs_harness.record(
                EV_RUN_TIMEOUT,
                request.workload,
                request.config.name,
                request.seed,
                self.attempts[request],
                self.retry.timeout,
            )
        obs_harness.record(EV_POOL_REBUILD, len(inflight) + len(self.tracing))
        pool.kill_workers()
        self._drain_traces()
        expired_set = set(expired)
        timed_out: List[RunRequest] = []
        for future, (request, _) in list(inflight.items()):
            if future in expired_set:
                timed_out.append(request)
            elif _succeeded(future):
                # Completed between the wait and the kill — keep it.
                self._complete(request, future.result())
            else:
                # Innocent casualty of the pool kill: refund the attempt
                # ( _next_attempt re-charges it on resubmission).
                self.attempts[request] -= 1
                self.queue.append(request)
        inflight.clear()
        for request in timed_out:
            self._failed(
                request,
                f"timed out after {self.retry.timeout:.3g}s",
            )
            self.queue.append(request)
        return pool.executor()


def _succeeded(future: Future) -> bool:
    """Whether ``future`` finished with a result (not an error, and not
    cancelled by a pool kill)."""
    return (
        future.done()
        and not future.cancelled()
        and future.exception() is None
    )


def _result_of(future: Future):
    """``future``'s result if it succeeded, else None."""
    return future.result() if _succeeded(future) else None


# ---------------------------------------------------------------------- #
# Matrix execution
# ---------------------------------------------------------------------- #
def run_matrix(
    requests: Sequence[RunRequest],
    jobs: Optional[int] = None,
    progress: Optional[Callable[[str], None]] = None,
    telemetry_spec=None,
    telemetry_out: Optional[Dict[RunRequest, dict]] = None,
    retry: Optional[RetryPolicy] = None,
    faults=None,
    pool: Optional[WarmPool] = None,
) -> Dict[RunRequest, SimResult]:
    """Execute a declared run matrix, parallelising cache misses.

    Duplicate requests are coalesced; requests already satisfied by the
    in-process cache or the disk cache never reach the pool. Cells
    another thread is *already computing* (a concurrent ``run_matrix``
    or a server request, via the process-wide
    :func:`repro.sim.inflight.global_inflight` registry) are likewise
    coalesced: this matrix waits for that in-flight result instead of
    re-simulating. Results are merged into the run cache (and stored on
    disk when the disk cache is on) so later ``run_cached`` calls hit,
    and the returned mapping is rebuilt in declared request order, so
    its serialised form is byte-stable regardless of completion order,
    retries, or reruns.

    ``telemetry_spec`` — optional :class:`repro.obs.TelemetrySpec`; every
    request is then simulated live (cached aggregates carry no dynamics)
    with its own bundle, and the JSON-safe payloads are merged into
    ``telemetry_out`` keyed by request. Cache skipping is disabled for
    such sweeps — a skipped cell would carry no dynamics — and so is
    in-flight coalescing (each caller needs its own dynamics).

    ``retry`` / ``faults`` — the resilience controls (see the module
    docstring). A cell that exhausts ``retry.max_attempts`` raises
    :class:`MatrixError`; with the disk cache on, the cells completed
    before it are stored, so rerunning the matrix skips them.

    ``pool`` — an optional :class:`WarmPool` to run worker cells on;
    the pool is borrowed (acquired/released, never torn down), so
    back-to-back matrix calls passing the same handle — e.g.
    ``shared_warm_pool()`` — reuse warm workers instead of paying spawn
    cost each time. Without it, a transient pool is built and closed as
    before.
    """
    unique: List[RunRequest] = list(dict.fromkeys(requests))
    retry = resolve_retry(retry)
    results: Dict[RunRequest, SimResult] = {}
    pending: List[RunRequest] = []

    if telemetry_spec is not None:
        telemetry_spec.validate()
        pending = unique
    else:
        for req in unique:
            hit = cached_result(
                req.workload, req.config, req.budget, req.seed
            )
            if hit is not None:
                prime_run_cache(
                    req.workload, req.config, req.budget, req.seed, hit,
                    persist=False,
                )
                results[req] = hit
            else:
                pending.append(req)

    # Cross-thread coalescing: claim each miss in the process-wide
    # in-flight registry. Cells another thread (a concurrent matrix, a
    # server request) is already computing become *followers* — this
    # matrix waits for their result after its own leaders finish, so a
    # duplicated sweep simulates each distinct cell exactly once
    # process-wide. Telemetry sweeps opt out (each needs own dynamics).
    registry = global_inflight()
    leaders: Dict[RunRequest, str] = {}
    followers: Dict[RunRequest, Future] = {}
    if telemetry_spec is None and pending:
        claimed: List[RunRequest] = []
        for req in pending:
            key = diskcache.result_key(
                req.workload, req.config, req.budget, req.seed
            )
            is_leader, future = registry.lead_or_follow(key)
            if is_leader:
                leaders[req] = key
                claimed.append(req)
            else:
                obs_harness.record(EV_INFLIGHT_COALESCE, key)
                followers[req] = future
        pending = claimed

    def on_complete(req: RunRequest, outcome: tuple) -> None:
        result, payload = outcome
        if payload is not None and telemetry_out is not None:
            telemetry_out[req] = payload
        if progress is not None:
            progress(_label(req))
        # Persisted here, not only in the worker: a borrowed pool's
        # workers may have been built with the disk cache off, and this
        # store is what lets a rerun of an interrupted sweep skip the
        # cell.
        prime_run_cache(
            req.workload, req.config, req.budget, req.seed, result
        )
        results[req] = result
        key = leaders.pop(req, None)
        if key is not None:
            registry.resolve(key, result)

    supervisor = _Supervisor(retry, faults, telemetry_spec, on_complete)
    jobs = resolve_jobs(jobs)
    try:
        if jobs <= 1 or len(pending) <= 1:
            supervisor.run_serial(pending)
        else:
            supervisor.run_pool(pending, jobs, pool=pool)
        # Own leaders are done (and resolved); now collect cells other
        # threads were computing. Safe to block: every leader eventually
        # resolves or abandons its key in a ``finally`` like this one.
        for req, future in followers.items():
            try:
                result = future.result()
            except BaseException:
                # The other thread's leader failed or abandoned the key;
                # compute locally (a disk-cache hit if it got that far).
                result = run_cached(
                    req.workload, req.config, req.budget, req.seed
                )
            prime_run_cache(
                req.workload, req.config, req.budget, req.seed, result,
                persist=False,
            )
            results[req] = result
    finally:
        # Leaders that never completed (MatrixError, crash) must not
        # leave followers in other threads hanging.
        for req, key in leaders.items():
            registry.abandon(key, "matrix execution aborted")

    return {req: results[req] for req in unique}


def _trace_key(request: RunRequest) -> tuple:
    """The suite memo key ``(name, budget, seed)`` a cell's trace has."""
    return (request.workload, request.budget, request.seed)


def _group_by_trace(pending: Sequence[RunRequest]) -> List[List[RunRequest]]:
    """``pending`` split into one group per distinct trace, groups in
    order of first appearance and cells in declared order within each."""
    groups: Dict[tuple, List[RunRequest]] = {}
    for req in pending:
        groups.setdefault(_trace_key(req), []).append(req)
    return list(groups.values())


def _make_trace(key: tuple):
    """Pool task: the trace ``key`` names, from this worker's memo, the
    disk cache, or generated here; :func:`repro.workloads.suite.get_trace`
    stores a trace it generates to the worker's disk cache, if it has
    one."""
    return suite.get_trace(*key)


def _publish_traces(group: Sequence[RunRequest], trace) -> Optional[tuple]:
    """Publish the trace a worker made for ``group``.

    Memoises ``trace`` in this process, so a later ``get_trace`` here
    hits as if the parent had made it, stores it to this process's disk
    cache when that is on, and returns the ``(key, trace)`` pair each of
    the group's tasks carries; returns None when there is no trace (the
    group's workers then make it themselves and report any error through
    the retry path).
    """
    if trace is None:
        return None
    key = _trace_key(group[0])
    suite.remember_trace(*key, trace)
    # Usually a no-op (the worker stored it), but a borrowed pool's
    # workers may have been built with the disk cache off.
    diskcache.store_trace(*key, trace)
    return key, trace


def _label(request: RunRequest) -> str:
    cfg = request.config
    return (
        f"{request.workload} @ {cfg.name}/tlb={cfg.tlb_predictor}"
        f"/llc={cfg.llc_predictor}"
    )


@dataclass
class MatrixPlan:
    """A declared (workload x config) matrix plus its execution order.

    Experiments build one of these up front so the scheduler sees the
    whole matrix at once; :meth:`execute` fans it out and returns nothing
    — results land in the run cache where report code finds them.
    """

    requests: List[RunRequest] = field(default_factory=list)

    def add(
        self,
        workload: str,
        config: SystemConfig,
        budget: int = DEFAULT_BUDGET,
        seed: int = DEFAULT_SEED,
    ) -> "MatrixPlan":
        self.requests.append(RunRequest(workload, config, budget, seed))
        return self

    def add_suite(
        self,
        workloads: Sequence[str],
        configs: Sequence[SystemConfig],
        budget: int = DEFAULT_BUDGET,
        seed: int = DEFAULT_SEED,
    ) -> "MatrixPlan":
        for wl in workloads:
            for cfg in configs:
                self.add(wl, cfg, budget, seed)
        return self

    def __len__(self) -> int:
        return len(self.requests)

    def execute(
        self,
        jobs: Optional[int] = None,
        progress: Optional[Callable[[str], None]] = None,
        telemetry_spec=None,
        telemetry_out: Optional[Dict[RunRequest, dict]] = None,
        retry: Optional[RetryPolicy] = None,
        faults=None,
    ) -> Dict[RunRequest, SimResult]:
        return run_matrix(
            self.requests,
            jobs=jobs,
            progress=progress,
            telemetry_spec=telemetry_spec,
            telemetry_out=telemetry_out,
            retry=retry,
            faults=faults,
        )
