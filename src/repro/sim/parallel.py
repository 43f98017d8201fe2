"""Parallel, fault-tolerant fan-out of simulation run matrices.

Every experiment reduces to a matrix of independent (workload, config,
budget, seed) simulations. :func:`run_matrix` executes such a matrix over
a :class:`~concurrent.futures.ProcessPoolExecutor` under a *supervisor*:
each cell is submitted individually, retried with exponential backoff
when its worker fails (:class:`RetryPolicy`), bounded by a per-run
wall-clock timeout, and journaled to a resume checkpoint as it
completes (:mod:`repro.sim.checkpoint`), so a crashed or interrupted
sweep restarts where it stopped — and, because results are merged back
in declared request order, a resumed or retried sweep is byte-identical
to an uninterrupted one. Failures are surfaced as
:mod:`repro.obs.harness` events (``run_retry``, ``run_timeout``,
``pool_rebuild``, ``resume_skip``).

Job count resolution, in priority order:

1. an explicit ``jobs=`` argument,
2. :func:`set_default_jobs` (the CLI's ``--jobs`` flag),
3. the ``REPRO_JOBS`` environment variable,
4. serial in-process execution (``1``).

Retry policy resolves the same way (argument, :func:`set_default_retry`
for the CLI's ``--retries``/``--run-timeout``/``--backoff`` flags, then
the ``REPRO_RETRIES`` / ``REPRO_RUN_TIMEOUT`` / ``REPRO_BACKOFF``
environment variables); resume via argument, :func:`repro.sim.checkpoint
.set_default_resume` (``--resume``), or ``REPRO_RESUME``.

Workers are plain processes running :func:`repro.sim.runner.run_cached`,
so a worker that lands on a disk-cached entry skips simulation exactly
like the parent would; determinism is inherited from the simulator
(results are bit-identical across ``jobs=1`` and ``jobs=N``, and across
clean, retried, and resumed executions).

Traces reach pooled workers through shared memory
(:mod:`repro.workloads.shm`), and publishing is pipelined with dispatch:
the pending cells are grouped by trace, the parent publishes the first
group's trace and submits its cells, then generates and publishes the
next group's while the workers simulate (see
:meth:`_Supervisor.run_pool`). Each task carries only its own trace's
descriptor.

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
    EV_RESUME_SKIP,
    EV_RUN_RETRY,
    EV_RUN_TIMEOUT,
)
from repro.sim.inflight import global_inflight
from repro.sim.checkpoint import MatrixJournal, resolve_resume
from repro.sim.config import SystemConfig
from repro.sim.results import SimResult
from repro.sim.runner import (
    DEFAULT_SEED,
    cached_result,
    prime_run_cache,
    run_cached,
)
from repro.workloads.suite import DEFAULT_BUDGET

_default_jobs: Optional[int] = None
_default_retry: Optional["RetryPolicy"] = None

#: True inside pool worker processes (set by the pool initializer); lets
#: injected kills hard-exit only where a supervisor is watching.
_in_pool_worker = False


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

    Completed cells up to the failure are journaled (and disk-cached),
    so rerunning with ``--resume`` only re-executes unfinished work.
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
#: Worker-side memo of shared-trace keys already attached, so the tasks
#: that carry a trace's descriptor attach its segment at most once per
#: worker process.
_attached_trace_keys: set = set()


def _attach_shared_trace(descriptor: Optional[dict]) -> None:
    """Attach a published shared-memory trace this worker has not seen
    yet and register it with the suite's shared-trace registry."""
    if descriptor is None:
        return
    key = tuple(descriptor["key"])
    if key in _attached_trace_keys:
        return
    from repro.workloads import shm, suite

    trace = shm.attach_trace(descriptor)
    if trace is None:
        # Segment gone (parent closed its arena): fall back to the
        # ordinary generate/disk-load path, and retry next time in case
        # the same key is re-published.
        return
    _attached_trace_keys.add(key)
    name, budget, seed = key
    suite.register_shared_trace(name, int(budget), int(seed), trace)


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
    """Pool task: attach the cell's own published trace (``None`` when it
    travels no shared-memory descriptor), then run the cell."""
    request, attempt, faults, telemetry_spec, shm_descriptor = args
    _attach_shared_trace(shm_descriptor)
    return _execute_cell(
        request, attempt, faults, telemetry_spec, _in_pool_worker
    )


# ---------------------------------------------------------------------- #
# Warm worker pool
# ---------------------------------------------------------------------- #
def _kill_executor(executor: ProcessPoolExecutor) -> None:
    """Shut an executor down without waiting on possibly-hung workers."""
    processes = getattr(executor, "_processes", None) or {}
    for proc in list(processes.values()):
        try:
            proc.kill()
        except (OSError, ValueError, AttributeError):
            pass
    executor.shutdown(wait=False, cancel_futures=True)


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
    and rebuilds automatically when the settings change. Each task carries
    its own trace's shared-memory descriptor (see :func:`_worker_cell`),
    so fresh, rebuilt and reused workers all get zero-copy traces.
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
        arena=None,
        pool: Optional[WarmPool] = None,
    ) -> None:
        """Drive ``pending`` over a worker pool (transient, or a borrowed
        :class:`WarmPool`).

        With a shared-memory ``arena``, trace publishing is pipelined
        with dispatch. The cells are grouped by trace key in declared
        order, and :func:`_publish_traces` makes a group's trace in this
        process and returns the descriptor its tasks carry (``None``:
        workers make the trace themselves). The first group is published
        before any cell is submitted; each later one as soon as every
        published cell has been submitted, so the parent generates the
        next trace while the workers simulate and never runs more than
        one group ahead. Without an arena every cell is dispatchable at
        once.

        Publishing runs on the supervising thread, so completions and
        the per-run deadline sweep wait for it. Deadlines are absolute,
        so a hung cell is still caught, but up to one trace generation
        late.
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

        descriptors: Dict[RunRequest, dict] = {}
        if arena is None:
            groups: deque = deque()
            queue = deque(pending)
        else:
            groups = deque(_group_by_trace(pending))
            queue = deque()
        inflight: Dict = {}  # future -> (request, deadline or None)
        executor = pool.executor()
        try:
            while queue or inflight or groups:
                # Sliding window: at most max_workers outstanding, so a
                # submitted cell starts (nearly) immediately and its
                # deadline measures run time, not queueing time.
                broken = False
                while queue and len(inflight) < max_workers:
                    request = queue.popleft()
                    attempt = self._next_attempt(request)
                    deadline = (
                        time.monotonic() + self.retry.timeout
                        if self.retry.timeout is not None
                        else None
                    )
                    try:
                        future = executor.submit(
                            _worker_cell,
                            (request, attempt, self.faults,
                             self.telemetry_spec, descriptors.get(request)),
                        )
                    except BrokenProcessPool:
                        # A worker died between the completion sweep and
                        # this submit. The cell never ran: refund its
                        # attempt and fall through to the rebuild path.
                        self.attempts[request] -= 1
                        queue.appendleft(request)
                        broken = True
                        break
                    inflight[future] = (request, deadline)

                if broken:
                    executor = self._rebuild_broken_pool(
                        pool, inflight, queue
                    )
                    continue

                if groups and not queue:
                    # Every published cell is submitted: make the next
                    # trace while the workers simulate, then dispatch it.
                    group = groups.popleft()
                    descriptor = _publish_traces(group, arena)
                    if descriptor is not None:
                        descriptors.update(dict.fromkeys(group, descriptor))
                    queue.extend(group)
                    continue

                wait_for = None
                if self.retry.timeout is not None:
                    soonest = min(d for _, d in inflight.values())
                    wait_for = max(0.0, soonest - time.monotonic())
                done, _ = _futures_wait(
                    set(inflight), timeout=wait_for,
                    return_when=FIRST_COMPLETED,
                )

                broken = False
                for future in done:
                    request, _deadline = inflight.pop(future)
                    try:
                        outcome = future.result()
                    except BrokenProcessPool:
                        broken = True
                        # Put it back; the rebuild path below accounts
                        # for every in-flight cell uniformly.
                        inflight[future] = (request, _deadline)
                        break
                    except Exception as exc:
                        self._failed(
                            request, f"{type(exc).__name__}: {exc}"
                        )
                        queue.append(request)
                    else:
                        self.on_complete(request, outcome)

                if broken:
                    # A worker died hard (os._exit, OOM kill, segfault):
                    # the pool is unusable and every in-flight future
                    # fails. The culprit is indistinguishable from the
                    # victims, so each in-flight cell is charged one
                    # attempt (bounded collateral; retries are cheap
                    # against the disk cache).
                    obs_harness.record(EV_POOL_REBUILD, len(inflight))
                    requests = [req for req, _ in inflight.values()]
                    inflight.clear()
                    executor = pool.rebuild()
                    for request in requests:
                        self._failed(request, "worker process died")
                        queue.append(request)
                    continue

                # Per-run deadline sweep.
                if self.retry.timeout is not None:
                    now = time.monotonic()
                    expired = [
                        future
                        for future, (req, deadline) in inflight.items()
                        if deadline is not None
                        and deadline <= now
                        and not future.done()
                    ]
                    if expired:
                        executor = self._handle_timeouts(
                            pool, inflight, expired, queue
                        )
        finally:
            if own_pool:
                pool.close()
            else:
                # Borrowed pool: leave the workers warm for the next
                # matrix (that is the whole point of sharing it).
                pool.release()

    def _rebuild_broken_pool(
        self, pool: WarmPool, inflight, queue
    ) -> ProcessPoolExecutor:
        """The pool broke during submit: a worker died after the last
        completion sweep, so the breakage surfaces from ``submit``
        rather than ``result``. Same accounting as the post-wait
        rebuild, except cells that finished cleanly before the collapse
        keep their results."""
        obs_harness.record(EV_POOL_REBUILD, len(inflight))
        pool.kill_workers()
        for future, (request, _) in list(inflight.items()):
            if future.done() and future.exception() is None:
                self.on_complete(request, future.result())
            else:
                self._failed(request, "worker process died")
                queue.append(request)
        inflight.clear()
        return pool.executor()

    def _handle_timeouts(
        self, pool: WarmPool, inflight, expired, queue
    ) -> ProcessPoolExecutor:
        """A worker exceeded its per-run wall clock. Hung processes can
        only be stopped by killing them, which takes the pool down: the
        timed-out cells are charged an attempt, innocent in-flight cells
        are resubmitted with their attempt refunded."""
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
        obs_harness.record(EV_POOL_REBUILD, len(inflight))
        pool.kill_workers()
        expired_set = set(expired)
        timed_out: List[RunRequest] = []
        for future, (request, _) in list(inflight.items()):
            if future in expired_set:
                timed_out.append(request)
            elif future.done() and future.exception() is None:
                # Completed between the wait and the kill — keep it.
                self.on_complete(request, future.result())
            else:
                # Innocent casualty of the pool kill: refund the attempt
                # ( _next_attempt re-charges it on resubmission).
                self.attempts[request] -= 1
                queue.append(request)
        inflight.clear()
        for request in timed_out:
            self._failed(
                request,
                f"timed out after {self.retry.timeout:.3g}s",
            )
            queue.append(request)
        return pool.executor()


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
    resume: Optional[bool] = None,
    checkpoint_dir=None,
    pool: Optional[WarmPool] = None,
) -> Dict[RunRequest, SimResult]:
    """Execute a declared run matrix, parallelising cache misses.

    Duplicate requests are coalesced; requests already satisfied by the
    resume journal, the in-process cache, or the disk cache never reach
    the pool. Cells another thread is *already computing* (a concurrent
    ``run_matrix`` or a server request, via the process-wide
    :func:`repro.sim.inflight.global_inflight` registry) are likewise
    coalesced: this matrix waits for that in-flight result instead of
    re-simulating. Results are merged into the run cache so later
    ``run_cached`` calls hit in-process, and the returned mapping is
    rebuilt in declared request order, so its serialised form is
    byte-stable regardless of completion order, retries, or resume.

    ``telemetry_spec`` — optional :class:`repro.obs.TelemetrySpec`; every
    request is then simulated live (cached aggregates carry no dynamics)
    with its own bundle, and the JSON-safe payloads are merged into
    ``telemetry_out`` keyed by request. Journal/resume skipping is
    disabled for such sweeps — a skipped cell would carry no dynamics —
    and so is in-flight coalescing (each caller needs its own dynamics).

    ``retry`` / ``faults`` / ``resume`` / ``checkpoint_dir`` — the
    resilience controls (see the module docstring). Checkpointing is on
    whenever the disk cache is enabled (journals live under
    ``<cache_dir>/checkpoints/``) or an explicit ``checkpoint_dir`` is
    given. A cell that exhausts ``retry.max_attempts`` raises
    :class:`MatrixError`; completed cells stay journaled, so rerunning
    with ``resume=True`` (CLI ``--resume``, env ``REPRO_RESUME=1``)
    skips them.

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

    journal: Optional[MatrixJournal] = None
    keys: Dict[RunRequest, str] = {}
    journaled: Dict[str, SimResult] = {}
    if unique and telemetry_spec is None and (
        checkpoint_dir is not None or diskcache.is_enabled()
    ):
        directory = (
            checkpoint_dir
            if checkpoint_dir is not None
            else diskcache.cache_dir() / "checkpoints"
        )
        keys = {
            req: diskcache.result_key(
                req.workload, req.config, req.budget, req.seed
            )
            for req in unique
        }
        journal = MatrixJournal.for_matrix(list(keys.values()), directory)
        resuming = resolve_resume(resume)
        if resuming:
            journaled = journal.load()
        journal.start(fresh=not resuming)

    if telemetry_spec is not None:
        telemetry_spec.validate()
        pending = unique
    else:
        for req in unique:
            key = keys.get(req)
            if key is not None and key in journaled:
                hit = journaled[key]
                prime_run_cache(
                    req.workload, req.config, req.budget, req.seed, hit,
                    persist=False,
                )
                obs_harness.record(
                    EV_RESUME_SKIP, req.workload, req.config.name, req.seed
                )
                results[req] = hit
                continue
            hit = cached_result(
                req.workload, req.config, req.budget, req.seed
            )
            if hit is not None:
                prime_run_cache(
                    req.workload, req.config, req.budget, req.seed, hit,
                    persist=False,
                )
                results[req] = hit
                if journal is not None:
                    journal.record(key, hit)
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
            key = keys.get(req) or diskcache.result_key(
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
        prime_run_cache(
            req.workload, req.config, req.budget, req.seed, result
        )
        if journal is not None:
            journal.record(keys[req], result)
        results[req] = result
        key = leaders.pop(req, None)
        if key is not None:
            registry.resolve(key, result)

    supervisor = _Supervisor(retry, faults, telemetry_spec, on_complete)
    jobs = resolve_jobs(jobs)
    arena = None
    try:
        if jobs <= 1 or len(pending) <= 1:
            supervisor.run_serial(pending)
        else:
            from repro.workloads import shm

            if shm.shm_enabled():
                arena = shm.SharedTraceArena()
            supervisor.run_pool(pending, jobs, arena, pool=pool)
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
            if journal is not None:
                journal.record(keys[req], result)
            results[req] = result
    finally:
        # Leaders that never completed (MatrixError, crash) must not
        # leave followers in other threads hanging.
        for req, key in leaders.items():
            registry.abandon(key, "matrix execution aborted")
        if arena is not None:
            arena.close()
        if journal is not None:
            journal.close()

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


def _publish_traces(group: Sequence[RunRequest], arena) -> Optional[dict]:
    """Publish one trace group's trace to shared memory (best effort).

    Returns the trace's descriptor, or None when it cannot be published
    (the group's workers then make the trace themselves, as with
    ``REPRO_SHM=0``). Generating in the parent is not wasted work: traces
    are deterministic and memoised, so the parent pays each one once and
    every worker maps it for free.
    """
    from repro.workloads import suite

    key = _trace_key(group[0])
    try:
        return arena.publish(key, suite.get_trace(*key))
    except Exception:
        # /dev/shm full or read-only, exotic platform, trace error — the
        # pool path works without the transport, so degrade silently.
        return None


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
        resume: Optional[bool] = None,
    ) -> Dict[RunRequest, SimResult]:
        return run_matrix(
            self.requests,
            jobs=jobs,
            progress=progress,
            telemetry_spec=telemetry_spec,
            telemetry_out=telemetry_out,
            retry=retry,
            faults=faults,
            resume=resume,
        )
