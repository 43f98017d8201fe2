"""The server's execution backend: a warm worker pool behind dispatchers.

A :class:`ServePool` turns one run request into a
:class:`concurrent.futures.Future` the asyncio layer can await via
``asyncio.wrap_future``. Two modes:

* ``workers > 0`` — simulations run on the process-wide
  :func:`~repro.sim.parallel.shared_warm_pool`, so the server's
  ``POST /run`` traffic and its ``POST /matrix`` sweeps (and any
  in-process ``run_matrix(pool=shared_warm_pool())`` callers) reuse the
  same warm, pre-initialised workers instead of paying spawn cost per
  request. A :class:`BrokenProcessPool` rebuilds the pool and retries
  the cell once — the same crash recovery the matrix supervisor has.
* ``workers == 0`` — simulations run on the dispatch threads themselves
  (no subprocesses). This keeps everything in-process, which is what the
  tests want: a monkeypatched ``run_trace`` is visible, and results land
  directly in this process's run cache.

Either way the cell goes through the exact code path the CLI uses
(:func:`repro.sim.parallel._execute_cell` calling
:func:`repro.sim.runner.run_cached`), which is what makes the served
result byte-identical to a CLI run of the same config.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Optional

from repro.sim.parallel import (
    WarmPool,
    _execute_cell,
    _worker_cell,
    shared_warm_pool,
)

#: Dispatch threads: enough to keep a pool of workers fed and still
#: overlap many coalesced/cached requests; they are I/O-ish (waiting on
#: worker futures), not compute threads.
DISPATCH_THREADS = 8


class ServePool:
    """Request-level execution front over a (possibly warm) worker pool."""

    def __init__(self, workers: int = 0):
        self.workers = max(0, int(workers))
        self._lock = threading.Lock()
        self._closed = False
        self._dispatch = ThreadPoolExecutor(
            max_workers=DISPATCH_THREADS, thread_name_prefix="serve-dispatch"
        )
        self._warm: Optional[WarmPool] = None
        if self.workers > 0:
            self._warm = shared_warm_pool(self.workers).acquire()

    @property
    def warm_pool(self) -> Optional[WarmPool]:
        """The shared warm pool (``POST /matrix`` borrows it), or None."""
        return self._warm

    def submit(self, request, telemetry_spec=None) -> Future:
        """Run one cell; resolves to ``(result, telemetry_payload)``."""
        with self._lock:
            if self._closed:
                raise RuntimeError("ServePool is closed")
        return self._dispatch.submit(self._run_cell, request, telemetry_spec)

    def _run_cell(self, request, telemetry_spec):
        if self._warm is None:
            return _execute_cell(
                request, 1, None, telemetry_spec, in_pool=False
            )
        task = (request, 1, None, telemetry_spec, None)
        try:
            return self._warm.executor().submit(_worker_cell, task).result()
        except BrokenProcessPool:
            # One retry on a fresh pool: a crashed worker must not fail a
            # request that never got to run.
            self._warm.rebuild()
            return self._warm.executor().submit(_worker_cell, task).result()

    def describe(self) -> dict:
        info = {
            "workers": self.workers,
            "mode": "process" if self._warm is not None else "in-thread",
        }
        if self._warm is not None:
            info["warm_pool"] = self._warm.describe()
        return info

    def close(self) -> None:
        """Release the warm pool (workers stay warm for the process) and
        stop accepting submissions. Idempotent."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._dispatch.shutdown(wait=True, cancel_futures=True)
        if self._warm is not None:
            self._warm.release()
