"""The batch workloads: ``suite`` and ``scenarios`` (one cell simulated
in-process per op) and ``sweep`` (one cold ``run_matrix`` per op)."""

from __future__ import annotations

import gc
import multiprocessing
import shutil
import tempfile
import time
from contextlib import nullcontext
from typing import Callable, Dict, List

import repro.sim.diskcache as diskcache
import repro.sim.parallel as parallel
from repro.sim.runner import clear_run_cache
from repro.workloads import suite as suite_mod

from benchcore import Calibrator, OutputCheck, host_scaled
from cells import OUT_DIR, Cell

#: Worker processes for the sweep: the box's two cores, never more.
SWEEP_JOBS = 2


class _Workload:
    def __init__(self, cells: List[Cell], calibrator: Calibrator):
        self.cells = cells
        self.calibrator = calibrator
        self.check = OutputCheck()
        #: First result of each cell, by cell key.
        self.results: Dict[str, object] = {}
        #: Set in a traced run: ops then tag their spans with an op id.
        self.recorder = None
        self.ops = 0
        #: (cell key, op seconds, kernel ms) of every timed op, in order.
        self.timeline = []

    def _timed(self, key: str, measured, times) -> bool:
        """Record one op's ``(seconds, kernel ms)``, or None if it failed;
        appends its time, scaled to the reference host speed by the
        kernel time that describes it, to ``times[key]``."""
        if measured is None:
            return False
        elapsed, kernel = measured
        self.timeline.append((key, elapsed, kernel))
        times.setdefault(key, []).append(host_scaled(elapsed, kernel))
        return True

    def _tag(self):
        self.ops += 1
        if self.recorder is None:
            return nullcontext()
        return self.recorder.request(f"op-{self.ops}")


class InProcessWorkload(_Workload):
    """One op simulates one cell on a fresh ``Machine`` in this process.

    Ops rotate through the cells round-robin, so host drift spreads over
    every cell instead of landing on one.
    """

    def __init__(self, cells: List[Cell], calibrator: Calibrator):
        super().__init__(cells, calibrator)
        self.traces: Dict[str, object] = {}
        self._next = 0

    def records(self) -> Dict[str, int]:
        return {cell.key: len(self.traces[cell.key]) for cell in self.cells}

    def setup_steps(self) -> List[Callable[[], None]]:
        """Set-up as steps, one per distinct trace: together they generate
        every cell's trace from scratch."""
        suite_mod.clear_trace_cache()
        self.traces = {}
        by_trace: Dict[tuple, List[Cell]] = {}
        for cell in self.cells:
            by_trace.setdefault(
                (cell.workload, cell.budget, cell.seed), []
            ).append(cell)

        def generate(cells: List[Cell]):
            def step() -> None:
                for cell in cells:
                    self.traces[cell.key] = cell.trace()
            return step

        return [generate(cells) for cells in by_trace.values()]

    def op(self, cell: Cell):
        """Simulate ``cell`` once; returns its time and the mean kernel
        time right before and after it, or None if it raised."""
        trace = self.traces[cell.key]
        gc.collect()
        before = self.calibrator.ms()
        try:
            with self._tag():
                start = time.perf_counter()
                result = cell.machine().run(trace)
                elapsed = time.perf_counter() - start
                self.check.record(cell.key, result.to_wire())
        except Exception:
            self.check.error(cell.key)
            return None
        self.results.setdefault(cell.key, result)
        return elapsed, (before + self.calibrator.ms()) / 2

    def warm_up(self) -> None:
        self.op(self.cells[0])

    def measure(self, seconds: float, times: Dict[str, List[float]]):
        """Run ops until ``seconds`` pass and every cell ran at least once;
        appends each op's host-scaled time to ``times[cell.key]``."""
        deadline = time.perf_counter() + seconds
        fresh = {cell.key for cell in self.cells}
        while fresh or time.perf_counter() < deadline:
            cell = self.cells[self._next % len(self.cells)]
            self._next += 1
            self._timed(cell.key, self.op(cell), times)
            fresh.discard(cell.key)


class SweepWorkload(_Workload):
    """One op is a cold ``run_matrix(jobs=2)`` over the sweep cells: run
    and trace memos cleared, a fresh cache directory, a transient pool —
    what a first ``python -m repro.experiments`` sweep pays."""

    def __init__(self, cells: List[Cell], calibrator: Calibrator):
        super().__init__(cells, calibrator)
        self.requests = [
            parallel.RunRequest(c.workload, c.config, c.budget, c.seed)
            for c in cells
        ]
        self.key = "sweep"

    def records(self) -> Dict[str, int]:
        return {self.key: sum(cell.budget for cell in self.cells)}

    def setup_steps(self) -> List[Callable[[], None]]:
        return []  # Imports only: each op generates its own traces.

    def op(self, cell=None):
        clear_run_cache()
        suite_mod.clear_trace_cache()
        cache = tempfile.mkdtemp(prefix="sweep-cache-", dir=OUT_DIR)
        diskcache.enable(cache)
        gc.collect()
        # The pool's workers run on both CPUs: watch them all through.
        self.calibrator.watch()
        with self._tag():
            try:
                start = time.perf_counter()
                results = parallel.run_matrix(self.requests, jobs=SWEEP_JOBS)
                elapsed = time.perf_counter() - start
            except Exception:
                for cell in self.cells:
                    self.check.error(cell.key)
                return None
            finally:
                kernel = self.calibrator.stop()
                diskcache.disable()
                shutil.rmtree(cache, ignore_errors=True)
                # Reap the transient pool's killed workers before anything
                # else is timed.
                multiprocessing.active_children()
            for request, cell in zip(self.requests, self.cells):
                result = results[request]
                self.check.record(cell.key, result.to_wire())
                self.results.setdefault(cell.key, result)
        return elapsed, kernel

    def warm_up(self) -> None:
        self.op()

    def measure(self, seconds: float, times: Dict[str, List[float]]):
        deadline = time.perf_counter() + seconds
        while not times.get(self.key) or time.perf_counter() < deadline:
            if not self._timed(self.key, self.op(), times):
                break
