"""Tests for the benchmark's own code.

Run from the repo root: ``PYTHONPATH=src python -m pytest perfbench -q``.
"""

import multiprocessing
import os
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from itertools import islice
from multiprocessing import resource_tracker

from benchcore import (
    CALIB_REF_MS,
    Calibrator,
    OutputCheck,
    Span,
    SpanRecorder,
    descendants,
    digest,
    host_scaled,
    host_scaled_times,
    per_cell_median_rate,
    stop_descendants,
    tail_percentile,
)
from cells import (
    INPUT_SEEDS,
    input_seed,
    load_recorded,
    scenario_cells,
    suite_cells,
    sweep_cells,
)
from repro.sim.config import fast_config
from repro.sim.results import SimResult
from serveload import CLIENTS, HITS_PER_COMPUTE, client_schedule, warm_items


# ---------------------------------------------------------------------- #
# Tail rule
# ---------------------------------------------------------------------- #
def test_tail_needs_more_than_ten_samples():
    assert tail_percentile([]) is None
    assert tail_percentile([float(i) for i in range(10)]) is None


def test_tail_with_eleven_samples_is_the_minimum():
    pct, value, beyond = tail_percentile([float(i) for i in range(11, 0, -1)])
    assert (value, beyond) == (1.0, 10)
    assert pct == 100.0 / 11


def test_tail_of_one_hundred_samples_is_p90():
    samples = [float(i) for i in range(100)]
    assert tail_percentile(samples) == (90.0, 89.0, 10)


# ---------------------------------------------------------------------- #
# Self time
# ---------------------------------------------------------------------- #
def _recorder(*spans):
    """Spans as (name, start, end, parent index or None)."""
    recorder = SpanRecorder()
    for sid, (name, start, end, parent) in enumerate(spans):
        span = Span(sid, name, start, parent, None)
        span.end = end
        recorder.spans.append(span)
    return recorder


def test_self_time_of_nested_spans():
    rec = _recorder(
        ("run", 0.0, 10.0, None),
        ("finalize", 2.0, 5.0, 0),
        ("inner", 3.0, 4.0, 1),
    )
    assert rec.self_time(rec.spans[0]) == 7.0
    assert rec.self_time(rec.spans[1]) == 2.0
    assert rec.self_time(rec.spans[2]) == 1.0


def test_self_time_counts_overlapping_children_once():
    rec = _recorder(
        ("publish", 0.0, 10.0, None),
        ("gen", 1.0, 4.0, 0),
        ("gen", 3.0, 6.0, 0),
        ("gen", 8.0, 12.0, 0),  # runs past its parent: clipped at 10
    )
    assert rec.self_time(rec.spans[0]) == 10.0 - 5.0 - 2.0


def test_wrapped_calls_nest_and_carry_the_request_id():
    class Layer:
        def outer(self):
            return self.inner()

        def inner(self):
            return 7

    rec = SpanRecorder()
    rec.wrap(Layer, "outer", "outer")
    rec.wrap(Layer, "inner", "inner")
    with rec.request("op-1"):
        assert Layer().outer() == 7
    rec.uninstall()
    assert Layer().outer() == 7 and len(rec.spans) == 2
    outer, inner = rec.spans
    assert inner.parent == outer.sid and outer.parent is None
    assert outer.request == inner.request == "op-1"
    assert rec.self_time(outer) <= outer.duration - inner.duration + 1e-9


# ---------------------------------------------------------------------- #
# Throughput from per-cell medians
# ---------------------------------------------------------------------- #
def test_per_cell_median_rate_ignores_one_outlier_op():
    work = {"a": 100, "b": 100}
    steady = {"a": [1.0, 1.0, 1.0], "b": [2.0, 2.0, 2.0]}
    stalled = {"a": [1.0, 30.0, 1.0], "b": [2.0, 2.0, 2.0]}
    assert per_cell_median_rate(steady, work) == 200 / 3
    assert per_cell_median_rate(stalled, work) == 200 / 3


# ---------------------------------------------------------------------- #
# Serve schedule
# ---------------------------------------------------------------------- #
def _schedules(seed, items=60):
    return [list(islice(client_schedule(seed, c), items))
            for c in range(CLIENTS)]


def _counts(items):
    return {kind: sum(1 for k, _, _ in items if k == kind)
            for kind in ("compute", "hit")}


def test_serve_schedule_repeats_for_a_seed():
    first, again = _schedules(7), _schedules(7)
    for a, b in zip(first, again):
        assert [(k, c.key, w) for k, c, w in a] == [
            (k, c.key, w) for k, c, w in b
        ]
        assert _counts(a) == {"compute": 12, "hit": 12 * HITS_PER_COMPUTE}


def test_serve_schedule_differs_across_seeds():
    keys = [[(k, c.key) for k, c, _ in sched] for sched in _schedules(7)]
    other = [[(k, c.key) for k, c, _ in sched] for sched in _schedules(8)]
    assert keys != other


def test_serve_schedule_never_coalesces():
    """Computes are fresh everywhere; a hit only targets a cell its own
    connection (or set-up) already had answered."""
    warm = {cell.key for _, cell, _ in warm_items(7)}
    computed = []
    for sched in _schedules(7, items=300):
        answered = set(warm)
        for kind, cell, _ in sched:
            if kind == "compute":
                assert cell.key not in answered
                computed.append(cell.key)
                answered.add(cell.key)
            else:
                assert cell.key in answered
    assert len(computed) == len(set(computed))


# ---------------------------------------------------------------------- #
# Output check
# ---------------------------------------------------------------------- #
def test_digest_check_flags_a_perturbed_result():
    result = SimResult("mcf", "fast", instructions=1000, cycles=2500.0)
    reference = {"cell": digest(result.to_wire())}
    check = OutputCheck()
    check.record("cell", result.to_wire())
    check.record("cell", result.to_wire())
    assert check.failed(reference) == 0
    result.cycles += 1.0
    check.record("cell", result.to_wire())
    check.error("cell")
    assert check.attempted == 4
    assert check.failed(reference) == 2
    assert check.failed({}) == 4


def test_cell_key_is_the_benchmark_identity_not_the_config():
    """Keys name the cell, so a program change to a config's fields or
    the cache schema leaves them alone and a changed output mismatches."""
    cell = suite_cells(42)[1]
    assert cell.ident == f"{cell.workload}|dp_cb|40000|42"
    renamed = type(cell)(cell.workload, cell.label, fast_config(), 40_000, 42)
    assert renamed.key == cell.key


def test_recorded_seeds_cover_every_batch_and_warm_serve_cell():
    """Every seed a run can make its inputs from has recorded digests for
    its batch and warm serve cells, so no run computes them."""
    recorded = load_recorded()
    assert set(range(INPUT_SEEDS)) <= set(recorded["seeds"])
    assert [input_seed(s) for s in (42, INPUT_SEEDS, 1000)] == [
        42, 0, 1000 % INPUT_SEEDS
    ]
    for seed in range(INPUT_SEEDS):
        cells = suite_cells(seed) + scenario_cells(seed) + sweep_cells(seed)
        cells += [cell for _, cell, _ in warm_items(seed)]
        assert all(cell.key in recorded["digests"] for cell in cells)


# ---------------------------------------------------------------------- #
# Host scaling
# ---------------------------------------------------------------------- #
class _FakeCalibrator:
    def __init__(self, times):
        self.times = iter(times)

    def ms(self):
        return next(self.times)


def test_host_scaled_divides_by_the_kernel_time():
    # Kernel at 9 ms: the host ran at CALIB_REF_MS / 9 of the reference
    # speed.
    assert host_scaled(1.5, 9.0) == 1.5 * CALIB_REF_MS / 9.0


def test_host_scaled_times_scale_each_step_by_its_neighbours():
    # 2x the reference kernel time around the step: half its wall time.
    ref = CALIB_REF_MS
    times = host_scaled_times(_FakeCalibrator([2 * ref, 2 * ref]),
                              [lambda: time.sleep(0.05)])
    assert len(times) == 1 and 0.025 <= times[0] < 0.05


def test_calibrator_helper_times_the_kernel_and_ends():
    with Calibrator() as calibrator:
        first, second = calibrator.ms(), calibrator.ms()
        calibrator.watch()
        time.sleep(0.6)
        watched = calibrator.stop()
        proc = calibrator._proc
    assert min(first, second, watched) > 0
    assert calibrator.samples == [first, second, watched]
    assert proc.returncode == 0


# ---------------------------------------------------------------------- #
# Process cleanup
# ---------------------------------------------------------------------- #
def test_stop_descendants_ends_the_tracker_and_strays():
    context = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(1, mp_context=context) as pool:
        assert pool.submit(abs, -3).result() == 3
    tracker = resource_tracker._resource_tracker._pid
    sleeper = subprocess.Popen(
        [sys.executable, "-c", "import time; time.sleep(60)"]
    )
    assert {tracker, sleeper.pid} <= set(descendants(os.getpid()))
    assert sleeper.pid in stop_descendants(grace=2.0)
    assert descendants(os.getpid()) == []
    assert sleeper.poll() is not None
