"""Benchmark-side helpers: statistics, output digests, spans, host probes.

Nothing here imports the simulator, so these helpers are unit-testable on
their own (see ``test_perfbench.py``), and the calibration helper process
runs this file with the standard library alone.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import signal
import statistics
import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: A tail percentile is reported only with at least this many samples
#: beyond it; with fewer, the "tail" is one or two unlucky ops.
TAIL_MIN_BEYOND = 10


# ---------------------------------------------------------------------- #
# Statistics
# ---------------------------------------------------------------------- #
def tail_percentile(
    samples: Sequence[float], min_beyond: int = TAIL_MIN_BEYOND
) -> Optional[Tuple[float, float, int]]:
    """The highest nearest-rank percentile with ``min_beyond`` samples
    above it, as ``(percentile, value, samples_beyond)``.

    Returns None when there are not more than ``min_beyond`` samples:
    no percentile then has enough samples beyond it to be a tail.
    """
    n = len(samples)
    if n <= min_beyond:
        return None
    ordered = sorted(samples)
    index = n - 1 - min_beyond
    return 100.0 * (index + 1) / n, ordered[index], n - 1 - index


def per_cell_median_rate(
    times: Dict[object, List[float]], work: Dict[object, float]
) -> float:
    """Work per second from per-cell medians: sum(work) / sum(median time).

    Cells are visited round-robin, so a slow host window inflates one
    sample of many cells rather than every sample of one cell, and the
    per-cell median discards it. Every cell needs at least one sample.
    """
    total_time = sum(statistics.median(times[cell]) for cell in work)
    return sum(work.values()) / total_time


def slowest_quarter_mean(values: Sequence[float]) -> float:
    """Mean of the slowest quarter of ``values`` (at least one value):
    the batch workloads' tail, over per-cell median op times, which are
    too few per cell for a percentile tail."""
    ordered = sorted(values, reverse=True)
    return statistics.fmean(ordered[:max(1, len(ordered) // 4)])


def median_or_zero(values: Iterable[float]) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


# ---------------------------------------------------------------------- #
# Output check
# ---------------------------------------------------------------------- #
def digest(blob: bytes) -> str:
    """One result's canonical wire bytes as SHA-256, cut to 128 bits."""
    return hashlib.sha256(blob).hexdigest()[:32]


class OutputCheck:
    """Per-op output digests, judged against reference digests.

    An op fails when it raised (recorded with :meth:`error`) or when its
    digest differs from the reference digest of its cell, so repeats of a
    cell are byte-identical exactly when none of them fails.
    """

    def __init__(self) -> None:
        self.ops: List[Tuple[str, Optional[str]]] = []

    def record(self, key: str, blob: bytes) -> None:
        self.ops.append((key, digest(blob)))

    def error(self, key: str) -> None:
        self.ops.append((key, None))

    @property
    def attempted(self) -> int:
        return len(self.ops)

    def failed(self, reference: Dict[str, str]) -> int:
        return sum(
            1 for key, seen in self.ops
            if seen is None or reference.get(key) != seen
        )


# ---------------------------------------------------------------------- #
# Spans
# ---------------------------------------------------------------------- #
class Span:
    __slots__ = ("sid", "name", "start", "end", "parent", "request", "attrs")

    def __init__(self, sid, name, start, parent, request):
        self.sid = sid
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.request = request
        self.attrs: dict = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {
            "id": self.sid, "name": self.name, "start": self.start,
            "end": self.end, "parent": self.parent,
            "request": self.request, "attrs": self.attrs,
        }


class SpanRecorder:
    """In-memory span store plus the wrappers that feed it.

    :meth:`wrap` replaces an attribute of a module or class with a wrapper
    that records one span per call. A span's parent is the innermost open
    span on the calling thread; its request id is the one set by the
    thread's innermost :meth:`request` block (the benchmark's op id). Spans stay
    in memory until :meth:`write`; :meth:`uninstall` restores every
    wrapped attribute.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: List[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        with self._lock:
            span = Span(
                len(self.spans), name, time.perf_counter(),
                stack[-1].sid if stack else None,
                getattr(self._local, "request", None),
            )
            self.spans.append(span)
        stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()

    @contextmanager
    def request(self, request_id: str):
        """Tag spans opened on this thread inside the block."""
        local = self._local
        previous = getattr(local, "request", None)
        local.request = request_id
        try:
            yield
        finally:
            local.request = previous

    def wrap(self, owner, attr: str, name: str, on_exit=None) -> None:
        """Record a ``name`` span around every call of ``owner.attr``;
        ``on_exit(span, args, result)`` may annotate the span."""
        original = getattr(owner, attr)
        recorder = self

        def wrapper(*args, **kwargs):
            with recorder.span(name) as span:
                result = original(*args, **kwargs)
                if on_exit is not None:
                    on_exit(span, args, result)
                return result

        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def named(self, name: str, since: int = 0) -> List[Span]:
        """Spans called ``name``, from index ``since`` on."""
        return [s for s in self.spans[since:] if s.name == name]

    def self_time(self, span: Span) -> float:
        """Duration minus the part of it that child spans cover (the
        union of their intervals, so overlapping children count once)."""
        intervals = sorted(
            (max(child.start, span.start), min(child.end, span.end))
            for child in self.spans
            if child.parent == span.sid
        )
        covered = 0.0
        run_start = run_end = None
        for start, end in intervals:
            if end <= start:
                continue
            if run_end is None or start > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = start, end
            else:
                run_end = max(run_end, end)
        if run_end is not None:
            covered += run_end - run_start
        return span.duration - covered

    def write(self, path: str) -> None:
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(span.to_dict(), sort_keys=True) + "\n")


# ---------------------------------------------------------------------- #
# Host probes
# ---------------------------------------------------------------------- #
def descendants(root: int) -> List[int]:
    """Pids of every live process descended from ``root``."""
    children: Dict[int, List[int]] = {}
    try:
        entries = os.listdir("/proc")
    except OSError:
        return []
    for entry in entries:
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                ppid = int(f.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        children.setdefault(ppid, []).append(int(entry))
    found, todo = [], [root]
    while todo:
        for child in children.get(todo.pop(), ()):
            found.append(child)
            todo.append(child)
    return found


def _running(pid: int) -> bool:
    """Whether ``pid`` still runs; reaps it if it is an ended child."""
    try:
        if os.waitpid(pid, os.WNOHANG)[0] == pid:
            return False
    except ChildProcessError:
        pass  # not our child, or already reaped: ask /proc
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except (OSError, IndexError):
        return False


def _end(pids: List[int], grace: float) -> None:
    """SIGTERM ``pids``, SIGKILL those still running ``grace`` seconds
    later, and wait until none runs."""
    for sig in (signal.SIGTERM, signal.SIGKILL):
        for pid in pids:
            try:
                os.kill(pid, sig)
            except ProcessLookupError:
                pass
        deadline = time.monotonic() + grace
        while pids:
            pids = [pid for pid in pids if _running(pid)]
            if not pids or time.monotonic() >= deadline:
                break
            time.sleep(0.02)
        if not pids:
            return


def stop_descendants(grace: float = 5.0) -> List[int]:
    """End every process this one started that still runs, and wait for
    each; returns those other than the resource tracker.

    The multiprocessing resource tracker (started by any spawn pool or
    shared-memory segment) would otherwise outlive this process by a
    moment. It exits when its pipe closes, which needs every other
    holder of the pipe gone, so the other descendants end first. It
    ignores SIGTERM, so it is killed only if it has not exited within
    ``grace`` seconds.
    """
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    others = [pid for pid in descendants(os.getpid()) if pid != tracker._pid]
    _end(others, grace)
    if tracker._fd is not None:
        fd, pid = tracker._fd, tracker._pid
        tracker._fd = tracker._pid = None
        os.close(fd)
        if pid is not None:
            _end([pid], grace)
    return others


def _hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except (OSError, ValueError):
        pass
    return 0


def peak_rss_mb() -> float:
    """Largest peak resident set among this process, its reaped children
    (``RUSAGE_CHILDREN`` keeps the largest), and its live descendants."""
    peaks = [
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    ]
    peaks.extend(_hwm_kb(pid) for pid in descendants(os.getpid()))
    return max(peaks) / 1024.0


#: Kernel time that host-scaled times are scaled to: a time is multiplied
#: by CALIB_REF_MS / the kernel time around it, so it reads as if
#: measured on a host where the kernel takes 6 ms.
CALIB_REF_MS = 6.0


#: Loop iterations of one kernel timing, and of one watch sample.
KERNEL_ITERATIONS = 60_000
WATCH_ITERATIONS = 10_000
#: Seconds between watch samples.
WATCH_PERIOD = 0.25


def calib_ms(rounds: int = 3, iterations: int = KERNEL_ITERATIONS) -> float:
    """Best of ``rounds`` timings of a fixed pure-Python kernel, in ms per
    ``KERNEL_ITERATIONS`` iterations.

    It runs no repo code, so its drift over a run is the host's drift.
    """
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        acc = 0
        for i in range(iterations):
            acc = (acc * 31 + i) & 0xFFFFFFFF
        best = min(best, time.perf_counter() - start)
    return best * 1e3 * KERNEL_ITERATIONS / iterations


def host_scaled(seconds: float, kernel_ms: float) -> float:
    """``seconds`` measured while the kernel took ``kernel_ms``, scaled
    to the reference host speed."""
    return seconds * CALIB_REF_MS / kernel_ms


def host_scaled_times(calibrator: "Calibrator", steps) -> List[float]:
    """Wall time of each call in ``steps``, scaled by the kernel timed
    right before and right after that call.

    A long set-up is timed as several such steps: host speed on this box
    changes within a second, so a kernel timing seconds away from most of
    the work would not describe it.
    """
    times = []
    before = calibrator.ms()
    for step in steps:
        start = time.perf_counter()
        step()
        elapsed = time.perf_counter() - start
        after = calibrator.ms()
        times.append(host_scaled(elapsed, (before + after) / 2))
        before = after
    return times


def current_cpu() -> int:
    """The CPU this process last ran on; -1 where /proc is unavailable."""
    try:
        with open("/proc/self/stat") as f:
            return int(f.read().rsplit(")", 1)[1].split()[36])
    except (OSError, IndexError, ValueError):
        return -1


@contextmanager
def pinned_to_one_cpu():
    """Keep this process, and the processes it starts inside the block,
    on the CPU it runs on now, so the kernel timed on that CPU describes
    the work done there; the CPU set is restored on exit."""
    try:
        allowed = os.sched_getaffinity(0)
    except AttributeError:
        yield
        return
    cpu = current_cpu()
    if cpu in allowed:
        os.sched_setaffinity(0, {cpu})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


class Calibrator:
    """The calibration kernel in a helper process of its own.

    The helper imports no repo code and sits idle on a pipe between
    pings, so nothing the program does to the benchmark's process — a
    thread left running, a trace hook, a changed switch interval — can
    slow the kernel along with the ops it is used to scale. Each ping
    runs the kernel on the CPU the benchmark process last ran on: host
    speed here drifts per CPU, not for the whole box at once.
    """

    def __init__(self) -> None:
        import subprocess
        import sys

        self.samples: List[float] = []
        self._proc = subprocess.Popen(
            [sys.executable, "-I", os.path.abspath(__file__)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def _ask(self, command: str) -> str:
        self._proc.stdin.write(f"{command}\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("calibration helper exited")
        return line

    def ms(self) -> float:
        """Time the kernel once in the helper; also kept in ``samples``."""
        self.samples.append(float(self._ask(str(current_cpu()))))
        return self.samples[-1]

    def watch(self) -> None:
        """Start sampling a short kernel every ``WATCH_PERIOD`` seconds on
        each CPU in turn, for work spread over processes on both CPUs. A
        sample takes under 1% of the period, the same in every run."""
        self._ask("watch")

    def stop(self) -> float:
        """End :meth:`watch`; returns the kernel time that describes the
        host's mean speed since (the harmonic mean of the samples), also
        kept in ``samples``."""
        self.samples.append(float(self._ask("stop")))
        return self.samples[-1]

    def close(self) -> None:
        """End the helper and wait for it."""
        if self._proc.poll() is None:
            self._proc.stdin.close()
            self._proc.wait(timeout=30)
        self._proc.stdout.close()

    def __enter__(self) -> "Calibrator":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _pin(cpu: int) -> None:
    if cpu >= 0:
        try:
            os.sched_setaffinity(0, {cpu})
        except (AttributeError, OSError):
            pass


def _serve_kernel() -> None:
    """The helper's loop. Each stdin line is a command and gets one line
    back: a CPU number (time the kernel on it), ``watch`` or ``stop``."""
    import select
    import sys

    try:
        cpus = sorted(os.sched_getaffinity(0))
    except AttributeError:
        cpus = [-1]
    watched = None
    while True:
        timeout = WATCH_PERIOD if watched is not None else None
        if not select.select([sys.stdin], [], [], timeout)[0]:
            _pin(cpus[len(watched) % len(cpus)])
            watched.append(calib_ms(1, WATCH_ITERATIONS))
            continue
        command = sys.stdin.readline().strip()
        if not command:
            return
        if command == "watch":
            watched, reply = [], "ok"
        elif command == "stop":
            reply = (statistics.harmonic_mean(watched) if watched
                     else calib_ms())
            watched = None
        else:
            _pin(int(command))
            reply = calib_ms()
        print(reply, flush=True)


if __name__ == "__main__":
    _serve_kernel()
