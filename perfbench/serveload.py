"""The ``serve`` workload: a ``python -m repro.serve`` process driven by
closed-loop client connections on a seeded request schedule.

Each connection runs its own schedule: one *compute* of a fresh cell, then
``HITS_PER_COMPUTE`` *hits* on cells that connection (or set-up) has
already had answered. Fresh cells vary the predictor family and its knobs
over a fixed rotation, so a compute never needs a new trace, and the
rotation hands every (workload, family) pair to one connection only, so
no two requests are ever in flight for the same cell: the coalesced count
is 0 by construction.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from typing import Iterator, List, Optional, Tuple

from repro.serve.client import ServeClient
from repro.serve.protocol import config_from_wire

from benchcore import descendants
from cells import OUT_DIR, Cell

SERVE_BUDGET = 10_000
SERVE_WORKLOADS = ("mcf", "bfs", "lbm", "pr")
HITS_PER_COMPUTE = 4
#: Closed-loop connections; with one pool worker, at most two processes
#: are ever busy (the worker and the server or a client).
CLIENTS = 2
SERVER_WORKERS = 1

#: Predictor families a fresh cell draws from: (wire profile, fixed
#: overrides, knob grid). Every combination is a distinct config.
FAMILIES = (
    (
        "fast",
        {"tlb_predictor": "dppred", "llc_predictor": "cbpred"},
        {
            "dppred_threshold": range(1, 8),
            "cbpred_threshold": range(1, 8),
            "cbpred_pfq_entries": (4, 8, 16),
        },
    ),
    (
        "leeway",
        {},
        {
            "leeway_percentile": range(50, 100, 5),
            "leeway_signature_bits": range(6, 11),
        },
    ),
    (
        "perceptron",
        {},
        {
            "perceptron_threshold": range(1, 9),
            "perceptron_table_bits": range(6, 11),
        },
    ),
)

#: (workload, family) pairs in rotation order; 4 x 3 coprime, so the
#: index walks every pair. Pair ``i`` belongs to connection ``i % CLIENTS``.
_PAIRS = [
    (SERVE_WORKLOADS[i % len(SERVE_WORKLOADS)], FAMILIES[i % len(FAMILIES)])
    for i in range(len(SERVE_WORKLOADS) * len(FAMILIES))
]

#: A served request: (kind, cell, config wire form).
Item = Tuple[str, Cell, object]


def _cell(workload: str, wire, seed: int) -> Cell:
    # Built through the server's own parser, so both sides simulate the
    # same frozen config; labelled by the request's config wire form.
    label = json.dumps(wire, sort_keys=True, separators=(",", ":"))
    config = config_from_wire(wire)
    return Cell(workload, label, config, SERVE_BUDGET, seed)


def warm_items(seed: int) -> List[Item]:
    """One baseline request per workload: set-up's trace-warming cells."""
    return [("compute", _cell(w, "fast", seed), "fast") for w in SERVE_WORKLOADS]


def _fresh_wires(seed: int, workload: str, family) -> Iterator[dict]:
    profile, fixed, grid = family
    combos = list(itertools.product(*grid.values()))
    random.Random(f"fresh:{seed}:{workload}:{profile}").shuffle(combos)
    for combo in combos:
        yield {"profile": profile, **fixed, **dict(zip(grid, combo))}


def client_schedule(seed: int, client: int) -> Iterator[Item]:
    """Connection ``client``'s endless request sequence for ``seed``."""
    mine = [i for i in range(len(_PAIRS)) if i % CLIENTS == client]
    wires = {
        i: _fresh_wires(seed, _PAIRS[i][0], _PAIRS[i][1]) for i in mine
    }
    answered = [cell for _, cell, _ in warm_items(seed)]
    wire_of = {cell.key: "fast" for cell in answered}
    rng = random.Random(f"hits:{seed}:{client}")
    for index in itertools.cycle(mine):
        workload = _PAIRS[index][0]
        wire = next(wires[index])
        cell = _cell(workload, wire, seed)
        yield "compute", cell, wire
        answered.append(cell)
        wire_of[cell.key] = wire
        for _ in range(HITS_PER_COMPUTE):
            target = rng.choice(answered)
            yield "hit", target, wire_of[target.key]


class ServerProcess:
    """``python -m repro.serve`` on a free port with a fresh cache dir."""

    def __init__(self) -> None:
        self.cache_dir = tempfile.mkdtemp(prefix="serve-cache-", dir=OUT_DIR)
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0

    def start(self) -> "ServerProcess":
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.serve", "--port", "0",
                "--workers", str(SERVER_WORKERS),
                "--cache-dir", self.cache_dir,
            ],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        )
        line = self.proc.stdout.readline()
        match = re.search(r"http://[^:]+:(\d+)", line)
        if match is None:
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        self.port = int(match.group(1))
        return self

    def client(self) -> ServeClient:
        return ServeClient(port=self.port, timeout=120.0)

    def stop(self) -> None:
        """Drain the server and wait for it and its pool worker to end."""
        if self.proc is None:
            return
        family = descendants(self.proc.pid)
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        self.proc = None
        deadline = time.monotonic() + 10
        for pid in family:
            while _alive(pid) and time.monotonic() < deadline:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    break
                time.sleep(0.05)
        shutil.rmtree(self.cache_dir, ignore_errors=True)


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


class Op:
    __slots__ = ("client", "kind", "cell", "latency", "end", "body")

    def __init__(self, client, kind, cell, latency, end, body):
        self.client = client
        self.kind = kind
        self.cell = cell
        self.latency = latency
        self.end = end
        self.body = body


class ServeDriver:
    """Closed-loop connections over one :class:`ServerProcess`.

    Schedules persist across :meth:`run` calls, so later phases keep
    requesting fresh cells instead of replaying earlier ones.
    """

    def __init__(self, seed: int, request=None):
        self.schedules = [client_schedule(seed, c) for c in range(CLIENTS)]
        self.computes = [0] * CLIENTS
        self.ops: List[Op] = []
        self._lock = threading.Lock()
        #: ``request(client, kind, cell, wire) -> body bytes``.
        self.request = request

    def _loop(self, client: int, until, out: List[Op]) -> None:
        schedule = self.schedules[client]
        sent = 0
        while not until(client, sent):
            kind, cell, wire = next(schedule)
            start = time.perf_counter()
            try:
                body = self.request(client, kind, cell, wire)
            except Exception:
                body = None
            end = time.perf_counter()
            sent += 1
            if kind == "compute":
                self.computes[client] += 1
            op = Op(client, kind, cell, end - start, end, body)
            with self._lock:
                out.append(op)
                self.ops.append(op)

    def run(self, until) -> Tuple[List[Op], float]:
        """Drive every connection until ``until(client, sent)`` holds
        before its next request; returns the ops and the wall time."""
        out: List[Op] = []
        threads = [
            threading.Thread(target=self._loop, args=(c, until, out))
            for c in range(CLIENTS)
        ]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return out, time.perf_counter() - start

    def cycle(self) -> List[Op]:
        """One compute and its hits on every connection (the warm-up)."""
        ops, _ = self.run(lambda client, sent: sent > HITS_PER_COMPUTE)
        return ops

    def timed(self, seconds: float, min_computes: int) -> Tuple[List[Op], float]:
        """Run until ``seconds`` pass and every connection has made at
        least ``min_computes`` computes in total."""
        deadline = time.perf_counter() + seconds

        def until(client: int, sent: int) -> bool:
            return (
                time.perf_counter() >= deadline
                and self.computes[client] >= min_computes
            )

        return self.run(until)
