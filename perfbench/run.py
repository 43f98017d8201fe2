#!/usr/bin/env python3
"""The repo benchmark: simulator throughput, set-up, memory and serving
latency on the paper's workloads, with every output checked.

Run from the root of a checkout::

    python3 perfbench/run.py --workload suite --seed 42 --seconds 15
    python3 perfbench/run.py --workload serve --trace 1      # per-layer
    python3 perfbench/run.py --workload all                  # every one

Each workload runs in a fresh interpreter with ``PYTHONHASHSEED`` fixed
and ``REPRO_*`` settings cleared. The last stdout line is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics, or with ``--trace 1`` the per-layer metrics). A
human summary goes to stderr; the traced run's spans go to
``perfbench/out/``. README.md defines every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("suite", "scenarios", "sweep", "serve")
#: Set-up is repeated this many times per run, and imports are probed in
#: this many fresh interpreters; ``setup_s`` adds the two medians.
SETUP_REPS = 3
IMPORT_PROBES = 5
#: Computes each serve connection makes before the run may end; their
#: cells (plus the warm cells) carry the serve run's simulated metrics.
SERVE_MIN_COMPUTES = 6
_FRESH = "PERFBENCH_FRESH"

UNITS = {
    "rec_per_s": "rec/s", "req_per_s": "1/s", "op_p50_ms": "ms",
    "op_tail_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB",
    "ipc_geomean": "IPC", "llt_mpki": "MPKI", "llc_mpki": "MPKI",
}

LAYER_UNITS = {
    "workloads.generate_s": "s",
    "machine.build_ms": "ms", "machine.finalize_ms": "ms",
    "engine.run_ms": "ms", "engine.ns_per_rec": "ns",
    "engine.flat_share": "ratio", "engine.bulk_share": "ratio",
    "engine.scalar_share": "ratio",
    "engine.declines.tenant": "count", "engine.declines.hugepage": "count",
    "engine.declines.predictor": "count",
    "vm.llt_miss_ratio": "ratio", "vm.llt_bypasses": "count",
    "vm.shadow_hits": "count", "vm.walks_per_krec": "1/krec",
    "vm.walk_mem_per_walk": "count", "vm.walk_cycles_per_walk": "cycles",
    "vm.shootdowns": "count", "vm.context_switches": "count",
    "mem.l1d_hit_ratio": "ratio", "mem.l2_hit_ratio": "ratio",
    "mem.llc_hit_ratio": "ratio", "mem.llc_bypasses": "count",
    "mem.mem_per_krec": "1/krec",
    "parallel.matrix_ms": "ms", "shm.publish_ms": "ms",
    "parallel.efficiency": "ratio",
    "results.to_wire_ms": "ms", "results.wire_kb": "KB",
    "diskcache.store_ms": "ms", "diskcache.load_ms": "ms",
    "serve.hit_ms": "ms", "serve.compute_ms": "ms", "serve.queue_ms": "ms",
    "serve.hits": "count", "serve.computed": "count",
    "serve.coalesced": "count", "serve.errors": "count",
    "host.calib_ms": "ms", "trace.overhead_pct": "%",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        default="all")
    parser.add_argument("--seed", type=int, default=42,
                        help="input seed, folded onto the recorded seeds "
                             "(cells.input_seed)")
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record-references", metavar="SEEDS",
        help="record scalar-engine digests for these seeds (e.g. 0-12,42) "
             "in reference_digests.json, replacing earlier ones, then exit",
    )
    parser.add_argument("--probe-imports", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def fresh_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, HERE, env.get("PYTHONPATH")) if p
    )
    env[_FRESH] = "1"
    return env


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------- #
# Imports (timed in fresh interpreters: they are part of set-up)
# ---------------------------------------------------------------------- #
def load_modules():
    import benchcore
    import batch
    import cells
    import serveload
    import tracing

    return benchcore, batch, cells, serveload, tracing


def probe_imports() -> None:
    """Start a fresh interpreter that imports every module and exits."""
    subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--probe-imports"],
        env=fresh_env(), capture_output=True, timeout=120, check=True,
    )


# ---------------------------------------------------------------------- #
# Batch workloads
# ---------------------------------------------------------------------- #
def run_batch(args, setup_imports, recorder, calibrator):
    benchcore, batch, cells, _, tracing = load_modules()
    make = {
        "suite": cells.suite_cells,
        "scenarios": cells.scenario_cells,
        "sweep": cells.sweep_cells,
    }[args.workload]
    cell_list = make(args.seed)
    bench = (
        batch.SweepWorkload if args.workload == "sweep"
        else batch.InProcessWorkload
    )(cell_list, calibrator)

    # An in-process workload runs on one CPU, the one the kernel is
    # timed on; a sweep's pool must have both.
    pin = (nullcontext() if args.workload == "sweep"
           else benchcore.pinned_to_one_cpu())
    with pin:
        setup_samples = []
        if recorder is not None:
            tracing.install(recorder)
        for rep in range(SETUP_REPS):
            tag = (recorder.request(f"setup-{rep}") if recorder
                   else nullcontext())
            with tag:
                setup_samples.append(sum(benchcore.host_scaled_times(
                    calibrator, bench.setup_steps()
                )))
        if recorder is not None:
            recorder.uninstall()
        generate = [
            tracing.generate_seconds(recorder, f"setup-{rep}")
            for rep in range(SETUP_REPS)
        ] if recorder is not None else []

        bench.warm_up()

        layers = {}
        if recorder is None:
            times = {}
            bench.measure(args.seconds, times)
        else:
            untraced = {}
            bench.measure(args.seconds / 2, untraced)
            since = len(recorder.spans)
            tracing.install(recorder)
            bench.recorder = recorder
            times = {}
            bench.measure(args.seconds / 2, times)
            if args.workload == "sweep":
                layers.update(_sweep_replay(bench, recorder, since))
            recorder.uninstall()
            rate_untraced = _batch_rate(bench, untraced)
            rate_traced = _batch_rate(bench, times)
            layers.update(tracing.span_metrics(recorder, since))
            if args.workload == "sweep":
                generate = [
                    tracing.generate_seconds(recorder, s.request)
                    for s in recorder.named("parallel.matrix", since)
                ]
            layers["workloads.generate_s"] = benchcore.median_or_zero(generate)
            layers["trace.overhead_pct"] = 100.0 * (
                rate_untraced / rate_traced - 1.0
            )

    rss = benchcore.peak_rss_mb()
    reference = cells.reference_digests(cell_list)
    failed = bench.check.failed(reference)
    results = [bench.results[c.key] for c in cell_list if c.key in bench.results]
    complete = len(results) == len(cell_list) and all(
        key in times for key in bench.records()
    )
    per_cell = [statistics.median(t) for t in times.values()]
    work = {k: v for k, v in bench.records().items() if k in times}
    e2e = {
        "rec_per_s": benchcore.per_cell_median_rate(times, work),
        "req_per_s": benchcore.per_cell_median_rate(
            times, {k: 1 for k in work}
        ),
        "op_p50_ms": 1e3 * statistics.fmean(per_cell),
        "op_tail_ms": 1e3 * benchcore.slowest_quarter_mean(per_cell),
        "setup_s": statistics.median(setup_imports)
        + statistics.median(setup_samples),
        "peak_rss_mb": rss,
        **cells.exact_metrics(results),
    }
    layers.update(cells.layer_counts(
        results, sum(c.budget for c in cell_list if c.key in bench.results)
    ))
    calibs = calibrator.samples
    layers["host.calib_ms"] = benchcore.median_or_zero(calibs)
    ops = sum(len(t) for t in times.values())
    log(
        f"{args.workload}: {ops} timed ops over {len(times)} cells, "
        f"setup samples {[round(s, 3) for s in setup_samples]}, "
        f"imports {[round(s, 3) for s in setup_imports]}, "
        f"calib median {layers['host.calib_ms']:.2f} ms "
        f"(min {min(calibs, default=0):.2f}, max {max(calibs, default=0):.2f})"
    )
    report = {"calib_ms": calibs, "ops": bench.timeline}
    return bench.check.attempted, failed, complete, e2e, layers, report


def _batch_rate(bench, times) -> float:
    from benchcore import per_cell_median_rate

    work = {k: v for k, v in bench.records().items() if k in times}
    return per_cell_median_rate(times, work)


def _sweep_replay(bench, recorder, since):
    """Simulate the sweep's cells serially in-process (traced): the
    serial time behind ``parallel.efficiency``, and engine spans for
    cells that otherwise only run inside pool workers."""
    from benchcore import median_or_zero
    from batch import SWEEP_JOBS

    start = len(recorder.spans)
    with recorder.request("serial-replay"):
        for cell in bench.cells:
            cell.machine().run(cell.trace())
    serial = sum(s.duration for s in recorder.named("engine.run", start))
    matrix = median_or_zero(
        s.duration for s in recorder.named("parallel.matrix", since)
    )
    return {"parallel.efficiency": serial / (SWEEP_JOBS * matrix)}


# ---------------------------------------------------------------------- #
# Serve workload
# ---------------------------------------------------------------------- #
def run_serve(args, setup_imports, recorder, calibrator):
    benchcore, _, cells, serveload, tracing = load_modules()
    from repro.sim.results import SimResult, wire_bytes

    check = benchcore.OutputCheck()
    first = {}

    def accept(cell, body) -> None:
        if body is None:
            check.error(cell.key)
            return
        try:
            result = json.loads(body.decode())["result"]
        except (ValueError, KeyError):
            check.error(cell.key)
            return
        check.record(cell.key, wire_bytes(result))
        first.setdefault(cell.key, result)

    server = client = None

    def start_server() -> None:
        nonlocal server, client
        server = serveload.ServerProcess().start()
        client = server.client()

    def warm(cell, wire):
        return lambda: accept(cell, client.run_bytes(
            cell.workload, wire, budget=cell.budget, seed=cell.seed
        ))

    setup_samples = []
    try:
        for _ in range(SETUP_REPS):
            if server is not None:
                server.stop()
            steps = [start_server] + [
                warm(cell, wire)
                for _, cell, wire in serveload.warm_items(args.seed)
            ]
            setup_samples.append(
                sum(benchcore.host_scaled_times(calibrator, steps))
            )

        sent = [0] * serveload.CLIENTS

        def request(conn, kind, cell, wire):
            sent[conn] += 1
            tag = (recorder.request(f"c{conn}-{sent[conn]}-{kind}")
                   if recorder is not None else nullcontext())
            with tag:
                return client.run_bytes(
                    cell.workload, wire, budget=cell.budget, seed=cell.seed
                )

        driver = serveload.ServeDriver(args.seed, request)
        driver.cycle()

        def phase(seconds, min_computes):
            """One closed-loop phase: its ops, and the factor that scales
            its times to the reference host speed. The server, its worker
            and the clients share both CPUs, so the kernel is sampled on
            each in turn all through the phase."""
            calibrator.watch()
            ops, wall = driver.timed(seconds, min_computes)
            return ops, wall, benchcore.host_scaled(1.0, calibrator.stop())

        layers = {}
        if recorder is None:
            timed, wall, scale = phase(args.seconds, SERVE_MIN_COMPUTES)
        else:
            untraced, wall_a, scale_a = phase(args.seconds / 2, 0)
            tracing.install(recorder)
            timed, wall, scale = phase(args.seconds / 2, SERVE_MIN_COMPUTES)
            recorder.uninstall()
            layers["trace.overhead_pct"] = 100.0 * (
                (len(untraced) / (wall_a * scale_a))
                / (len(timed) / (wall * scale)) - 1.0
            )
        counters = client.status()["counters"]
        rss = benchcore.peak_rss_mb()
    finally:
        if server is not None:
            server.stop()

    for op in driver.ops:
        accept(op.cell, op.body)

    # Simulated metrics come from a fixed cell set: the warm cells plus
    # each connection's first SERVE_MIN_COMPUTES computes.
    warm = [cell for _, cell, _ in serveload.warm_items(args.seed)]
    fixed_fresh = []
    for conn in range(serveload.CLIENTS):
        computes = [op for op in driver.ops
                    if op.client == conn and op.kind == "compute"]
        fixed_fresh.extend(computes[:SERVE_MIN_COMPUTES])
    fixed = warm + [op.cell for op in fixed_fresh]
    results = [SimResult.from_dict(first[c.key]) for c in fixed if c.key in first]

    if recorder is not None:
        layers.update(_serve_layers(
            recorder, tracing, benchcore, fixed_fresh, timed, counters
        ))

    requested = list({op.cell.key: op.cell for op in driver.ops}.values())
    reference = cells.reference_digests(warm + requested)
    failed = check.failed(reference)
    latencies = [op.latency * scale for op in timed]
    computes = [op for op in timed if op.kind == "compute"]
    tail = benchcore.tail_percentile(latencies)
    e2e = {
        "rec_per_s": sum(op.cell.budget for op in computes) / (wall * scale),
        "req_per_s": len(timed) / (wall * scale),
        "op_p50_ms": 1e3 * statistics.median(latencies),
        "op_tail_ms": 1e3 * (tail[1] if tail else max(latencies)),
        "setup_s": statistics.median(setup_imports)
        + statistics.median(setup_samples),
        "peak_rss_mb": rss,
        **cells.exact_metrics(results),
    }
    layers.update(cells.layer_counts(
        results, sum(c.budget for c in fixed)
    ))
    calibs = calibrator.samples
    layers["host.calib_ms"] = benchcore.median_or_zero(calibs)
    complete = len(results) == len(fixed) and tail is not None
    log(
        f"serve: {len(timed)} timed requests ({len(computes)} computes) in "
        f"{wall:.2f} s; tail p{tail[0]:.1f} with {tail[2]} samples beyond; "
        f"status {counters}; setup samples "
        f"{[round(s, 3) for s in setup_samples]}"
        if tail else f"serve: only {len(timed)} timed requests"
    )
    report = {
        "calib_ms": calibs, "wall_s": wall, "scale": scale,
        "ops": [[op.client, op.kind, op.latency, op.end] for op in timed],
    }
    return check.attempted, failed, complete, e2e, layers, report


def _serve_layers(recorder, tracing, benchcore, fixed_fresh, timed, counters):
    """Serve per-layer metrics; ``queue_ms`` re-runs the fixed computed
    cells in-process (traced) to subtract their simulation time."""
    since = len(recorder.spans)
    tracing.install(recorder)
    inproc = {}
    try:
        for op in fixed_fresh:
            trace = op.cell.trace()
            with recorder.request(f"replay-{op.cell.key[:12]}"):
                start = time.perf_counter()
                op.cell.machine().run(trace)
                inproc[op.cell.key] = time.perf_counter() - start
    finally:
        recorder.uninstall()
    layers = tracing.span_metrics(recorder, since)
    hits = [op.latency for op in timed if op.kind == "hit"]
    computes = [op.latency for op in timed if op.kind == "compute"]
    layers.update({
        "serve.hit_ms": 1e3 * benchcore.median_or_zero(hits),
        "serve.compute_ms": 1e3 * benchcore.median_or_zero(computes),
        "serve.queue_ms": 1e3 * benchcore.median_or_zero(
            op.latency - inproc[op.cell.key] for op in fixed_fresh
        ),
        "serve.hits": counters.get("hits", 0),
        "serve.computed": counters.get("computed", 0),
        "serve.coalesced": counters.get("coalesced", 0),
        "serve.errors": counters.get("errors", 0),
    })
    return layers


# ---------------------------------------------------------------------- #
# Entry points
# ---------------------------------------------------------------------- #
def run_workload(args) -> int:
    from benchcore import (
        Calibrator, SpanRecorder, host_scaled_times, pinned_to_one_cpu,
    )
    from cells import OUT_DIR, input_seed

    args.seed = input_seed(args.seed)
    os.makedirs(OUT_DIR, exist_ok=True)
    recorder = SpanRecorder() if args.trace else None
    runner = run_serve if args.workload == "serve" else run_batch
    with Calibrator() as calibrator:
        with pinned_to_one_cpu():
            setup_imports = host_scaled_times(
                calibrator, [probe_imports] * IMPORT_PROBES
            )
        attempted, failed, complete, e2e, layers, report = runner(
            args, setup_imports, recorder, calibrator
        )
    with open(os.path.join(
        OUT_DIR, f"report-{args.workload}-seed{args.seed}.json"
    ), "w") as f:
        json.dump(report, f)
    if recorder is not None:
        path = os.path.join(
            OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl"
        )
        recorder.write(path)
        log(f"spans: {len(recorder.spans)} written to {path}")
        metrics = {
            name: {"value": float(layers.get(name, 0.0)), "unit": unit}
            for name, unit in LAYER_UNITS.items()
        }
    else:
        metrics = {
            name: {"value": float(e2e[name]), "unit": unit}
            for name, unit in UNITS.items()
        }
    for name, metric in metrics.items():
        log(f"  {name:28s} {metric['value']:14.6g} {metric['unit']}")
    print(json.dumps({
        "correct": failed == 0 and complete,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def run_all(args) -> int:
    """Every workload, each in its own fresh interpreter."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__),
             "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            env=fresh_env(), stdout=subprocess.PIPE, text=True, check=True,
        )
        report = json.loads(out.stdout.strip().splitlines()[-1])
        merged["correct"] &= report["correct"]
        merged["attempted"] += report["attempted"]
        merged["failed"] += report["failed"]
        for name, metric in report["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(merged))
    return 0


def record_references(spec: str) -> int:
    from itertools import islice

    import cells
    import serveload

    seeds = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    for seed in seeds:
        batch_cells = (
            cells.suite_cells(seed) + cells.scenario_cells(seed)
            + cells.sweep_cells(seed)
        )
        serve_cells = [cell for _, cell, _ in serveload.warm_items(seed)]
        for conn in range(serveload.CLIENTS):
            schedule = serveload.client_schedule(seed, conn)
            serve_cells += [
                cell for kind, cell, _ in islice(schedule, RECORD_SERVE_ITEMS)
                if kind == "compute"
            ]
        recorded = cells.record_digests(seed, batch_cells + serve_cells)
        log(f"seed {seed}: {recorded} reference digests recorded")
    return 0


#: Requests per serve connection whose cells get recorded digests.
RECORD_SERVE_ITEMS = 500


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        log(f"perfbench: no simulator sources at {SRC}; "
            "run the benchmark from a checkout of the repo")
        return 2
    if os.environ.get(_FRESH) != "1":
        # A fresh interpreter with fixed hashing and no REPRO_* settings.
        os.execve(sys.executable,
                  [sys.executable, os.path.abspath(__file__)] + sys.argv[1:],
                  fresh_env())
    if args.probe_imports:
        load_modules()
        return 0
    from benchcore import stop_descendants

    # A SIGTERM unwinds through the ``finally`` below like an exception.
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    try:
        if args.record_references:
            return record_references(args.record_references)
        if args.workload == "all":
            return run_all(args)
        return run_workload(args)
    finally:
        # Nothing the benchmark started may outlive it.
        stray = stop_descendants()
        if stray:
            log(f"perfbench: stopped leftover processes {stray}")


if __name__ == "__main__":
    sys.exit(main())
