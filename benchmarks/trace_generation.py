"""Time trace generation and trace storage for the 14 Table II workloads.

Generates each suite workload once (budget 40,000, seed 42, the
benchmark's cells) in this fresh interpreter, then stores it with
``diskcache.store_trace`` in a temporary cache directory, as a worker
with the disk cache on does. Prints the milliseconds each generation
and each store took, the stored ``.npz`` size, the totals, and the
process's peak resident set (``ru_maxrss``). It reports only; there is
no threshold. Each trace is generated directly, bypassing the
in-process trace cache and the disk cache, so the generation numbers
are the generators' own cost.

Usage::

    PYTHONPATH=src python benchmarks/trace_generation.py
"""

from __future__ import annotations

import resource
import tempfile
import time

from repro.sim import diskcache
from repro.workloads.suite import make_workload, workload_names

BUDGET = 40_000
SEED = 42


def main() -> None:
    gen_total = store_total = 0.0
    print(f"trace generation and store, budget {BUDGET:,}, seed {SEED}")
    print(f"  {'':10s} {'generate':>11s} {'records':>9s} {'store':>11s} {'npz':>9s}")
    with tempfile.TemporaryDirectory() as directory:
        diskcache.enable(directory)
        try:
            for name in workload_names():
                start = time.perf_counter()
                trace = make_workload(name, SEED).generate(BUDGET)
                generated = time.perf_counter() - start
                start = time.perf_counter()
                diskcache.store_trace(name, BUDGET, SEED, trace)
                stored = time.perf_counter() - start
                gen_total += generated
                store_total += stored
                key = diskcache.trace_key(name, BUDGET, SEED)
                size_kb = (
                    diskcache.cache_dir() / "traces" / f"{key}.npz"
                ).stat().st_size / 1024
                print(
                    f"  {name:10s} {generated * 1e3:8.1f} ms {len(trace):>9,}"
                    f" {stored * 1e3:8.1f} ms {size_kb:6.1f} KB"
                )
        finally:
            diskcache.disable()
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"  {'total':10s} {gen_total * 1e3:8.1f} ms {'':9s} {store_total * 1e3:8.1f} ms")
    print(f"  peak RSS (ru_maxrss) {peak_mb:.1f} MB")


if __name__ == "__main__":
    main()
