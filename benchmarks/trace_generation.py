"""Time trace generation for the 14 Table II workloads.

Generates each suite workload once (budget 40,000, seed 42, the
benchmark's cells) in this fresh interpreter, and prints the
milliseconds each took, the total, and the process's peak resident set
(``ru_maxrss``). It reports only; there is no threshold. Each trace is
generated directly, bypassing the in-process trace cache and the disk
cache, so the numbers are the generators' own cost.

Usage::

    PYTHONPATH=src python benchmarks/trace_generation.py
"""

from __future__ import annotations

import resource
import time

from repro.workloads.suite import make_workload, workload_names

BUDGET = 40_000
SEED = 42


def main() -> None:
    total = 0.0
    print(f"trace generation, budget {BUDGET:,}, seed {SEED}")
    for name in workload_names():
        start = time.perf_counter()
        trace = make_workload(name, SEED).generate(BUDGET)
        elapsed = time.perf_counter() - start
        total += elapsed
        print(f"  {name:10s} {elapsed * 1e3:8.1f} ms  {len(trace):>9,} records")
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"  {'total':10s} {total * 1e3:8.1f} ms")
    print(f"  peak RSS (ru_maxrss) {peak_mb:.1f} MB")


if __name__ == "__main__":
    main()
