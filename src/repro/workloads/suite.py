"""The 14-workload evaluation suite (paper Table II), plus trace caching.

Traces are deterministic in (workload, seed, budget) and are memoised
process-wide so the many configurations of an experiment share one trace.
The memo is a bounded LRU (``REPRO_TRACE_CACHE_MAX`` traces, default 32):
a multi-budget/multi-seed sweep would otherwise pin hundreds of MB of
numpy arrays for traces it will never touch again. When the persistent
disk cache (:mod:`repro.sim.diskcache`) is enabled, generated traces are
also stored as ``.npz`` and reloaded across processes. A pooled matrix
worker receives each cell's trace with its task and keeps it in the same
memo (:func:`remember_trace`).
"""

from __future__ import annotations

import os
from collections import OrderedDict
from typing import Dict, List, Type

from repro.workloads.graphs import (
    BetweennessCentrality,
    Bfs,
    ConnectedComponents,
    Graph500,
    KCore,
    MaximalIndependentSet,
    PageRank,
    Sssp,
    TriangleCounting,
)
from repro.workloads.spec_like import (
    CactusAdm,
    Canneal,
    ConjugateGradient,
    Lbm,
    Mcf,
)
from repro.workloads.synthetic import (
    LocalityWorkload,
    RandomWorkload,
    StreamWorkload,
    Workload,
)
from repro.workloads.tenants import Mix2Workload, Mix4Workload
from repro.workloads.trace import Trace

#: Table II order.
WORKLOAD_CLASSES: Dict[str, Type[Workload]] = {
    "cactusADM": CactusAdm,
    "cc": ConnectedComponents,
    "cg.B": ConjugateGradient,
    "sssp": Sssp,
    "lbm": Lbm,
    "Triangle": TriangleCounting,
    "KCore": KCore,
    "canneal": Canneal,
    "pr": PageRank,
    "graph500": Graph500,
    "bfs": Bfs,
    "bc": BetweennessCentrality,
    "mis": MaximalIndependentSet,
    "mcf": Mcf,
}

#: Auxiliary kernels resolvable by name (tests, benchmarks, demos) but
#: deliberately *not* part of the Table II suite: ``workload_names()``
#: stays the paper's 14 rows and experiment sweeps are unaffected.
EXTRA_WORKLOAD_CLASSES: Dict[str, Type[Workload]] = {
    "stream": StreamWorkload,
    "urandom": RandomWorkload,
    "locality": LocalityWorkload,
}

#: Multi-tenant mixes (ASID-tagged interleavings of suite traces). Kept
#: out of both dicts above: mixes must receive the *run* seed verbatim —
#: their components are fetched through ``get_trace(component, ...,
#: seed)`` and must match the standalone single-tenant traces — so
#: ``make_workload``'s per-index seed decorrelation must not apply.
MIX_WORKLOAD_CLASSES: Dict[str, Type[Workload]] = {
    "mix2": Mix2Workload,
    "mix4": Mix4Workload,
}

#: Default per-run access budget for the fast profile. Large enough to
#: reach predictor steady state on the scaled structures, small enough
#: that a full 14-workload experiment runs in minutes of pure Python.
#: Override with the REPRO_BUDGET environment variable.
DEFAULT_BUDGET = int(os.environ.get("REPRO_BUDGET", "120000"))

#: Upper bound on memoised traces; the oldest (LRU) is dropped beyond it.
TRACE_CACHE_MAX = int(os.environ.get("REPRO_TRACE_CACHE_MAX", "32"))

_trace_cache: "OrderedDict[tuple, Trace]" = OrderedDict()

def workload_names() -> List[str]:
    """All 14 workloads in Table II order."""
    return list(WORKLOAD_CLASSES)


def all_workload_names() -> List[str]:
    """Every resolvable workload: suite, extras, and multi-tenant mixes."""
    return (
        list(WORKLOAD_CLASSES)
        + list(EXTRA_WORKLOAD_CLASSES)
        + list(MIX_WORKLOAD_CLASSES)
    )


def make_workload(name: str, seed: int = 42) -> Workload:
    mix_cls = MIX_WORKLOAD_CLASSES.get(name)
    if mix_cls is not None:
        # Mixes fetch components via get_trace(component, ..., seed): the
        # run seed passes through verbatim so components stay identical to
        # their standalone traces (decorrelation happens per component).
        return mix_cls(seed=seed)
    cls = WORKLOAD_CLASSES.get(name) or EXTRA_WORKLOAD_CLASSES.get(name)
    if cls is None:
        raise ValueError(
            f"unknown workload {name!r}; choose from {all_workload_names()}"
        )
    # Decorrelate workloads sharing a generator family: each gets its own
    # stream of graph/table randomness derived from the suite seed. Extras
    # index after the suite so suite traces are byte-stable regardless.
    index = (list(WORKLOAD_CLASSES) + list(EXTRA_WORKLOAD_CLASSES)).index(name)
    return cls(seed=seed + 101 * index)


def get_trace(name: str, budget: int = DEFAULT_BUDGET, seed: int = 42) -> Trace:
    """Deterministic, memoised trace for ``name``."""
    key = (name, budget, seed)
    trace = _trace_cache.get(key)
    if trace is not None:
        _trace_cache.move_to_end(key)
        return trace
    # Imported lazily: repro.sim.runner imports this module at class-level,
    # so a top-level import of repro.sim.diskcache here would be circular.
    import repro.sim.diskcache as diskcache

    trace = diskcache.load_trace(name, budget, seed)
    if trace is None:
        trace = make_workload(name, seed).generate(budget)
        diskcache.store_trace(name, budget, seed, trace)
    remember_trace(name, budget, seed, trace)
    return trace


def remember_trace(name: str, budget: int, seed: int, trace: Trace) -> None:
    """Memoise ``trace`` as ``get_trace(name, budget, seed)``'s answer
    (most recently used), evicting the LRU traces beyond the bound."""
    key = (name, budget, seed)
    _trace_cache[key] = trace
    _trace_cache.move_to_end(key)
    while len(_trace_cache) > max(1, TRACE_CACHE_MAX):
        _trace_cache.popitem(last=False)


def clear_trace_cache() -> None:
    """Drop every memoised trace (frees the backing numpy arrays)."""
    _trace_cache.clear()


def trace_cache_size() -> int:
    """Number of traces currently memoised (introspection/test helper)."""
    return len(_trace_cache)
