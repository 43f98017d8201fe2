"""What each workload simulates, the reference digests its outputs are
checked against, and the simulated statistics computed over its cells.

A *cell* is one (trace workload, config, budget, seed) simulation. Its key
hashes the benchmark's own name for the cell — workload, config label,
budget, seed — not the simulator's config or cache schema, so a program
change that alters a cell's output fails the check until the reference
is re-recorded on purpose.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterable, List, Sequence

from repro.common.stats import geometric_mean
from repro.sim.config import (
    SystemConfig,
    fast_config,
    hugepage_config,
    leeway_config,
    mix2_config,
    mix4_config,
    perceptron_config,
)
from repro.sim.machine import Machine
from repro.sim.runner import machine_seed_for
from repro.workloads import suite as suite_mod

from benchcore import digest

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")
#: Scalar-engine digests committed with the benchmark (see README.md).
RECORDED = os.path.join(HERE, "reference_digests.json")

#: Records per trace for the batch workloads.
BUDGET = 40_000
#: Runs make their inputs from seeds 0 to INPUT_SEEDS - 1, the seeds
#: ``reference_digests.json`` records.
INPUT_SEEDS = 61


def input_seed(seed: int) -> int:
    """The seed a run makes its inputs from: ``seed`` folded onto the
    recorded seeds, so every run is checked against the recorded
    scalar-engine digests and none spends its time on scalar reference
    runs."""
    return seed % INPUT_SEEDS


def dp_cb(profile=fast_config, **knobs) -> SystemConfig:
    """``profile`` with the paper's dpPred + cbPred pair."""
    return profile(tlb_predictor="dppred", llc_predictor="cbpred", **knobs)


@dataclass(frozen=True)
class Cell:
    workload: str
    #: The benchmark's name for ``config``; one label, one config.
    label: str
    config: SystemConfig
    budget: int
    seed: int

    @property
    def ident(self) -> str:
        return f"{self.workload}|{self.label}|{self.budget}|{self.seed}"

    @cached_property
    def key(self) -> str:
        """The cell's identity as SHA-256, cut to 128 bits."""
        return hashlib.sha256(self.ident.encode()).hexdigest()[:32]

    def trace(self):
        # Through the module attribute, so a traced run's wrapper sees it.
        return suite_mod.get_trace(self.workload, self.budget, self.seed)

    def machine(self) -> Machine:
        """The machine every path builds for this cell (the run seed's
        derived machine seed, as ``run_cached`` uses)."""
        return Machine(self.config, seed=machine_seed_for(self.seed))


def suite_cells(seed: int) -> List[Cell]:
    """The 14 Table II workloads x {LRU baseline, dpPred+cbPred}."""
    return [
        Cell(name, label, config, BUDGET, seed)
        for name in suite_mod.workload_names()
        for label, config in (("lru", fast_config()), ("dp_cb", dp_cb()))
    ]


def scenario_cells(seed: int) -> List[Cell]:
    """Configs the flat tier declines today (tenants, huge pages,
    registry predictors): they run on the scalar residual path."""
    return [
        Cell("mix2", "mix2_dp_cb", dp_cb(mix2_config), BUDGET, seed),
        Cell("mix4", "mix4_dp_cb", dp_cb(mix4_config), BUDGET, seed),
        Cell("mcf", "hugepage_dp_cb", dp_cb(hugepage_config), BUDGET, seed),
        Cell("pr", "hugepage_dp_cb", dp_cb(hugepage_config), BUDGET, seed),
        Cell("mcf", "leeway", leeway_config(), BUDGET, seed),
        Cell("bfs", "leeway", leeway_config(), BUDGET, seed),
        Cell("mcf", "perceptron", perceptron_config(), BUDGET, seed),
        Cell("bfs", "perceptron", perceptron_config(), BUDGET, seed),
    ]


def sweep_cells(seed: int) -> List[Cell]:
    """One cold ``run_matrix``: four workloads x {baseline, dpPred+cbPred}."""
    return [
        Cell(name, label, config, BUDGET, seed)
        for name in ("bfs", "pr", "mcf", "lbm")
        for label, config in (("lru", fast_config()), ("dp_cb", dp_cb()))
    ]


# ---------------------------------------------------------------------- #
# Simulated statistics
# ---------------------------------------------------------------------- #
def exact_metrics(results: Sequence) -> Dict[str, float]:
    """IPC geomean and aggregate MPKIs over distinct cells' results.

    These are simulated statistics: they repeat bit-for-bit for a seed,
    so any movement means the simulated machine changed, never noise.
    """
    instructions = sum(r.instructions for r in results)
    return {
        "ipc_geomean": geometric_mean(r.ipc for r in results),
        "llt_mpki": 1000.0 * sum(r.llt_misses for r in results) / instructions,
        "llc_mpki": 1000.0 * sum(r.llc_misses for r in results) / instructions,
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_counts(results: Sequence, records: int) -> Dict[str, float]:
    """Per-layer counts of the simulated ``vm`` and ``mem`` layers over
    distinct cells' results (``records`` trace records in total)."""

    def raw(structure: str, counter: str) -> int:
        return sum(r.raw.get(structure, {}).get(counter, 0) for r in results)

    def total(attr: str) -> int:
        return sum(getattr(r, attr) for r in results)

    walks = total("walks")
    llt_lookups = total("llt_hits") + total("llt_misses") + total(
        "llt_shadow_hits"
    )
    return {
        "vm.llt_miss_ratio": _ratio(total("llt_misses"), llt_lookups),
        "vm.llt_bypasses": total("llt_bypasses"),
        "vm.shadow_hits": total("llt_shadow_hits"),
        "vm.walks_per_krec": 1000.0 * walks / records,
        "vm.walk_mem_per_walk": _ratio(
            raw("walker", "walk_memory_accesses"), walks
        ),
        "vm.walk_cycles_per_walk": _ratio(total("walk_cycles"), walks),
        "vm.shootdowns": raw("tenants", "shootdowns"),
        "vm.context_switches": raw("tenants", "context_switches"),
        "mem.l1d_hit_ratio": _ratio(
            raw("l1d", "hits"), raw("l1d", "hits") + raw("l1d", "misses")
        ),
        "mem.l2_hit_ratio": _ratio(
            raw("l2", "hits"), raw("l2", "hits") + raw("l2", "misses")
        ),
        "mem.llc_hit_ratio": _ratio(
            total("llc_hits"), total("llc_hits") + total("llc_misses")
        ),
        "mem.llc_bypasses": total("llc_bypasses"),
        "mem.mem_per_krec": 1000.0 * total("mem_accesses") / records,
    }


# ---------------------------------------------------------------------- #
# Reference digests
# ---------------------------------------------------------------------- #
def scalar_digest(cell: Cell) -> str:
    """Digest of the cell's result under the scalar reference engine."""
    result = cell.machine().run(cell.trace(), engine="scalar")
    return digest(result.to_wire())


def _keyed_scalar_digest(cell: Cell) -> tuple:
    return cell.key, scalar_digest(cell)


def load_recorded() -> dict:
    """``{"seeds": [...], "digests": {cell key: digest}}``."""
    try:
        with open(RECORDED) as f:
            return json.load(f)
    except FileNotFoundError:
        return {"seeds": [], "digests": {}}


def compute_digests(cells: Iterable[Cell], jobs: int = 2) -> Dict[str, str]:
    """Scalar-reference digests of ``cells``, on ``jobs`` processes."""
    cells = list({cell.key: cell for cell in cells}.values())
    if jobs <= 1 or len(cells) <= 1:
        return dict(_keyed_scalar_digest(cell) for cell in cells)
    context = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(jobs, mp_context=context) as pool:
        return dict(pool.map(_keyed_scalar_digest, cells))


def reference_digests(cells: Iterable[Cell], jobs: int = 2) -> Dict[str, str]:
    """Reference digest of every cell: recorded, or computed now with the
    scalar engine (call this after the timed region — an unrecorded cell
    costs one scalar run)."""
    cells = list(cells)
    recorded = load_recorded()
    known = dict(recorded["digests"])
    missing = [cell for cell in cells if cell.key not in known]
    stray = sorted({c.seed for c in missing} & set(recorded["seeds"]))
    if stray:
        print(
            f"perfbench: {len(missing)} cells of recorded seeds {stray} have "
            "no recorded digest; checking them against this checkout's "
            "scalar engine", file=sys.stderr,
        )
    known.update(compute_digests(missing, jobs))
    return {cell.key: known[cell.key] for cell in cells}


def record_digests(seed: int, cells: Iterable[Cell], jobs: int = 2) -> int:
    """Record scalar-reference digests of ``cells`` (all of ``seed``) in
    the committed file, replacing any earlier ones; returns the count."""
    recorded = load_recorded()
    fresh = compute_digests(cells, jobs)
    recorded["digests"].update(fresh)
    recorded["seeds"] = sorted(set(recorded["seeds"]) | {seed})
    recorded["digests"] = dict(sorted(recorded["digests"].items()))
    tmp = f"{RECORDED}.{os.getpid()}.tmp"
    with open(tmp, "w") as f:
        json.dump(recorded, f, indent=0)
        f.write("\n")
    os.replace(tmp, RECORDED)
    return len(fresh)
