"""The predictor frontier: all five predictor families head-to-head.

Beyond the paper's own comparison (dpPred/cbPred vs SHiP/AIP), this runs
the two frontier families the ROADMAP points at — Leeway-style
variability-aware reuse prediction and a hashed-perceptron bypass
predictor (see :mod:`repro.predictors.leeway` /
:mod:`repro.predictors.perceptron`) — on the six-workload engine suite,
each family cleaning *both* structures (LLT + LLC) per the paper's
"together" framing. The report carries:

* per-workload IPC speedups over the LRU baseline (+ geomean);
* LLT / LLC MPKI reductions and the walk-cycle reduction (the
  translation-side win dpPred targets);
* accuracy / coverage of the two new families against the ground-truth
  reference structures (the Tables VI/VII machinery);
* the Table III DOA-correlation anchor next to each new family's
  realised bypass rates — how much of the page↔block correlation the
  paper measures each predictor actually converts into cleaning;
* an engine note stating what ran in this process: the batched engine's
  flat/scalar record split and decline reasons over the experiment.
"""

from __future__ import annotations

from typing import Dict

from repro.common.stats import arithmetic_mean, geometric_mean
from repro.experiments.common import (
    aip_both,
    baseline,
    characterization,
    combined,
    leeway_both,
    perceptron_both,
    run_suite,
    ship_both,
)
from repro.experiments.report import ExperimentReport
from repro.sim.engine import (
    describe_engine_totals,
    engine_totals,
    engine_totals_since,
)
from repro.workloads.suite import DEFAULT_BUDGET, workload_names

#: The five families, each at both levels (dpPred couples cbPred).
_FAMILIES = ("dppred", "ship", "aip", "leeway", "perceptron")

#: The engine suite: the six workloads the perf gate and benchmarks use.
SUITE_WORKLOADS = 6


def _frontier_configs() -> Dict[str, object]:
    return {
        "base": baseline(),
        "dppred": combined(),
        "ship": ship_both(),
        "aip": aip_both(),
        "leeway": leeway_both(),
        "perceptron": perceptron_both(),
        "char": characterization(),
    }


def predictor_frontier(budget: int = DEFAULT_BUDGET) -> ExperimentReport:
    """dpPred+cbPred vs SHiP vs AIP vs Leeway vs perceptron, both levels."""
    workloads = workload_names()[:SUITE_WORKLOADS]
    engine_before = engine_totals()
    suite = run_suite(_frontier_configs(), budget, workloads=workloads)
    report = ExperimentReport(
        "predictor_frontier",
        "Predictor families head-to-head at both levels (six-workload suite)",
    )

    # IPC speedups over the LRU baseline.
    rows = []
    gains = {name: [] for name in _FAMILIES}
    for wl in workloads:
        row = [wl]
        for fam in _FAMILIES:
            speedup = suite.ipc_vs(wl, fam, "base")
            gains[fam].append(speedup)
            row.append(speedup)
        rows.append(tuple(row))
    rows.append(
        ("GEOMEAN", *[geometric_mean(gains[f]) for f in _FAMILIES])
    )
    report.add_table(
        ["workload", "dpPred+cbPred", "SHiP", "AIP", "Leeway", "perceptron"],
        rows,
    )

    # MPKI and walk-cycle deltas vs the baseline.
    rows = []
    for wl in workloads:
        base_result = suite.result(wl, "base")
        for fam in _FAMILIES:
            result = suite.result(wl, fam)
            walk_red = (
                100.0
                * (base_result.walk_cycles - result.walk_cycles)
                / base_result.walk_cycles
                if base_result.walk_cycles
                else 0.0
            )
            rows.append(
                (
                    wl,
                    fam,
                    suite.llt_mpki_reduction(wl, fam, "base"),
                    suite.llc_mpki_reduction(wl, fam, "base"),
                    walk_red,
                )
            )
    report.add_table(
        ["workload", "family", "LLT MPKI red %", "LLC MPKI red %",
         "walk-cycle red %"],
        rows,
    )

    # Accuracy / coverage of the new families (ground-truth references).
    rows = []
    for wl in workloads:
        row = [wl]
        for fam in ("leeway", "perceptron"):
            result = suite.result(wl, fam)
            for value in (
                result.tlb_accuracy, result.tlb_coverage,
                result.llc_accuracy, result.llc_coverage,
            ):
                row.append(100 * value if value is not None else None)
        rows.append(tuple(row))
    report.add_table(
        ["workload",
         "Leeway TLB acc", "Leeway TLB cov",
         "Leeway LLC acc", "Leeway LLC cov",
         "perc TLB acc", "perc TLB cov",
         "perc LLC acc", "perc LLC cov"],
        rows,
    )

    # Table III anchor: the measured DOA-block-on-DOA-page correlation
    # next to each new family's realised bypasses per kilo-instruction.
    rows = []
    corr_vals = []
    for wl in workloads:
        char = suite.result(wl, "char")
        corr = 100 * char.doa_block_on_doa_page_fraction
        corr_vals.append(corr)
        row = [wl, corr]
        for fam in ("leeway", "perceptron"):
            result = suite.result(wl, fam)
            kilo = result.instructions / 1000.0
            row.append(result.llt_bypasses / kilo if kilo else 0.0)
            row.append(result.llc_bypasses / kilo if kilo else 0.0)
        rows.append(tuple(row))
    report.add_table(
        ["workload", "DOA blk on DOA page %",
         "Leeway LLT byp/KI", "Leeway LLC byp/KI",
         "perc LLT byp/KI", "perc LLC byp/KI"],
        rows,
    )
    report.add_note(
        f"avg DOA-block-on-DOA-page correlation: "
        f"{arithmetic_mean(corr_vals):.1f}% (Table III anchor)"
    )
    report.add_note(engine_note(engine_totals_since(engine_before)))
    return report


def engine_note(totals: dict) -> str:
    """The report's engine line for the batched-engine dispatch
    ``totals`` counted over the experiment in this process."""
    if not totals["runs"]:
        return (
            "engine: no batched-engine runs in this process (results "
            "came from the run cache, worker processes or the scalar "
            "engine)"
        )
    return f"engine (this process): {describe_engine_totals(totals)}"
