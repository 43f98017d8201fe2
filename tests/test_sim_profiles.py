"""Profile-level tests: the Table I (paper) machine and SRRIP machines run
end to end, the scaled profile preserves relative behaviour, and a
finished machine of every shipped profile is freed by reference
counting alone."""

import gc
import weakref

import numpy as np
import pytest

from repro.sim.config import (
    TLB_PRED_NONE,
    LLC_PRED_NONE,
    fast_config,
    hugepage_config,
    leeway_config,
    mix2_config,
    mix4_config,
    paper_config,
    perceptron_config,
)
from repro.sim.machine import Machine
from repro.sim.runner import run_trace
from repro.workloads.suite import get_trace
from repro.workloads.trace import Trace


def make_trace(n, pages, seed=9):
    rng = np.random.RandomState(seed)
    vaddrs = (
        0x10000000 + rng.randint(0, pages, n).astype(np.uint64) * 4096
    )
    return Trace(
        "t",
        np.full(n, 0x400000, dtype=np.uint64),
        vaddrs,
        np.zeros(n, dtype=bool),
        np.full(n, 3, dtype=np.uint16),
    )


class TestPaperProfile:
    def test_paper_machine_runs(self):
        trace = make_trace(3000, pages=4000)
        result = run_trace(trace, paper_config())
        assert result.ipc > 0
        assert result.llt_misses > 0

    def test_paper_machine_with_predictors(self):
        trace = make_trace(3000, pages=4000)
        result = run_trace(
            trace,
            paper_config(tlb_predictor="dppred", llc_predictor="cbpred"),
        )
        assert result.ipc > 0

    def test_bigger_llt_misses_less(self):
        trace = make_trace(4000, pages=800)
        fast = run_trace(trace, fast_config())      # 128-entry LLT
        paper = run_trace(trace, paper_config())    # 1024-entry LLT
        assert paper.llt_misses < fast.llt_misses


class TestSrripMachines:
    def test_srrip_llt_runs(self):
        trace = make_trace(3000, pages=500)
        result = run_trace(trace, fast_config(tlb_policy="srrip"))
        assert result.ipc > 0

    def test_srrip_llc_runs_with_predictors(self):
        trace = make_trace(3000, pages=500)
        cfg = fast_config(
            tlb_policy="srrip",
            llc_policy="srrip",
            tlb_predictor="dppred",
            llc_predictor="cbpred",
        )
        result = run_trace(trace, cfg)
        assert result.ipc > 0

    def test_srrip_tracks_lru_on_mixed_pattern(self):
        """On cyclic/scan mixes SRRIP degenerates towards FIFO, so it must
        land in LRU's neighbourhood — the paper likewise found 'little
        value in using SRRIP in LLT only' (Section VI-E)."""
        n = 8000
        hot = (np.arange(n, dtype=np.uint64) % 96) * 4096
        scan = (np.arange(n, dtype=np.uint64) + 4096) * 4096
        vaddrs = 0x10000000 + np.where(np.arange(n) % 2 == 0, hot, scan)
        trace = Trace(
            "scan+reuse",
            np.full(n, 0x400000, dtype=np.uint64),
            vaddrs.astype(np.uint64),
            np.zeros(n, dtype=bool),
            np.full(n, 3, dtype=np.uint16),
        )
        lru = run_trace(trace, fast_config())
        srrip = run_trace(trace, fast_config(tlb_policy="srrip"))
        assert srrip.llt_misses <= lru.llt_misses * 1.2


#: Every profile the library ships, with the workload each pairs with.
SHIPPED_PROFILES = {
    "fast": (fast_config, "mcf"),
    "paper": (paper_config, "mcf"),
    "mix2": (mix2_config, "mix2"),
    "mix4": (mix4_config, "mix4"),
    "hugepage": (hugepage_config, "mcf"),
    "leeway": (leeway_config, "mcf"),
    "perceptron": (perceptron_config, "mcf"),
}


def _profile_cells():
    for name, (profile, workload) in SHIPPED_PROFILES.items():
        config = profile()
        yield pytest.param(config, workload, id=name)
        # The Table III characterization runs measure the baseline
        # machine with correlation listeners attached.
        if (config.tlb_predictor, config.llc_predictor) == (
            TLB_PRED_NONE, LLC_PRED_NONE,
        ):
            yield pytest.param(
                profile(track_correlation=True), workload,
                id=f"{name}-correlation",
            )


@pytest.mark.parametrize("engine", ["scalar", "batched"])
@pytest.mark.parametrize("config,workload", list(_profile_cells()))
def test_finished_machine_is_freed_without_cyclic_gc(config, workload, engine):
    """No reference cycle keeps a finished Machine alive: a long-lived
    worker must not hold dead machines until the cyclic collector runs."""
    trace = get_trace(workload, 300, 7)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        machine = Machine(config, seed=7)
        machine.run(trace, engine=engine)
        ref = weakref.ref(machine)
        del machine
        assert ref() is None
    finally:
        if was_enabled:
            gc.enable()
