"""Tests for the 14-workload suite and its generators."""

import numpy as np
import pytest

from repro.workloads.graphs import CsrGraph, GraphWorkload
from repro.workloads.suite import (
    WORKLOAD_CLASSES,
    clear_trace_cache,
    get_trace,
    make_workload,
    workload_names,
)
from repro.workloads.synthetic import (
    AddressSpace,
    RandomWorkload,
    StreamWorkload,
    mix_pcs,
)

BUDGET = 4000


class TestSuiteRegistry:
    def test_fourteen_workloads(self):
        assert len(workload_names()) == 14

    def test_table2_names(self):
        expected = {
            "cactusADM", "cc", "cg.B", "sssp", "lbm", "Triangle", "KCore",
            "canneal", "pr", "graph500", "bfs", "bc", "mis", "mcf",
        }
        assert set(workload_names()) == expected

    def test_unknown_workload(self):
        with pytest.raises(ValueError):
            make_workload("gcc")

    def test_trace_cache(self):
        clear_trace_cache()
        a = get_trace("mcf", BUDGET)
        b = get_trace("mcf", BUDGET)
        assert a is b
        assert get_trace("mcf", BUDGET + 1) is not a


@pytest.mark.parametrize("name", workload_names())
class TestEveryWorkload:
    def test_generates_within_budget(self, name):
        trace = get_trace(name, BUDGET)
        assert 0 < len(trace) <= BUDGET

    def test_deterministic(self, name):
        t1 = make_workload(name).generate(BUDGET)
        t2 = make_workload(name).generate(BUDGET)
        assert np.array_equal(t1.vaddrs, t2.vaddrs)
        assert np.array_equal(t1.pcs, t2.pcs)

    def test_seed_changes_trace(self, name):
        if name in ("cactusADM", "lbm"):
            pytest.skip("stencil sweeps differ only in offsets, not layout")
        t1 = make_workload(name, seed=1).generate(BUDGET)
        t2 = make_workload(name, seed=2).generate(BUDGET)
        assert not (
            len(t1) == len(t2) and np.array_equal(t1.vaddrs, t2.vaddrs)
        )

    def test_addresses_are_canonical(self, name):
        trace = get_trace(name, BUDGET)
        assert int(trace.vaddrs.max()) < (1 << 48)
        assert int(trace.vaddrs.min()) >= 0x1000_0000

    def test_touches_many_pages(self, name):
        """Every workload must pressure the 128-entry LLT meaningfully."""
        trace = get_trace(name, BUDGET)
        assert trace.footprint_pages > 16

    def test_has_multiple_pcs(self, name):
        trace = get_trace(name, BUDGET)
        assert len(np.unique(trace.pcs)) >= 3

    def test_has_reads_and_gap(self, name):
        trace = get_trace(name, BUDGET)
        assert (~trace.writes).any()
        assert trace.num_instructions > trace.num_accesses


class TestCsrGraph:
    def test_geometry(self):
        g = CsrGraph.random(100, 5, seed=1)
        assert g.num_vertices == 100
        assert g.num_edges == 500

    def test_offsets_monotone(self):
        g = CsrGraph.random(200, 4, seed=2)
        assert (np.diff(g.offsets) >= 0).all()

    def test_neighbors_in_range(self):
        g = CsrGraph.random(50, 6, seed=3)
        for u in range(50):
            nbrs = g.neighbors(u)
            assert ((0 <= nbrs) & (nbrs < 50)).all()

    def test_skew_creates_hubs(self):
        g = CsrGraph.random(2000, 10, seed=4, skew=1.2)
        indeg = np.bincount(g.targets, minlength=2000)
        # Top 1% of vertices get far more than 1% of edges.
        top = np.sort(indeg)[-20:].sum()
        assert top > 0.05 * g.num_edges

    def test_malformed_offsets_rejected(self):
        with pytest.raises(ValueError):
            CsrGraph(np.asarray([1, 2]), np.asarray([0, 0]))

    def test_degree(self):
        g = CsrGraph.random(10, 3, seed=5)
        assert sum(g.degree(u) for u in range(10)) == g.num_edges


class TestAddressSpace:
    def test_regions_disjoint_pages(self):
        space = AddressSpace()
        a = space.region("a", 5000)
        b = space.region("b", 5000)
        assert (a >> 12) != (b >> 12)
        assert b > a + 5000

    def test_duplicate_rejected(self):
        space = AddressSpace()
        space.region("a", 100)
        with pytest.raises(ValueError):
            space.region("a", 100)

    def test_zero_size_rejected(self):
        with pytest.raises(ValueError):
            AddressSpace().region("z", 0)

    def test_footprint(self):
        space = AddressSpace()
        space.region("a", 1000)
        space.region("b", 2000)
        assert space.footprint_bytes == 3000


class TestSyntheticHelpers:
    def test_stream_workload(self):
        trace = StreamWorkload(array_bytes=1 << 16).generate(500)
        assert len(trace) == 500
        deltas = np.diff(trace.vaddrs.astype(np.int64))
        assert (deltas[deltas > 0] == 64).all()

    def test_random_workload(self):
        trace = RandomWorkload(array_bytes=1 << 16).generate(500)
        assert len(trace) == 500
        assert trace.footprint_pages > 4

    def test_mix_pcs_fraction(self):
        rng = np.random.RandomState(0)
        pcs = np.asarray(mix_pcs(rng, 1, 2, 10_000, 0.3))
        shared = (pcs == 2).mean()
        assert 0.25 < shared < 0.35

    def test_mix_pcs_zero_fraction(self):
        rng = np.random.RandomState(0)
        assert mix_pcs(rng, 1, 2, 100, 0.0) == [1] * 100
