"""Deeper behavioural tests of the graph kernels' access structure."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads.graphs import (
    EDGE_SIZE,
    OFFSET_SIZE,
    RADIX_KEY_BOUND,
    VALUE_SIZE,
    Bfs,
    CsrGraph,
    GraphWorkload,
    PageRank,
    TriangleCounting,
    radix_argsort,
)

BUDGET = 6000


class SmallPr(PageRank):
    num_vertices = 500
    avg_degree = 6


class SmallBfs(Bfs):
    num_vertices = 500
    avg_degree = 6


class TestVertexScanMotif:
    def test_pr_interleaves_edges_and_gathers(self):
        trace = SmallPr(seed=1).generate(BUDGET)
        pcs = trace.pcs
        # Find positions of edge reads; the next access is (almost always)
        # a gather of the target's value.
        edge_pos = np.where(pcs == GraphWorkload.PC_EDGES)[0]
        edge_pos = edge_pos[edge_pos + 1 < len(pcs)]
        followers = pcs[edge_pos + 1]
        gather_follow = (followers == GraphWorkload.PC_GATHER).mean()
        assert gather_follow > 0.95

    def test_edge_reads_are_sequential(self):
        trace = SmallPr(seed=1).generate(BUDGET)
        mask = trace.pcs == GraphWorkload.PC_EDGES
        eaddrs = trace.vaddrs[mask].astype(np.int64)
        deltas = np.diff(eaddrs)
        # Within a vertex the edge reads advance by EDGE_SIZE.
        assert (deltas == EDGE_SIZE).mean() > 0.5

    def test_gathers_match_graph_targets(self):
        wl = SmallPr(seed=1)
        trace = wl.generate(BUDGET)
        g = wl._graph
        rank_base = wl.space.base("rank")
        mask = trace.pcs == GraphWorkload.PC_GATHER
        gathered = (trace.vaddrs[mask] - rank_base) // VALUE_SIZE
        # Every gathered vertex id is a real vertex.
        assert (gathered < g.num_vertices).all()
        # The multiset of early gathers equals the first vertices' targets.
        n_check = min(50, len(gathered))
        expected = g.targets[:n_check]
        assert np.array_equal(
            np.sort(gathered[:n_check]), np.sort(expected[:n_check])
        )

    def test_writes_only_on_write_pcs(self):
        trace = SmallPr(seed=1).generate(BUDGET)
        write_pcs = set(np.unique(trace.pcs[trace.writes]).tolist())
        assert GraphWorkload.PC_EDGES not in write_pcs
        assert GraphWorkload.PC_OFFSETS not in write_pcs


class TestBfsSemantics:
    def test_bfs_visits_each_vertex_once_per_source(self):
        """Within one BFS, a vertex's parent is written at most once."""
        wl = SmallBfs(seed=3)
        trace = wl.generate(BUDGET)
        parent_base = wl.space.base("parent")
        mask = (trace.pcs == GraphWorkload.PC_WRITE) & trace.writes
        written = (trace.vaddrs[mask] - parent_base) // VALUE_SIZE
        # Writes can repeat across restarts, but within the first BFS
        # (before any repeated vertex) they must be unique.
        first_repeat = len(written)
        seen = set()
        for i, v in enumerate(written.tolist()):
            if v in seen:
                first_repeat = i
                break
            seen.add(v)
        assert first_repeat > 0


class TestTriangleProbes:
    def test_probe_addresses_inside_edge_array(self):
        class SmallTri(TriangleCounting):
            num_vertices = 400
            avg_degree = 6

        wl = SmallTri(seed=2)
        trace = wl.generate(BUDGET)
        tg_base = wl.space.base("targets")
        mask = trace.pcs == GraphWorkload.PC_AUX
        assert mask.any()
        probes = trace.vaddrs[mask]
        assert (probes >= tg_base).all()
        assert (probes < tg_base + wl._graph.num_edges * EDGE_SIZE).all()


class TestLayout:
    def test_regions_sized_to_graph(self):
        wl = SmallPr(seed=1)
        wl.generate(1000)
        space = wl.space
        n = wl._graph.num_vertices
        assert space.base("targets") > space.base("offsets") + n * OFFSET_SIZE
        assert space.base("rank") > space.base("targets")

    def test_value_arrays_created_per_kernel(self):
        wl = SmallPr(seed=1)
        wl.generate(1000)
        assert wl.space.base("rank_new") > wl.space.base("rank")


class TestRadixArgsort:
    """``radix_argsort`` is ``np.argsort(kind="stable")``, element for
    element: a stable sort's permutation is unique, so any difference is
    a bug, not a tie broken another way."""

    @staticmethod
    def check(keys):
        got = radix_argsort(keys)
        assert got.dtype == np.intp
        np.testing.assert_array_equal(got, np.argsort(keys, kind="stable"))

    @settings(max_examples=200, deadline=None)
    @given(
        data=st.data(),
        # One-digit keys, keys past 2**16 (both digits), the last radix
        # bound, and bounds that put keys at or above the fallback.
        bound=st.sampled_from([
            1, 3, 1 << 8, 1 << 16, (1 << 16) + 7, 1 << 20,
            RADIX_KEY_BOUND, RADIX_KEY_BOUND + 1, 1 << 40,
        ]),
        dtype=st.sampled_from([np.int64, np.uint64, np.int32]),
    )
    def test_matches_stable_argsort(self, data, bound, dtype):
        bound = min(bound, np.iinfo(dtype).max)
        low = data.draw(st.sampled_from([0, max(0, bound - 300)]))
        keys = data.draw(st.lists(st.integers(low, bound - 1), max_size=300))
        self.check(np.asarray(keys, dtype=dtype))

    def test_empty(self):
        self.check(np.zeros(0, dtype=np.int64))

    @pytest.mark.parametrize("key", [0, 5, (1 << 16) + 3, RADIX_KEY_BOUND - 1,
                                     RADIX_KEY_BOUND, 1 << 33])
    def test_all_equal_keys_keep_input_order(self, key):
        self.check(np.full(1000, key, dtype=np.int64))

    def test_negative_keys_fall_back(self):
        self.check(np.asarray([3, -1, 2, -1, 0], dtype=np.int64))

    def test_graph_sized_input_with_heavy_ties(self):
        rng = np.random.RandomState(3)
        self.check(rng.randint(0, 150_000, size=200_000))

    def test_random_graph_grouped_by_source(self):
        rng = np.random.RandomState(9)
        sources = rng.randint(0, 300, size=300 * 5)
        targets = rng.randint(0, 300, size=300 * 5)
        order = np.argsort(sources, kind="stable")
        g = CsrGraph.random(300, 5, seed=9)
        np.testing.assert_array_equal(g.targets, targets[order])
        np.testing.assert_array_equal(
            np.diff(g.offsets), np.bincount(sources, minlength=300)
        )
