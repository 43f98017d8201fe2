"""Deeper behavioural tests of the graph kernels' access structure."""

import mmap
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads.graphs import (
    EDGE_SIZE,
    OFFSET_SIZE,
    VALUE_SIZE,
    Bfs,
    CsrGraph,
    GraphWorkload,
    PageRank,
    TriangleCounting,
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


def stable_argsort_graph(num_vertices, avg_degree, seed, skew):
    """``CsrGraph.random``'s ``(offsets, targets)`` built the plain way:
    draw sources then targets, and gather the targets in the order of a
    stable argsort of the sources."""
    rng = np.random.RandomState(seed)
    m = num_vertices * avg_degree
    sources = rng.randint(0, num_vertices, size=m)
    if skew > 0:
        raw = rng.pareto(skew, size=m) * num_vertices * 0.05
        targets = raw.astype(np.int64) % num_vertices
    else:
        targets = rng.randint(0, num_vertices, size=m)
    offsets = np.zeros(num_vertices + 1, dtype=np.int64)
    np.cumsum(np.bincount(sources, minlength=num_vertices), out=offsets[1:])
    order = np.argsort(sources, kind="stable")
    return offsets, targets[order].astype(np.int64)


class TestGraphGrouping:
    """``CsrGraph.random`` groups edges by source, in draw order within a
    source, exactly as a stable argsort of the sources would."""

    @staticmethod
    def check(num_vertices, avg_degree, seed, skew=0.0):
        g = CsrGraph.random(num_vertices, avg_degree, seed, skew)
        offsets, targets = stable_argsort_graph(
            num_vertices, avg_degree, seed, skew
        )
        for got, want in ((g.offsets, offsets), (g.targets, targets)):
            assert got.dtype == np.int64
            np.testing.assert_array_equal(got, want)
        return g

    @settings(max_examples=150, deadline=None)
    @given(
        # Tiny, power-of-two and non-power-of-two vertex counts.
        num_vertices=st.one_of(
            st.sampled_from([1, 2, 3, 4, 5, 7, 64, 257, 1000]),
            st.integers(1, 600),
        ),
        # Degree 0 and 1 leave many (or all) vertices with no out-edges.
        avg_degree=st.integers(0, 6),
        seed=st.integers(0, 2**32 - 1),
        skew=st.sampled_from([0.0, 0.8, 1.6]),
    )
    def test_matches_stable_argsort_construction(
        self, num_vertices, avg_degree, seed, skew
    ):
        self.check(num_vertices, avg_degree, seed, skew)

    @pytest.mark.parametrize("skew", [0.0, 0.8, 1.6])
    def test_zero_degree_vertices(self, skew):
        g = self.check(1000, 1, seed=5, skew=skew)
        assert (np.diff(g.offsets) == 0).any()

    def test_suite_sized_graph(self):
        self.check(150_000, 14, seed=42, skew=0.8)

    @pytest.mark.parametrize("skew", [0.0, 0.8])
    def test_packed_build_holds_one_edge_sized_array(self, skew):
        """The sources, the draw indices and the targets are made a block
        at a time into the one int64 key array the build sorts. That array
        is mapped on its own, outside ``malloc`` and so outside
        tracemalloc, and the build's traced peak stays well under one
        edge-sized array (one more would read 1.0 and up)."""
        edge_bytes = 150_000 * 14 * 8
        tracemalloc.start()
        try:
            g = CsrGraph.random(150_000, 14, seed=42, skew=skew)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * edge_bytes
        assert isinstance(g.targets.base.obj, mmap.mmap)

    @pytest.mark.parametrize("num_vertices,avg_degree,fallback", [
        # 2 * 21 vertex bits + 21 edge bits: the widest packed key.
        (1 << 21, 1, False),
        # 2 * 21 + 22 > 63: the stable-argsort fallback.
        ((1 << 20) + 1, 2, True),
    ])
    def test_key_width_boundary(
        self, monkeypatch, num_vertices, avg_degree, fallback
    ):
        calls = []
        argsort = np.argsort

        def spy(*args, **kwargs):
            calls.append(kwargs.get("kind"))
            return argsort(*args, **kwargs)

        offsets, targets = stable_argsort_graph(
            num_vertices, avg_degree, 11, 0.8
        )
        monkeypatch.setattr(np, "argsort", spy)
        g = CsrGraph.random(num_vertices, avg_degree, 11, 0.8)
        monkeypatch.undo()
        assert calls == (["stable"] if fallback else [])
        np.testing.assert_array_equal(g.offsets, offsets)
        np.testing.assert_array_equal(g.targets, targets)
