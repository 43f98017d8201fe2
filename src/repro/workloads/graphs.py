"""CSR graph substrate and the nine graph workloads of Table II.

Each workload runs (a budget-bounded window of) the real algorithm over a
synthetic CSR graph and emits the references of its core data structures:
the offsets array, the edge/targets array, and the per-vertex value arrays.
These are the structures whose streaming-scan + random-gather mix gives
GAP/Ligra/graph500 workloads their TLB- and LLC-hostile behaviour.

Scaled footprints follow DESIGN.md §5: a few MB against a 512 KB-reach LLT
and a 256 KB LLC reproduces the paper's pressure ratios.
"""

from __future__ import annotations

import numpy as np

from repro.workloads.synthetic import AddressSpace, Workload, addresses
from repro.workloads.trace import Trace, TraceBuilder, pc_for_site

#: Element sizes of the core structures (bytes).
OFFSET_SIZE = 8
EDGE_SIZE = 4
VALUE_SIZE = 64


class CsrGraph:
    """Compressed-sparse-row directed graph."""

    def __init__(self, offsets: np.ndarray, targets: np.ndarray):
        if offsets[0] != 0 or offsets[-1] != len(targets):
            raise ValueError("malformed CSR offsets")
        self.offsets = offsets
        self.targets = targets

    @property
    def num_vertices(self) -> int:
        return len(self.offsets) - 1

    @property
    def num_edges(self) -> int:
        return len(self.targets)

    def neighbors(self, u: int) -> np.ndarray:
        return self.targets[self.offsets[u]: self.offsets[u + 1]]

    def degree(self, u: int) -> int:
        return int(self.offsets[u + 1] - self.offsets[u])

    @classmethod
    def random(
        cls,
        num_vertices: int,
        avg_degree: int,
        seed: int,
        skew: float = 0.0,
    ) -> "CsrGraph":
        """Random directed graph; ``skew`` > 0 biases targets towards hub
        vertices with a Pareto-shaped in-degree (graph500-style).

        Edges are grouped by source with :func:`radix_argsort`, a two-pass
        LSD radix sort over the 24-bit vertex ids. A stable sort's
        permutation is unique, so the graph is identical to the one an
        int64 stable argsort would give, at about a third of the cost.
        """
        rng = np.random.RandomState(seed)
        m = num_vertices * avg_degree
        sources = rng.randint(0, num_vertices, size=m)
        # Sort before drawing targets (the sort consumes no randomness),
        # so the sources and the targets are never both alive at peak.
        counts = np.bincount(sources, minlength=num_vertices)
        order = radix_argsort(sources)
        del sources
        if skew > 0:
            # In place, in the order ``(raw * n * 0.05) % n`` evaluates.
            raw = rng.pareto(skew, size=m)
            raw *= num_vertices
            raw *= 0.05
            targets = raw.astype(np.int64)
            del raw
            targets %= num_vertices
        else:
            targets = rng.randint(0, num_vertices, size=m)
        targets = targets[order].astype(np.int64, copy=False)
        offsets = np.zeros(num_vertices + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        return cls(offsets, targets)


#: Keys below this bound take the two-digit radix path.
RADIX_KEY_BOUND = 1 << 24


def radix_argsort(keys: np.ndarray) -> np.ndarray:
    """``np.argsort(keys, kind="stable")`` for integer keys, via LSD radix.

    Keys in ``[0, 2**24)`` sort as a stable argsort of the low 16 bits
    (``uint16``, which numpy radix-sorts) followed by a stable argsort of
    the ``uint8`` high digit taken in that order. Each digit is narrowed
    straight into its small dtype, so no full-width temporary is made.
    Any other keys fall back to numpy's stable argsort.
    """
    n = len(keys)
    if n == 0 or keys.min() < 0 or keys.max() >= RADIX_KEY_BOUND:
        return np.argsort(keys, kind="stable")
    order = np.argsort(keys.astype(np.uint16), kind="stable")
    high = np.right_shift(
        keys, 16, out=np.empty(n, dtype=np.uint8), casting="unsafe"
    )
    result = np.argsort(high[order], kind="stable")
    del high
    # Compose the passes into ``result`` itself: element i reads
    # result[i] before overwriting it, and "clip" mode (every index is in
    # range) skips the buffered copy that "raise" would make.
    np.take(order, result, out=result, mode="clip")
    return result


class GraphWorkload(Workload):
    """Base class: address-space layout and the edge-scan emission motif."""

    num_vertices = 150_000
    avg_degree = 14
    skew = 0.8
    #: number of extra per-vertex value arrays the kernel uses.
    value_arrays = ("val",)
    gap = 3

    # PC sites shared by all graph kernels.
    PC_OFFSETS = pc_for_site(0)
    PC_EDGES = pc_for_site(1)
    PC_GATHER = pc_for_site(2)
    PC_WRITE = pc_for_site(3)
    PC_AUX = pc_for_site(4)

    def __init__(self, seed: int = 42):
        super().__init__(seed)
        self._graph: CsrGraph = None  # built lazily per generate()

    def _layout(self) -> AddressSpace:
        space = AddressSpace()
        n, m = self.num_vertices, self._graph.num_edges
        space.region("offsets", (n + 1) * OFFSET_SIZE)
        space.region("targets", m * EDGE_SIZE)
        for name in self.value_arrays:
            space.region(name, n * VALUE_SIZE)
        return space

    def _build_graph(self) -> CsrGraph:
        return CsrGraph.random(
            self.num_vertices, self.avg_degree, self.seed, self.skew
        )

    def generate(self, budget: int) -> Trace:
        self._graph = self._build_graph()
        self.space = self._layout()
        builder = TraceBuilder(self.name, budget)
        self._emit(builder)
        return builder.build()

    def _emit(self, builder: TraceBuilder) -> None:
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # Emission motifs
    # ------------------------------------------------------------------ #
    def _emit_vertex_scan(
        self,
        builder: TraceBuilder,
        u: int,
        gather_base: int,
        write_back: bool = False,
    ) -> np.ndarray:
        """Emit the canonical per-vertex loop: read offsets[u], then for
        each edge j alternately read targets[j] and gather value[t_j].
        Returns the neighbour ids so the kernel can do its real work."""
        g = self._graph
        s, e = int(g.offsets[u]), int(g.offsets[u + 1])
        builder.emit(
            self.PC_OFFSETS,
            self.space.base("offsets") + u * OFFSET_SIZE,
            gap=self.gap,
        )
        if e > s:
            nbrs = g.targets[s:e]
            eaddr = addresses(
                self.space.base("targets"),
                np.arange(s, e, dtype=np.uint64),
                EDGE_SIZE,
            )
            gaddr = addresses(gather_base, nbrs, VALUE_SIZE)
            n = len(nbrs)
            inter = np.empty(2 * n, dtype=np.uint64)
            inter[0::2] = eaddr
            inter[1::2] = gaddr
            pcs = np.empty(2 * n, dtype=np.uint64)
            pcs[0::2] = self.PC_EDGES
            pcs[1::2] = self.PC_GATHER
            writes = np.zeros(2 * n, dtype=bool)
            if write_back:
                writes[1::2] = True
            gaps = np.full(2 * n, self.gap, dtype=np.uint16)
            builder.emit_interleaved(pcs, inter, writes, gaps)
            return nbrs
        return g.targets[0:0]

    def _value_addr(self, array: str, u) -> int:
        return self.space.base(array) + int(u) * VALUE_SIZE


class PageRank(GraphWorkload):
    """pr — PageRank from GAPBS: repeated full edge sweeps with random
    gathers of the source ranks and a sequential write of the new ranks."""

    name = "pr"
    description = "PageRank from GAPBS"
    value_arrays = ("rank", "rank_new")
    gap = 3

    def _emit(self, builder: TraceBuilder) -> None:
        g = self._graph
        rank_base = self.space.base("rank")
        while not builder.full:
            for u in range(g.num_vertices):
                if builder.full:
                    return
                nbrs = self._emit_vertex_scan(builder, u, rank_base)
                # new_rank[u] = f(sum of gathered ranks): one write.
                builder.emit(
                    self.PC_WRITE,
                    self._value_addr("rank_new", u),
                    write=True,
                    gap=self.gap,
                )
                del nbrs  # ranks are uniform in the access pattern


class Bfs(GraphWorkload):
    """bfs — level-synchronous breadth-first search (Ligra)."""

    name = "bfs"
    description = "Breadth-First Search from Ligra"
    value_arrays = ("parent",)
    gap = 2

    def _emit(self, builder: TraceBuilder) -> None:
        g = self._graph
        rng = self._rng()
        parent_base = self.space.base("parent")
        while not builder.full:
            parent = np.full(g.num_vertices, -1, dtype=np.int64)
            source = int(rng.randint(0, g.num_vertices))
            parent[source] = source
            frontier = [source]
            while frontier and not builder.full:
                next_frontier = []
                for u in frontier:
                    if builder.full:
                        return
                    nbrs = self._emit_vertex_scan(builder, u, parent_base)
                    for t in nbrs.tolist():
                        if parent[t] < 0:
                            parent[t] = u
                            next_frontier.append(t)
                            builder.emit(
                                self.PC_WRITE,
                                self._value_addr("parent", t),
                                write=True,
                                gap=self.gap,
                            )
                frontier = next_frontier


class ConnectedComponents(GraphWorkload):
    """cc — label-propagation connected components (GAPBS's Shiloach-
    Vishkin flavour reduced to propagation rounds)."""

    name = "cc"
    description = "Connected Components from GAPBS"
    value_arrays = ("label",)
    gap = 3

    def _emit(self, builder: TraceBuilder) -> None:
        g = self._graph
        label = np.arange(g.num_vertices, dtype=np.int64)
        label_base = self.space.base("label")
        while not builder.full:
            changed = False
            for u in range(g.num_vertices):
                if builder.full:
                    return
                nbrs = self._emit_vertex_scan(builder, u, label_base)
                if len(nbrs):
                    m = int(min(label[nbrs].min(), label[u]))
                    if m < label[u]:
                        label[u] = m
                        changed = True
                        builder.emit(
                            self.PC_WRITE,
                            self._value_addr("label", u),
                            write=True,
                            gap=self.gap,
                        )
            if not changed:
                label = np.arange(g.num_vertices, dtype=np.int64)


class Sssp(GraphWorkload):
    """sssp — Bellman-Ford-style single-source shortest path (GAPBS)."""

    name = "sssp"
    description = "Single-Source Shortest Path from GAPBS"
    value_arrays = ("dist",)
    gap = 3

    def _emit(self, builder: TraceBuilder) -> None:
        g = self._graph
        rng = self._rng()
        dist_base = self.space.base("dist")
        while not builder.full:
            dist = np.full(g.num_vertices, 2**31, dtype=np.int64)
            source = int(rng.randint(0, g.num_vertices))
            dist[source] = 0
            for _ in range(8):  # relaxation rounds
                if builder.full:
                    return
                for u in range(g.num_vertices):
                    if builder.full:
                        return
                    if dist[u] >= 2**31:
                        continue
                    nbrs = self._emit_vertex_scan(builder, u, dist_base)
                    nd = dist[u] + 1
                    for t in nbrs.tolist():
                        if nd < dist[t]:
                            dist[t] = nd
                            builder.emit(
                                self.PC_WRITE,
                                self._value_addr("dist", t),
                                write=True,
                                gap=self.gap,
                            )


class BetweennessCentrality(GraphWorkload):
    """bc — Brandes-style betweenness centrality: forward BFS accumulating
    path counts, then a reverse sweep accumulating dependencies (GAPBS)."""

    name = "bc"
    description = "Betweenness Centrality from GAPBS"
    value_arrays = ("sigma", "delta")
    gap = 3

    def _emit(self, builder: TraceBuilder) -> None:
        g = self._graph
        rng = self._rng()
        sigma_base = self.space.base("sigma")
        delta_base = self.space.base("delta")
        while not builder.full:
            source = int(rng.randint(0, g.num_vertices))
            depth = np.full(g.num_vertices, -1, dtype=np.int64)
            depth[source] = 0
            order = [source]
            frontier = [source]
            while frontier and not builder.full:
                nxt = []
                for u in frontier:
                    if builder.full:
                        return
                    nbrs = self._emit_vertex_scan(builder, u, sigma_base)
                    for t in nbrs.tolist():
                        if depth[t] < 0:
                            depth[t] = depth[u] + 1
                            nxt.append(t)
                            order.append(t)
                            builder.emit(
                                self.PC_WRITE,
                                self._value_addr("sigma", t),
                                write=True,
                                gap=self.gap,
                            )
                frontier = nxt
            # Reverse dependency accumulation.
            for u in reversed(order):
                if builder.full:
                    return
                self._emit_vertex_scan(
                    builder, u, delta_base, write_back=True
                )


class MaximalIndependentSet(GraphWorkload):
    """mis — Luby-style maximal independent set (Ligra)."""

    name = "mis"
    description = "Maximal Independent Set from Ligra"
    value_arrays = ("priority", "state")
    gap = 2

    def _emit(self, builder: TraceBuilder) -> None:
        g = self._graph
        rng = self._rng()
        prio_base = self.space.base("priority")
        while not builder.full:
            priority = rng.permutation(g.num_vertices)
            state = np.zeros(g.num_vertices, dtype=np.int8)  # 0=undecided
            undecided = list(range(g.num_vertices))
            while undecided and not builder.full:
                still = []
                for u in undecided:
                    if builder.full:
                        return
                    nbrs = self._emit_vertex_scan(builder, u, prio_base)
                    live = nbrs[state[nbrs] == 0] if len(nbrs) else nbrs
                    if len(live) == 0 or priority[u] < priority[live].min():
                        state[u] = 1  # in the set
                        if len(nbrs):
                            state[nbrs[state[nbrs] == 0]] = 2
                        builder.emit(
                            self.PC_WRITE,
                            self._value_addr("state", u),
                            write=True,
                            gap=self.gap,
                        )
                    elif state[u] == 0:
                        still.append(u)
                undecided = still


class TriangleCounting(GraphWorkload):
    """Triangle — wedge-check triangle counting (Ligra): for each vertex,
    re-scan each neighbour's adjacency list; edge pages see streaming
    reuse with little repetition per page."""

    name = "Triangle"
    description = "Triangle counting from Ligra"
    value_arrays = ("count",)
    gap = 2
    num_vertices = 60_000
    avg_degree = 12

    def _emit(self, builder: TraceBuilder) -> None:
        g = self._graph
        tg_base = self.space.base("targets")
        while not builder.full:
            for u in range(g.num_vertices):
                if builder.full:
                    return
                nbrs = self._emit_vertex_scan(
                    builder, u, self.space.base("count")
                )
                # Probe each neighbour's adjacency list (binary-search-ish:
                # log(deg) touches spread over the list).
                for v in nbrs.tolist():
                    if builder.full:
                        return
                    s, e = int(g.offsets[v]), int(g.offsets[v + 1])
                    if e <= s:
                        continue
                    probes = []
                    lo, hi = s, e - 1
                    while lo <= hi:
                        mid = (lo + hi) // 2
                        probes.append(mid)
                        lo = mid + 1  # walk right; emulates merge probing
                        if len(probes) >= 4:
                            break
                    builder.emit_chunk(
                        self.PC_AUX,
                        addresses(
                            tg_base, np.asarray(probes, dtype=np.uint64),
                            EDGE_SIZE,
                        ),
                        gap=self.gap,
                    )


class KCore(GraphWorkload):
    """KCore — k-core decomposition by iterative peeling (Ligra)."""

    name = "KCore"
    description = "K-core decomposition from Ligra"
    value_arrays = ("degree",)
    gap = 2
    num_vertices = 60_000
    avg_degree = 12

    def _emit(self, builder: TraceBuilder) -> None:
        g = self._graph
        deg_base = self.space.base("degree")
        scan_window = 512  # bucket maintenance rescans a bounded window
        scan_pos = 0
        while not builder.full:
            degree = np.diff(g.offsets).astype(np.int64)
            k = 1
            alive = np.ones(g.num_vertices, dtype=bool)
            while alive.any() and not builder.full:
                peel = np.where(alive & (degree < k))[0]
                if len(peel) == 0:
                    # Bucket advance: rescan a window of the degree array
                    # looking for the next peelable vertices.
                    builder.emit_chunk(
                        self.PC_AUX,
                        addresses(
                            deg_base,
                            (np.arange(scan_window, dtype=np.uint64)
                             + scan_pos) % g.num_vertices,
                            VALUE_SIZE,
                        ),
                        gap=self.gap,
                    )
                    scan_pos = (scan_pos + scan_window) % g.num_vertices
                    k += 1
                    continue
                for u in peel.tolist():
                    if builder.full:
                        return
                    alive[u] = False
                    # Read this vertex's degree, then decrement neighbours.
                    builder.emit(
                        self.PC_WRITE,
                        self._value_addr("degree", u),
                        gap=self.gap,
                    )
                    nbrs = self._emit_vertex_scan(
                        builder, u, deg_base, write_back=True
                    )
                    degree[nbrs] -= 1
                degree[~alive] = 2**31  # peeled


class Graph500(GraphWorkload):
    """graph500 — BFS over a skewed Kronecker-like graph; hubs give the
    visited/parent arrays hot pages while leaf pages stream."""

    name = "graph500"
    description = "BFS/SSSP over skewed undirected graphs (Graph500)"
    value_arrays = ("parent", "visited")
    gap = 3
    num_vertices = 150_000
    avg_degree = 14
    skew = 1.6

    def _emit(self, builder: TraceBuilder) -> None:
        g = self._graph
        rng = self._rng()
        visited_base = self.space.base("visited")
        while not builder.full:
            parent = np.full(g.num_vertices, -1, dtype=np.int64)
            source = int(rng.randint(0, g.num_vertices))
            parent[source] = source
            frontier = [source]
            while frontier and not builder.full:
                nxt = []
                for u in frontier:
                    if builder.full:
                        return
                    nbrs = self._emit_vertex_scan(builder, u, visited_base)
                    for t in nbrs.tolist():
                        if parent[t] < 0:
                            parent[t] = u
                            nxt.append(t)
                            builder.emit(
                                self.PC_WRITE,
                                self._value_addr("parent", t),
                                write=True,
                                gap=self.gap,
                            )
                frontier = nxt
