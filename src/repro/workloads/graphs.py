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

        Edges are grouped by source, in draw order within a source, with
        one in-place sort of the int64 keys ``(source << jbits | j) <<
        vbits | target``, ``j`` being the edge's draw index. The keys are
        distinct, so any sort puts them in the order of the stable argsort
        of ``sources``, and each target rides along in its key's low bits.
        Graphs too large to pack (``2 * vbits + jbits > 63``) fall back to
        ``np.argsort(kind="stable")``.
        """
        rng = np.random.RandomState(seed)
        m = num_vertices * avg_degree
        sources = rng.randint(0, num_vertices, size=m)
        counts = np.bincount(sources, minlength=num_vertices)
        vbits = (num_vertices - 1).bit_length()
        jbits = (m - 1).bit_length()
        packed = 2 * vbits + jbits <= 63
        if packed:
            # Build the keys in the sources' own buffer; the targets are
            # OR-ed in once drawn.
            sources <<= jbits
            sources |= np.arange(m)
            sources <<= vbits
        else:
            order = np.argsort(sources, kind="stable")
            del sources
        if skew > 0:
            # In place, in the order ``(raw * n * 0.05) % n`` evaluates.
            raw = rng.pareto(skew, size=m)
            raw *= num_vertices
            raw *= 0.05
            # ``raw.astype(np.int64)`` into raw's own buffer, a block at
            # a time (numpy copies each overlapping block first), so the
            # peak holds two edge-sized arrays, not three.
            targets = raw.view(np.int64)
            for i in range(0, m, 1 << 16):
                targets[i:i + (1 << 16)] = raw[i:i + (1 << 16)]
            targets %= num_vertices
        else:
            targets = rng.randint(0, num_vertices, size=m)
        if packed:
            sources |= targets
            del targets
            sources.sort()
            targets = np.bitwise_and(sources, (1 << vbits) - 1, out=sources)
        else:
            targets = targets[order]
        offsets = np.zeros(num_vertices + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        return cls(offsets, targets.astype(np.int64, copy=False))


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
        #: The offsets as Python ints, read once per scanned vertex.
        self._offsets = self._graph.offsets.tolist()
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
        s, e = self._offsets[u], self._offsets[u + 1]
        space = self.space
        builder.emit(
            self.PC_OFFSETS,
            space.base("offsets") + u * OFFSET_SIZE,
            gap=self.gap,
        )
        nbrs = self._graph.targets[s:e]
        n = e - s
        if n:
            edges = space.base("targets")
            vaddrs = [0] * (2 * n)
            vaddrs[0::2] = range(
                edges + s * EDGE_SIZE, edges + e * EDGE_SIZE, EDGE_SIZE
            )
            vaddrs[1::2] = [
                gather_base + t * VALUE_SIZE for t in nbrs.tolist()
            ]
            builder.emit_interleaved(
                [self.PC_EDGES, self.PC_GATHER] * n,
                vaddrs,
                [False, write_back] * n,
                [self.gap] * (2 * n),
            )
        return nbrs

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
            parent = [-1] * g.num_vertices
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
            dist = [2**31] * g.num_vertices
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
            depth = [-1] * g.num_vertices
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
        offsets = self._offsets
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
                    s, e = offsets[v], offsets[v + 1]
                    if e <= s:
                        continue
                    probes = []
                    lo, hi = s, e - 1
                    while lo <= hi:
                        mid = (lo + hi) // 2
                        probes.append(tg_base + mid * EDGE_SIZE)
                        lo = mid + 1  # walk right; emulates merge probing
                        if len(probes) >= 4:
                            break
                    builder.emit_chunk(self.PC_AUX, probes, gap=self.gap)


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
            parent = [-1] * g.num_vertices
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
