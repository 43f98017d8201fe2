"""The five non-graph workloads of Table II, as instrumented kernels.

* ``cactusADM`` — SPEC 2006: ADM numerical relativity; a 3-D stencil sweep
  over many grid-function arrays. Pages live for a short window of
  adjacent planes, then die — the workload where the paper's dpPred gains
  most (~1.45x).
* ``lbm`` — SPEC 2017: lattice-Boltzmann; two ping-pong lattices streamed
  with plane-local neighbourhoods. Nearly pure streaming: the paper
  reports 100 % dpPred accuracy and coverage.
* ``mcf`` — SPEC 2006: minimum-cost network flow; pointer chasing over an
  arc array with node-struct gathers. Nearly unpredictable (paper: 67 %
  accuracy, 10 % coverage).
* ``cg.B`` — NAS CG: sparse mat-vec iterations (CSR) with vector gathers.
* ``canneal`` — PARSEC: simulated-annealing netlist routing; random element
  pair swaps (paper: low coverage, streaming-like randomness).
"""

from __future__ import annotations

import numpy as np

from repro.workloads.synthetic import (
    AddressSpace,
    Workload,
    draw_words,
    ints_from_words,
    uniforms_from_words,
)
from repro.workloads.trace import (
    Trace,
    TraceBuilder,
    check_budget,
    pc_for_site,
    trace_from_steps,
)


class CactusAdm(Workload):
    """3-D stencil over many grid functions (cactusADM).

    In the real 450 MB grid, a row of the lattice spans multiple pages and
    the j +/- 1 / k +/- 1 neighbour reads land a page or a plane away, so each
    grid-function page receives only a handful of touches inside a short
    sweep window and then dies — dead-on-arrival at LLT time scales. We
    model that directly: the grid functions are visited page-sequentially
    with a few touches per page (one PC per function), while a small set of
    coefficient tables is gathered randomly per stencil point (the reusable
    working set that dpPred's bypassing protects). This is the workload
    where the paper's predictors gain most (~1.45x IPC, 37.8 % LLT MPKI).
    """

    name = "cactusADM"
    description = "SPEC 2006 cactusADM: 3-D ADM stencil"
    num_functions = 8
    function_bytes = 1 << 20        # 1 MB per grid function (8 MB total)
    touches_per_page = 3            # z-1 / z / z+1 window visits
    coeff_bytes = 512 * 1024        # ~128 pages of coefficient tables
    #: fraction of accesses issued from a shared inlined-helper PC; the
    #: gather side runs through the helper more often (address computation).
    shared_pc_fraction = 0.15
    shared_gather_fraction = 0.5
    gap = 4

    def generate(self, budget: int) -> Trace:
        # One sweep step touches the current page of every grid function
        # a few times (the plane window), gathers coefficients, and
        # writes the output page. Per function it takes the touches'
        # offset words, then a uniform (two words) per touch to mix in
        # the shared PC; then the gathers' offset words and a uniform
        # each. The output writes draw nothing.
        funcs, touches = self.num_functions, self.touches_per_page
        gathers = 2 * funcs
        per_step = funcs * touches + gathers + 4
        steps = -(-check_budget(budget) // per_step)
        space = AddressSpace()
        bases = np.array([
            space.region(f"gf{a}", self.function_bytes)
            for a in range(funcs)
        ])
        out = space.region("gf_out", self.function_bytes)
        coeff = space.region("coeff", self.coeff_bytes)
        grid_width = funcs * 3 * touches
        words = draw_words(self._rng(), steps * (grid_width + 3 * gathers))
        grid_words, gather_words, gather_mix = np.split(
            words.reshape(steps, -1),
            [grid_width, grid_width + gathers], axis=1,
        )
        grid_words = grid_words.reshape(steps, funcs, 3 * touches)
        offs = ints_from_words(grid_words[..., :touches], 4096 // 8)
        grid_mix = uniforms_from_words(grid_words[..., touches:])
        rows = (np.arange(steps) % (self.function_bytes >> 12)) << 12
        pc_shared = pc_for_site(60)  # inlined helper shared by all sites
        fn_pcs = np.array([pc_for_site(a) for a in range(funcs)])
        grid = bases[:, None] + rows[:, None, None] + offs * 8
        grid_pcs = np.where(
            grid_mix < self.shared_pc_fraction, pc_shared, fn_pcs[:, None]
        )
        coeff_idx = ints_from_words(gather_words, self.coeff_bytes // 8)
        coeff_pcs = np.where(
            uniforms_from_words(gather_mix) < self.shared_gather_fraction,
            pc_shared, pc_for_site(41),
        )
        vaddrs = np.hstack([
            grid.reshape(steps, -1),
            coeff + coeff_idx * 8,
            out + rows[:, None] + np.arange(0, 32, 8),
        ])
        pcs = np.hstack([
            grid_pcs.reshape(steps, -1),
            coeff_pcs,
            np.full((steps, 4), pc_for_site(40)),
        ])
        writes = np.repeat([False, True], [per_step - 4, 4])
        return trace_from_steps(
            self.name, budget, pcs, vaddrs, writes, self.gap
        )


class Lbm(Workload):
    """Lattice-Boltzmann streaming (lbm).

    The D3Q19 lattice stores 19 distribution values per cell, so the
    streaming step's neighbour reads stride across pages: each lattice
    page receives a handful of touches per sweep window and then dies.
    An obstacle/geometry bitmap is consulted per cell — the small reusable
    set. lbm's dead pages are perfectly PC-predictable (paper: 100 %
    accuracy and coverage for dpPred).
    """

    name = "lbm"
    description = "SPEC 2017 lbm: lattice-Boltzmann streaming"
    lattice_bytes = 4 << 20          # per ping-pong lattice copy
    obstacle_bytes = 512 * 1024      # ~128 pages of geometry, reused
    touches_per_page = 4
    shared_pc_fraction = 0.15
    shared_gather_fraction = 0.5
    gap = 5

    def generate(self, budget: int) -> Trace:
        # One step reads a few cells of the current page of src, writes
        # the same cells of dst, and gathers two obstacle entries. It
        # takes the cells' offset words, a uniform (two words) per read
        # and per write to mix in the shared PC, then the gathers' offset
        # words and a uniform each. After the last page the lattices
        # swap roles (ping-pong sweeps).
        touches = self.touches_per_page
        per_step = 2 * touches + 2
        steps = -(-check_budget(budget) // per_step)
        space = AddressSpace()
        src = space.region("src", self.lattice_bytes)
        dst = space.region("dst", self.lattice_bytes)
        obstacle = space.region("obstacle", self.obstacle_bytes)
        words = draw_words(self._rng(), steps * (5 * touches + 6))
        offs, src_mix, dst_mix, gathers, obst_mix = np.split(
            words.reshape(steps, -1),
            np.cumsum([touches, 2 * touches, 2 * touches, 2]), axis=1,
        )
        pages = self.lattice_bytes >> 12
        step = np.arange(steps)[:, None]
        cells = (step % pages << 12) + ints_from_words(offs, 4096 // 8) * 8
        swapped = step // pages % 2 == 1
        obst_idx = ints_from_words(gathers, self.obstacle_bytes // 8)
        vaddrs = np.hstack([
            np.where(swapped, dst, src) + cells,
            np.where(swapped, src, dst) + cells,
            obstacle + obst_idx * 8,
        ])
        pc_shared = pc_for_site(60)
        fraction = self.shared_pc_fraction
        pcs = np.hstack([
            np.where(uniforms_from_words(src_mix) < fraction,
                     pc_shared, pc_for_site(0)),
            np.where(uniforms_from_words(dst_mix) < fraction,
                     pc_shared, pc_for_site(1)),
            np.where(
                uniforms_from_words(obst_mix) < self.shared_gather_fraction,
                pc_shared, pc_for_site(2),
            ),
        ])
        writes = np.repeat([False, True, False], [touches, touches, 2])
        return trace_from_steps(
            self.name, budget, pcs, vaddrs, writes, self.gap
        )


class Mcf(Workload):
    """Network-simplex pointer chasing (mcf)."""

    name = "mcf"
    description = "SPEC 2006 mcf: min-cost network flow"
    num_arcs = 48_000
    num_nodes = 40_000
    arc_size = 64   # one cache line per arc struct
    node_size = 64
    gap = 2

    def generate(self, budget: int) -> Trace:
        space = AddressSpace()
        arcs = space.region("arcs", self.num_arcs * self.arc_size)
        nodes = space.region("nodes", self.num_nodes * self.node_size)
        rng = self._rng()
        # A single random Hamiltonian cycle over the arcs: the pointer
        # chase, from each arc to the next in ``order``. (A raw
        # permutation would decompose into short cycles and trap the
        # chase in a tiny working set.)
        order = rng.permutation(self.num_arcs)
        heads = rng.randint(0, self.num_nodes, size=self.num_arcs)
        tails = rng.randint(0, self.num_nodes, size=self.num_arcs)
        pos = int(rng.randint(0, self.num_arcs))
        # Each step reads the arc and its head and tail nodes; occasional
        # pivot updates write the arc back. Steps emit at least three
        # records, so ceil(budget / 3) steps fill the budget.
        steps = -(-check_budget(budget) // 3)
        start = int(np.flatnonzero(order == pos)[0])
        visit = order[(start + np.arange(steps)) % self.num_arcs]
        arc = arcs + visit * self.arc_size
        vaddrs = np.stack([
            arc,
            nodes + heads[visit] * self.node_size,
            nodes + tails[visit] * self.node_size,
            arc,
        ], axis=1)
        keep = np.ones((steps, 4), dtype=bool)
        keep[:, 3] = visit % 7 == 0
        pcs = np.array([pc_for_site(site) for site in range(4)])
        writes = np.array([False, False, False, True])
        return trace_from_steps(
            self.name, budget, pcs, vaddrs, writes, self.gap, keep
        )


class ConjugateGradient(Workload):
    """CSR sparse mat-vec iterations (cg.B).

    The matrix values are stored as padded 64-byte block entries (a scaled
    stand-in for class B's 150 MB value stream, whose pages see only a
    brief burst of touches before dying), while the x vector — just beyond
    the LLT's reach — is gathered per non-zero. Bypassing the value-stream
    pages lets x stay resident, the paper's 16 % LLT MPKI reduction story.
    """

    name = "cg.B"
    description = "NAS Parallel Benchmarks CG (class B scaled)"
    num_rows = 67_584
    nnz_per_row = 6
    value_size = 512  # padded block entry: one cache line per non-zero
    gap = 3

    def generate(self, budget: int) -> Trace:
        builder = TraceBuilder(self.name, budget)
        space = AddressSpace()
        n, nnz = self.num_rows, self.num_rows * self.nnz_per_row
        rowptr = space.region("rowptr", (n + 1) * 8)
        colidx = space.region("colidx", nnz * 4)
        values = space.region("values", nnz * self.value_size)
        xvec = space.region("x", n * 8)
        yvec = space.region("y", n * 8)
        rng = self._rng()
        cols = rng.randint(0, n, size=nnz)
        pc_row = pc_for_site(0)
        pc_y = pc_for_site(4)
        k = self.nnz_per_row
        # colidx and values stream; x is gathered via the columns.
        pcs = [pc_for_site(1), pc_for_site(2), pc_for_site(3)] * k
        writes = [False] * (3 * k)
        gaps = [self.gap] * (3 * k)
        vaddrs = [0] * (3 * k)
        while not builder.full:
            for row in range(n):
                if builder.full:
                    return builder.build()
                s, e = row * k, row * k + k
                builder.emit(pc_row, rowptr + row * 8, gap=self.gap)
                vaddrs[0::3] = range(colidx + s * 4, colidx + e * 4, 4)
                vaddrs[1::3] = range(
                    values + s * self.value_size,
                    values + e * self.value_size,
                    self.value_size,
                )
                vaddrs[2::3] = [xvec + c * 8 for c in cols[s:e].tolist()]
                builder.emit_interleaved(pcs, vaddrs, writes, gaps)
                builder.emit(pc_y, yvec + row * 8, write=True, gap=self.gap)
        return builder.build()


class Canneal(Workload):
    """Simulated-annealing netlist swaps (canneal)."""

    name = "canneal"
    description = "PARSEC canneal: routing-cost annealing"
    num_elements = 60_000
    element_size = 64
    fanout = 5
    gap = 2

    def generate(self, budget: int) -> Trace:
        builder = TraceBuilder(self.name, budget)
        space = AddressSpace()
        elements = space.region("elements", self.num_elements * self.element_size)
        netlist = space.region("netlist", self.num_elements * self.fanout * 4)
        rng = self._rng()
        neigh = rng.randint(
            0, self.num_elements, size=(self.num_elements, self.fanout)
        )
        pc_a = pc_for_site(0)
        pc_b = pc_for_site(1)
        pc_net = pc_for_site(2)
        pc_gather = pc_for_site(3)
        pc_swap = pc_for_site(4)
        while not builder.full:
            a = int(rng.randint(0, self.num_elements))
            b = int(rng.randint(0, self.num_elements))
            builder.emit(pc_a, elements + a * self.element_size, gap=self.gap)
            builder.emit(pc_b, elements + b * self.element_size, gap=self.gap)
            for ele in (a, b):
                net = netlist + ele * self.fanout * 4
                builder.emit_chunk(
                    pc_net,
                    list(range(net, net + self.fanout * 4, 4)),
                    gap=self.gap,
                )
                builder.emit_chunk(
                    pc_gather,
                    [
                        elements + t * self.element_size
                        for t in neigh[ele].tolist()
                    ],
                    gap=self.gap,
                )
            if rng.rand() < 0.4:  # accepted swap writes both elements
                builder.emit(
                    pc_swap, elements + a * self.element_size,
                    write=True, gap=self.gap,
                )
                builder.emit(
                    pc_swap, elements + b * self.element_size,
                    write=True, gap=self.gap,
                )
        return builder.build()
