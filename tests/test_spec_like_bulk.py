"""The bulk lbm, cactusADM and mcf kernels against their per-step forms.

``Lbm``, ``CactusAdm`` and ``Mcf`` draw all their randomness up front and
build the trace arrays with numpy. The functions below are the per-step
kernels they replaced: one RNG call and one ``TraceBuilder`` emission
per step. Each bulk trace must equal its reference array for array,
dtype included, at the budgets where the kernels wrap: lbm's lattice
(1,024 pages of 10 records, so 10,240 records a sweep) and cactusADM's
grid functions (256 pages of 44 records, 11,264 a sweep).

The word decoders in ``repro.workloads.synthetic`` are checked against
the legacy ``RandomState`` draws they reproduce.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.workloads.spec_like import CactusAdm, Lbm, Mcf
from repro.workloads.synthetic import (
    AddressSpace,
    draw_words,
    ints_from_words,
    mix_pcs,
    uniforms_from_words,
)
from repro.workloads.trace import TraceBuilder, pc_for_site

SEEDS = (0, 1, 7, 42)
BUDGETS = (1, 9, 11, 10_239, 10_241, 11_263, 11_265, 40_003, 120_000)


def reference_cactus_adm(wl: CactusAdm, budget: int):
    builder = TraceBuilder(wl.name, budget)
    space = AddressSpace()
    bases = [
        space.region(f"gf{a}", wl.function_bytes)
        for a in range(wl.num_functions)
    ]
    out = space.region("gf_out", wl.function_bytes)
    coeff = space.region("coeff", wl.coeff_bytes)
    rng = wl._rng()
    pages_per_fn = wl.function_bytes >> 12
    coeff_elems = wl.coeff_bytes // 8
    pc_write = pc_for_site(40)
    pc_coeff = pc_for_site(41)
    pc_shared = pc_for_site(60)
    gap = wl.gap
    page = 0

    def emit_mixed(primary_pc, vaddrs, fraction):
        pcs = mix_pcs(rng, primary_pc, pc_shared, len(vaddrs), fraction)
        builder.emit_interleaved(
            pcs, vaddrs, [False] * len(vaddrs), [gap] * len(vaddrs)
        )

    while not builder.full:
        for a in range(wl.num_functions):
            offs = rng.randint(0, 4096 // 8, size=wl.touches_per_page)
            row = bases[a] + (page << 12)
            emit_mixed(
                pc_for_site(a),
                [row + o * 8 for o in offs.tolist()],
                wl.shared_pc_fraction,
            )
        gathers = rng.randint(0, coeff_elems, size=2 * wl.num_functions)
        emit_mixed(
            pc_coeff,
            [coeff + g * 8 for g in gathers.tolist()],
            wl.shared_gather_fraction,
        )
        row = out + (page << 12)
        builder.emit_chunk(
            pc_write, [row, row + 8, row + 16, row + 24],
            write=True, gap=gap,
        )
        page = (page + 1) % pages_per_fn
    return builder.build()


def reference_lbm(wl: Lbm, budget: int):
    builder = TraceBuilder(wl.name, budget)
    space = AddressSpace()
    src = space.region("src", wl.lattice_bytes)
    dst = space.region("dst", wl.lattice_bytes)
    obstacle = space.region("obstacle", wl.obstacle_bytes)
    rng = wl._rng()
    pages = wl.lattice_bytes >> 12
    obst_elems = wl.obstacle_bytes // 8
    pc_src = pc_for_site(0)
    pc_dst = pc_for_site(1)
    pc_obst = pc_for_site(2)
    pc_shared = pc_for_site(60)
    gap = wl.gap
    page = 0

    def emit_mixed(primary_pc, vaddrs, fraction, write=False):
        pcs = mix_pcs(rng, primary_pc, pc_shared, len(vaddrs), fraction)
        builder.emit_interleaved(
            pcs, vaddrs, [write] * len(vaddrs), [gap] * len(vaddrs)
        )

    while not builder.full:
        offs = rng.randint(0, 4096 // 8, size=wl.touches_per_page)
        cells = [(page << 12) + o * 8 for o in offs.tolist()]
        emit_mixed(pc_src, [src + c for c in cells], wl.shared_pc_fraction)
        emit_mixed(
            pc_dst, [dst + c for c in cells], wl.shared_pc_fraction,
            write=True,
        )
        gathers = rng.randint(0, obst_elems, size=2)
        emit_mixed(
            pc_obst,
            [obstacle + g * 8 for g in gathers.tolist()],
            wl.shared_gather_fraction,
        )
        page = (page + 1) % pages
        if page == 0:
            src, dst = dst, src
    return builder.build()


def reference_mcf(wl: Mcf, budget: int):
    builder = TraceBuilder(wl.name, budget)
    space = AddressSpace()
    arcs = space.region("arcs", wl.num_arcs * wl.arc_size)
    nodes = space.region("nodes", wl.num_nodes * wl.node_size)
    rng = wl._rng()
    order = rng.permutation(wl.num_arcs)
    chase = np.empty(wl.num_arcs, dtype=np.int64)
    chase[order] = np.roll(order, -1)
    chase = chase.tolist()
    heads = rng.randint(0, wl.num_nodes, size=wl.num_arcs).tolist()
    tails = rng.randint(0, wl.num_nodes, size=wl.num_arcs).tolist()
    pos = int(rng.randint(0, wl.num_arcs))
    pc_arc = pc_for_site(0)
    pc_head = pc_for_site(1)
    pc_tail = pc_for_site(2)
    pc_update = pc_for_site(3)
    while not builder.full:
        builder.emit(pc_arc, arcs + pos * wl.arc_size, gap=wl.gap)
        builder.emit(pc_head, nodes + heads[pos] * wl.node_size, gap=wl.gap)
        builder.emit(pc_tail, nodes + tails[pos] * wl.node_size, gap=wl.gap)
        if pos % 7 == 0:
            builder.emit(
                pc_update, arcs + pos * wl.arc_size, write=True, gap=wl.gap
            )
        pos = chase[pos]
    return builder.build()


REFERENCES = {
    CactusAdm: reference_cactus_adm,
    Lbm: reference_lbm,
    Mcf: reference_mcf,
}


def assert_same_trace(got, expected):
    assert got.name == expected.name
    for field in ("pcs", "vaddrs", "writes", "gaps"):
        a, b = getattr(got, field), getattr(expected, field)
        assert a.dtype == b.dtype, field
        np.testing.assert_array_equal(a, b, err_msg=field)
    assert got.asids is None and expected.asids is None


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("budget", BUDGETS)
@pytest.mark.parametrize("cls", list(REFERENCES), ids=lambda c: c.name)
def test_bulk_kernel_matches_per_step_reference(cls, budget, seed):
    wl = cls(seed=seed)
    assert_same_trace(wl.generate(budget), REFERENCES[cls](wl, budget))


def test_mcf_chase_wraps_its_cycle():
    """Past one lap of the arc cycle the chase revisits it in order."""
    wl = Mcf(seed=3)
    budget = 4 * wl.num_arcs
    assert_same_trace(wl.generate(budget), reference_mcf(wl, budget))


@pytest.mark.parametrize("cls", list(REFERENCES), ids=lambda c: c.name)
@pytest.mark.parametrize("budget", (0, -5))
def test_non_positive_budget_raises(cls, budget):
    with pytest.raises(ValueError, match="budget must be positive"):
        cls(seed=0).generate(budget)


@pytest.mark.parametrize("cls", list(REFERENCES), ids=lambda c: c.name)
def test_kernel_draws_no_rng_per_step(cls, monkeypatch):
    """The RNG calls of one generate do not grow with the budget."""
    counts = []
    real_rng = cls._rng

    def counting_rng(self):
        rng = real_rng(self)
        calls = []
        counts.append(calls)

        class Counting:
            def __getattr__(self, attr):
                method = getattr(rng, attr)

                def call(*args, **kwargs):
                    calls.append(attr)
                    return method(*args, **kwargs)

                return call

        return Counting()

    monkeypatch.setattr(cls, "_rng", counting_rng)
    cls(seed=0).generate(100)
    cls(seed=0).generate(20_000)
    assert counts[0] == counts[1]
    assert len(counts[0]) <= 4


class TestDecoders:
    @pytest.mark.parametrize("count", (0, 1, 7, 64))
    def test_uniforms_match_rand(self, count):
        words = draw_words(np.random.RandomState(11), 2 * count)
        expected = np.random.RandomState(11).rand(count)
        got = uniforms_from_words(words)
        assert got.dtype == np.float64
        np.testing.assert_array_equal(got, expected)

    def test_uniforms_pair_along_last_axis(self):
        words = draw_words(np.random.RandomState(5), 5 * 6).reshape(5, 6)
        expected = np.random.RandomState(5).rand(15).reshape(5, 3)
        np.testing.assert_array_equal(uniforms_from_words(words), expected)

    def test_uniforms_refuse_odd_word_count(self):
        with pytest.raises(ValueError, match="word pairs"):
            uniforms_from_words(np.zeros(3, dtype=np.uint32))

    @pytest.mark.parametrize("high", (2, 512, 65_536, 1 << 31, 1 << 32))
    @pytest.mark.parametrize("count", (0, 1, 9))
    def test_ints_match_power_of_two_randint(self, high, count):
        words = draw_words(np.random.RandomState(3), count)
        expected = np.random.RandomState(3).randint(0, high, size=count)
        got = ints_from_words(words, high)
        assert got.dtype == expected.dtype
        np.testing.assert_array_equal(got, expected)

    @pytest.mark.parametrize("high", (0, 1, 3, 48_000, (1 << 32) + 1, 1 << 33))
    def test_ints_refuse_other_ranges(self, high):
        with pytest.raises(ValueError, match="power of two"):
            ints_from_words(np.zeros(4, dtype=np.uint32), high)

    def test_decoded_draws_continue_the_stream(self):
        """Mixed draws decoded from one word block leave the generator
        where the per-call draws leave it."""
        bulk = np.random.RandomState(9)
        words = draw_words(bulk, 3 + 4 + 1)
        step = np.random.RandomState(9)
        np.testing.assert_array_equal(
            ints_from_words(words[:3], 512), step.randint(0, 512, size=3)
        )
        np.testing.assert_array_equal(
            uniforms_from_words(words[3:7]), step.rand(2)
        )
        assert ints_from_words(words[7:], 4)[0] == step.randint(0, 4)
        assert bulk.randint(0, 1 << 30) == step.randint(0, 1 << 30)
