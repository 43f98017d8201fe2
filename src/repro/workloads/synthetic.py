"""Workload framework: address-space layout, access primitives, base class.

Each workload is an *instrumented kernel*: it executes (a scaled version
of) the real algorithm in Python/numpy and emits the memory references its
core data structures would generate. DESIGN.md §3 explains why this
substitution preserves the dead-page/dead-block behaviour the paper
studies.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, List

import numpy as np

from repro.workloads.trace import Trace, TraceBuilder, pc_for_site

#: Base of the synthetic data segment.
DATA_BASE = 0x1000_0000
#: Alignment/padding between regions (2 MB) so regions never share pages.
REGION_ALIGN = 1 << 21


class AddressSpace:
    """Lays out named data regions in the virtual address space."""

    def __init__(self, base: int = DATA_BASE):
        self._next = base
        self._regions: Dict[str, tuple] = {}

    def region(self, name: str, size_bytes: int) -> int:
        """Reserve ``size_bytes`` for ``name``; returns the base address."""
        if name in self._regions:
            raise ValueError(f"region {name!r} already allocated")
        if size_bytes <= 0:
            raise ValueError(f"region size must be positive, got {size_bytes}")
        base = self._next
        self._regions[name] = (base, size_bytes)
        padded = -(-size_bytes // REGION_ALIGN) * REGION_ALIGN
        self._next += padded
        return base

    def base(self, name: str) -> int:
        return self._regions[name][0]

    @property
    def footprint_bytes(self) -> int:
        return sum(size for _, size in self._regions.values())


def addresses(base: int, indices: np.ndarray, element_size: int) -> np.ndarray:
    """Virtual addresses of ``indices`` into an array at ``base``."""
    return base + indices.astype(np.uint64) * np.uint64(element_size)


def sequential_indices(count: int, start: int = 0) -> np.ndarray:
    return np.arange(start, start + count, dtype=np.uint64)


def mix_pcs(
    rng: np.random.RandomState,
    primary_pc: int,
    shared_pc: int,
    count: int,
    shared_fraction: float,
) -> List[int]:
    """PC list where a fraction of accesses issue from a *shared* PC.

    Real applications touch several data structures through common inlined
    helpers (iterators, memcpy, hash probes), so one PC's fills mix hot and
    cold pages. This is the regime the paper's two-dimensional PC x VPN
    pHIST index is designed for — and where PC-only signatures (SHiP)
    mispredict (paper Table VI's low SHiP-TLB accuracies).
    """
    if shared_fraction <= 0:
        return [primary_pc] * count
    return [
        shared_pc if r < shared_fraction else primary_pc
        for r in rng.rand(count).tolist()
    ]


# Bulk draws. A kernel whose every step takes a fixed number of MT19937
# words draws all its steps' words in one call and decodes them with the
# helpers below, which reproduce numpy's legacy ``RandomState``
# algorithms bit for bit, so the trace equals the per-step kernel's.


def draw_words(rng: np.random.RandomState, count: int) -> np.ndarray:
    """The next ``count`` raw 32-bit MT19937 words of ``rng`` (uint32).

    ``randint(0, 2**32, dtype=np.uint32)`` takes the full-range branch of
    numpy's legacy ``random_bounded_uint32_fill`` (``rng ==
    0xFFFFFFFF``), which returns one ``next_uint32`` per value, unmasked
    and never rejected: the stream every other legacy draw decodes.
    """
    return rng.randint(0, 1 << 32, size=count, dtype=np.uint32)


def uniforms_from_words(words: np.ndarray) -> np.ndarray:
    """The float64 values ``rng.rand`` makes from ``words``: one value
    per consecutive pair along the last axis, which must be even.

    Legacy ``rand`` calls ``mt19937_next_double``: ``a = next32 >> 5``,
    ``b = next32 >> 6``, ``(a * 67108864.0 + b) / 9007199254740992.0``.
    ``a * 2**26 + b < 2**53``, so each step is exact in float64.
    """
    words = np.asarray(words, dtype=np.uint32)
    if words.shape[-1] % 2:
        raise ValueError(
            f"uniforms take word pairs, got {words.shape[-1]} words"
        )
    pairs = words.reshape(words.shape[:-1] + (-1, 2))
    high = (pairs[..., 0] >> 5).astype(np.float64)
    low = (pairs[..., 1] >> 6).astype(np.float64)
    return (high * 67108864.0 + low) / 9007199254740992.0


def ints_from_words(words: np.ndarray, high: int) -> np.ndarray:
    """The int64 values ``rng.randint(0, high)`` makes from ``words``,
    one per word, for a power-of-two ``high`` from 2 to 2**32.

    Legacy ``randint`` (``buffered_bounded_masked_uint32``) takes
    ``next32 & mask``, with ``mask`` the smallest ``2**k - 1 >= high -
    1``, and redraws while the value exceeds ``high - 1``. For ``high ==
    2**k`` no value is redrawn, so each is ``w & (high - 1)``. Any other
    range rejects some words, and ``high == 1`` takes none, so the word
    count would vary: those raise.
    """
    if high < 2 or high > 1 << 32 or high & (high - 1):
        raise ValueError(
            f"high must be a power of two from 2 to 2**32, got {high}"
        )
    words = np.asarray(words, dtype=np.uint32)
    return (words & np.uint32(high - 1)).astype(np.int64)


def strided_indices(count: int, stride: int, start: int = 0) -> np.ndarray:
    return (start + np.arange(count, dtype=np.uint64) * stride)


class Workload(ABC):
    """A named, seeded, budgeted trace generator."""

    #: Short identifier matching the paper's Table II row.
    name: str = "abstract"
    #: One-line description (mirrors Table II's Description column).
    description: str = ""

    def __init__(self, seed: int = 42):
        self.seed = seed

    @abstractmethod
    def generate(self, budget: int) -> Trace:
        """Produce a trace with at most ``budget`` memory accesses."""

    def _builder(self, budget: int) -> TraceBuilder:
        return TraceBuilder(self.name, budget)

    def _rng(self) -> np.random.RandomState:
        return np.random.RandomState(self.seed)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}(seed={self.seed})"


class StreamWorkload(Workload):
    """A pure streaming sweep — the simplest possible workload, used in
    tests and the quickstart example. Every page is touched once per sweep;
    with a footprint far beyond the LLT reach all pages are DOA."""

    name = "stream"
    description = "sequential sweep over a large array"

    def __init__(self, seed: int = 42, array_bytes: int = 1 << 22, stride: int = 64):
        super().__init__(seed)
        self.array_bytes = array_bytes
        self.stride = stride

    def generate(self, budget: int) -> Trace:
        builder = self._builder(budget)
        space = AddressSpace()
        base = space.region("stream", self.array_bytes)
        elems = self.array_bytes // self.stride
        pc = pc_for_site(0)
        while not builder.full:
            idx = sequential_indices(min(elems, builder.remaining))
            builder.emit_chunk(pc, addresses(base, idx, self.stride), gap=3)
        return builder.build()


class LocalityWorkload(Workload):
    """An L1-resident working set with no same-page runs — the regime the
    paper's premise describes (L1 structures absorb essentially every
    reference) and the batched engine's showcase.

    Four pages x 12 lines each (48 blocks) are swept page-major: the page
    changes on *every* record, so the flat interpreter's same-page filter
    never applies and each record pays full D-TLB + L1D lookups, yet after
    one warm-up sweep every record hits in the L1 D-TLB and L1D. The
    footprint fits the smallest shipped geometry (fast profile: 16-entry
    4-way D-TLB -> 4 vpns land in 4 distinct sets; 8-set/8-way L1D -> at
    most 8 of the 48 blocks share a set) and therefore every larger one.
    """

    name = "locality"
    description = "L1-resident page-interleaved sweep (batched-engine showcase)"

    PAGES = 4
    LINES_PER_PAGE = 12

    def generate(self, budget: int) -> Trace:
        builder = self._builder(budget)
        space = AddressSpace()
        base = space.region("hot", self.PAGES * 4096)
        # One period: line-major outer, page-minor inner -> the page
        # alternates every access.
        lines = np.repeat(
            np.arange(self.LINES_PER_PAGE, dtype=np.uint64), self.PAGES
        )
        pages = np.tile(
            np.arange(self.PAGES, dtype=np.uint64), self.LINES_PER_PAGE
        )
        period = self.PAGES * self.LINES_PER_PAGE
        reps = -(-budget // period)
        vaddrs = np.tile(
            base + pages * np.uint64(4096) + lines * np.uint64(64), reps
        )[:budget]
        # One static access site per page; every 4th access is a write.
        pcs = np.tile(
            np.array(
                [pc_for_site(p) for p in range(self.PAGES)], dtype=np.uint64
            ),
            reps * self.LINES_PER_PAGE,
        )[:budget]
        writes = (np.arange(budget) % 4) == 0
        gaps = np.full(budget, 2, dtype=np.uint16)
        builder.emit_interleaved(pcs, vaddrs, writes, gaps)
        return builder.build()


class RandomWorkload(Workload):
    """Uniform random accesses — unpredictable by construction; used in
    tests to probe predictor worst cases."""

    name = "urandom"
    description = "uniform random accesses over a large array"

    def __init__(self, seed: int = 42, array_bytes: int = 1 << 22):
        super().__init__(seed)
        self.array_bytes = array_bytes

    def generate(self, budget: int) -> Trace:
        builder = self._builder(budget)
        space = AddressSpace()
        base = space.region("rand", self.array_bytes)
        rng = self._rng()
        elems = self.array_bytes // 8
        idx = rng.randint(0, elems, size=budget).astype(np.uint64)
        builder.emit_chunk(pc_for_site(0), addresses(base, idx, 8), gap=3)
        return builder.build()
