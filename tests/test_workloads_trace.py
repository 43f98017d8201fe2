"""Tests for the trace infrastructure."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads.trace import Trace, TraceBuilder, pc_for_site


class TestTraceBuilder:
    def test_emit_single(self):
        b = TraceBuilder("t", budget=10)
        b.emit(0x400000, 0x1000, write=True, gap=5)
        trace = b.build()
        assert len(trace) == 1
        assert trace.writes[0]
        assert trace.gaps[0] == 5

    def test_emit_chunk(self):
        b = TraceBuilder("t", budget=10)
        b.emit_chunk(0x400000, np.arange(5, dtype=np.uint64) * 64)
        trace = b.build()
        assert len(trace) == 5
        assert (trace.pcs == 0x400000).all()

    def test_budget_truncates_chunks(self):
        b = TraceBuilder("t", budget=3)
        b.emit_chunk(0x400000, np.arange(10, dtype=np.uint64))
        assert b.full
        assert len(b.build()) == 3

    def test_emit_after_full_is_noop(self):
        b = TraceBuilder("t", budget=1)
        b.emit(0x400000, 0)
        b.emit(0x400000, 1)
        assert len(b.build()) == 1

    def test_emit_interleaved(self):
        b = TraceBuilder("t", budget=10)
        b.emit_interleaved(
            np.asarray([1, 2], dtype=np.uint64),
            np.asarray([10, 20], dtype=np.uint64),
            np.asarray([False, True]),
            np.asarray([2, 3], dtype=np.uint16),
        )
        trace = b.build()
        assert trace.pcs.tolist() == [1, 2]
        assert trace.writes.tolist() == [False, True]

    @pytest.mark.parametrize("field", ["pcs", "writes", "gaps"])
    def test_emit_interleaved_rejects_short_field(self, field):
        b = TraceBuilder("t", budget=10)
        fields = {
            "pcs": np.asarray([1, 2, 3], dtype=np.uint64),
            "vaddrs": np.asarray([10, 20, 30], dtype=np.uint64),
            "writes": [False, True, False],
            "gaps": [2, 3, 4],
        }
        fields[field] = fields[field][:2]
        with pytest.raises(ValueError, match=field):
            b.emit_interleaved(**fields)
        assert b.remaining == 10

    def test_emit_interleaved_needs_only_the_records_it_takes(self):
        b = TraceBuilder("t", budget=2)
        b.emit_interleaved([1, 2], [10, 20, 30], [False, True], [2, 3])
        assert b.full
        # A full builder takes nothing, so short fields are not an error.
        b.emit_interleaved([], [40], [], [])
        assert b.build().vaddrs.tolist() == [10, 20]

    def test_empty_build_rejected(self):
        with pytest.raises(ValueError):
            TraceBuilder("t", budget=5).build()

    def test_zero_budget_rejected(self):
        with pytest.raises(ValueError):
            TraceBuilder("t", budget=0)


class TestTrace:
    def make(self, n=10):
        return Trace(
            "t",
            np.arange(n, dtype=np.uint64),
            np.arange(n, dtype=np.uint64) * 4096,
            np.zeros(n, dtype=bool),
            np.full(n, 2, dtype=np.uint16),
        )

    def test_num_instructions(self):
        assert self.make(10).num_instructions == 30

    def test_footprint_pages(self):
        assert self.make(10).footprint_pages == 10

    def test_iter_records_yields_python_types(self):
        for pc, vaddr, write, gap in self.make(3).iter_records():
            assert isinstance(pc, int)
            assert isinstance(gap, int)

    def test_truncated(self):
        t = self.make(10).truncated(4)
        assert len(t) == 4
        assert self.make(10).truncated(100).num_accesses == 10

    def test_mismatched_arrays_rejected(self):
        with pytest.raises(ValueError):
            Trace(
                "bad",
                np.arange(3, dtype=np.uint64),
                np.arange(2, dtype=np.uint64),
                np.zeros(3, dtype=bool),
                np.zeros(3, dtype=np.uint16),
            )

    @pytest.mark.parametrize("n", [3, Trace.ITER_CHUNK + 1])
    def test_negative_gaps_rejected(self, n):
        """Short and multi-chunk traces alike: a negative gap would read
        back as itself from one and as 2**64 - 2 from the other."""
        gaps = np.full(n, 3, dtype=np.int16)
        gaps[-1] = -2
        with pytest.raises(ValueError, match="gaps must be >= 0"):
            Trace(
                "bad",
                np.arange(n, dtype=np.uint64),
                np.arange(n, dtype=np.uint64),
                np.zeros(n, dtype=bool),
                gaps,
            )

    def test_signed_non_negative_gaps_accepted(self):
        gaps = np.array([0, 1, 2**15 - 1], dtype=np.int16)
        trace = Trace(
            "ok",
            np.arange(3, dtype=np.uint64),
            np.arange(3, dtype=np.uint64),
            np.zeros(3, dtype=bool),
            gaps,
        )
        assert [r[3] for r in trace.iter_records()] == [0, 1, 2**15 - 1]


class TestIterRecordsChunking:
    def make(self, n):
        return Trace(
            "t",
            np.arange(n, dtype=np.uint64),
            np.arange(n, dtype=np.uint64) * 64,
            (np.arange(n) % 3 == 0),
            (np.arange(n) % 5).astype(np.uint16),
        )

    def reference(self, trace):
        return list(
            zip(
                trace.pcs.tolist(),
                trace.vaddrs.tolist(),
                trace.writes.tolist(),
                trace.gaps.tolist(),
            )
        )

    @pytest.mark.parametrize("chunk", [1, 2, 3, 7, 10, 11, 64])
    def test_chunk_boundaries_lossless(self, chunk):
        """Every chunk size yields the same records in the same order —
        including sizes that divide the length, straddle it, and exceed
        it — through the reused staging buffer."""
        trace = self.make(10)
        assert list(trace.iter_records(chunk=chunk)) == self.reference(trace)

    def test_chunked_types_match_unchunked(self):
        trace = self.make(7)
        for rec in trace.iter_records(chunk=3):
            pc, vaddr, write, gap = rec
            assert type(pc) is int and type(vaddr) is int
            assert type(write) is bool and type(gap) is int

    def test_chunk_argument_override(self):
        assert Trace.resolve_chunk(4) == 4
        trace = self.make(11)
        assert list(trace.iter_records(chunk=4)) == self.reference(trace)

    def test_default_chunk(self):
        assert Trace.resolve_chunk() == Trace.ITER_CHUNK

    @pytest.mark.parametrize("bad", [0, -3])
    def test_invalid_chunk_rejected(self, bad):
        with pytest.raises(ValueError):
            Trace.resolve_chunk(bad)

    def test_invalid_chunk_argument_rejected(self):
        with pytest.raises(ValueError):
            list(self.make(3).iter_records(chunk=0))

    def test_simulation_invariant_under_chunk_size(self, monkeypatch):
        """End to end: a tiny default chunk leaves simulation results
        byte-identical (the regression the reusable buffer must not cause)."""
        import json

        from repro.sim.config import fast_config
        from repro.sim.machine import Machine
        from repro.workloads.suite import get_trace

        trace = get_trace("stream", 3000, 42)
        def run():
            result = Machine(fast_config(), seed=42).run_scalar(trace)
            return json.dumps(result.to_dict(), sort_keys=True)

        baseline = run()
        monkeypatch.setattr(Trace, "ITER_CHUNK", 17)
        assert run() == baseline


def test_pc_for_site_distinct_and_stable():
    pcs = {pc_for_site(i) for i in range(100)}
    assert len(pcs) == 100
    assert pc_for_site(3) == pc_for_site(3)


@settings(max_examples=30)
@given(
    chunks=st.lists(
        st.integers(1, 20), min_size=1, max_size=20
    ),
    budget=st.integers(1, 100),
)
def test_builder_never_exceeds_budget(chunks, budget):
    b = TraceBuilder("prop", budget=budget)
    for n in chunks:
        b.emit_chunk(0x400000, np.arange(n, dtype=np.uint64))
    trace = b.build() if b.remaining < budget else None
    if trace is not None:
        assert len(trace) <= budget


class ReferenceTraceBuilder:
    """The array-per-chunk builder, kept as the oracle for
    ``TraceBuilder``'s list-backed rewrite: every chunk is stored as four
    filled arrays and ``build`` concatenates them."""

    def __init__(self, name, budget):
        self.name, self.budget, self.count = name, budget, 0
        self.fields = ([], [], [], [])

    @property
    def remaining(self):
        return self.budget - self.count

    @property
    def full(self):
        return self.count >= self.budget

    def _append(self, pcs, vaddrs, writes, gaps):
        for field, arr in zip(self.fields, (pcs, vaddrs, writes, gaps)):
            field.append(arr)
        self.count += len(vaddrs)

    def emit(self, pc, vaddr, write=False, gap=2):
        self.emit_chunk(pc, np.asarray([vaddr], dtype=np.uint64), write, gap)

    def emit_chunk(self, pc, vaddrs, write=False, gap=2):
        room = self.budget - self.count
        if room <= 0:
            return
        vaddrs = vaddrs[:room]
        n = len(vaddrs)
        if n == 0:
            return
        self._append(
            np.full(n, pc, dtype=np.uint64),
            np.asarray(vaddrs, dtype=np.uint64),
            np.full(n, write, dtype=bool),
            np.full(n, gap, dtype=np.uint16),
        )

    def emit_interleaved(self, pcs, vaddrs, writes, gaps):
        room = self.budget - self.count
        if room <= 0:
            return
        n = min(room, len(vaddrs))
        self._append(
            np.asarray(pcs[:n], dtype=np.uint64),
            np.asarray(vaddrs[:n], dtype=np.uint64),
            np.asarray(writes[:n], dtype=bool),
            np.asarray(gaps[:n], dtype=np.uint16),
        )

    def build(self):
        if self.count == 0:
            raise ValueError(f"trace {self.name!r} is empty")
        return Trace(self.name, *(np.concatenate(f) for f in self.fields))


_pc = st.integers(0, 2**64 - 1)
_addr = st.integers(0, 2**48)
_gap = st.one_of(st.sampled_from([0, 2**16 - 1]), st.integers(0, 2**16 - 1))
#: How a vaddr reaches the builder: a Python int or a numpy scalar.
_scalar = st.sampled_from([int, np.uint64, np.int64])
#: dtype of a vaddr array (``addresses`` makes uint64; int64 arithmetic
#: on offsets makes int64).
_addr_dtype = st.sampled_from([np.uint64, np.int64])


def _records(kind):
    """Parallel fields of ``n`` records, 0 <= n <= 12 (0: an empty chunk)."""
    return st.integers(0, 12).flatmap(lambda n: st.tuples(
        st.just(kind),
        st.lists(_pc, min_size=n, max_size=n),
        st.lists(_addr, min_size=n, max_size=n),
        st.lists(st.booleans(), min_size=n, max_size=n),
        st.lists(_gap, min_size=n, max_size=n),
        _addr_dtype,
    ))


_emission = st.one_of(
    st.tuples(st.just("emit"), _pc, _addr, st.booleans(), _gap, _scalar),
    st.tuples(
        st.just("emit_chunk"), _pc, st.lists(_addr, max_size=12),
        st.booleans(), _gap, _addr_dtype,
    ),
    st.tuples(
        st.just("emit_chunk_list"), _pc, st.lists(_addr, max_size=12),
        st.booleans(), _gap,
    ),
    _records("emit_interleaved"),
    _records("emit_interleaved_lists"),
)


def _replay(builder, emissions):
    """Drive ``builder``; returns its ``remaining``/``full`` after each
    emission."""
    seen = []
    for kind, *args in emissions:
        if kind == "emit":
            pc, vaddr, write, gap, scalar = args
            builder.emit(pc, scalar(vaddr), write, gap)
        elif kind == "emit_chunk":
            pc, vaddrs, write, gap, dtype = args
            builder.emit_chunk(pc, np.asarray(vaddrs, dtype=dtype),
                               write, gap)
        elif kind == "emit_chunk_list":
            builder.emit_chunk(*args)
        elif kind == "emit_interleaved":
            pcs, vaddrs, writes, gaps, dtype = args
            builder.emit_interleaved(
                np.asarray(pcs, dtype=np.uint64),
                np.asarray(vaddrs, dtype=dtype),
                np.asarray(writes, dtype=bool),
                np.asarray(gaps, dtype=np.uint16),
            )
        else:
            # Python lists, as the list-emitting kernels pass them.
            builder.emit_interleaved(*args[:4])
        seen.append((builder.remaining, builder.full))
    return seen


@settings(max_examples=200, deadline=None)
@given(
    emissions=st.lists(_emission, max_size=25),
    budget=st.integers(1, 80),
)
def test_run_length_builder_matches_reference(emissions, budget):
    """Any mix of scalar, uniform-chunk and interleaved emissions — numpy
    scalars, uint64 and int64 arrays, or Python lists — with the budget
    truncating wherever it falls, builds the same arrays with the same
    dtypes as the array-per-chunk builder."""
    reference = ReferenceTraceBuilder("prop", budget)
    builder = TraceBuilder("prop", budget)
    assert _replay(builder, emissions) == _replay(reference, emissions)
    if reference.count == 0:
        with pytest.raises(ValueError):
            builder.build()
        return
    want, got = reference.build(), builder.build()
    assert got.name == want.name
    for field in ("pcs", "vaddrs", "writes", "gaps"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype, field
        assert np.array_equal(a, b), field
    assert got.asids is None
