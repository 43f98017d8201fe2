"""Memory-reference traces and the builder the workload kernels emit into.

A trace is four parallel numpy arrays — PC, virtual address, write flag,
and the count of non-memory instructions preceding the access ("gap") —
which is exactly what a Pin-style tool would hand Sniper. Kernels emit
accesses through :class:`TraceBuilder`, which gathers them in Python
lists and makes the arrays once, at the end.
"""

from __future__ import annotations

import zipfile
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence, Tuple

import numpy as np

#: Synthetic code region where workload "instructions" live. Keeping all
#: PCs inside a few pages makes the I-TLB behave like a real kernel's.
CODE_BASE = 0x0040_0000
#: Byte spacing between synthetic instruction sites.
PC_STRIDE = 4
#: Deflate level of saved traces. Level 1 writes a suite trace three to
#: five times faster than ``np.savez_compressed``'s level 6, for a file
#: 5-20% larger.
SAVE_COMPRESSLEVEL = 1


def pc_for_site(site: int) -> int:
    """Program counter for the ``site``-th static access site."""
    return CODE_BASE + site * PC_STRIDE


@dataclass
class Trace:
    """An immutable memory-reference trace."""

    name: str
    pcs: np.ndarray
    vaddrs: np.ndarray
    writes: np.ndarray
    gaps: np.ndarray
    #: Optional per-record address-space ID (multi-tenant traces only).
    #: None keeps the classic four-array single-process layout.
    asids: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        n = len(self.pcs)
        if not (len(self.vaddrs) == len(self.writes) == len(self.gaps) == n):
            raise ValueError("trace arrays must have equal length")
        if self.asids is not None and len(self.asids) != n:
            raise ValueError("asids array must match trace length")
        # A gap counts the instructions between two accesses. A negative
        # one would read back as a huge count from the uint64 staging of
        # long traces, and would let the instruction count fall.
        gaps = self.gaps
        if gaps.dtype.kind != "u" and n and gaps.min() < 0:
            raise ValueError(
                f"trace gaps must be >= 0, got {gaps.min()} "
                f"in trace {self.name!r}"
            )

    def __len__(self) -> int:
        return len(self.pcs)

    @property
    def num_accesses(self) -> int:
        return len(self.pcs)

    @property
    def num_instructions(self) -> int:
        return int(self.gaps.sum()) + len(self.gaps)

    @property
    def footprint_pages(self) -> int:
        """Distinct 4 KB data pages touched."""
        return len(np.unique(self.vaddrs >> 12))

    #: Default records converted per ``iter_records`` chunk. Large enough
    #: that the tolist() vectorisation dominates, small enough that the
    #: temporary Python lists stay a few MB regardless of trace length.
    #: Override per call with the ``chunk`` argument.
    ITER_CHUNK = 65536

    @classmethod
    def resolve_chunk(cls, chunk: Optional[int] = None) -> int:
        """Effective chunk size: the argument, else ITER_CHUNK."""
        if chunk is None:
            return cls.ITER_CHUNK
        if chunk <= 0:
            raise ValueError(f"chunk must be positive, got {chunk}")
        return chunk

    def iter_records(
        self, chunk: Optional[int] = None
    ) -> Iterator[Tuple[int, int, bool, int]]:
        """Yield ``(pc, vaddr, is_write, gap)`` as native Python values.

        Streams in bounded chunks instead of materialising four full-trace
        Python lists up front: peak temporary memory is O(chunk), not
        O(len(trace)), which matters for multi-million-access budgets.
        Multi-chunk traces stage each slice through one preallocated
        buffer pair, so the per-chunk numpy temporaries are allocated once
        rather than once per chunk.
        """
        chunk = self.resolve_chunk(chunk)
        pcs, vaddrs = self.pcs, self.vaddrs
        writes, gaps = self.writes, self.gaps
        n = len(pcs)
        if n <= chunk:
            yield from zip(
                pcs.tolist(), vaddrs.tolist(), writes.tolist(), gaps.tolist()
            )
            return
        # One staging buffer per field dtype family, reused across chunks:
        # pcs/vaddrs/gaps pass through uint64 rows (tolist() yields int
        # either way), writes through a bool row (tolist() must yield bool).
        buf_ints = np.empty((3, chunk), dtype=np.uint64)
        buf_writes = np.empty(chunk, dtype=bool)
        for start in range(0, n, chunk):
            end = min(start + chunk, n)
            m = end - start
            np.copyto(buf_ints[0, :m], pcs[start:end], casting="unsafe")
            np.copyto(buf_ints[1, :m], vaddrs[start:end], casting="unsafe")
            np.copyto(buf_writes[:m], writes[start:end], casting="unsafe")
            np.copyto(buf_ints[2, :m], gaps[start:end], casting="unsafe")
            yield from zip(
                buf_ints[0, :m].tolist(),
                buf_ints[1, :m].tolist(),
                buf_writes[:m].tolist(),
                buf_ints[2, :m].tolist(),
            )

    def iter_asids(self, chunk: Optional[int] = None) -> Iterator[int]:
        """Yield each record's ASID as a native int, chunked like
        :meth:`iter_records` so ``zip(iter_records(), iter_asids())``
        streams both in lockstep with bounded temporaries."""
        if self.asids is None:
            raise ValueError(f"trace {self.name!r} carries no asids")
        chunk = self.resolve_chunk(chunk)
        asids = self.asids
        n = len(asids)
        for start in range(0, n, chunk):
            yield from asids[start:start + chunk].tolist()

    def truncated(self, max_accesses: int) -> "Trace":
        """A prefix of this trace (used to cap run lengths)."""
        if max_accesses >= len(self):
            return self
        return Trace(
            self.name,
            self.pcs[:max_accesses],
            self.vaddrs[:max_accesses],
            self.writes[:max_accesses],
            self.gaps[:max_accesses],
            None if self.asids is None else self.asids[:max_accesses],
        )

    def save(self, path) -> None:
        """Persist the trace as a compressed ``.npz`` file.

        The archive holds what ``np.savez_compressed`` writes, one
        ``<field>.npy`` member per array, deflated at
        :data:`SAVE_COMPRESSLEVEL` instead of zlib's default 6. ``path``
        is a path or a binary file object.
        """
        fields = {
            "name": np.asarray(self.name),
            "pcs": self.pcs,
            "vaddrs": self.vaddrs,
            "writes": self.writes,
            "gaps": self.gaps,
        }
        if self.asids is not None:
            fields["asids"] = self.asids
        with zipfile.ZipFile(
            path, "w", zipfile.ZIP_DEFLATED, compresslevel=SAVE_COMPRESSLEVEL
        ) as archive:
            for field, values in fields.items():
                with archive.open(f"{field}.npy", "w", force_zip64=True) as f:
                    np.lib.format.write_array(f, values, allow_pickle=False)

    @classmethod
    def load(cls, path) -> "Trace":
        """Load a trace previously written by :meth:`save`."""
        with np.load(path) as data:
            return cls(
                str(data["name"]),
                data["pcs"],
                data["vaddrs"],
                data["writes"],
                data["gaps"],
                data["asids"] if "asids" in data.files else None,
            )


class TraceBuilder:
    """Accumulates accesses (scalars, chunks or parallel fields) into a Trace.

    Every emission extends four plain Python lists, one per field, which
    ``build`` converts once each into the trace's numpy arrays. Kernels
    that assemble records as Python lists hand them to
    :meth:`emit_interleaved` as they are, with no numpy round trip.
    """

    def __init__(self, name: str, budget: int):
        self.name = name
        self.budget = check_budget(budget)
        self._count = 0
        self._pcs: list = []
        self._vaddrs: list = []
        self._writes: list = []
        self._gaps: list = []

    @property
    def remaining(self) -> int:
        return self.budget - self._count

    @property
    def full(self) -> bool:
        return self._count >= self.budget

    def emit(self, pc: int, vaddr: int, write: bool = False, gap: int = 2) -> None:
        """Append a single access."""
        if self._count >= self.budget:
            return
        self._pcs.append(pc)
        self._vaddrs.append(vaddr)
        self._writes.append(write)
        self._gaps.append(gap)
        self._count += 1

    def emit_chunk(
        self,
        pc: int,
        vaddrs: Sequence[int],
        write: bool = False,
        gap: int = 2,
    ) -> None:
        """Append a chunk of accesses sharing one PC / write flag / gap;
        ``vaddrs`` is a numpy array or a Python list.

        Chunks beyond the remaining budget are silently truncated; check
        :attr:`full` in kernel loops to stop early.
        """
        room = self.remaining
        if room <= 0:
            return
        vaddrs = _field(vaddrs, room, np.uint64)
        n = len(vaddrs)
        self._pcs += [pc] * n
        self._vaddrs += vaddrs
        self._writes += [write] * n
        self._gaps += [gap] * n
        self._count += n

    def emit_interleaved(
        self,
        pcs: Sequence[int],
        vaddrs: Sequence[int],
        writes: Sequence[bool],
        gaps: Sequence[int],
    ) -> None:
        """Append parallel per-record fields (mixed-PC chunks), each a
        numpy array or a Python list.

        Takes ``min(remaining, len(vaddrs))`` records; raises ValueError
        naming ``pcs``, ``writes`` or ``gaps`` if it is shorter than that.
        """
        room = self.remaining
        if room <= 0:
            return
        n = min(room, len(vaddrs))
        for field, values in (("pcs", pcs), ("writes", writes), ("gaps", gaps)):
            if len(values) < n:
                raise ValueError(
                    f"emit_interleaved: {field} holds {len(values)} "
                    f"records, {n} needed"
                )
        self._pcs += _field(pcs, n, np.uint64)
        self._vaddrs += _field(vaddrs, n, np.uint64)
        self._writes += _field(writes, n, np.bool_)
        self._gaps += _field(gaps, n, np.uint16)
        self._count += n

    def build(self) -> Trace:
        if self._count == 0:
            raise ValueError(f"trace {self.name!r} is empty")
        return Trace(
            self.name,
            np.array(self._pcs, dtype=np.uint64),
            np.array(self._vaddrs, dtype=np.uint64),
            np.array(self._writes, dtype=bool),
            np.array(self._gaps, dtype=np.uint16),
        )


def check_budget(budget: int) -> int:
    """``budget``, or ValueError unless it is positive."""
    if budget <= 0:
        raise ValueError(f"budget must be positive, got {budget}")
    return budget


def trace_from_steps(
    name: str,
    budget: int,
    pcs: np.ndarray,
    vaddrs: np.ndarray,
    writes: np.ndarray,
    gap: int,
    keep: Optional[np.ndarray] = None,
) -> Trace:
    """The trace of a kernel's per-step record tables, cut to ``budget``.

    ``vaddrs`` is a ``(steps, slots)`` table, one row per kernel step
    with its records in order; ``pcs`` and ``writes`` broadcast to it,
    and every record has gap ``gap``. ``keep``, when given, marks the
    slots a step emits. The records run row by row and stop after
    ``budget`` of them (positive, see :func:`check_budget`), as
    :class:`TraceBuilder` stops a kernel loop.
    """
    vaddrs = np.asarray(vaddrs)
    fields = [np.broadcast_to(f, vaddrs.shape) for f in (pcs, vaddrs, writes)]
    if keep is None:
        fields = [f.reshape(-1)[:budget] for f in fields]
    else:
        fields = [f[keep][:budget] for f in fields]
    pcs, vaddrs, writes = fields
    return Trace(
        name,
        pcs.astype(np.uint64),
        vaddrs.astype(np.uint64),
        writes.astype(bool),
        np.full(len(vaddrs), gap, dtype=np.uint16),
    )


def _field(values: Sequence, n: int, dtype) -> list:
    """The first ``n`` entries of ``values`` as a list; an array is cast
    to ``dtype`` first, as ``np.asarray`` casts it."""
    if isinstance(values, list):
        return values[:n]
    return np.asarray(values[:n], dtype=dtype).tolist()
