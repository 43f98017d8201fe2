"""Memory-reference traces and the builder the workload kernels emit into.

A trace is four parallel numpy arrays — PC, virtual address, write flag,
and the count of non-memory instructions preceding the access ("gap") —
which is exactly what a Pin-style tool would hand Sniper. Kernels emit
accesses through :class:`TraceBuilder`, usually in vectorised chunks.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple, Union

import numpy as np

#: Synthetic code region where workload "instructions" live. Keeping all
#: PCs inside a few pages makes the I-TLB behave like a real kernel's.
CODE_BASE = 0x0040_0000
#: Byte spacing between synthetic instruction sites.
PC_STRIDE = 4


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
    #: Override per-process with the ``REPRO_CHUNK`` environment variable
    #: or per-call with the ``chunk`` argument.
    ITER_CHUNK = 65536

    @classmethod
    def resolve_chunk(cls, chunk: Optional[int] = None) -> int:
        """Effective chunk size: argument > ``REPRO_CHUNK`` > ITER_CHUNK."""
        if chunk is None:
            env = os.environ.get("REPRO_CHUNK")
            if env:
                try:
                    chunk = int(env)
                except ValueError:
                    raise ValueError(
                        f"REPRO_CHUNK must be an integer, got {env!r}"
                    ) from None
            else:
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
        """Persist the trace as a compressed ``.npz`` file."""
        fields = {
            "name": np.asarray(self.name),
            "pcs": self.pcs,
            "vaddrs": self.vaddrs,
            "writes": self.writes,
            "gaps": self.gaps,
        }
        if self.asids is not None:
            fields["asids"] = self.asids
        np.savez_compressed(path, **fields)

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


#: dtypes of the ``pcs``, ``writes`` and ``gaps`` arrays a builder makes.
_RUN_DTYPES = (np.uint64, np.bool_, np.uint16)


class TraceBuilder:
    """Accumulates accesses (scalars or vectorised chunks) into a Trace.

    A uniform chunk (one PC / write flag / gap) is recorded as a
    ``(pc, write, gap, n)`` run rather than three filled arrays; ``build``
    expands each stretch of consecutive runs with one ``np.repeat`` per
    field. Interleaved chunks are kept as the arrays they arrive as.
    """

    def __init__(self, name: str, budget: int):
        if budget <= 0:
            raise ValueError(f"budget must be positive, got {budget}")
        self.name = name
        self.budget = budget
        self._count = 0
        self._vaddrs: List[np.ndarray] = []
        #: In emission order: a list of uniform runs, or one interleaved
        #: chunk's ``(pcs, writes, gaps)`` arrays.
        self._segments: List[Union[list, tuple]] = []

    @property
    def remaining(self) -> int:
        return self.budget - self._count

    @property
    def full(self) -> bool:
        return self._count >= self.budget

    def emit(self, pc: int, vaddr: int, write: bool = False, gap: int = 2) -> None:
        """Append a single access."""
        self.emit_chunk(pc, np.asarray([vaddr], dtype=np.uint64), write, gap)

    def emit_chunk(
        self,
        pc: int,
        vaddrs: np.ndarray,
        write: bool = False,
        gap: int = 2,
    ) -> None:
        """Append a chunk of accesses sharing one PC / write flag / gap.

        Chunks beyond the remaining budget are silently truncated; check
        :attr:`full` in kernel loops to stop early.
        """
        room = self.remaining
        if room <= 0:
            return
        if len(vaddrs) > room:
            vaddrs = vaddrs[:room]
        n = len(vaddrs)
        if n == 0:
            return
        segments = self._segments
        if not segments or not isinstance(segments[-1], list):
            segments.append([])
        segments[-1].append((pc, write, gap, n))
        self._vaddrs.append(np.asarray(vaddrs, dtype=np.uint64))
        self._count += n

    def emit_interleaved(
        self,
        pcs: np.ndarray,
        vaddrs: np.ndarray,
        writes: np.ndarray,
        gaps: np.ndarray,
    ) -> None:
        """Append pre-assembled parallel arrays (for mixed-PC chunks)."""
        room = self.remaining
        if room <= 0:
            return
        n = min(room, len(vaddrs))
        self._segments.append((
            np.asarray(pcs[:n], dtype=np.uint64),
            np.asarray(writes[:n], dtype=bool),
            np.asarray(gaps[:n], dtype=np.uint16),
        ))
        self._vaddrs.append(np.asarray(vaddrs[:n], dtype=np.uint64))
        self._count += n

    def build(self) -> Trace:
        if self._count == 0:
            raise ValueError(f"trace {self.name!r} is empty")
        fields: Tuple[List[np.ndarray], ...] = ([], [], [])
        for segment in self._segments:
            if isinstance(segment, list):
                *values, counts = zip(*segment)
                segment = tuple(
                    np.repeat(np.array(column, dtype=dtype), counts)
                    for column, dtype in zip(values, _RUN_DTYPES)
                )
            for field, arr in zip(fields, segment):
                field.append(arr)
        pcs, writes, gaps = (np.concatenate(field) for field in fields)
        return Trace(
            self.name, pcs, np.concatenate(self._vaddrs), writes, gaps
        )
