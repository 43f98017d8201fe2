"""Zero-copy trace transport for the parallel runner.

The matrix executor used to rely on each worker regenerating (or disk-
loading) its traces, and any pickled fallback shipped megabytes of numpy
per cell. Instead, the parent publishes each distinct trace's arrays
once into one ``multiprocessing.shared_memory`` segment, and every task
carries its trace's small descriptor (segment name + per-field
dtype/count/offset). Workers attach read-only numpy views — no copy, no
pickling — and register the reconstructed
:class:`~repro.workloads.trace.Trace` with the suite's shared-trace
registry so the ordinary ``get_trace`` path finds it.

Publishing is pipelined with dispatch rather than done up front: the
executor publishes one trace, submits its cells, and publishes the next
while workers simulate (:meth:`repro.sim.parallel._Supervisor.run_pool`),
so one arena grows a segment at a time over the matrix.

Lifecycle: the parent owns every segment and unlinks on ``close()`` (the
matrix executor's ``finally``). Workers only ever attach; attached
segments are kept referenced for the worker's lifetime and explicitly
deregistered from :mod:`multiprocessing.resource_tracker`, which would
otherwise unlink the parent's segments when the first worker exits.

Disable with ``REPRO_SHM=0`` (the runner also degrades silently if shared
memory is unavailable, e.g. a read-only ``/dev/shm``).
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.workloads.trace import Trace

_ALIGN = 8


def shm_enabled() -> bool:
    """Shared-memory transport toggle (``REPRO_SHM=0`` disables)."""
    return os.environ.get("REPRO_SHM", "1") != "0"


def _fields(trace: Trace) -> List[Tuple[str, np.ndarray]]:
    fields = [
        ("pcs", trace.pcs),
        ("vaddrs", trace.vaddrs),
        ("writes", trace.writes),
        ("gaps", trace.gaps),
    ]
    if trace.asids is not None:
        fields.append(("asids", trace.asids))
    return fields


class SharedTraceArena:
    """Parent-side owner of the published trace segments."""

    def __init__(self) -> None:
        self._segments: List = []
        self.descriptors: List[dict] = []

    def publish(self, key: Tuple[str, int, int], trace: Trace) -> dict:
        """Copy ``trace`` into one fresh segment; returns its descriptor.

        ``key`` is the suite memo key ``(name, budget, seed)`` the workers
        will serve this trace under.
        """
        from multiprocessing import shared_memory

        fields = []
        offset = 0
        for field, arr in _fields(trace):
            arr = np.ascontiguousarray(arr)
            fields.append((field, arr))
            offset = -(-(offset + arr.nbytes) // _ALIGN) * _ALIGN
        seg = shared_memory.SharedMemory(create=True, size=max(offset, 1))
        self._segments.append(seg)
        descriptor = {
            "shm": seg.name,
            "key": list(key),
            "name": trace.name,
            "fields": [],
        }
        offset = 0
        for field, arr in fields:
            view = np.ndarray(arr.shape, arr.dtype, buffer=seg.buf, offset=offset)
            view[:] = arr
            descriptor["fields"].append(
                {
                    "field": field,
                    "dtype": arr.dtype.str,
                    "count": int(arr.shape[0]),
                    "offset": offset,
                }
            )
            offset = -(-(offset + arr.nbytes) // _ALIGN) * _ALIGN
        self.descriptors.append(descriptor)
        return descriptor

    def close(self) -> None:
        """Release and unlink every published segment (parent teardown)."""
        for seg in self._segments:
            try:
                seg.close()
                seg.unlink()
            except (FileNotFoundError, OSError):
                pass
        self._segments.clear()
        self.descriptors.clear()


#: Worker-side: attached segments, keyed by name so repeated attaches of
#: one segment map it once, and referenced for the process lifetime so
#: the numpy views stay backed.
_attached: Dict[str, object] = {}


def attach_trace(descriptor: dict) -> Optional[Trace]:
    """Worker-side: map a published segment into a zero-copy Trace.

    Returns None if the segment cannot be attached (e.g. the parent died
    and unlinked it); callers fall back to ordinary trace generation.
    """
    from multiprocessing import resource_tracker, shared_memory

    name = descriptor["shm"]
    seg = _attached.get(name)
    if seg is None:
        # Python 3.11's SharedMemory has no track= parameter: attaching
        # registers the segment with the (fork-shared) resource tracker,
        # which would unlink it — yanking it from under the parent and
        # sibling workers — when this worker exits. The parent owns the
        # lifecycle, so suppress registration for the attach. (Plain
        # unregister-after-attach is wrong here: the tracker is one
        # process shared by all workers, and the second worker's
        # unregister of an already-removed name raises inside it.)
        original_register = resource_tracker.register

        def _no_shm_register(rname, rtype):
            if rtype != "shared_memory":
                original_register(rname, rtype)

        resource_tracker.register = _no_shm_register
        try:
            seg = shared_memory.SharedMemory(name=name)
        except (FileNotFoundError, OSError):
            return None
        finally:
            resource_tracker.register = original_register
        _attached[name] = seg
    arrays = {}
    for field in descriptor["fields"]:
        arr = np.ndarray(
            (field["count"],),
            np.dtype(field["dtype"]),
            buffer=seg.buf,
            offset=field["offset"],
        )
        arr.flags.writeable = False
        arrays[field["field"]] = arr
    return Trace(
        descriptor["name"],
        arrays["pcs"],
        arrays["vaddrs"],
        arrays["writes"],
        arrays["gaps"],
        arrays.get("asids"),
    )


def detach_all() -> None:
    """Close every attached segment (worker teardown/test helper)."""
    for seg in _attached.values():
        try:
            seg.close()
        except Exception:
            pass
    _attached.clear()
