"""Golden trace fingerprints: every generated trace stays byte-identical.

``test_workloads_suite.py::test_deterministic`` only checks that two
generations agree with each other, so a generator rewrite that changes a
trace would pass it. This test pins each trace to a SHA-256 over its name
and the dtype and bytes of every array, recorded in
``tests/data/trace_fingerprints.json``.

Coverage: the 14 suite workloads, the extras and the multi-tenant mixes,
at budget 40,000 seed 42 and at budget 2,000 seed 0 (the small budget
truncates every kernel early).

Regenerate (only when a trace change is intended, and say so in the
change log)::

    PYTHONPATH=src python tests/test_trace_fingerprints.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.workloads.suite import all_workload_names, get_trace

GOLDEN = Path(__file__).parent / "data" / "trace_fingerprints.json"
#: (budget, seed) points; the second exercises early truncation.
POINTS = ((40_000, 42), (2_000, 0))
FIELDS = ("pcs", "vaddrs", "writes", "gaps", "asids")


def fingerprint(trace) -> str:
    """SHA-256 over the trace name and each array's dtype and bytes."""
    digest = hashlib.sha256(trace.name.encode())
    for field in FIELDS:
        arr = getattr(trace, field)
        digest.update(f"|{field}:".encode())
        if arr is None:
            digest.update(b"none")
            continue
        digest.update(arr.dtype.str.encode())
        digest.update(arr.tobytes())
    return digest.hexdigest()


def _label(name: str, budget: int, seed: int) -> str:
    return f"{name}/{budget}/{seed}"


def compute_all() -> dict:
    return {
        _label(name, budget, seed): fingerprint(get_trace(name, budget, seed))
        for budget, seed in POINTS
        for name in all_workload_names()
    }


def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_workload():
    expected = {
        _label(name, budget, seed)
        for budget, seed in POINTS
        for name in all_workload_names()
    }
    assert set(_golden()) == expected


@pytest.mark.parametrize("budget,seed", POINTS)
@pytest.mark.parametrize("name", all_workload_names())
def test_trace_matches_golden(name, budget, seed):
    label = _label(name, budget, seed)
    assert fingerprint(get_trace(name, budget, seed)) == _golden()[label], (
        f"trace {label} changed; regenerate only if intended: "
        "PYTHONPATH=src python tests/test_trace_fingerprints.py --write"
    )


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_trace_fingerprints.py --write")
    GOLDEN.parent.mkdir(exist_ok=True)
    golden = json.dumps(compute_all(), indent=2, sort_keys=True)
    GOLDEN.write_text(golden + "\n")
    print(f"wrote {GOLDEN}")
