"""Golden result fingerprints for configs the perfbench digests do not pin.

``perfbench/reference_digests.json`` pins the baseline and dpPred+cbPred
suite plus a few scenario cells, but it is not tied to the cache schema
version. This file pins the baseline, Leeway and the perceptron (each
at its default knobs and at others that take other branches of their
hooks: narrow and wide perceptron tables, huge-page and tenant keys, a
lower Leeway percentile), dpPred+cbPred on every Table II workload (a
bug in code both engines share moves both together, so only a golden
value can see it), and the rest of the replacement surface: SHiP at
both levels (distant insertion), dpPred's demote variant, AIP
(``choose_victim``, on two workloads), SRRIP
replacement, ``track_reference=True`` ground-truth references, both
tenant mixes and huge pages. Each cell is the SHA-256 of ``wire_bytes``
of one run (budget 4,000, trace and machine seed 42) on both engines.
The ``obs_gate_*`` cells are the ``repro.obs`` baseline gate's runs at
its other seeds: mcf and bfs under its ``baseline`` and ``combined``
configs at seeds 43 and 44, seeded as ``run_cached`` seeds them (trace
seed ``s``, machine seed ``machine_seed_for(s)``). Reference tracking
sends ``combined`` to the scalar loop on both engines, so the
``dppred_cbpred_*_seed*`` cells run the same pairs without it, on the
batched engine's flat interpreter.

A result change is a simulator-semantics change, so it must come with a
:data:`~repro.sim.diskcache.CACHE_SCHEMA_VERSION` bump (stale disk-cache
entries would otherwise replay old results). The golden file records the
schema version it was taken at; the test fails if a fingerprint moves
while the version stays put, and if the version moves without the golden
file being regenerated::

    PYTHONPATH=src python tests/test_result_fingerprints.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.sim.config import (
    fast_config,
    hugepage_config,
    leeway_config,
    mix2_config,
    mix4_config,
    perceptron_config,
)
from repro.sim.diskcache import CACHE_SCHEMA_VERSION
from repro.sim.machine import Machine
from repro.sim.results import wire_bytes
from repro.sim.runner import machine_seed_for
from repro.workloads.suite import get_trace, workload_names

GOLDEN = Path(__file__).parent / "data" / "result_fingerprints.json"
BUDGET = 4_000
SEED = 42
ENGINES = ("scalar", "batched")

_DP_CB = {"tlb_predictor": "dppred", "llc_predictor": "cbpred"}

#: label -> (workload, config)
CELLS = {
    "baseline": ("lbm", fast_config()),
    "dppred_cbpred": ("mcf", fast_config(**_DP_CB)),
    "leeway": ("mcf", leeway_config()),
    "leeway_percentile_50": (
        "mcf", leeway_config(leeway_percentile=50, leeway_signature_bits=6),
    ),
    "perceptron": ("bfs", perceptron_config()),
    # Weight tables narrower than a page's block offset, and wider.
    "perceptron_table_bits_4": (
        "mcf", perceptron_config(perceptron_table_bits=4),
    ),
    "perceptron_table_bits_10": (
        "mcf", perceptron_config(perceptron_table_bits=10),
    ),
    # Huge-page and ASID-tagged LLT keys reach the perceptron's features.
    "perceptron_hugepage": (
        "mcf", hugepage_config(tlb_predictor="perceptron",
                               llc_predictor="perceptron"),
    ),
    "perceptron_mix2": (
        "mix2", mix2_config(tlb_predictor="perceptron",
                            llc_predictor="perceptron"),
    ),
    "ship": ("sssp", fast_config(tlb_predictor="ship", llc_predictor="ship")),
    "dppred_demote": (
        "mcf", fast_config(tlb_predictor="dppred_demote",
                           llc_predictor="cbpred"),
    ),
    "aip": ("bfs", fast_config(tlb_predictor="aip", llc_predictor="aip")),
    "aip_mcf": ("mcf", fast_config(tlb_predictor="aip", llc_predictor="aip")),
    "srrip": (
        "mcf", fast_config(tlb_policy="srrip", cache_policy="srrip", **_DP_CB),
    ),
    "track_reference": (
        "pr", fast_config(track_reference=True, **_DP_CB),
    ),
    "track_reference_ship": (
        "mcf", fast_config(track_reference=True, tlb_predictor="ship",
                           llc_predictor="ship"),
    ),
    "mix2": ("mix2", mix2_config(**_DP_CB)),
    "mix4": ("mix4", mix4_config(**_DP_CB)),
    "hugepage": ("mcf", hugepage_config(**_DP_CB)),
}
# The paper's headline config on the rest of the Table II suite.
CELLS.update(
    (f"dppred_cbpred_{workload}", (workload, fast_config(**_DP_CB)))
    for workload in workload_names()
    if workload != "mcf"
)
#: label -> (trace seed, machine seed), for cells not run at SEED.
SEEDS = {}
# The obs gate's cells at its seeds beyond 42 (budget 4,000, as here).
for _seed in (43, 44):
    for _workload in ("mcf", "bfs"):
        for _name, _config in (
            ("baseline", fast_config()),
            ("combined", fast_config(track_reference=True, **_DP_CB)),
        ):
            _label = f"obs_gate_{_workload}_{_name}_seed{_seed}"
            CELLS[_label] = (_workload, _config)
            SEEDS[_label] = (_seed, machine_seed_for(_seed))
        _label = f"dppred_cbpred_{_workload}_seed{_seed}"
        CELLS[_label] = (_workload, fast_config(**_DP_CB))
        SEEDS[_label] = (_seed, machine_seed_for(_seed))


def fingerprint(label: str, engine: str) -> str:
    workload, config = CELLS[label]
    trace_seed, machine_seed = SEEDS.get(label, (SEED, SEED))
    trace = get_trace(workload, BUDGET, trace_seed)
    result = Machine(config, seed=machine_seed).run(trace, engine=engine)
    return hashlib.sha256(wire_bytes(result.to_dict())).hexdigest()


def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_cell_at_current_schema():
    golden = _golden()
    assert set(golden["fingerprints"]) == set(CELLS)
    assert golden["cache_schema_version"] == CACHE_SCHEMA_VERSION, (
        "CACHE_SCHEMA_VERSION changed; regenerate the golden results: "
        "PYTHONPATH=src python tests/test_result_fingerprints.py --write"
    )


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("label", sorted(CELLS))
def test_result_matches_golden(label, engine):
    golden = _golden()
    assert golden["cache_schema_version"] == CACHE_SCHEMA_VERSION, (
        "golden results taken at another schema version; regenerate them"
    )
    assert fingerprint(label, engine) == golden["fingerprints"][label], (
        f"{label} result changed on the {engine} engine while "
        f"CACHE_SCHEMA_VERSION stayed {CACHE_SCHEMA_VERSION}: cached results "
        "would go stale. If the change is intended, bump the schema version "
        "and regenerate: PYTHONPATH=src python "
        "tests/test_result_fingerprints.py --write"
    )


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_result_fingerprints.py --write")
    prints = {}
    for label in sorted(CELLS):
        scalar, batched = (fingerprint(label, e) for e in ENGINES)
        if scalar != batched:
            sys.exit(f"{label}: engines disagree; refusing to record")
        prints[label] = scalar
    GOLDEN.parent.mkdir(exist_ok=True)
    payload = {"cache_schema_version": CACHE_SCHEMA_VERSION,
               "fingerprints": prints}
    GOLDEN.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
