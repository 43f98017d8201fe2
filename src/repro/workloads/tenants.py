"""Multi-tenant trace composition: interleaving single-process traces.

The paper evaluates a single address space; consolidated servers run many.
This module builds *mix* traces by interleaving the suite's single-tenant
component traces under a deterministic round-robin scheduler, tagging each
record with the tenant's ASID. The simulated machine replays the schedule
(:meth:`repro.sim.machine.Machine._run_scalar_tenants`), switching address
spaces — and optionally shooting down TLBs — at every tenant boundary.

Two invariants make mixes comparable to their components:

* each component trace is *exactly* the single-tenant trace of the same
  (workload, seed, per-tenant budget) — ``get_trace`` memoisation and the
  disk cache are shared, and per-tenant metrics can be diffed against the
  standalone run;
* the schedule depends only on ``(components, budget, seed)`` — the
  quantum jitter draws from a ``machine_seed_for``-derived stream, so
  mixes are byte-stable across processes, reruns, and the serve path.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.workloads.synthetic import Workload
from repro.workloads.trace import Trace

#: Accesses a tenant runs before the scheduler considers switching. Small
#: enough that mixes context-switch thousands of times per default budget,
#: large enough that each quantum spans many pages (realistic timeslices).
DEFAULT_QUANTUM = 1024

#: Fractional quantum jitter: each slice runs quantum * U(1-j, 1+j)
#: accesses, so tenants drift out of phase instead of beating in lockstep.
DEFAULT_JITTER = 0.25

#: Component workloads per mix, in ASID order (tenant i gets asid i+1;
#: asid 0 is reserved for the classic single-process machine).
MIX_COMPONENTS: Dict[str, Tuple[str, ...]] = {
    "mix2": ("bfs", "mcf"),
    "mix4": ("bfs", "mcf", "pr", "cg.B"),
}


def mix_names() -> List[str]:
    """The registered mix workloads ("mix2", "mix4")."""
    return list(MIX_COMPONENTS)


class TenantScheduler:
    """Deterministic round-robin interleaver over component traces.

    Walks the tenants in order, emitting one jittered quantum from each
    tenant's trace per turn; tenants that exhaust their trace drop out of
    the rotation until every record has been scheduled. The output is a
    single :class:`Trace` whose ``asids`` array carries the schedule.
    """

    def __init__(
        self,
        quantum: int = DEFAULT_QUANTUM,
        jitter: float = DEFAULT_JITTER,
        seed: int = 42,
    ):
        if quantum <= 0:
            raise ValueError(f"quantum must be positive, got {quantum}")
        if not 0.0 <= jitter < 1.0:
            raise ValueError(f"jitter must be in [0, 1), got {jitter}")
        self.quantum = quantum
        self.jitter = jitter
        self.seed = seed

    def _slice_lengths(self, rng: np.random.RandomState) -> int:
        if self.jitter == 0.0:
            return self.quantum
        lo = 1.0 - self.jitter
        hi = 1.0 + self.jitter
        return max(1, int(self.quantum * rng.uniform(lo, hi)))

    def schedule(
        self, name: str, components: Sequence[Tuple[int, Trace]]
    ) -> Trace:
        """Interleave ``(asid, trace)`` components into one tagged trace."""
        if not components:
            raise ValueError("scheduler needs at least one component")
        # Same seed derivation as the machine's frame allocator: workload
        # seeds and schedule randomness stay decorrelated (see
        # repro.sim.runner.machine_seed_for) yet fully reproducible.
        from repro.sim.runner import machine_seed_for

        rng = np.random.RandomState(machine_seed_for(self.seed) & 0x7FFFFFFF)
        cursors = [0] * len(components)
        pcs: List[np.ndarray] = []
        vaddrs: List[np.ndarray] = []
        writes: List[np.ndarray] = []
        gaps: List[np.ndarray] = []
        asids: List[np.ndarray] = []
        live = True
        while live:
            live = False
            for i, (asid, trace) in enumerate(components):
                start = cursors[i]
                if start >= len(trace):
                    continue
                end = min(start + self._slice_lengths(rng), len(trace))
                cursors[i] = end
                live = True
                pcs.append(trace.pcs[start:end])
                vaddrs.append(trace.vaddrs[start:end])
                writes.append(trace.writes[start:end])
                gaps.append(trace.gaps[start:end])
                asids.append(np.full(end - start, asid, dtype=np.uint32))
        return Trace(
            name,
            np.concatenate(pcs),
            np.concatenate(vaddrs),
            np.concatenate(writes),
            np.concatenate(gaps),
            np.concatenate(asids),
        )


def build_mix_trace(
    name: str,
    budget: int,
    seed: int = 42,
    quantum: int = DEFAULT_QUANTUM,
    jitter: float = DEFAULT_JITTER,
) -> Trace:
    """The ``name`` mix trace: interleaved suite components, ASID-tagged.

    ``budget`` is split evenly across components, so a mix trace is the
    same total length as the single-tenant trace it replaces and each
    component is byte-identical to ``get_trace(component, budget // n,
    seed)`` — the standalone run every per-tenant comparison diffs
    against.
    """
    component_names = MIX_COMPONENTS.get(name)
    if component_names is None:
        raise ValueError(
            f"unknown mix {name!r}; choose from {mix_names()}"
        )
    # Lazy: suite imports this module for registration.
    from repro.workloads.suite import get_trace

    per_tenant = budget // len(component_names)
    if per_tenant <= 0:
        raise ValueError(
            f"budget {budget} too small for {len(component_names)} tenants"
        )
    components = [
        (asid, get_trace(comp, per_tenant, seed))
        for asid, comp in enumerate(component_names, start=1)
    ]
    scheduler = TenantScheduler(quantum=quantum, jitter=jitter, seed=seed)
    return scheduler.schedule(name, components)


class MixWorkload(Workload):
    """Workload-API adapter over :func:`build_mix_trace`.

    Registered in :data:`repro.workloads.suite.MIX_WORKLOAD_CLASSES`, so
    mixes flow through ``get_trace`` — memoised, disk-cached (the npz
    round-trips the asids array), and servable — like any suite row.
    Note ``make_workload`` hands mixes the *run* seed verbatim (no
    per-index decorrelation): the components must be byte-identical to
    their standalone single-tenant traces.
    """

    def generate(self, budget: int) -> Trace:
        return build_mix_trace(self.name, budget, self.seed)


class Mix2Workload(MixWorkload):
    name = "mix2"
    description = "bfs + mcf interleaved in two address spaces"


class Mix4Workload(MixWorkload):
    name = "mix4"
    description = "bfs + mcf + pr + cg.B interleaved in four address spaces"
