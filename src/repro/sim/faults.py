"""Deterministic fault injection for the run-matrix executor.

A :class:`FaultPlan` describes, up front and reproducibly, which matrix
cells fail and how: a worker is *killed* (hard ``os._exit`` inside a pool
worker, an :class:`InjectedFault` in serial mode), *hangs* (sleeps past
the supervisor's per-run timeout), or *corrupts* its just-written
``.repro_cache/`` entry before crashing (a torn write at the worst
moment). Plans are frozen dataclasses of tuples — hashable, picklable,
safe to ship to pool workers — and every decision is a pure function of
``(workload, config_name, seed, attempt)``, so a faulted sweep is as
reproducible as a clean one.

The executor (:func:`repro.sim.parallel.run_matrix`) threads the plan to
its workers; production sweeps simply pass no plan and none of this code
runs. Tests use plans to prove that retries, timeouts, and reruns of an
interrupted sweep recover bit-identical results (see ``tests/test_sim_faults.py``).
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass, replace
from typing import Optional, Sequence, Tuple

#: A worker dies mid-cell (hard process exit in a pool, raise in serial).
KILL = "kill"
#: A worker stalls (sleeps) so the per-run timeout fires.
HANG = "hang"
#: A worker stores its result, tears the cache entry, then crashes.
CORRUPT = "corrupt"

FAULT_KINDS = (KILL, HANG, CORRUPT)

#: Exit status used by hard-killed pool workers (recognisable in waitpid).
KILL_EXIT_STATUS = 87


class InjectedFault(RuntimeError):
    """A deliberately injected worker failure (retryable by design)."""


@dataclass(frozen=True)
class FaultSpec:
    """One injected failure: *which* cells, *what* happens, *when*.

    ``config_name``/``seed`` of None match any cell of ``workload``.
    The fault fires while ``attempt <= attempts`` — so ``attempts=1``
    fails once and then recovers, while ``attempts >= max_attempts``
    makes the cell permanently fatal.
    """

    kind: str
    workload: str
    config_name: Optional[str] = None
    seed: Optional[int] = None
    attempts: int = 1
    #: KILL only: hard-exit the pool worker process (exercises pool
    #: breakage) instead of raising an in-band exception.
    hard: bool = True
    #: HANG only: how long the worker stalls.
    hang_seconds: float = 30.0

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of "
                f"{FAULT_KINDS}"
            )
        if self.attempts < 1:
            raise ValueError(f"attempts must be >= 1, got {self.attempts}")

    def matches(
        self, workload: str, config_name: str, seed: int, attempt: int
    ) -> bool:
        return (
            self.workload == workload
            and (self.config_name is None or self.config_name == config_name)
            and (self.seed is None or self.seed == seed)
            and attempt <= self.attempts
        )


@dataclass(frozen=True)
class FaultPlan:
    """A reproducible set of injected failures for one matrix execution."""

    specs: Tuple[FaultSpec, ...] = ()

    def spec_for(
        self, workload: str, config_name: str, seed: int, attempt: int
    ) -> Optional[FaultSpec]:
        """The first spec matching this cell/attempt, or None."""
        for spec in self.specs:
            if spec.matches(workload, config_name, seed, attempt):
                return spec
        return None

    def __bool__(self) -> bool:
        return bool(self.specs)

    # ------------------------------------------------------------------ #
    # Builders
    # ------------------------------------------------------------------ #
    @classmethod
    def kill(cls, workload: str, **kw) -> "FaultPlan":
        return cls((FaultSpec(KILL, workload, **kw),))

    @classmethod
    def hang(cls, workload: str, seconds: float = 30.0, **kw) -> "FaultPlan":
        return cls((FaultSpec(HANG, workload, hang_seconds=seconds, **kw),))

    @classmethod
    def corrupt(cls, workload: str, **kw) -> "FaultPlan":
        return cls((FaultSpec(CORRUPT, workload, **kw),))

    def plus(self, other: "FaultPlan") -> "FaultPlan":
        return FaultPlan(self.specs + other.specs)

    @classmethod
    def random(
        cls,
        cells: Sequence[Tuple[str, str, int]],
        seed: int,
        rate: float = 0.25,
        kinds: Sequence[str] = (KILL,),
        hard: bool = False,
    ) -> "FaultPlan":
        """A seeded random plan over ``(workload, config_name, seed)``
        cells: each cell independently fails with probability ``rate``,
        with a kind drawn from ``kinds``. Same seed, same plan — the
        degraded execution is exactly replayable."""
        rng = random.Random(seed)
        specs = []
        for workload, config_name, cell_seed in cells:
            if rng.random() < rate:
                specs.append(
                    replace(
                        FaultSpec(
                            rng.choice(list(kinds)),
                            workload,
                            config_name=config_name,
                            seed=cell_seed,
                        ),
                        hard=hard,
                    )
                )
        return cls(tuple(specs))


# --------------------------------------------------------------------- #
# Worker-side application
# --------------------------------------------------------------------- #
def apply_pre_run(spec: Optional[FaultSpec], in_pool_worker: bool) -> None:
    """Apply the pre-simulation half of a fault (KILL / HANG).

    Hard kills exit the worker process outright, breaking the pool the
    way a real crash (OOM kill, segfault) would; soft kills and serial
    mode raise :class:`InjectedFault`, which travels back in-band.
    """
    if spec is None:
        return
    if spec.kind == KILL:
        if spec.hard and in_pool_worker:
            os._exit(KILL_EXIT_STATUS)
        raise InjectedFault(
            f"injected kill: {spec.workload} (attempt<= {spec.attempts})"
        )
    if spec.kind == HANG:
        time.sleep(spec.hang_seconds)


def apply_post_store(spec: Optional[FaultSpec], request) -> None:
    """Apply the post-store half of a fault (CORRUPT).

    Runs after the worker computed and persisted its result: the cache
    entry is truncated mid-payload — a torn write — and the worker then
    crashes, so the retry must *detect* the damage and recompute rather
    than replay the mangled entry.
    """
    if spec is None or spec.kind != CORRUPT:
        return
    import repro.sim.diskcache as diskcache
    import repro.sim.runner as runner

    diskcache.tear_result_entry(
        request.workload, request.config, request.budget, request.seed
    )
    # Drop the in-process memo as a real crash would, so the retry reads
    # (and must reject) the torn disk entry instead of replaying memory.
    runner.forget_run(
        request.workload, request.config, request.budget, request.seed
    )
    raise InjectedFault(
        f"injected crash after torn cache write: {spec.workload}"
    )
