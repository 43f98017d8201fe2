"""Shared infrastructure for the baseline predictors.

PC-signature predictors at the LLC (SHiP-LLC, AIP-LLC) need the program
counter of the instruction whose access caused a fill, but the cache model
deliberately sees only block addresses. The machine publishes the current
instruction's PC into an :class:`AccessContext` that such predictors hold a
reference to — the software analogue of threading the PC down the MSHR
chain, which is how hardware proposals (SHiP-PC et al.) do it.
"""

from __future__ import annotations

from typing import Callable, Optional, Protocol, runtime_checkable


class AccessContext:
    """Mutable holder for the in-flight instruction's identity."""

    __slots__ = ("pc",)

    def __init__(self) -> None:
        self.pc = 0

    def set_pc(self, pc: int) -> None:
        self.pc = pc


@runtime_checkable
class PredictorSpec(Protocol):
    """The uniform surface every registered predictor presents.

    A predictor is a TLB or cache listener (see
    :class:`repro.vm.tlb.TlbListener` / :class:`repro.mem.cache.CacheListener`)
    built by a :mod:`repro.predictors.registry` factory from exactly three
    ingredients — nothing else may be threaded through ``Machine``:

    * **a config dataclass** of its own knobs (e.g. :class:`ShipConfig`),
      derived by the factory from :class:`~repro.sim.config.SystemConfig`
      fields;
    * **the machine's** :class:`AccessContext`, for LLC-side predictors
      that need the in-flight PC (block addresses carry no PC);
    * **an event probe** — the nullable ``probe`` attribute, wired
      post-construction by ``Machine._attach_telemetry``. Implementations
      guard every emission with ``if self.probe is not None`` so the
      un-observed hot path costs one attribute load.

    Optional, discovered by ``hasattr``:

    * ``prediction_observer`` — ``(key, predicted_doa)`` callback invoked
      at every fill-time prediction (accuracy/coverage ground truth,
      Tables VI/VII);
    * ``stats`` — a :class:`repro.common.stats.Stats` bag, sampled by the
      telemetry timeline;
    * ``storage_bits(num_entries)`` — hardware budget accounting
      (Section V-D).

    A hook may memoise pure functions of its inputs in its own state
    (e.g. a PC's fold-XOR signature, keyed by the PC): a memo changes no
    result, only how often the function runs, so ``storage_bits`` does
    not count it — hardware computes those hashes combinationally.

    **Flat-interpreter contract.** The batched engine's flat interpreter
    (:class:`repro.sim.engine._FlatStepper`) inlines
    :class:`~repro.core.dppred.DeadPagePredictor` and
    :class:`~repro.core.cbpred.CorrelatingDeadBlockPredictor` — their
    fill/evict/shadow-miss hot paths are replicated instruction for
    instruction (stat names, event order, table indexing). It runs the
    listener classes in :data:`repro.sim.engine.GENERIC_TLB_LISTENERS`
    and :data:`~repro.sim.engine.GENERIC_LLC_LISTENERS` through a generic
    path: every hook the class overrides (``on_lookup``/``on_hit``/
    ``on_miss``, and ``on_fill``/``choose_victim``/``on_evict``/``filled``)
    is called where the scalar ``lookup`` and ``fill`` call it, in the
    same order, from the interpreter's own inline fills. A listener may
    join those sets only if its hooks are *pure* in this sense: they
    write only the listener's own state and the entry or line they are
    handed; a hook may read other structures' resident state (the set's
    slots, or another structure's resident entries, as the Table III
    correlation listener on the LLC probes the LLT), and never writes
    it; they read the in-flight PC only through the
    :class:`AccessContext` (or the LLT fill's ``pc_hash``); and they
    never read any structure's stats, which the flat interpreter
    buffers until a chunk ends, or re-enter a structure (no
    ``fill``/``lookup``/``invalidate`` from a hook — why the distance
    prefetcher stays out). Two more rules follow from
    the inline fill recycling its victim: ``on_evict`` must not read
    the victim's way of the set (the scalar ``_evict_way`` has emptied
    it; the inline fill still holds the victim there), and no hook may
    keep a reference to an evicted entry or line, since the same object
    is overwritten with the incoming translation or block right after
    (``aux`` reset) — copy what must outlive the eviction. Any listener type outside
    those sets makes :func:`repro.sim.engine.flat_reason` return
    ``"predictor"`` (an exact ``type()`` check, so subclasses decline
    too): the whole run goes to the scalar reference loop, and the
    decline is counted in ``engine_stats["flat_reason"]`` and
    ``engine_totals()["flat_declines"]`` — never silent. A new predictor
    therefore needs **no** engine changes to stay bit-exact; adding its
    class to a generic set is a later, purely-performance step
    (``tests/test_engine_equivalence.py`` and
    ``tests/test_walk_pwc_differential.py`` enforce the bit-identity).
    """

    probe: Optional[object]
    prediction_observer: Optional[Callable[[int, bool], None]]

    def storage_bits(self, num_entries: int) -> int:
        """Total predictor state in bits for the attached structure."""
        ...
