"""Replacement policies for set-associative structures (caches and TLBs).

The baseline machine uses LRU everywhere (paper Section VI-A); the
sensitivity study in Figure 11f swaps in SRRIP [Jaleel et al., ISCA'10].
Policies also expose a *distant* insertion hint, which is how the paper
adapts SHiP to an LRU-managed structure: "we adapt SHiP to mark entries
predicted to have distant re-reference as LRU".

A policy instance is owned by exactly one cache/TLB and keeps its own
per-(set, way) state; the cache calls the event hooks below. LRU is the
exception: TLBs and caches keep each set's tag dict in recency order
themselves (see :class:`LruPolicy`).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, List


class ReplacementPolicy(ABC):
    """Event interface between a set-associative structure and its policy."""

    def __init__(self, num_sets: int, assoc: int):
        if num_sets <= 0 or assoc <= 0:
            raise ValueError(
                f"num_sets and assoc must be positive, got {num_sets}, {assoc}"
            )
        self.num_sets = num_sets
        self.assoc = assoc

    @abstractmethod
    def on_fill(self, set_idx: int, way: int, distant: bool = False) -> None:
        """A new entry was installed in ``(set_idx, way)``.

        ``distant`` marks the entry as predicted distant-re-reference, making
        it the preferred next victim.
        """

    @abstractmethod
    def on_hit(self, set_idx: int, way: int) -> None:
        """The entry in ``(set_idx, way)`` produced a hit (promotion)."""

    @abstractmethod
    def victim(self, set_idx: int) -> int:
        """Choose the way to evict from a full set."""

    def on_invalidate(self, set_idx: int, way: int) -> None:
        """The entry was invalidated externally (e.g. inclusion victim)."""
        # Default: nothing; invalid ways are filled before victims are asked.

    def name(self) -> str:
        return type(self).__name__


def insert_lru(order: Dict, key, value) -> None:
    """Insert ``key`` at the least-recent end of a recency-ordered dict.

    Rebuilds ``order`` in place (O(len), all in C), so references to the
    dict stay valid. Hits and ordinary fills move a key to the
    most-recent end with ``del``/re-insert instead. Distant insertions
    are common under SHiP (62% of LLT and 67% of LLC fills over the
    suite, budget 40,000, seed 42) and dpPred's demote variant (36% of
    LLT fills), so the rebuild merges a ``copy()`` back rather than
    going through a tuple of item pairs, which is about twice as slow.
    """
    rest = order.copy()
    order.clear()
    order[key] = value
    order.update(rest)


class LruPolicy(ReplacementPolicy):
    """Least-recently-used via per-line monotone timestamps.

    :class:`~repro.vm.tlb.Tlb` and :class:`~repro.mem.cache.SetAssocCache`
    only use this class as their marker for LRU: they keep each set's tag
    dict (key -> way) in recency order themselves and never call these
    hooks, so the policy object of an LRU structure holds no state for
    that structure.
    """

    def __init__(self, num_sets: int, assoc: int):
        super().__init__(num_sets, assoc)
        self._stamp: List[List[int]] = [[0] * assoc for _ in range(num_sets)]
        self._clock = 0

    def _tick(self) -> int:
        self._clock += 1
        return self._clock

    def on_fill(self, set_idx: int, way: int, distant: bool = False) -> None:
        # A distant insertion is placed at the LRU position: give it a stamp
        # older than everything currently in the set.
        if distant:
            row = self._stamp[set_idx]
            row[way] = min(row) - 1
        else:
            self._clock += 1
            self._stamp[set_idx][way] = self._clock

    def on_hit(self, set_idx: int, way: int) -> None:
        self._clock += 1
        self._stamp[set_idx][way] = self._clock

    def victim(self, set_idx: int) -> int:
        # First way holding the minimum stamp; min()/index() run at C speed.
        row = self._stamp[set_idx]
        return row.index(min(row))

    def name(self) -> str:
        return "LRU"


class FifoPolicy(ReplacementPolicy):
    """First-in-first-out: eviction order equals fill order."""

    def __init__(self, num_sets: int, assoc: int):
        super().__init__(num_sets, assoc)
        self._stamp: List[List[int]] = [[0] * assoc for _ in range(num_sets)]
        self._clock = 0

    def on_fill(self, set_idx: int, way: int, distant: bool = False) -> None:
        self._clock += 1
        row = self._stamp[set_idx]
        row[way] = (min(row) - 1) if distant else self._clock

    def on_hit(self, set_idx: int, way: int) -> None:
        pass  # hits do not reorder a FIFO

    def victim(self, set_idx: int) -> int:
        row = self._stamp[set_idx]
        return row.index(min(row))

    def name(self) -> str:
        return "FIFO"


class RandomPolicy(ReplacementPolicy):
    """Deterministic pseudo-random victim selection (LCG, seedable)."""

    def __init__(self, num_sets: int, assoc: int, seed: int = 0x5EED):
        super().__init__(num_sets, assoc)
        self._state = seed & 0xFFFFFFFF
        self._distant: List[List[bool]] = [
            [False] * assoc for _ in range(num_sets)
        ]

    def _next(self) -> int:
        # Numerical Recipes LCG constants; adequate for victim selection.
        self._state = (self._state * 1664525 + 1013904223) & 0xFFFFFFFF
        return self._state

    def on_fill(self, set_idx: int, way: int, distant: bool = False) -> None:
        self._distant[set_idx][way] = distant

    def on_hit(self, set_idx: int, way: int) -> None:
        self._distant[set_idx][way] = False

    def victim(self, set_idx: int) -> int:
        row = self._distant[set_idx]
        for way in range(self.assoc):
            if row[way]:
                return way
        return self._next() % self.assoc

    def name(self) -> str:
        return "Random"


class SrripPolicy(ReplacementPolicy):
    """Static Re-reference Interval Prediction with 2-bit RRPVs.

    Fills insert at RRPV = max-1 ("long"); hits promote to RRPV = 0; the
    victim is the first way at RRPV = max, aging the whole set until one
    exists. A *distant* insertion starts at RRPV = max, i.e. next victim.
    """

    def __init__(self, num_sets: int, assoc: int, rrpv_bits: int = 2):
        super().__init__(num_sets, assoc)
        if rrpv_bits <= 0:
            raise ValueError(f"rrpv_bits must be positive, got {rrpv_bits}")
        self.rrpv_max = (1 << rrpv_bits) - 1
        self._rrpv: List[List[int]] = [
            [self.rrpv_max] * assoc for _ in range(num_sets)
        ]

    def on_fill(self, set_idx: int, way: int, distant: bool = False) -> None:
        self._rrpv[set_idx][way] = self.rrpv_max if distant else self.rrpv_max - 1

    def on_hit(self, set_idx: int, way: int) -> None:
        self._rrpv[set_idx][way] = 0

    def victim(self, set_idx: int) -> int:
        row = self._rrpv[set_idx]
        while True:
            for way in range(self.assoc):
                if row[way] == self.rrpv_max:
                    return way
            for way in range(self.assoc):
                row[way] += 1

    def on_invalidate(self, set_idx: int, way: int) -> None:
        self._rrpv[set_idx][way] = self.rrpv_max

    def name(self) -> str:
        return "SRRIP"


_POLICIES = {
    "lru": LruPolicy,
    "fifo": FifoPolicy,
    "random": RandomPolicy,
    "srrip": SrripPolicy,
}


def make_policy(name: str, num_sets: int, assoc: int) -> ReplacementPolicy:
    """Construct a policy by its lowercase name (``lru``/``fifo``/``random``/``srrip``)."""
    try:
        cls = _POLICIES[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown replacement policy {name!r}; choose from {sorted(_POLICIES)}"
        ) from None
    return cls(num_sets, assoc)
