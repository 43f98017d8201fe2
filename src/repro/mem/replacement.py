"""Replacement policies for set-associative structures (caches and TLBs).

The baseline machine uses LRU everywhere (paper Section VI-A); the
sensitivity study in Figure 11f swaps in SRRIP [Jaleel et al., ISCA'10].
Policies also expose a *distant* insertion hint, which is how the paper
adapts SHiP to an LRU-managed structure: "we adapt SHiP to mark entries
predicted to have distant re-reference as LRU".

A policy instance is owned by exactly one cache/TLB and keeps its own
per-(set, way) state; the cache calls the event hooks below. LRU is the
exception: TLBs and caches keep each set's tag dict in recency order
themselves, so :class:`LruPolicy` is a stateless marker.
"""

from __future__ import annotations

from typing import Dict, List


class ReplacementPolicy:
    """Event interface between a set-associative structure and its policy.

    Structures call :meth:`on_fill`, :meth:`on_hit` and :meth:`victim`
    for every policy except :class:`LruPolicy`.
    """

    def __init__(self, num_sets: int, assoc: int):
        if num_sets <= 0 or assoc <= 0:
            raise ValueError(
                f"num_sets and assoc must be positive, got {num_sets}, {assoc}"
            )
        self.num_sets = num_sets
        self.assoc = assoc

    def on_fill(self, set_idx: int, way: int, distant: bool = False) -> None:
        """A new entry was installed in ``(set_idx, way)``.

        ``distant`` marks the entry as predicted distant-re-reference, making
        it the preferred next victim.
        """
        raise NotImplementedError

    def on_hit(self, set_idx: int, way: int) -> None:
        """The entry in ``(set_idx, way)`` produced a hit (promotion)."""
        raise NotImplementedError

    def victim(self, set_idx: int) -> int:
        """Choose the way to evict from a full set."""
        raise NotImplementedError

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
    """Least-recently-used: a stateless marker.

    :class:`~repro.vm.tlb.Tlb` and :class:`~repro.mem.cache.SetAssocCache`
    keep each set's tag dict (key -> way) in recency order themselves,
    least recent first, and never call a policy hook for LRU; so this
    class holds no per-set state and implements none of the hooks.
    """

    def name(self) -> str:
        return "LRU"


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
    "srrip": SrripPolicy,
}

#: The policy names :func:`make_policy` accepts (lower case only).
POLICY_NAMES = tuple(sorted(_POLICIES))


def make_policy(name: str, num_sets: int, assoc: int) -> ReplacementPolicy:
    """Construct a policy by its name (``lru`` or ``srrip``)."""
    cls = _POLICIES.get(name)
    if cls is None:
        raise ValueError(
            f"unknown replacement policy {name!r}; choose from {POLICY_NAMES}"
        )
    return cls(num_sets, assoc)
