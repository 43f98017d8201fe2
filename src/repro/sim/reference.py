"""Ground-truth reference structures for accuracy/coverage (Tables VI, VII).

The paper defines accuracy as "the fraction of correct predictions among
all predictions made" and coverage as "the fraction of correct predictions
over the total number of true (oracle) DOAs". Once a predictor bypasses an
entry, the real structure can no longer observe whether the entry *would*
have been DOA — so we simulate a tag-only *reference* copy of the structure
(same geometry, LRU, never bypassing) fed the same access stream. Each
fill-time prediction of the real predictor is attached to the reference's
current residency of that page/block; when the reference evicts the
residency, its true DOA status settles the prediction.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.common.bitops import is_power_of_two
from repro.common.stats import Stats


class _RefEntry:
    __slots__ = ("key", "accessed", "pending_doa_predictions")

    def __init__(self, key: int):
        self.key = key
        self.accessed = False
        self.pending_doa_predictions = 0


class ReferenceStructure:
    """Tag-only LRU set-associative structure scoring DOA predictions.

    Each set is a dict kept in recency order, least recent first: a hit
    moves its key to the end, a fill appends, and the victim is the first
    key (the same rule as the real TLBs and caches).
    """

    def __init__(self, name: str, num_entries: int, assoc: int):
        if num_entries % assoc != 0:
            raise ValueError(f"{name}: entries not divisible by assoc")
        num_sets = num_entries // assoc
        if not is_power_of_two(num_sets):
            raise ValueError(f"{name}: num_sets must be a power of two")
        self.name = name
        self.num_sets = num_sets
        self.assoc = assoc
        self._set_mask = num_sets - 1
        self._sets: List[Dict[int, _RefEntry]] = [dict() for _ in range(num_sets)]
        self._pending: Dict[int, int] = {}
        self.stats = Stats()

    # ------------------------------------------------------------------ #
    # Access stream
    # ------------------------------------------------------------------ #
    def access(self, key: int, now: int) -> bool:
        """One reference of ``key`` (every real lookup feeds this).

        Returns True on hit, False on miss (the reference fills on miss).
        The per-access decision stream and the ``hits``/``misses``
        counters make the reference usable as a differential oracle for
        the real never-bypassing structures (``tests/
        test_diff_reference.py``).
        """
        entries = self._sets[key & self._set_mask]
        entry = entries.get(key)
        if entry is not None:
            entry.accessed = True
            del entries[key]
            entries[key] = entry
            self.stats.add("hits")
            return True
        self.stats.add("misses")
        if len(entries) >= self.assoc:
            for victim_key in entries:  # least recently used
                break
            self._settle(entries.pop(victim_key))
        entry = _RefEntry(key)
        entries[key] = entry
        # Drain predictions recorded before this access arrived (a real
        # structure's fill hooks can fire inside the hierarchy, slightly
        # ahead of the reference feed).
        pending = self._pending.pop(key, 0)
        if pending:
            entry.pending_doa_predictions += pending
        return False

    def record_prediction(self, key: int, predicted_doa: bool) -> None:
        """Attach a real fill-time prediction to the current residency."""
        self.stats.add("predictions")
        if not predicted_doa:
            return
        self.stats.add("doa_predictions")
        entry = self._sets[key & self._set_mask].get(key)
        if entry is None:
            # The prediction fired before the reference saw the access;
            # buffer it for the imminent fill of ``key``.
            self._pending[key] = self._pending.get(key, 0) + 1
            return
        entry.pending_doa_predictions += 1

    def finalize(self) -> None:
        """Settle all still-resident residencies at end of simulation.

        Sets settle in recency order; the settle counters are additive,
        so the order does not show in the results.
        """
        for entries in self._sets:
            for entry in entries.values():
                self._settle(entry)
            entries.clear()

    def _settle(self, entry: _RefEntry) -> None:
        truly_doa = not entry.accessed
        if truly_doa:
            self.stats.add("true_doas")
        if entry.pending_doa_predictions:
            if truly_doa:
                self.stats.add(
                    "correct_doa_predictions", entry.pending_doa_predictions
                )
            else:
                self.stats.add(
                    "wrong_doa_predictions", entry.pending_doa_predictions
                )
        self.stats.add("residencies")

    # ------------------------------------------------------------------ #
    # Metrics
    # ------------------------------------------------------------------ #
    @property
    def accuracy(self) -> Optional[float]:
        """Correct DOA predictions / all DOA predictions (None if none)."""
        made = self.stats.get("doa_predictions")
        if made == 0:
            return None
        return self.stats.get("correct_doa_predictions") / made

    @property
    def coverage(self) -> Optional[float]:
        """Correct DOA predictions / true DOAs (None if no true DOAs)."""
        true_doas = self.stats.get("true_doas")
        if true_doas == 0:
            return None
        return self.stats.get("correct_doa_predictions") / true_doas
