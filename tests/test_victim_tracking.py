"""Regression tests pinning O(1) LRU bookkeeping to the old min() scans.

Two structures replaced O(n) ``min()``-based victim scans with recency
order:

* :class:`repro.vm.pwc._FullyAssocLru` keeps its tag dict in recency
  order so eviction is ``popitem(last=False)``;
* :class:`repro.mem.cache.SetAssocCache` and :class:`repro.vm.tlb.Tlb`
  keep each set's tag dict (key -> way) in recency order, least recent
  first, instead of per-way LRU stamps: a hit moves the key to the end,
  a fill appends, a distant fill goes to the front, and the victim is
  the first key.

Both must select the *identical* victim the old scan would have picked —
simulation output is bit-compared across engines, so a different victim
is a correctness bug, not a heuristic change. Each test drives the live
structure through randomized operation sequences next to an oracle that
runs the old stamp rule on the same inputs.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mem.cache import (
    FILL_ALLOCATE,
    FILL_BYPASS,
    FILL_DISTANT,
    CacheListener,
    SetAssocCache,
)
from repro.vm.pwc import PageWalkCaches, _FullyAssocLru
from repro.vm.tlb import (
    HUGE_KEY_BASE,
    HUGE_SPAN_BITS,
    Tlb,
    TlbListener,
    tlb_key,
)


# --------------------------------------------------------------------- #
# _FullyAssocLru vs. the old min()-scan oracle
# --------------------------------------------------------------------- #
class _MinScanLru:
    """The pre-PR-10 implementation: plain dict + O(n) min() eviction."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.stamps: dict = {}
        self.clock = 0

    def lookup(self, tag: int) -> bool:
        if tag in self.stamps:
            self.clock += 1
            self.stamps[tag] = self.clock
            return True
        return False

    def fill(self, tag: int):
        """Returns the evicted tag (None if no eviction)."""
        victim = None
        self.clock += 1
        if tag not in self.stamps and len(self.stamps) >= self.capacity:
            victim = min(self.stamps, key=self.stamps.get)
            del self.stamps[victim]
        self.stamps[tag] = self.clock
        return victim

    def order(self) -> list:
        """Resident tags, least recently stamped first."""
        return sorted(self.stamps, key=self.stamps.get)


@settings(max_examples=60, deadline=None)
@given(
    capacity=st.integers(min_value=1, max_value=8),
    ops=st.lists(
        st.tuples(st.booleans(), st.integers(min_value=0, max_value=24)),
        min_size=1,
        max_size=200,
    ),
)
def test_fully_assoc_lru_matches_min_scan(capacity, ops):
    """Every eviction picks the tag the old min() scan would evict, and
    the resident tags stay in the oracle's stamp order throughout."""
    live = _FullyAssocLru(capacity)
    oracle = _MinScanLru(capacity)
    for is_lookup, tag in ops:
        if is_lookup:
            assert live.lookup(tag) == oracle.lookup(tag)
        else:
            before = set(live._tags)
            oracle_victim = oracle.fill(tag)
            live.fill(tag)
            evicted = before - set(live._tags)
            live_victim = evicted.pop() if evicted else None
            assert live_victim == oracle_victim
        assert list(live._tags) == oracle.order()


def test_fully_assoc_lru_recency_order_invariant():
    """_tags stays in stamp order (least recent first) — the property
    that makes popitem(last=False) equivalent to the min() scan."""
    rng = random.Random(0xC0FFEE)
    lru = _FullyAssocLru(6)
    oracle = _MinScanLru(6)
    for _ in range(500):
        tag = rng.randrange(20)
        if rng.random() < 0.5:
            lru.lookup(tag)
            oracle.lookup(tag)
        else:
            lru.fill(tag)
            oracle.fill(tag)
        assert list(lru._tags) == oracle.order()
        assert len(lru._tags) <= 6


def test_pwc_stack_victims_match_min_scan_oracle():
    """Whole-stack PWC consult/fill against three min()-scan oracles."""
    rng = random.Random(0x5EED)
    pwc = PageWalkCaches(entries=(4, 8, 16))
    oracles = [_MinScanLru(n) for n in (4, 8, 16)]
    shifts = (9, 18, 27)  # L1/L2/L3 tag shifts for 9-bit radix levels
    for _ in range(800):
        vpn = rng.randrange(1 << 20)
        asid = rng.choice((0, 0, 1, 3))
        base = 0 if asid == 0 else asid << 36
        if rng.random() < 0.5:
            pwc.consult(vpn, asid)
            # Mirror the early-out probe order: L1 first, stop on hit.
            for oracle, shift in zip(oracles, shifts):
                if oracle.lookup(base | (vpn >> shift)):
                    break
        else:
            pwc.fill(vpn, asid)
            for oracle, shift in zip(oracles, shifts):
                oracle.fill(base | (vpn >> shift))
        for level, oracle in zip(pwc._levels, oracles):
            assert list(level._tags) == oracle.order()


# --------------------------------------------------------------------- #
# SetAssocCache / Tlb recency-ordered tag dicts vs. the old stamp LRU
# --------------------------------------------------------------------- #
class _StampLruOracle:
    """The pre-recency-order rule: per-way stamps from one clock.

    A hit or ordinary fill stamps ``clock + 1``; a distant fill stamps
    ``min(row) - 1`` over the whole row (stale stamps of empty ways
    included); the victim of a full set is the first way holding the
    minimum stamp, unless a listener chose one; a fill takes the lowest
    free way. Invalidation empties the way and leaves its stamp.
    """

    def __init__(self, num_sets: int, assoc: int):
        self.mask = num_sets - 1
        self.assoc = assoc
        self.keys = [[None] * assoc for _ in range(num_sets)]
        self.stamps = [[0] * assoc for _ in range(num_sets)]
        self.clock = 0

    def _way(self, key):
        row = self.keys[key & self.mask]
        return row.index(key) if key in row else None

    def __contains__(self, key) -> bool:
        return self._way(key) is not None

    def touch(self, key) -> None:
        self.clock += 1
        self.stamps[key & self.mask][self._way(key)] = self.clock

    def remove(self, key) -> None:
        self.keys[key & self.mask][self._way(key)] = None

    def fill(self, key, decision, choice):
        """Returns the evicted key (None if none)."""
        set_idx = key & self.mask
        keys, row = self.keys[set_idx], self.stamps[set_idx]
        if key in keys or decision == FILL_BYPASS:
            return None
        victim = None
        if None in keys:
            way = keys.index(None)
        else:
            way = choice if choice is not None else row.index(min(row))
            victim = keys[way]
        keys[way] = key
        if decision == FILL_DISTANT:
            row[way] = min(row) - 1
        else:
            self.clock += 1
            row[way] = self.clock
        return victim

    def order(self, set_idx):
        """Valid keys least recent first, and their ways."""
        keys, row = self.keys[set_idx], self.stamps[set_idx]
        valid = [w for w in range(self.assoc) if keys[w] is not None]
        stamps = [row[w] for w in valid]
        assert len(set(stamps)) == len(stamps), "stamps must be unique"
        valid.sort(key=row.__getitem__)
        return [keys[w] for w in valid], {keys[w]: w for w in valid}


def _assert_same_order(live_tags, oracle):
    for set_idx, tags in enumerate(live_tags):
        keys, ways = oracle.order(set_idx)
        assert list(tags) == keys
        assert dict(tags) == ways


class _ScriptedListener:
    """Fill decision and victim choice are set by the test per fill."""

    decision = FILL_ALLOCATE
    choice = None

    def on_fill(self, *args):
        return self.decision

    def choose_victim(self, owner, set_idx, ways, now):
        return self.choice


class _ScriptedCacheListener(_ScriptedListener, CacheListener):
    pass


class _ScriptedTlbListener(_ScriptedListener, TlbListener):
    pass


_DECISIONS = st.sampled_from(
    (FILL_ALLOCATE, FILL_ALLOCATE, FILL_DISTANT, FILL_BYPASS)
)
_CHOICES = st.one_of(st.none(), st.integers(min_value=0, max_value=7))


@settings(max_examples=80, deadline=None)
@given(
    num_sets=st.sampled_from((1, 2, 4)),
    assoc=st.integers(min_value=1, max_value=5),
    with_listener=st.booleans(),
    ops=st.lists(
        st.tuples(
            st.sampled_from(("lookup", "fill", "fill", "invalidate")),
            st.integers(min_value=0, max_value=23),
            _DECISIONS,
            _CHOICES,
        ),
        min_size=1,
        max_size=150,
    ),
)
def test_setassoc_matches_stamp_lru_oracle(num_sets, assoc, with_listener, ops):
    """Lookups, allocating/distant/bypassed fills, listener-chosen
    victims and invalidations: identical victims, and every set's tag
    dict order equals the oracle's stamp order."""
    listener = _ScriptedCacheListener() if with_listener else None
    cache = SetAssocCache("diff", num_sets, assoc, listener=listener)
    oracle = _StampLruOracle(num_sets, assoc)
    for now, (op, block, decision, choice) in enumerate(ops, 1):
        if op == "lookup":
            hit = cache.lookup(block, now)
            assert hit == (block in oracle)
            if hit:
                oracle.touch(block)
        elif op == "invalidate":
            line = cache.invalidate(block, now)
            assert (line is not None) == (block in oracle)
            if line is not None:
                oracle.remove(block)
        else:
            if listener is None:
                decision, choice = FILL_ALLOCATE, None
            else:
                listener.decision = decision
                listener.choice = None if choice is None else choice % assoc
            victim = cache.fill(block, now)
            expected = oracle.fill(
                block, decision, None if listener is None else listener.choice
            )
            assert (None if victim is None else victim.tag) == expected
        _assert_same_order(cache._tags, oracle)


def _tlb_keys(vpn: int, asid: int):
    """(4 KB, huge) keys a lookup of ``vpn`` probes, in order."""
    return (
        tlb_key(vpn, asid),
        HUGE_KEY_BASE | tlb_key(vpn >> HUGE_SPAN_BITS, asid),
    )


@settings(max_examples=80, deadline=None)
@given(
    num_sets=st.sampled_from((1, 2, 4)),
    assoc=st.integers(min_value=1, max_value=5),
    with_listener=st.booleans(),
    ops=st.lists(
        st.tuples(
            st.sampled_from(
                ("lookup", "fill", "fill", "invalidate", "invalidate_asid")
            ),
            st.integers(min_value=0, max_value=3 << HUGE_SPAN_BITS),
            st.sampled_from((0, 0, 1, 2)),
            st.sampled_from(("4k", "4k", "4k", "huge")),
            _DECISIONS,
            _CHOICES,
        ),
        min_size=1,
        max_size=150,
    ),
)
def test_tlb_matches_stamp_lru_oracle(num_sets, assoc, with_listener, ops):
    """4 KB and huge keys under several ASIDs through lookups,
    fills (allocate/distant/bypass, listener-chosen victims),
    shootdowns and ASID flushes: identical victims, and every set's tag
    dict order equals the oracle's stamp order."""
    listener = _ScriptedTlbListener() if with_listener else None
    tlb = Tlb("diff", num_sets * assoc, assoc, listener=listener)
    oracle = _StampLruOracle(num_sets, assoc)
    asid_of = {}
    for now, (op, vpn, asid, kind, decision, choice) in enumerate(ops, 1):
        # Few distinct VPNs, so fills, lookups and shootdowns collide.
        vpn = (vpn * 37) & ((4 << HUGE_SPAN_BITS) - 1)
        keys = _tlb_keys(vpn, asid)
        if op == "lookup":
            pfn = tlb.lookup(vpn, now, asid)
            present = [k for k in keys if k in oracle]
            assert (pfn is not None) == bool(present)
            if present:
                oracle.touch(present[0])
        elif op == "invalidate":
            tlb.invalidate(vpn, now, asid)
            for key in keys:
                if key in oracle:
                    oracle.remove(key)
        elif op == "invalidate_asid":
            dropped = tlb.invalidate_asid(asid, now)
            doomed = [
                k for k, a in asid_of.items() if a == asid and k in oracle
            ]
            assert dropped == len(doomed)
            for key in doomed:
                oracle.remove(key)
        else:
            huge = kind == "huge"
            key = keys[1] if huge else keys[0]
            if listener is None:
                decision, choice = FILL_ALLOCATE, None
            else:
                listener.decision = decision
                listener.choice = None if choice is None else choice % assoc
            pfn = (vpn >> HUGE_SPAN_BITS) << HUGE_SPAN_BITS if huge else vpn
            installs = key not in oracle
            victim = tlb.fill(vpn, pfn, 0, now, asid, huge=huge)
            expected = oracle.fill(
                key, decision, None if listener is None else listener.choice
            )
            assert (None if victim is None else victim.vpn) == expected
            if installs and key in oracle:
                asid_of[key] = asid
        _assert_same_order(tlb._tags, oracle)


class _EveryThirdDistant(CacheListener):
    """Deterministically demotes every third fill to distant insertion —
    the one case that moves a key to the least-recent end."""

    def __init__(self):
        self.count = 0

    def on_fill(self, cache, block, now):
        self.count += 1
        if self.count % 3 == 0:
            return FILL_DISTANT
        return "allocate"


@pytest.mark.parametrize("with_listener", [False, True])
def test_setassoc_lru_victim_matches_fresh_scan(with_listener):
    """Randomized fill/lookup/invalidate traffic (every third fill
    distant with the listener): whenever a full set evicts, the victim
    is the way a fresh min() scan of the old stamps would pick."""
    rng = random.Random(0xDEAD)
    listener = _EveryThirdDistant() if with_listener else None
    cache = SetAssocCache("pin", num_sets=4, assoc=4, listener=listener)
    oracle = _StampLruOracle(4, 4)
    evictions = 0
    for now in range(1, 2001):
        block = rng.randrange(64)
        roll = rng.random()
        if roll < 0.25:
            if cache.lookup(block, now):
                oracle.touch(block)
        elif roll < 0.30:
            if cache.invalidate(block, now) is not None:
                oracle.remove(block)
        else:
            decision = FILL_ALLOCATE
            if listener is not None and block not in oracle:
                # on_fill runs only for absent blocks; mirror its count.
                if (listener.count + 1) % 3 == 0:
                    decision = FILL_DISTANT
            victim = cache.fill(block, now)
            expected = oracle.fill(block, decision, None)
            assert (None if victim is None else victim.tag) == expected
            evictions += victim is not None
    assert evictions > 100
    _assert_same_order(cache._tags, oracle)


def test_setassoc_distant_insertion_is_next_victim():
    """A distant insertion into a full set must be the next eviction's
    victim (it sits at the least-recent end of the set's tag dict)."""
    listener = _EveryThirdDistant()
    cache = SetAssocCache("distant", num_sets=1, assoc=4, listener=listener)
    now = 0
    # Fills 1, 2 allocate; fill 3 is distant; fill 4 allocates.
    for block in (0, 4, 8, 12):
        now += 1
        cache.fill(block, now)
    assert list(cache._tags[0]) == [8, 0, 4, 12]
    # Set is full; block 8 was the distant (3rd) fill → next victim.
    now += 1
    victim = cache.fill(16, now)
    assert victim is not None and victim.tag == 8
