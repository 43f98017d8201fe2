"""Tests for replacement policies."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.mem.cache import (
    FILL_ALLOCATE,
    FILL_DISTANT,
    CacheListener,
    SetAssocCache,
)
from repro.mem.replacement import (
    POLICY_NAMES,
    LruPolicy,
    SrripPolicy,
    make_policy,
)


class _DistantFor(CacheListener):
    """Requests distant insertion for the blocks in ``distant``."""

    def __init__(self, *distant):
        self.distant = set(distant)

    def on_fill(self, cache, block, now):
        return FILL_DISTANT if block in self.distant else FILL_ALLOCATE


class TestLru:
    """LRU order lives in each set's tag dict, so these drive a cache."""

    def test_victim_is_least_recent_fill(self):
        c = SetAssocCache("lru", 1, 4)
        for block in range(4):
            c.fill(block, block)
        assert c.fill(4, 4).tag == 0

    def test_hit_promotes(self):
        c = SetAssocCache("lru", 1, 4)
        for block in range(4):
            c.fill(block, block)
        assert c.lookup(0, 4)
        assert c.fill(4, 5).tag == 1

    def test_distant_fill_becomes_next_victim(self):
        c = SetAssocCache("lru", 1, 4, listener=_DistantFor(2))
        for block in range(4):
            c.fill(block, block)
        assert c.fill(4, 4).tag == 2

    def test_sets_are_independent(self):
        c = SetAssocCache("lru", 2, 2)
        for now, block in enumerate((0, 2, 3, 1)):
            c.fill(block, now)
        assert c.fill(4, 4).tag == 0
        assert c.fill(5, 5).tag == 3

    def test_policy_is_a_stateless_marker(self):
        p = LruPolicy(64, 8)
        assert vars(p) == {"num_sets": 64, "assoc": 8}
        with pytest.raises(NotImplementedError):
            p.victim(0)
        c = SetAssocCache("lru", 4, 2)
        assert c._lru and not hasattr(c, "_policy_victim")


class TestSrrip:
    def test_fill_long_hit_promotes(self):
        p = SrripPolicy(1, 2)
        p.on_fill(0, 0)
        p.on_fill(0, 1)
        p.on_hit(0, 0)
        # way1 still at rrpv max-1; aging reaches it before way0.
        assert p.victim(0) == 1

    def test_distant_fill_is_immediate_victim(self):
        p = SrripPolicy(1, 4)
        for way in range(4):
            p.on_fill(0, way)
        p.on_fill(0, 2, distant=True)
        assert p.victim(0) == 2

    def test_aging_terminates(self):
        p = SrripPolicy(1, 4)
        for way in range(4):
            p.on_fill(0, way)
            p.on_hit(0, way)
        assert 0 <= p.victim(0) < 4

    def test_rejects_zero_rrpv_bits(self):
        with pytest.raises(ValueError):
            SrripPolicy(1, 4, rrpv_bits=0)


class TestFactory:
    @pytest.mark.parametrize(
        "name,cls", [("lru", LruPolicy), ("srrip", SrripPolicy)]
    )
    def test_make_policy(self, name, cls):
        assert isinstance(make_policy(name, 4, 2), cls)

    def test_unknown_raises(self):
        for name in ("belady", "fifo", "random", "LRU"):
            with pytest.raises(ValueError):
                make_policy(name, 4, 2)

    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            LruPolicy(0, 4)


@pytest.mark.parametrize("name", POLICY_NAMES)
@given(ops=st.lists(st.tuples(st.integers(0, 15), st.booleans()), max_size=100))
def test_policy_victims_always_valid(name, ops):
    """Any policy, any schedule: a fill into a full set evicts a block
    resident in that same set, and no set ever exceeds its ways."""
    c = SetAssocCache("c", 2, 4, policy=name)
    for now, (block, hit) in enumerate(ops):
        if hit:
            c.lookup(block, now)
            continue
        before = set(c.resident_blocks())
        victim = c.fill(block, now)
        if victim is not None:
            assert victim.tag in before
            assert victim.tag & 1 == block & 1
        assert all(len(tags) <= 4 for tags in c._tags)
