"""Differential tests: real structures vs the tag-only reference model.

:mod:`repro.sim.reference` re-simulates LLT/LLC residency to score DOA
predictions, which only works if its LRU set-associative model is
*exactly* equivalent to the real never-bypassing structures. These tests
feed randomized seeded access streams through both sides and require the
per-access hit/miss decision streams — and the final hit/miss stats — to
agree, first at the model level (:class:`~repro.vm.tlb.Tlb` and
:class:`~repro.mem.cache.SetAssocCache` against
:class:`~repro.sim.reference.ReferenceStructure`), then at the machine
level (the live L2 TLB against the ``track_reference`` shadow copy fed
the same miss stream).

Property-based cases use hypothesis when available (shrinking a failing
stream to a minimal counterexample); fixed-seed streams cover the same
properties everywhere else.
"""

import random

import pytest

from repro.mem.cache import SetAssocCache
from repro.sim.config import fast_config
from repro.sim.machine import Machine
from repro.sim.reference import ReferenceStructure
from repro.vm.tlb import (
    HUGE_KEY_BASE,
    HUGE_SPAN_BITS,
    Tlb,
    tlb_key,
)
from repro.workloads.suite import get_trace

try:
    from hypothesis import given, note, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - exercised only without hypothesis
    HAVE_HYPOTHESIS = False


# --------------------------------------------------------------------- #
# Drivers: one access on each side, returning (real_hit, ref_hit)
# --------------------------------------------------------------------- #
def _drive_tlb(entries, assoc, keys):
    """Feed ``keys`` through a real predictor-less Tlb and a reference of
    the same geometry; returns the two hit/miss decision streams."""
    tlb = Tlb("llt", entries, assoc)
    ref = ReferenceStructure("ref", entries, assoc)
    real_stream, ref_stream = [], []
    for now, key in enumerate(keys):
        hit = tlb.lookup(key, now) is not None
        if not hit:
            tlb.fill(key, key + 1, 0, now)
        real_stream.append(hit)
        ref_stream.append(ref.access(key, now))
    return tlb, ref, real_stream, ref_stream


def _drive_cache(num_sets, assoc, keys):
    cache = SetAssocCache("llc", num_sets, assoc)
    ref = ReferenceStructure("ref", num_sets * assoc, assoc)
    real_stream, ref_stream = [], []
    for now, key in enumerate(keys):
        hit = cache.lookup(key, now)
        if not hit:
            cache.fill(key, now)
        real_stream.append(hit)
        ref_stream.append(ref.access(key, now))
    return cache, ref, real_stream, ref_stream


def _assert_streams_agree(keys, real_stream, ref_stream, real, ref):
    """Shrink-friendly comparison: name the first diverging access."""
    for i, (a, b) in enumerate(zip(real_stream, ref_stream)):
        if a != b:
            window = keys[max(0, i - 8): i + 1]
            pytest.fail(
                f"divergence at access {i} (key {keys[i]:#x}): real="
                f"{'hit' if a else 'miss'} ref={'hit' if b else 'miss'}; "
                f"trailing keys {[hex(k) for k in window]}"
            )
    assert real.stats.get("hits") == ref.stats.get("hits")
    assert real.stats.get("misses") == ref.stats.get("misses")


def _key_stream(seed, length, universe):
    """A skewed random stream: reuse-heavy with a random working set,
    the regime where LRU order and victim choice actually matter."""
    rng = random.Random(seed)
    hot = [rng.randrange(universe) for _ in range(max(2, universe // 8))]
    return [
        rng.choice(hot) if rng.random() < 0.7 else rng.randrange(universe)
        for _ in range(length)
    ]


GEOMETRIES = [(16, 4), (32, 8), (8, 1), (64, 4)]


# --------------------------------------------------------------------- #
# Fixed-seed differential (runs everywhere)
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("entries,assoc", GEOMETRIES)
@pytest.mark.parametrize("seed", [0, 1, 7])
def test_tlb_matches_reference_fixed_streams(entries, assoc, seed):
    keys = _key_stream(seed, 2000, entries * 4)
    tlb, ref, real_stream, ref_stream = _drive_tlb(entries, assoc, keys)
    _assert_streams_agree(keys, real_stream, ref_stream, tlb, ref)


@pytest.mark.parametrize("num_sets,assoc", [(8, 4), (16, 8), (4, 1)])
@pytest.mark.parametrize("seed", [0, 3])
def test_cache_matches_reference_fixed_streams(num_sets, assoc, seed):
    keys = _key_stream(seed, 2000, num_sets * assoc * 4)
    cache, ref, real_stream, ref_stream = _drive_cache(
        num_sets, assoc, keys
    )
    _assert_streams_agree(keys, real_stream, ref_stream, cache, ref)


def test_reference_counts_hits_and_misses():
    ref = ReferenceStructure("ref", 4, 2)
    assert ref.access(0, 0) is False
    assert ref.access(0, 1) is True
    assert ref.stats.get("hits") == 1
    assert ref.stats.get("misses") == 1


# --------------------------------------------------------------------- #
# Property-based differential (hypothesis)
# --------------------------------------------------------------------- #
if HAVE_HYPOTHESIS:
    geometry = st.sampled_from(GEOMETRIES)
    streams = st.lists(
        st.integers(min_value=0, max_value=255), min_size=1, max_size=400
    )

    @settings(max_examples=60, deadline=None)
    @given(geom=geometry, keys=streams)
    def test_tlb_matches_reference_property(geom, keys):
        entries, assoc = geom
        tlb, ref, real_stream, ref_stream = _drive_tlb(
            entries, assoc, keys
        )
        note(f"geometry entries={entries} assoc={assoc}")
        note(f"keys={keys}")
        _assert_streams_agree(keys, real_stream, ref_stream, tlb, ref)

    @settings(max_examples=60, deadline=None)
    @given(
        geom=st.sampled_from([(8, 4), (16, 2), (4, 1)]),
        keys=streams,
    )
    def test_cache_matches_reference_property(geom, keys):
        num_sets, assoc = geom
        cache, ref, real_stream, ref_stream = _drive_cache(
            num_sets, assoc, keys
        )
        note(f"geometry sets={num_sets} assoc={assoc}")
        note(f"keys={keys}")
        _assert_streams_agree(keys, real_stream, ref_stream, cache, ref)


# --------------------------------------------------------------------- #
# ASID-tagged TLB differential: Tlb vs a dict-based reference model
# --------------------------------------------------------------------- #
class DictAsidTlb:
    """Independent reference for the multi-tenant TLB semantics.

    Implements the same architectural contract as :class:`Tlb` — combined
    (asid, vpn) tags, 2 MB huge entries covering 512 VPNs, per-set LRU, INVLPG / per-ASID / broadcast shootdowns —
    with plain dicts and an explicit stamp-based LRU instead of the real
    structure's way arrays, count-gated probes, and fused policy updates.
    Any divergence is a bug in one of the two implementations.
    """

    def __init__(self, entries, assoc):
        self.num_sets = entries // assoc
        self.assoc = assoc
        self._mask = self.num_sets - 1
        # set_idx -> {key: [stamp, pfn, asid, huge]}
        self.sets = [dict() for _ in range(self.num_sets)]
        self.clock = 0

    def _touch(self, set_idx, key):
        self.clock += 1
        self.sets[set_idx][key][0] = self.clock

    def lookup(self, vpn, asid):
        key = tlb_key(vpn, asid)
        set_idx = key & self._mask
        row = self.sets[set_idx].get(key)
        if row is not None:
            self._touch(set_idx, key)
            return row[1]
        hkey = HUGE_KEY_BASE | tlb_key(vpn >> HUGE_SPAN_BITS, asid)
        hset = hkey & self._mask
        row = self.sets[hset].get(hkey)
        if row is not None:
            self._touch(hset, hkey)
            return row[1] + (vpn & ((1 << HUGE_SPAN_BITS) - 1))
        return None

    def fill(self, vpn, pfn, asid, huge=False):
        if huge:
            key = HUGE_KEY_BASE | tlb_key(vpn >> HUGE_SPAN_BITS, asid)
        else:
            key = tlb_key(vpn, asid)
        set_idx = key & self._mask
        entries = self.sets[set_idx]
        if key in entries:
            return
        if len(entries) >= self.assoc:
            victim = min(entries, key=lambda k: entries[k][0])
            del entries[victim]
        self.clock += 1
        entries[key] = [self.clock, pfn, asid, huge]

    def invalidate(self, vpn, asid):
        for key in (
            tlb_key(vpn, asid),
            HUGE_KEY_BASE | tlb_key(vpn >> HUGE_SPAN_BITS, asid),
        ):
            self.sets[key & self._mask].pop(key, None)

    def invalidate_asid(self, asid):
        for entries in self.sets:
            doomed = [k for k, row in entries.items() if row[2] == asid]
            for k in doomed:
                del entries[k]

    def invalidate_all(self):
        for entries in self.sets:
            entries.clear()


def _pfn_for(vpn, asid, huge=False):
    """Deterministic fill PFN; huge bases are 512-aligned by construction."""
    if huge:
        return (tlb_key(vpn >> HUGE_SPAN_BITS, asid) + 1) << HUGE_SPAN_BITS
    return 2 * tlb_key(vpn, asid) + 1


def _drive_asid_tlb(entries, assoc, ops):
    """Replay ``ops`` through a real Tlb and the dict reference.

    Ops are tuples: ``("access", asid, vpn, kind)`` with kind in
    {"4k", "huge"} (the kind used for the fill on a miss), or
    ``("invlpg", asid, vpn)`` / ``("shoot_asid", asid)`` /
    ``("shoot_all",)``. Returns the two per-access PFN streams.
    """
    tlb = Tlb("llt", entries, assoc)
    ref = DictAsidTlb(entries, assoc)
    real_stream, ref_stream = [], []
    for now, op in enumerate(ops):
        if op[0] == "access":
            _, asid, vpn, kind = op
            real = tlb.lookup(vpn, now, asid)
            model = ref.lookup(vpn, asid)
            real_stream.append(real)
            ref_stream.append(model)
            if real is None:
                huge = kind == "huge"
                pfn = _pfn_for(vpn, asid, huge)
                tlb.fill(vpn, pfn, 0, now, asid, huge)
                ref.fill(vpn, pfn, asid, huge)
        elif op[0] == "invlpg":
            _, asid, vpn = op
            tlb.invalidate(vpn, now, asid)
            ref.invalidate(vpn, asid)
        elif op[0] == "shoot_asid":
            tlb.invalidate_asid(op[1], now)
            ref.invalidate_asid(op[1])
        else:
            tlb.invalidate_all(now)
            ref.invalidate_all()
    return tlb, ref, real_stream, ref_stream


def _assert_pfn_streams_agree(ops, real_stream, ref_stream):
    accesses = [op for op in ops if op[0] == "access"]
    for i, (a, b) in enumerate(zip(real_stream, ref_stream)):
        if a != b:
            pytest.fail(
                f"divergence at access {i} {accesses[i]}: real={a} ref={b}"
            )


def _op_stream(seed, length, asids=(0, 1, 2), vpn_universe=96):
    """Skewed mixed-op stream: mostly accesses (reuse-heavy, both page
    kinds), with occasional shootdowns of each scope."""
    rng = random.Random(seed)
    hot = [rng.randrange(vpn_universe) for _ in range(12)]
    ops = []
    for _ in range(length):
        roll = rng.random()
        asid = rng.choice(asids)
        vpn = rng.choice(hot) if rng.random() < 0.7 else rng.randrange(
            vpn_universe
        )
        if roll < 0.88:
            kind = rng.choices(("4k", "huge"), weights=(8, 2))[0]
            ops.append(("access", asid, vpn, kind))
        elif roll < 0.94:
            ops.append(("invlpg", asid, vpn))
        elif roll < 0.98:
            ops.append(("shoot_asid", asid))
        else:
            ops.append(("shoot_all",))
    return ops


@pytest.mark.parametrize("entries,assoc", [(16, 4), (32, 8), (8, 1)])
@pytest.mark.parametrize("seed", [0, 1, 9])
def test_asid_tlb_matches_dict_reference(entries, assoc, seed):
    ops = _op_stream(seed, 3000)
    tlb, ref, real_stream, ref_stream = _drive_asid_tlb(
        entries, assoc, ops
    )
    _assert_pfn_streams_agree(ops, real_stream, ref_stream)
    # Occupancies agree too (no leaked huge count bookkeeping).
    assert tlb.occupancy() == sum(len(s) for s in ref.sets)


def test_asid_zero_keys_are_raw_vpns():
    """The bit-identity keystone: at ASID 0, 4 KB tags are the raw VPN."""
    tlb = Tlb("llt", 16, 4)
    tlb.fill(0x123, 0x456, 0, now=0)
    entry = tlb.probe(0x123)
    assert entry is not None and entry.vpn == 0x123
    assert tlb.lookup(0x123, 1) == 0x456
    assert tlb_key(0x123, 0) == 0x123


def test_huge_entry_covers_whole_region():
    tlb = Tlb("llt", 16, 4)
    base_vpn = 3 << HUGE_SPAN_BITS
    tlb.fill(base_vpn, 0x1000, 0, now=0, asid=2, huge=True)
    assert tlb.lookup(base_vpn + 17, 1, asid=2) == 0x1000 + 17
    assert tlb.lookup(base_vpn + 511, 2, asid=2) == 0x1000 + 511
    # Other tenants (and ASID 0) never see it.
    assert tlb.lookup(base_vpn + 17, 3, asid=1) is None


# --------------------------------------------------------------------- #
# Huge-page walk differential: Walker vs address-arithmetic oracle
# --------------------------------------------------------------------- #
class _FlatWalkMemory:
    """Hierarchy stub: constant-latency PTE loads keep the oracle test
    about translation correctness, not cache state."""

    def walk_access(self, block, now):
        return 2


def _walk_harness(huge_fraction, seed=5):
    from repro.vm.pagetable import RadixPageTable, huge_region_policy
    from repro.vm.physmem import FrameAllocator
    from repro.vm.pwc import PageWalkCaches
    from repro.vm.walker import PageTableWalker

    policy = (
        huge_region_policy(huge_fraction, seed) if huge_fraction else None
    )
    allocator = FrameAllocator(1 << 16, seed=seed)
    table = RadixPageTable(allocator, huge_policy=policy)
    pwc = PageWalkCaches()
    walker = PageTableWalker(
        table, pwc, _FlatWalkMemory(),
        table_factory=lambda asid: RadixPageTable(
            allocator, huge_policy=policy
        ),
    )
    return walker, policy


@pytest.mark.parametrize("huge_fraction", [0.0, 0.5, 1.0])
def test_walker_against_walk_oracle(huge_fraction):
    """Walk invariants the paper's machine depends on, oracle-checked:
    stable translations, huge-region contiguity, cross-ASID and
    cross-region PFN uniqueness, and huge_base arithmetic."""
    walker, policy = _walk_harness(huge_fraction)
    rng = random.Random(11)
    oracle = {}  # (asid, vpn) -> (pfn, huge_base)
    for now in range(1500):
        asid = rng.choice((0, 1, 2))
        region = rng.randrange(12)
        vpn = (region << HUGE_SPAN_BITS) | rng.randrange(512)
        pfn, latency, huge_base = walker.walk(vpn, now, asid)
        assert latency > 0
        expect_huge = policy is not None and policy(vpn >> HUGE_SPAN_BITS)
        assert (huge_base is not None) == expect_huge
        if huge_base is not None:
            assert huge_base == pfn - (vpn & ((1 << HUGE_SPAN_BITS) - 1))
            assert huge_base % (1 << HUGE_SPAN_BITS) == 0
        seen = oracle.get((asid, vpn))
        if seen is not None:
            assert seen == (pfn, huge_base), "translation not stable"
        oracle[(asid, vpn)] = (pfn, huge_base)
    # Distinct (asid, vpn) pairs never share a PFN: tenants get disjoint
    # frames (shared allocator), huge regions disjoint 512-frame spans.
    pfns = [pfn for pfn, _ in oracle.values()]
    assert len(set(pfns)) == len(pfns)


def test_huge_region_contiguity():
    """Within one huge region every VPN's PFN is base + offset."""
    walker, policy = _walk_harness(1.0)
    base_pfn = None
    region = 4
    for off in (0, 1, 100, 511):
        vpn = (region << HUGE_SPAN_BITS) | off
        pfn, _, huge_base = walker.walk(vpn, off, asid=1)
        assert huge_base is not None
        if base_pfn is None:
            base_pfn = huge_base
        assert huge_base == base_pfn
        assert pfn == base_pfn + off


if HAVE_HYPOTHESIS:
    _asid_ops = st.lists(
        st.one_of(
            st.tuples(
                st.just("access"),
                st.integers(min_value=0, max_value=3),
                st.integers(min_value=0, max_value=127),
                st.sampled_from(("4k", "huge")),
            ),
            st.tuples(
                st.just("invlpg"),
                st.integers(min_value=0, max_value=3),
                st.integers(min_value=0, max_value=127),
            ),
            st.tuples(
                st.just("shoot_asid"),
                st.integers(min_value=0, max_value=3),
            ),
            st.tuples(st.just("shoot_all")),
        ),
        min_size=1,
        max_size=300,
    )

    @settings(max_examples=60, deadline=None)
    @given(geom=st.sampled_from([(16, 4), (8, 2), (4, 1)]), ops=_asid_ops)
    def test_asid_tlb_matches_dict_reference_property(geom, ops):
        entries, assoc = geom
        tlb, ref, real_stream, ref_stream = _drive_asid_tlb(
            entries, assoc, ops
        )
        note(f"geometry entries={entries} assoc={assoc}")
        note(f"ops={ops}")
        _assert_pfn_streams_agree(ops, real_stream, ref_stream)
        assert tlb.occupancy() == sum(len(s) for s in ref.sets)


# --------------------------------------------------------------------- #
# Machine-level differential: the live LLT vs its tracked reference
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("workload,seed", [("mcf", 42), ("cg.B", 7)])
def test_machine_llt_matches_reference(workload, seed):
    """With no predictor attached, the real L2 TLB and the reference copy
    see the identical L1-miss stream and must produce identical hit/miss
    totals end to end (the reference never bypasses — and neither does a
    predictor-less LLT)."""
    config = fast_config(track_reference=True)
    trace = get_trace(workload, 4000, seed)
    machine = Machine(config, seed=1)
    machine.run(trace)
    llt = machine.l2_tlb.stats
    ref = machine.ref_llt.stats
    assert llt.get("victim_buffer_hits") == 0
    assert llt.get("hits") == ref.get("hits")
    assert llt.get("misses") == ref.get("misses")
