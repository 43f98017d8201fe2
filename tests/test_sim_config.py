"""Tests for system configuration and profiles."""

import pytest

from repro.sim.config import (
    SystemConfig,
    fast_config,
    iso_storage_config,
    paper_config,
    scale_llc,
    scale_llt,
)


class TestProfiles:
    def test_paper_profile_matches_table1(self):
        cfg = paper_config()
        assert cfg.l2_tlb.entries == 1024 and cfg.l2_tlb.assoc == 8
        assert cfg.l1_dtlb.entries == 64
        assert cfg.l1_itlb.entries == 128
        assert cfg.l1d.size_bytes == 32 * 1024
        assert cfg.l2.size_bytes == 256 * 1024
        assert cfg.llc.size_bytes == 2 * 1024 * 1024
        assert cfg.mem_latency == 191
        assert cfg.pwc_entries == (4, 8, 16)
        assert cfg.cbpred_bhist_entries == 4096

    def test_fast_profile_preserves_ratios(self):
        fast, paper = fast_config(), paper_config()
        assert paper.l2_tlb.entries / fast.l2_tlb.entries == 8
        assert paper.llc.blocks / fast.llc.blocks == 8
        assert fast.l2_tlb.assoc == paper.l2_tlb.assoc
        assert fast.llc.assoc == paper.llc.assoc
        # bHIST : LLC blocks ratio is the paper's 1:8 in both.
        assert fast.llc.blocks // fast.cbpred_bhist_entries == 8
        assert paper.llc.blocks // paper.cbpred_bhist_entries == 8

    def test_fast_overrides(self):
        cfg = fast_config(tlb_predictor="dppred")
        assert cfg.tlb_predictor == "dppred"

    def test_configs_are_hashable(self):
        assert hash(fast_config()) == hash(fast_config())
        assert fast_config() == fast_config()
        assert fast_config() != fast_config(tlb_predictor="dppred")


class TestValidation:
    def test_unknown_tlb_predictor(self):
        with pytest.raises(ValueError):
            fast_config(tlb_predictor="belady").validate()

    def test_unknown_llc_predictor(self):
        with pytest.raises(ValueError):
            fast_config(llc_predictor="belady").validate()

    def test_unknown_policy_fails_at_construction(self):
        """Only the lower-case names of the two shipped policies pass."""
        for field in ("tlb_policy", "cache_policy", "llc_policy"):
            for name in ("fifo", "random", "LRU"):
                with pytest.raises(ValueError, match=field):
                    fast_config(**{field: name})
        assert fast_config(llc_policy=None).effective_llc_policy == "lru"

    def test_cbpred_requires_dppred(self):
        """Section VI-B: cbPred works only coupled with dpPred."""
        with pytest.raises(ValueError):
            fast_config(llc_predictor="cbpred").validate()
        with pytest.raises(ValueError):
            fast_config(
                tlb_predictor="ship", llc_predictor="cbpred"
            ).validate()
        # Valid couplings:
        fast_config(
            tlb_predictor="dppred", llc_predictor="cbpred"
        ).validate()
        fast_config(
            tlb_predictor="dppred_sh", llc_predictor="cbpred_nopfq"
        ).validate()

    def test_with_predictors(self):
        cfg = fast_config().with_predictors(tlb="dppred", llc="cbpred")
        assert cfg.tlb_predictor == "dppred"
        assert cfg.llc_predictor == "cbpred"


class TestDerivedConfigs:
    def test_iso_storage_grows_one_way(self):
        base = fast_config()
        iso = iso_storage_config(base)
        assert iso.l2_tlb.assoc == base.l2_tlb.assoc + 1
        assert iso.l2_tlb.entries == base.l2_tlb.entries * 9 // 8
        assert iso.tlb_predictor == "none"

    def test_scale_llt(self):
        cfg = scale_llt(fast_config(), 64)
        assert cfg.l2_tlb.entries == 64
        assert cfg.l2_tlb.assoc == 8

    def test_scale_llt_non_divisible_uses_12_ways(self):
        cfg = scale_llt(fast_config(), 192)
        assert cfg.l2_tlb.entries == 192
        assert cfg.l2_tlb.assoc == 12

    def test_scale_llc(self):
        base = fast_config()
        grown = scale_llc(base, 1.5)
        assert grown.llc.blocks == base.llc.blocks * 3 // 2
        assert grown.llc.num_sets == base.llc.num_sets

    def test_effective_llc_policy(self):
        assert fast_config().effective_llc_policy == "lru"
        cfg = fast_config(llc_policy="srrip")
        assert cfg.effective_llc_policy == "srrip"
        assert cfg.cache_policy == "lru"
