"""Tests for :class:`repro.sim.results.SimResult`: derived metrics,
merging, and serialisation stability."""

import json
from dataclasses import asdict

import pytest

from repro.common.residency import ResidencySummary
from repro.sim.results import SimResult


def _result(**kwargs) -> SimResult:
    base = dict(workload="mcf", config_name="baseline")
    base.update(kwargs)
    return SimResult(**base)


class TestDerivedMetrics:
    def test_empty_result_has_no_division_errors(self):
        empty = _result()
        assert empty.ipc == 0.0
        assert empty.llt_mpki == 0.0
        assert empty.llc_mpki == 0.0
        assert empty.avg_walk_latency == 0.0
        assert empty.doa_block_on_doa_page_fraction == 0.0
        assert empty.speedup_over(empty) == 0.0

    def test_metrics_view_matches_properties(self):
        r = _result(
            instructions=1000,
            cycles=2000.0,
            llt_misses=10,
            llc_misses=20,
            walk_cycles=300,
            walks=10,
            tlb_accuracy=0.9,
        )
        m = r.metrics()
        assert m["ipc"] == r.ipc == 0.5
        assert m["llt_mpki"] == r.llt_mpki == 10.0
        assert m["llc_mpki"] == r.llc_mpki == 20.0
        assert m["avg_walk_latency"] == 30.0
        assert m["tlb_accuracy"] == 0.9
        assert m["llc_accuracy"] is None  # untracked stays None, not 0


class TestMerge:
    def test_counts_and_cycles_add(self):
        a = _result(instructions=100, cycles=200.0, llt_misses=3, walks=1)
        b = _result(instructions=300, cycles=400.0, llt_misses=5, walks=2)
        m = a.merge(b)
        assert m.instructions == 400
        assert m.cycles == 600.0
        assert m.llt_misses == 8
        assert m.walks == 3
        assert m.workload == "mcf"

    def test_labels_join_when_different(self):
        m = _result(workload="mcf").merge(_result(workload="bfs"))
        assert m.workload == "mcf+bfs"

    def test_ratios_weighted_by_instructions(self):
        a = _result(instructions=100, tlb_accuracy=1.0)
        b = _result(instructions=300, tlb_accuracy=0.0)
        assert a.merge(b).tlb_accuracy == pytest.approx(0.25)

    def test_ratio_none_on_one_side_keeps_other(self):
        a = _result(instructions=100, tlb_accuracy=0.8)
        b = _result(instructions=300)
        assert a.merge(b).tlb_accuracy == 0.8
        assert a.merge(b).llc_accuracy is None

    def test_zero_instruction_merge_falls_back_to_unweighted_mean(self):
        # Two empty intervals carry no instruction weights; the merged
        # ratio must be their plain mean, not a fabricated 0.0.
        a = _result(tlb_accuracy=0.5)
        b = _result(tlb_accuracy=0.7)
        assert a.merge(b).tlb_accuracy == pytest.approx(0.6)

    def test_zero_instruction_merge_none_side_survives(self):
        a = _result(tlb_accuracy=0.5)
        b = _result()
        assert a.merge(b).tlb_accuracy == 0.5
        assert b.merge(b).tlb_accuracy is None

    def test_residency_adds_fieldwise(self):
        a = _result(
            llt_residency=ResidencySummary(
                residencies=2, total_time=10.0, dead_time=4.0
            )
        )
        b = _result(
            llt_residency=ResidencySummary(
                residencies=3, total_time=20.0, dead_time=6.0
            )
        )
        merged = a.merge(b).llt_residency
        assert merged.residencies == 5
        assert merged.total_time == 30.0
        assert merged.dead_time == 10.0

    def test_residency_none_on_one_side_keeps_other(self):
        a = _result(llt_residency=ResidencySummary(residencies=1))
        b = _result()
        assert a.merge(b).llt_residency == a.llt_residency
        assert b.merge(a).llt_residency == a.llt_residency
        assert a.merge(b).llc_residency is None

    def test_residency_kept_side_is_copied_not_aliased(self):
        a = _result(llt_residency=ResidencySummary(residencies=1))
        b = _result()
        merged = a.merge(b)
        assert merged.llt_residency is not a.llt_residency
        merged.llt_residency.residencies = 99
        assert a.llt_residency.residencies == 1

    def test_raw_counters_union_sum(self):
        a = _result(raw={"llt": {"hits": 1, "misses": 2}})
        b = _result(raw={"llt": {"hits": 10}, "llc": {"misses": 4}})
        merged = a.merge(b).raw
        assert merged == {
            "llt": {"hits": 11, "misses": 2},
            "llc": {"misses": 4},
        }

    def test_merge_does_not_mutate_inputs(self):
        a = _result(raw={"llt": {"hits": 1}})
        b = _result(raw={"llt": {"hits": 2}})
        a.merge(b)
        assert a.raw == {"llt": {"hits": 1}}
        assert b.raw == {"llt": {"hits": 2}}


class TestSerialisation:
    def test_round_trip(self):
        r = _result(
            instructions=10,
            cycles=20.0,
            tlb_accuracy=0.5,
            raw={"llt": {"hits": 1}},
        )
        assert SimResult.from_dict(r.to_dict()) == r

    def test_raw_insertion_order_does_not_change_bytes(self):
        a = _result(raw={"llt": {"b": 2, "a": 1}, "llc": {"x": 3}})
        b = _result(raw={"llc": {"x": 3}, "llt": {"a": 1, "b": 2}})
        assert json.dumps(a.to_dict()) == json.dumps(b.to_dict())

    def test_from_dict_rejects_unknown_fields(self):
        data = _result().to_dict()
        data["surprise"] = 1
        with pytest.raises(ValueError):
            SimResult.from_dict(data)

    @pytest.mark.parametrize("residency", (False, True))
    def test_to_dict_matches_asdict(self, residency):
        """``to_dict`` equals the ``dataclasses.asdict`` form, ``raw``
        sorted, and shares no mutable state with the result."""
        summaries = {}
        if residency:
            summaries = dict(
                llt_residency=ResidencySummary(3, 9.5, 4.0, 1.5, 1, 1, 1),
                llc_residency=ResidencySummary(2, 4.0, 1.0, 0.0, 0, 2, 0),
            )
        r = _result(
            instructions=10, cycles=20.5, tlb_accuracy=0.25,
            raw={"llt": {"misses": 2, "hits": 1}, "l1d": {"hits": 7}},
            **summaries,
        )
        expected = asdict(r)
        expected["raw"] = {
            structure: dict(sorted(counters.items()))
            for structure, counters in sorted(r.raw.items())
        }
        data = r.to_dict()
        assert data == expected
        assert json.dumps(data) == json.dumps(expected)
        data["raw"]["llt"]["hits"] = 99
        if residency:
            data["llt_residency"]["residencies"] = 99
            assert r.llt_residency.residencies == 3
        assert r.raw["llt"]["hits"] == 1
