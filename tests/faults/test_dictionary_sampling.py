"""Unit tests for the fault dictionary and statistical sampling."""

import pytest

from repro.circuits.registry import build_circuit
from repro.errors import CampaignError
from repro.faults.classify import FaultClass
from repro.faults.dictionary import FaultDictionary, FaultRecord
from repro.faults.model import SeuFault, exhaustive_fault_list
from repro.faults.sampling import (
    SampleEstimate,
    sample_fault_list,
    wilson_interval,
)
from repro.sim.parallel import grade_faults
from repro.sim.vectors import random_testbench
from repro.util.rng import DeterministicRng
from tests.conftest import build_counter


def make_dictionary():
    # failure, failure, silent, latent
    faults = [SeuFault(0, 0, "a"), SeuFault(1, 0, "a"), SeuFault(2, 1, "b"),
              SeuFault(3, 1, "b")]
    return FaultDictionary(10, ["a", "b"], faults, [2, 1, -1, -1], [-1, -1, 4, -1])


class TestDictionary:
    def test_counts(self):
        counts = make_dictionary().counts()
        assert counts[FaultClass.FAILURE] == 2
        assert counts[FaultClass.SILENT] == 1
        assert counts[FaultClass.LATENT] == 1

    def test_percentages_sum_to_100(self):
        pct = make_dictionary().percentages()
        assert sum(pct.values()) == pytest.approx(100.0)

    def test_per_flop_failures(self):
        failures = make_dictionary().per_flop_failures()
        assert failures == {"a": 2, "b": 0}

    def test_weakest_flops_ranked(self):
        ranked = make_dictionary().weakest_flops(2)
        assert ranked[0] == ("a", 2)

    def test_latency_definitions(self):
        d = make_dictionary()
        records = list(d)
        assert records[2] == FaultRecord(SeuFault(2, 1, "b"), FaultClass.SILENT, -1, 4)
        assert [record.verdict for record in records] == [
            FaultClass.FAILURE, FaultClass.FAILURE, FaultClass.SILENT, FaultClass.LATENT]
        # failure at cycle 2 injected at 0 -> latency 2
        assert records[0].latency(10) == 2
        # silent vanish at 4 injected at 2 -> latency 2
        assert records[2].latency(10) == 2
        # latent injected at 3 -> runs to end: 10 - 3
        assert records[3].latency(10) == 7

    def test_mean_latency_filter(self):
        d = make_dictionary()
        # failure latencies: (2-0)=2 and (1-1)=0 -> mean 1.0
        assert d.mean_latency(FaultClass.FAILURE) == pytest.approx(1.0)
        assert d.mean_latency(FaultClass.LATENT) == pytest.approx(7.0)

    def test_mean_latency_empty_is_zero(self):
        d = FaultDictionary(5, ["x"])
        assert d.mean_latency() == 0.0

    def test_fault_outside_testbench_rejected(self):
        with pytest.raises(CampaignError):
            FaultDictionary(5, ["x"], [SeuFault(5, 0, "x")], [-1], [-1])

    def test_column_queries_match_record_loops(self):
        """The vectorized queries agree with loops over FaultRecords."""
        circuit = build_circuit("b03")  # every verdict occurs
        bench = random_testbench(circuit, 20, seed=5)
        d = grade_faults(circuit, bench, exhaustive_fault_list(circuit, 20)).to_dictionary()
        records = list(d)
        assert d.counts() == {verdict: sum(r.verdict is verdict for r in records)
                              for verdict in FaultClass}
        assert d.per_flop_failures() == {
            name: sum(r.verdict is FaultClass.FAILURE and r.fault.flop_name == name
                      for r in records)
            for name in d.flop_names
        }
        for verdict in (None, *FaultClass):
            chosen = [r for r in records if verdict in (None, r.verdict)]
            expected = sum(r.latency(20) for r in chosen) / len(chosen)
            assert d.mean_latency(verdict) == expected

    def test_summary_mentions_counts(self):
        text = make_dictionary().summary()
        assert "4 faults" in text
        assert "failure" in text


class TestSampling:
    def test_sample_is_deterministic(self):
        counter = build_counter(4)
        faults = exhaustive_fault_list(counter, 20)
        a = sample_fault_list(faults, 10, seed=3)
        b = sample_fault_list(faults, 10, seed=3)
        assert a == b

    def test_sample_sorted_cycle_major(self):
        counter = build_counter(4)
        faults = exhaustive_fault_list(counter, 20)
        sample = sample_fault_list(faults, 15, seed=1)
        assert sample == sorted(sample)

    def test_column_sampler_matches_object_sampler(self):
        """Positions drawn from range(n) pick what the object-list draw
        picks; columns and plain lists sample identically."""
        faults = exhaustive_fault_list(build_counter(4), 20)
        rng = DeterministicRng(3).fork("fault-sample")
        expected = sorted(rng.sample(list(faults), 25))
        assert list(sample_fault_list(faults, 25, seed=3)) == expected
        assert sample_fault_list(list(faults), 25, seed=3) == expected

    def test_sample_size_validated(self):
        counter = build_counter(2)
        faults = exhaustive_fault_list(counter, 2)
        with pytest.raises(CampaignError):
            sample_fault_list(faults, 0)
        with pytest.raises(CampaignError):
            sample_fault_list(faults, 100)


class TestWilson:
    def test_interval_contains_point_estimate(self):
        low, high = wilson_interval(50, 100)
        assert low < 0.5 < high

    def test_narrows_with_more_trials(self):
        low_small, high_small = wilson_interval(5, 10)
        low_big, high_big = wilson_interval(500, 1000)
        assert (high_big - low_big) < (high_small - low_small)

    def test_edge_cases_stay_in_unit_interval(self):
        low, high = wilson_interval(0, 20)
        assert low == pytest.approx(0.0, abs=1e-9) and high < 0.3
        low, high = wilson_interval(20, 20)
        assert high == pytest.approx(1.0, abs=1e-9) and low > 0.7

    def test_validation(self):
        with pytest.raises(CampaignError):
            wilson_interval(1, 0)
        with pytest.raises(CampaignError):
            wilson_interval(5, 3)
        with pytest.raises(CampaignError):
            wilson_interval(1, 10, confidence=1.5)

    def test_z_score_95_matches_known_value(self):
        from repro.faults.sampling import _z_score

        assert _z_score(0.95) == pytest.approx(1.95996, abs=1e-3)

    def test_estimate_describe(self):
        estimate = SampleEstimate(successes=49, trials=100)
        text = estimate.describe()
        assert "49.0 %" in text
        assert "@95%" in text
