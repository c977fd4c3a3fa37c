"""End-to-end integration tests: the full user workflows.

These walk the complete paths a downstream user takes — build, save,
reload, instrument, synthesize, campaign, report — across multiple
circuits and techniques, asserting cross-module consistency rather than
module-local behaviour.
"""

import pytest

from repro import (
    AutonomousEmulator,
    TECHNIQUES,
    area_of,
    available_circuits,
    build_circuit,
    exhaustive_fault_list,
    grade_faults,
    random_testbench,
    run_campaign,
)
from repro.faults.classify import FaultClass
from repro.netlist.textio import dumps_netlist, loads_netlist
from repro.sim.parallel import FaultGradingResult


class TestFullWorkflow:
    @pytest.mark.parametrize("name", ["b01", "b03", "b06", "b09"])
    def test_build_save_reload_grade(self, name):
        """Round-trip through the text format must not change grading."""
        original = build_circuit(name)
        reloaded = loads_netlist(dumps_netlist(original))
        bench = random_testbench(original, 30, seed=14)
        faults = exhaustive_fault_list(original, 30)
        graded_a = grade_faults(original, bench, faults)
        graded_b = grade_faults(reloaded, bench, faults)
        assert list(graded_a.fail_cycles) == list(graded_b.fail_cycles)
        assert list(graded_a.vanish_cycles) == list(graded_b.vanish_cycles)

    @pytest.mark.parametrize("technique", TECHNIQUES)
    def test_facade_synthesize_then_campaign(self, technique):
        circuit = build_circuit("b06")
        bench = random_testbench(circuit, 40, seed=2)
        emulator = AutonomousEmulator(
            circuit,
            technique,
            campaign_cycles=bench.num_cycles,
            campaign_faults=circuit.num_ffs * bench.num_cycles,
        )
        synthesis = emulator.synthesize(bench.num_cycles)
        campaign = emulator.run_campaign(bench)
        # area grows with instrumentation, campaign covers everything
        assert synthesis.modified.luts > synthesis.original.luts
        assert campaign.num_faults == circuit.num_ffs * bench.num_cycles
        assert sum(campaign.dictionary.counts().values()) == campaign.num_faults

    def test_shared_oracle_across_techniques(self):
        """One oracle drives all three campaigns; totals must be coherent."""
        circuit = build_circuit("b03")
        bench = random_testbench(circuit, 50, seed=6)
        faults = exhaustive_fault_list(circuit, 50)
        oracle = grade_faults(circuit, bench, faults)
        results = {
            t: run_campaign(circuit, bench, t, faults=faults, oracle=oracle)
            for t in TECHNIQUES
        }
        verdicts = [r.dictionary.counts() for r in results.values()]
        assert verdicts[0] == verdicts[1] == verdicts[2]
        assert results["time_multiplexed"].total_cycles == min(
            r.total_cycles for r in results.values()
        )

    def test_every_registered_circuit_full_pipeline(self):
        """Smoke the entire pipeline over the whole circuit registry."""
        for name in available_circuits():
            circuit = build_circuit(name)
            report = area_of(circuit)
            assert report.luts >= 0 and report.ffs == circuit.num_ffs
            bench = random_testbench(circuit, 10, seed=3)
            faults = exhaustive_fault_list(circuit, 10)
            oracle = grade_faults(circuit, bench, faults)
            assert oracle.num_faults == len(faults)


class TestCrossModuleConsistency:
    def test_latency_consistency_between_dictionary_and_campaign(self):
        """Time-mux run cycles must equal twice the dictionary's total
        classification latency (capped at testbench end)."""
        circuit = build_circuit("b01")
        bench = random_testbench(circuit, 60, seed=4)
        faults = exhaustive_fault_list(circuit, 60)
        oracle = grade_faults(circuit, bench, faults)
        campaign = run_campaign(
            circuit, bench, "time_multiplexed", faults=faults, oracle=oracle
        )
        total_latency = 0
        for record in campaign.dictionary:
            stop_candidates = [bench.num_cycles - 1]
            if record.fail_cycle != -1:
                stop_candidates.append(record.fail_cycle)
            if record.vanish_cycle != -1:
                stop_candidates.append(record.vanish_cycle)
            total_latency += min(stop_candidates) - record.fault.cycle + 1
        assert campaign.breakdown.run == 2 * total_latency

    def test_failure_rate_from_oracle_equals_dictionary(self):
        circuit = build_circuit("b09")
        bench = random_testbench(circuit, 40, seed=8)
        faults = exhaustive_fault_list(circuit, 40)
        oracle = grade_faults(circuit, bench, faults)
        from_oracle = sum(1 for c in oracle.fail_cycles if c != -1)
        from_dictionary = oracle.to_dictionary().counts()[FaultClass.FAILURE]
        assert from_oracle == from_dictionary

    def test_grading_result_types(self):
        circuit = build_circuit("b02")
        bench = random_testbench(circuit, 12, seed=1)
        faults = exhaustive_fault_list(circuit, 12)
        oracle = grade_faults(circuit, bench, faults)
        assert isinstance(oracle, FaultGradingResult)
        assert len(oracle.fail_cycles) == len(faults)
        assert all(
            -1 <= c < bench.num_cycles
            for c in [*oracle.fail_cycles, *oracle.vanish_cycles]
        )


class TestHardeningWorkflow:
    def test_tmr_protection_detected(self):
        """The motivating use case: the tool must show that TMR hardening
        eliminates single-fault failures."""
        from repro.hardening import harden_tmr

        plain = build_circuit("b06")
        tmr = harden_tmr(plain)
        cycles = 48
        results = {}
        for circuit in (plain, tmr):
            bench = random_testbench(circuit, cycles, seed=11)
            faults = exhaustive_fault_list(circuit, cycles)
            oracle = grade_faults(circuit, bench, faults)
            counts = oracle.to_dictionary().counts()
            results[circuit.name] = counts[FaultClass.FAILURE] / len(faults)
        assert results[plain.name] > 0.2
        assert results[tmr.name] == 0.0
