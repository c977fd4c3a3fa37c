"""Tests for the bit-parallel fault-grading oracle.

The oracle is the foundation of every result in the library, so it gets
the heaviest scrutiny: backend-vs-backend equivalence, oracle-vs-replay
equivalence, and semantic checks on hand-analysable circuits.
"""

import pytest

from repro.errors import CampaignError
from repro.faults.classify import FaultClass
from repro.faults.model import SeuFault, exhaustive_fault_list
from repro.sim.cycle import replay_fault, run_golden
from repro.sim.parallel import DEFAULT_BACKEND, grade_faults
from repro.sim.vectors import Testbench, constant_testbench, random_testbench
from tests.conftest import (
    build_counter,
    build_shift_register,
    build_sticky,
    build_toggle,
)

CIRCUITS = {
    "counter": build_counter,
    "shift": build_shift_register,
    "sticky": build_sticky,
    "toggle": build_toggle,
}


def test_fused_is_the_default_backend():
    assert DEFAULT_BACKEND == "fused"


@pytest.mark.parametrize("name", sorted(CIRCUITS))
def test_backends_agree(name):
    circuit = CIRCUITS[name]()
    bench = random_testbench(circuit, 20, seed=4)
    faults = exhaustive_fault_list(circuit, 20)
    numpy_result = grade_faults(circuit, bench, faults, backend="numpy")
    bigint_result = grade_faults(circuit, bench, faults, backend="bigint")
    assert list(numpy_result.fail_cycles) == list(bigint_result.fail_cycles)
    assert list(numpy_result.vanish_cycles) == list(bigint_result.vanish_cycles)


@pytest.mark.parametrize("name", sorted(CIRCUITS))
def test_oracle_matches_serial_replay(name):
    circuit = CIRCUITS[name]()
    bench = random_testbench(circuit, 16, seed=8)
    faults = exhaustive_fault_list(circuit, 16)
    oracle = grade_faults(circuit, bench, faults)
    golden = run_golden(circuit, bench)
    for index, fault in enumerate(faults):
        reference = replay_fault(circuit, bench, fault, golden)
        assert oracle.fail_cycles[index] == reference["fail_cycle"], fault
        assert oracle.vanish_cycles[index] == reference["vanish_cycle"], fault


class TestSemantics:
    def test_counter_faults_all_fail_immediately(self):
        counter = build_counter(4)
        bench = constant_testbench(counter, 8, value=1)
        faults = exhaustive_fault_list(counter, 8)
        oracle = grade_faults(counter, bench, faults)
        # counter bits are directly visible: every fault fails at inject cycle
        for index, fault in enumerate(faults):
            assert oracle.fail_cycles[index] == fault.cycle
            assert oracle.verdict(index) is FaultClass.FAILURE

    def test_shift_register_vanish_time_is_exact(self):
        depth = 5
        shift = build_shift_register(depth)
        bench = constant_testbench(shift, 16, value=0)
        faults = [SeuFault(cycle=3, flop_index=i) for i in range(depth)]
        oracle = grade_faults(shift, bench, faults)
        for index in range(depth):
            # flipped bit at stage i needs depth-i shifts to leave the
            # register; it reaches the output (failure) on the way out
            assert oracle.verdict(index) is FaultClass.FAILURE
            assert oracle.vanish_cycles[index] == 3 + (depth - index) - 1

    def test_sticky_unobserved_is_latent(self):
        sticky = build_sticky()
        bench = constant_testbench(sticky, 12, value=0)
        faults = [SeuFault(cycle=2, flop_index=0)]
        oracle = grade_faults(sticky, bench, faults)
        assert oracle.verdict(0) is FaultClass.LATENT

    def test_fault_overwritten_same_cycle_is_silent(self):
        # counter with enable=0 holds; flipping a bit persists (latent)...
        counter = build_counter(3)
        bench = constant_testbench(counter, 6, value=1)
        # ...but with enable=1 the flop reloads count+1 computed from the
        # flipped value, so the corruption persists too. Use the toggle
        # instead: q_next = ~q, so a flip at cycle t propagates. The truly
        # silent case: flip a shift register's tail bit just before it is
        # overwritten and after it fed the output...
        shift = build_shift_register(3)
        tail_fault = [SeuFault(cycle=4, flop_index=2)]
        # tail flop feeds the output this cycle -> failure, and is
        # overwritten at the cycle's end -> vanish at the same cycle
        bench = constant_testbench(shift, 8, value=0)
        oracle = grade_faults(shift, bench, tail_fault)
        assert oracle.fail_cycles[0] == 4
        assert oracle.vanish_cycles[0] == 4

    def test_verdict_priority_failure_over_silent(self):
        # when fail and vanish both occur, FAILURE dominates
        shift = build_shift_register(3)
        bench = constant_testbench(shift, 8, value=0)
        faults = exhaustive_fault_list(shift, 8)
        oracle = grade_faults(shift, bench, faults)
        for index in range(len(faults)):
            if oracle.fail_cycles[index] != -1:
                assert oracle.verdict(index) is FaultClass.FAILURE


class TestValidation:
    def test_empty_fault_list_rejected(self, counter, counter_bench):
        with pytest.raises(CampaignError):
            grade_faults(counter, counter_bench, [])

    def test_fault_beyond_testbench_rejected(self, counter, counter_bench):
        bad = [SeuFault(cycle=counter_bench.num_cycles, flop_index=0)]
        with pytest.raises(CampaignError, match="beyond"):
            grade_faults(counter, counter_bench, bad)

    def test_fault_flop_out_of_range_rejected(self, counter, counter_bench):
        bad = [SeuFault(cycle=0, flop_index=counter.num_ffs)]
        with pytest.raises(CampaignError, match="only"):
            grade_faults(counter, counter_bench, bad)

    def test_unknown_backend_rejected(self, counter, counter_bench):
        faults = exhaustive_fault_list(counter, counter_bench.num_cycles)
        with pytest.raises(CampaignError, match="backend"):
            grade_faults(counter, counter_bench, faults, backend="quantum")

    def test_word_boundary_fault_counts(self):
        # exactly 64 and 65 faults cross the uint64 word boundary
        counter = build_counter(5)
        bench = random_testbench(counter, 13, seed=1)
        faults = exhaustive_fault_list(counter, 13)
        assert len(faults) == 65
        full = grade_faults(counter, bench, faults)
        head = grade_faults(counter, bench, faults[:64])
        assert list(full.fail_cycles[:64]) == list(head.fail_cycles)


class TestResultContainer:
    def test_dictionary_roundtrip(self, counter, counter_bench):
        faults = exhaustive_fault_list(counter, counter_bench.num_cycles)
        oracle = grade_faults(counter, counter_bench, faults)
        dictionary = oracle.to_dictionary()
        assert len(dictionary) == len(faults)
        counts = dictionary.counts()
        assert sum(counts.values()) == len(faults)

    def test_verdicts_list_matches_scalar(self, counter, counter_bench):
        faults = exhaustive_fault_list(counter, counter_bench.num_cycles)
        oracle = grade_faults(counter, counter_bench, faults)
        assert oracle.verdicts() == [
            oracle.verdict(i) for i in range(len(faults))
        ]
