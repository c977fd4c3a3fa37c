"""Fault-model registry and per-model injection semantics."""

import pytest

from repro.errors import CampaignError
from repro.faults.model import SeuFault, exhaustive_fault_list
from repro.faults.models import (
    IntermittentFault,
    MbuFault,
    StuckAtFault,
    available_models,
    get_fault_model,
)
from repro.sim.cycle import replay_fault, run_golden
from repro.sim.vectors import constant_testbench, random_testbench
from tests.conftest import build_counter, build_shift_register, build_toggle


class TestRegistry:
    def test_builtin_models_registered(self):
        names = available_models()
        assert "seu" in names
        assert "stuck_at_0" in names and "stuck_at_1" in names

    def test_parameterized_lookup(self):
        assert get_fault_model("mbu").width == 2
        assert get_fault_model("mbu:4").width == 4
        model = get_fault_model("intermittent:8:3")
        assert (model.period, model.duty) == (8, 3)

    def test_parsed_models_memoized(self):
        assert get_fault_model("mbu:3") is get_fault_model("mbu:3")

    def test_unknown_model_rejected(self):
        with pytest.raises(CampaignError, match="unknown fault model"):
            get_fault_model("cosmic_ray")
        with pytest.raises(CampaignError):
            get_fault_model("mbu:zero")
        with pytest.raises(CampaignError):
            get_fault_model("mbu:1")  # width 1 is the seu model
        with pytest.raises(CampaignError):
            get_fault_model("intermittent:4:4")  # duty must be < period


class TestPopulations:
    def test_seu_population_is_the_legacy_exhaustive_list(self):
        counter = build_counter()
        population = get_fault_model("seu").population(counter, 9)
        assert population == exhaustive_fault_list(counter, 9)
        assert all(type(fault) is SeuFault for fault in population)

    @pytest.mark.parametrize(
        "name", ["seu", "mbu:2", "stuck_at_0", "stuck_at_1", "intermittent"]
    )
    def test_population_sorted_and_sized(self, name):
        counter = build_counter()
        model = get_fault_model(name)
        population = model.population(counter, 7)
        assert population == sorted(population)
        assert len(population) == model.population_size(counter, 7)
        assert all(fault.cycle < 7 for fault in population)

    def test_mbu_runs_fit_the_register_file(self):
        shift = build_shift_register(6)
        population = get_fault_model("mbu:4").population(shift, 5)
        assert len(population) == (6 - 4 + 1) * 5
        for fault in population:
            flips = fault.flip_flops()
            assert len(flips) == 4
            assert max(flips) < 6

    def test_mbu_wider_than_circuit_rejected(self):
        toggle = build_toggle()
        with pytest.raises(CampaignError, match="cannot inject"):
            get_fault_model("mbu:2").population(toggle, 4)


class TestFaultProtocol:
    def test_seu_is_transient_single_flip(self):
        fault = SeuFault(cycle=3, flop_index=1)
        assert fault.flip_flops() == (1,)
        assert not fault.persistent

    def test_stuck_at_forces_from_onset(self):
        fault = StuckAtFault(cycle=4, flop_index=2, value=1)
        assert fault.persistent
        assert fault.flip_flops() == ()
        assert not fault.force_active(3)
        assert fault.force_active(4) and fault.force_active(99)
        assert fault.apply_force(0b000, 5) == 0b100
        assert fault.apply_force(0b111, 3) == 0b111  # inactive before onset

    def test_intermittent_duty_pattern(self):
        fault = IntermittentFault(
            cycle=2, flop_index=0, value=0, period=4, duty=2
        )
        active = [cycle for cycle in range(12) if fault.force_active(cycle)]
        assert active == [2, 3, 6, 7, 10, 11]
        assert fault.apply_force(0b1, 2) == 0b0

    def test_bad_parameters_rejected(self):
        with pytest.raises(CampaignError):
            StuckAtFault(cycle=0, flop_index=0, value=2)
        with pytest.raises(CampaignError):
            IntermittentFault(cycle=0, flop_index=0, period=1)
        with pytest.raises(CampaignError):
            MbuFault(cycle=0, flop_index=0, width=0)


class TestReplaySemantics:
    """The serial reference replay defines each model's meaning."""

    def test_stuck_at_equal_to_golden_value_is_silent(self):
        """Forcing a flop to the value it would hold anyway leaves the
        run identical to golden: never fails, vanishes immediately."""
        shift = build_shift_register(3)
        bench = constant_testbench(shift, 10, value=0)  # all state stays 0
        fault = StuckAtFault(cycle=2, flop_index=1, value=0)
        outcome = replay_fault(shift, bench, fault)
        assert outcome["fail_cycle"] == -1
        assert outcome["vanish_cycle"] == 2

    def test_stuck_at_against_the_grain_never_vanishes(self):
        shift = build_shift_register(3)
        bench = constant_testbench(shift, 10, value=0)
        fault = StuckAtFault(cycle=2, flop_index=0, value=1)
        outcome = replay_fault(shift, bench, fault)
        # The forced 1 marches to the output and is re-forced every cycle.
        assert outcome["fail_cycle"] != -1
        assert outcome["vanish_cycle"] == -1

    def test_intermittent_release_lets_the_fault_wash_out(self):
        """After the last active burst of a 1-in-4 duty fault, a shift
        register flushes the corruption: the final suffix converges, so
        the fault vanishes even though it diverged repeatedly before."""
        shift = build_shift_register(3)
        bench = constant_testbench(shift, 16, value=0)
        fault = IntermittentFault(
            cycle=1, flop_index=2, value=1, period=8, duty=1
        )
        outcome = replay_fault(shift, bench, fault)
        # active at cycles 1 and 9; flop 2 is the last stage (output),
        # so corruption leaves the register after each burst.
        assert outcome["vanish_cycle"] >= 9

    def test_mbu_flips_all_bits_of_the_run(self):
        counter = build_counter()
        bench = random_testbench(counter, 12, seed=1)
        golden = run_golden(counter, bench)
        fault = MbuFault(cycle=0, flop_index=0, width=counter.num_ffs)
        outcome = replay_fault(counter, bench, fault, golden)
        # Flipping the whole register at cycle 0 definitely perturbs the
        # run; the exact verdict is circuit-specific, but the replay must
        # treat the fault as injected at cycle 0.
        assert outcome["fail_cycle"] >= 0 or outcome["vanish_cycle"] >= 0
