"""Unit tests for the scalar cycle simulator and golden traces."""

from functools import partial

import pytest

from repro.circuits.registry import build_circuit
from repro.errors import CampaignError, SimulationError
from repro.faults.model import SeuFault
from repro.faults.models import get_fault_model
from repro.logic.tables import eval_gate
from repro.logic.values import X
from repro.sim.compile import compile_netlist
from repro.sim.cycle import CycleSimulator, replay_fault, run_golden
from repro.sim.parallel import grade_faults
from repro.sim.vectors import Testbench, constant_testbench, random_testbench
from tests.conftest import build_counter, build_shift_register, build_sticky
from tests.property.randnet import random_netlist


class TestStepping:
    def test_toggle_alternates(self, toggle):
        sim = CycleSimulator(toggle)
        values = [sim.step(0) & 1 for _ in range(6)]
        assert values == [0, 1, 0, 1, 0, 1]

    def test_counter_counts_when_enabled(self, counter):
        sim = CycleSimulator(counter)
        for expected in range(5):
            out = sim.step(1)  # enable=1
            assert out & 0xF == expected

    def test_counter_holds_when_disabled(self, counter):
        sim = CycleSimulator(counter)
        sim.step(1)
        sim.step(1)
        held = sim.step(0) & 0xF
        assert held == 2
        assert sim.step(0) & 0xF == 2

    def test_wrap_output(self):
        counter = build_counter(2)
        sim = CycleSimulator(counter)
        wraps = [(sim.step(1) >> 2) & 1 for _ in range(8)]
        # wrap asserted when the value is 3 (cycles 3 and 7)
        assert wraps == [0, 0, 0, 1, 0, 0, 0, 1]

    def test_accepts_precompiled(self, counter):
        compiled = compile_netlist(counter)
        sim = CycleSimulator(compiled)
        assert sim.step(1) == 0


class TestStateAccess:
    def test_get_set_state(self, counter):
        sim = CycleSimulator(counter)
        sim.set_state(0b1010)
        assert sim.get_state() == 0b1010
        assert sim.step(0) & 0xF == 0b1010

    def test_state_bounds_checked(self, counter):
        sim = CycleSimulator(counter)
        with pytest.raises(SimulationError):
            sim.set_state(1 << 10)

    def test_flip_flop_bit(self, counter):
        sim = CycleSimulator(counter)
        sim.flip_flop_bit(2)
        assert sim.get_state() == 0b0100
        sim.flip_flop_bit(2)
        assert sim.get_state() == 0

    def test_flip_bad_index(self, counter):
        sim = CycleSimulator(counter)
        with pytest.raises(SimulationError):
            sim.flip_flop_bit(99)

    def test_reset(self, counter):
        sim = CycleSimulator(counter)
        sim.step(1)
        sim.step(1)
        sim.reset()
        assert sim.get_state() == 0
        assert sim.cycle == 0

    def test_reset_with_x_init_flop(self):
        from repro.netlist.builder import NetlistBuilder

        b = NetlistBuilder("xinit")
        q = b.dff("d", q="q", init=X, name="fx")
        b.buf(q, out="d")
        b.output_net("o", q)
        netlist = b.build()
        sim = CycleSimulator(netlist)  # an X init powers up to 0
        sim.step(0)
        sim.reset()
        assert sim.get_state() == 0

    def test_peek_net(self, counter):
        sim = CycleSimulator(counter)
        sim.step(1)
        assert sim.peek_net("enable") == 1
        with pytest.raises(SimulationError):
            sim.peek_net("nonexistent")


class TestGoldenTrace:
    def test_trace_lengths(self, counter, counter_bench):
        trace = run_golden(counter, counter_bench)
        assert len(trace.outputs) == counter_bench.num_cycles
        assert len(trace.states) == counter_bench.num_cycles + 1

    def test_states_chain_consistently(self, counter, counter_bench):
        trace = run_golden(counter, counter_bench)
        sim = CycleSimulator(counter)
        for cycle, vector in enumerate(counter_bench.vectors):
            assert sim.get_state() == trace.states[cycle]
            assert sim.step(vector) == trace.outputs[cycle]
        assert sim.get_state() == trace.final_state()

    def test_final_state(self, counter):
        bench = constant_testbench(counter, 5, value=1)
        trace = run_golden(counter, bench)
        assert trace.final_state() == 5


def fixpoint_step(netlist, state, inputs):
    """Reference for one clock cycle that shares nothing with
    ``compile_netlist``/``levelize``: re-evaluate every gate with
    ``eval_gate`` until no net changes, then latch the flops. ``state``
    and ``inputs`` map nets to values; returns (outputs, next state)."""
    values = {**state, **inputs}
    changed = True
    while changed:
        changed = False
        for gate in netlist.gates.values():
            value = eval_gate(gate.gate_type, [values.get(n, X) for n in gate.inputs])
            if values.get(gate.output, X) != value:
                values[gate.output] = value
                changed = True
    outputs = [values[net] for net in netlist.outputs]
    return outputs, {dff.q: values[dff.d] for dff in netlist.dffs.values()}


def pack(bits):
    return sum(bit << index for index, bit in enumerate(bits))


REFERENCE_CIRCUITS = {
    "counter": build_counter,
    "shift": build_shift_register,
    "sticky": build_sticky,
    **{f"rand{seed}": partial(random_netlist, seed) for seed in range(8)},
}


@pytest.mark.parametrize("name", sorted(REFERENCE_CIRCUITS))
def test_matches_fixpoint_reference(name):
    """Outputs and state equal the fixpoint reference, cycle by cycle."""
    circuit = REFERENCE_CIRCUITS[name]()
    bench = random_testbench(circuit, 25, seed=6)
    sim = CycleSimulator(circuit)
    flops = list(circuit.dffs.values())
    state = {dff.q: 0 if dff.init == X else dff.init for dff in flops}
    for cycle, vector in enumerate(bench.vectors):
        inputs = {net: (vector >> i) & 1 for i, net in enumerate(circuit.inputs)}
        outputs, state = fixpoint_step(circuit, state, inputs)
        assert sim.step(vector) == pack(outputs), cycle
        assert sim.get_state() == pack(state[dff.q] for dff in flops), cycle


class TestReplayFault:
    def test_shift_register_fault_flushes_out(self):
        shift = build_shift_register(4)
        bench = constant_testbench(shift, 12, value=0)
        outcome = replay_fault(shift, bench, SeuFault(cycle=2, flop_index=0))
        # the flipped bit marches to the output (fail) and then leaves (vanish)
        assert outcome["fail_cycle"] != -1
        assert outcome["vanish_cycle"] != -1
        assert outcome["vanish_cycle"] >= outcome["fail_cycle"] - 4

    def test_sticky_fault_is_latent_until_observed(self):
        sticky = build_sticky()
        # never observe, never trigger: alarm stays 0, state stays corrupted
        bench = constant_testbench(sticky, 10, value=0)
        outcome = replay_fault(sticky, bench, SeuFault(cycle=1, flop_index=0))
        assert outcome["fail_cycle"] == -1
        assert outcome["vanish_cycle"] == -1

    def test_sticky_fault_fails_when_observed(self):
        sticky = build_sticky()
        observe_bit = sticky.inputs.index("observe")
        vectors = [0] * 10
        vectors[6] = 1 << observe_bit
        bench = Testbench(list(sticky.inputs), vectors)
        outcome = replay_fault(sticky, bench, SeuFault(cycle=1, flop_index=0))
        assert outcome["fail_cycle"] == 6

    def test_injection_at_cycle_zero(self, counter):
        bench = constant_testbench(counter, 6, value=1)
        outcome = replay_fault(counter, bench, SeuFault(cycle=0, flop_index=3))
        assert outcome["fail_cycle"] == 0  # value is a direct output

    @pytest.mark.parametrize("cycle", [6, 7])
    def test_fault_outside_the_bench_is_refused(self, counter, cycle):
        """The reference refuses what grade_faults refuses."""
        bench = constant_testbench(counter, 6, value=1)
        fault = SeuFault(cycle=cycle, flop_index=1)
        with pytest.raises(CampaignError, match="beyond the 6-cycle testbench"):
            replay_fault(counter, bench, fault)
        with pytest.raises(CampaignError, match="beyond the 6-cycle testbench"):
            grade_faults(counter, bench, [fault])

    @pytest.mark.parametrize("model_name", ["seu", "stuck_at_1"])
    def test_steps_until_the_verdict_is_settled(self, monkeypatch, model_name):
        """A transient fault stops stepping at its vanish cycle; a
        persistent one can re-diverge, so it steps to the end of the
        bench. Either way the outcome equals the fused engine's."""
        circuit = build_circuit("b04")
        bench = random_testbench(circuit, 40, seed=3)
        faults = get_fault_model(model_name).population(circuit, 40)[::7]
        fused = grade_faults(circuit, bench, faults, backend="fused")
        golden = run_golden(circuit, bench)
        steps = []
        real_step = CycleSimulator.step

        def counting_step(simulator, vector):
            steps[-1] += 1
            return real_step(simulator, vector)

        monkeypatch.setattr(CycleSimulator, "step", counting_step)
        for index, fault in enumerate(faults):
            steps.append(0)
            outcome = replay_fault(circuit, bench, fault, golden)
            vanish_cycle = int(fused.vanish_cycles[index])
            assert outcome == {
                "fail_cycle": int(fused.fail_cycles[index]),
                "vanish_cycle": vanish_cycle,
            }, fault.describe()
            settled = vanish_cycle + 1
            if fault.persistent or vanish_cycle == -1:
                settled = bench.num_cycles
            assert steps[-1] == settled - fault.cycle, fault.describe()
        # Faults that vanish before the last cycle exercise both branches.
        assert any(0 <= cycle < bench.num_cycles - 1 for cycle in fused.vanish_cycles)
