"""Scalar cycle-based simulation.

:class:`CycleSimulator` steps a compiled netlist one clock at a time with
plain Python ints. It is the project's only scalar simulator and its
reference implementation: the golden run the native kernel's golden pass
is checked against (and the golden run itself when the kernel is
unavailable), the per-fault :func:`replay_fault` that cross-checks the
bit-parallel oracle and is timed as the software fault-simulation
baseline, and the source of VCD waveforms (:mod:`repro.sim.waves`).
Values are two-valued: a flop with an X init powers up to 0.

Clocking model (shared by every engine and by the campaign cycle
accounting): during cycle ``t`` the flops hold state ``s_t``; inputs
``x_t`` are applied; combinational logic settles; outputs ``y_t`` are
observed; the next state ``s_{t+1}`` is latched from the D inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import CampaignError, SimulationError
from repro.netlist.netlist import Netlist
from repro.sim.compile import CompiledNetlist, compile_netlist, eval_program_scalar
from repro.sim.vectors import Testbench


@dataclass
class GoldenTrace:
    """Everything the golden (fault-free) run produces.

    ``states[t]`` is the packed flop state at the *start* of cycle t (so
    ``states[0]`` is the reset state and there are T+1 entries);
    ``outputs[t]`` is the packed primary-output word observed during cycle
    t. This is exactly the data the autonomous emulator keeps in RAM:
    expected outputs for the comparators, per-cycle states for state-scan.
    """

    num_cycles: int
    outputs: List[int] = field(default_factory=list)
    states: List[int] = field(default_factory=list)

    def final_state(self) -> int:
        """Golden state after the last cycle."""
        return self.states[self.num_cycles]


class CycleSimulator:
    """Steps a netlist cycle by cycle; supports state peeking/poking.

    State is exposed packed (bit ``i`` = flop ``i`` in netlist order) — the
    same packing the fault model, scan chains and golden traces use.
    """

    def __init__(self, netlist_or_compiled):
        if isinstance(netlist_or_compiled, Netlist):
            self.compiled: CompiledNetlist = compile_netlist(netlist_or_compiled)
        else:
            self.compiled = netlist_or_compiled
        self._values: List[int] = [0] * self.compiled.num_slots
        self._state: int = self.compiled.initial_state()
        self.cycle: int = 0

    # ------------------------------------------------------------------
    # state access
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Return every flop to its init value (X inits read 0) and the
        cycle count to 0."""
        self._state = self.compiled.initial_state()
        self.cycle = 0

    def get_state(self) -> int:
        """Packed current flop state."""
        return self._state

    def set_state(self, state: int) -> None:
        """Poke the packed flop state (used for fault injection and the
        state-scan protocol)."""
        if state < 0 or state >> self.compiled.num_flops:
            raise SimulationError(
                f"state does not fit in {self.compiled.num_flops} flops"
            )
        self._state = state

    def flip_flop_bit(self, flop_index: int) -> None:
        """Flip one flop — the SEU bit-flip itself."""
        if not 0 <= flop_index < self.compiled.num_flops:
            raise SimulationError(f"no flop with index {flop_index}")
        self._state ^= 1 << flop_index

    def flop_names(self) -> List[str]:
        """Flop names in packing order."""
        return [flop.name for flop in self.compiled.flops]

    # ------------------------------------------------------------------
    # stepping
    # ------------------------------------------------------------------
    def step(self, input_word: int) -> int:
        """Advance one clock cycle; returns the packed output word."""
        values = self._values
        state = self._state
        # Load flop outputs and primary inputs into the value array.
        for position, flop in enumerate(self.compiled.flops):
            values[flop.q_index] = (state >> position) & 1
        for position, slot in enumerate(self.compiled.input_slots):
            values[slot] = (input_word >> position) & 1

        eval_program_scalar(self.compiled, values)

        output_word = 0
        for position, slot in enumerate(self.compiled.output_slots):
            if values[slot]:
                output_word |= 1 << position

        next_state = 0
        for position, flop in enumerate(self.compiled.flops):
            if values[flop.d_index]:
                next_state |= 1 << position
        self._state = next_state
        self.cycle += 1
        return output_word

    def peek_net(self, net: str) -> int:
        """Value of a net as of the end of the last ``step`` call."""
        try:
            slot = self.compiled.net_index[net]
        except KeyError:
            raise SimulationError(f"unknown net {net!r}") from None
        return self._values[slot]

    def run(self, testbench: Testbench) -> List[int]:
        """Run a whole testbench from the current state; returns the output
        word of every cycle."""
        return [self.step(vector) for vector in testbench.vectors]


def run_golden(netlist_or_compiled, testbench: Testbench) -> GoldenTrace:
    """Execute the fault-free run and record the golden trace."""
    simulator = CycleSimulator(netlist_or_compiled)
    trace = GoldenTrace(num_cycles=testbench.num_cycles)
    trace.states.append(simulator.get_state())
    for vector in testbench.vectors:
        trace.outputs.append(simulator.step(vector))
        trace.states.append(simulator.get_state())
    return trace


def replay_fault(
    netlist_or_compiled,
    testbench: Testbench,
    fault,
    golden: Optional[GoldenTrace] = None,
) -> Dict[str, int]:
    """Reference (slow-path) replay of one fault of any model, used to
    cross-check the bit-parallel oracle and to measure the software
    fault-simulation baseline.

    Follows the injection protocol of :class:`repro.faults.model.SeuFault`:
    all of the fault's flips are applied at its onset cycle, and its force
    (if any) is re-applied to the held state every cycle it is active —
    including the post-bench state, which decides SILENT vs LATENT for
    persistent faults. Returns ``fail_cycle`` and ``vanish_cycle`` (-1 when
    the event never happens), matching the oracle's definitions exactly.

    A transient fault stops at the first cycle whose held state equals
    the golden one: it never forces again, so the two runs are identical
    from there on. A persistent fault can re-diverge, so its
    ``vanish_cycle`` is the start of the final golden-equal suffix.

    Like :func:`repro.sim.parallel.grade_faults`, refuses a fault whose
    onset is not inside the testbench.
    """
    if fault.cycle >= testbench.num_cycles:
        raise CampaignError(
            f"{fault.describe()} is beyond the {testbench.num_cycles}-cycle "
            "testbench"
        )
    if golden is None:
        golden = run_golden(netlist_or_compiled, testbench)
    simulator = CycleSimulator(netlist_or_compiled)
    state = golden.states[fault.cycle]
    for flop_index in fault.flip_flops():
        state ^= 1 << flop_index
    fail_cycle = -1
    vanish_cycle = -1
    for cycle in range(fault.cycle, testbench.num_cycles):
        state = fault.apply_force(state, cycle)
        if cycle > fault.cycle:
            # The state held *during* this cycle decides whether the
            # fault effect had disappeared at the end of the previous one.
            if state != golden.states[cycle]:
                vanish_cycle = -1
            elif vanish_cycle == -1:
                vanish_cycle = cycle - 1
                if not fault.persistent:
                    return {"fail_cycle": fail_cycle, "vanish_cycle": vanish_cycle}
        simulator.set_state(state)
        output = simulator.step(testbench.vectors[cycle])
        if fail_cycle == -1 and output != golden.outputs[cycle]:
            fail_cycle = cycle
        state = simulator.get_state()
    final = fault.apply_force(state, testbench.num_cycles)
    if final == golden.final_state():
        if vanish_cycle == -1:
            vanish_cycle = testbench.num_cycles - 1
    else:
        vanish_cycle = -1
    return {"fail_cycle": fail_cycle, "vanish_cycle": vanish_cycle}
