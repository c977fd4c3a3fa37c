"""The :class:`AutonomousEmulator` facade.

Ties together instrumentation, controller generation, RAM layout, area
measurement and campaign execution — the library's main entry point::

    from repro.circuits import build_circuit
    from repro.emu import AutonomousEmulator
    from repro.circuits.itc99.b14 import b14_program_testbench

    b14 = build_circuit("b14")
    emulator = AutonomousEmulator(b14, technique="time_multiplexed")
    synthesis = emulator.synthesize()        # Table-1-style area rows
    testbench = b14_program_testbench(b14, 160)
    result = emulator.run_campaign(testbench)  # Table-2-style timing
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.emu.board import RC1000, BoardModel
from repro.emu.campaign import CampaignResult, run_campaign
from repro.emu.controller import build_controller
from repro.emu.instrument import TECHNIQUES, InstrumentedCircuit, instrument_circuit
from repro.emu.ram import RamLayout, ram_layout_for
from repro.errors import CampaignError
from repro.faults.model import SeuFault, exhaustive_fault_list
from repro.netlist.netlist import Netlist
from repro.sim.parallel import FaultGradingResult
from repro.sim.vectors import Testbench
from repro.synth.area import AreaReport, area_of


@dataclass
class SynthesisSummary:
    """One technique's Table-1 row set: original, modified, full system."""

    technique: str
    original: AreaReport
    modified: AreaReport
    controller: AreaReport
    system: AreaReport
    ram: RamLayout

    def describe(self) -> str:
        """Text rendering mirroring the paper's Table 1 columns."""
        modified = self.modified.overhead_vs(self.original)
        system = self.system.overhead_vs(self.original)
        return (
            f"{self.technique}: RAM {self.ram.board_kbits:,.0f} / "
            f"{self.ram.fpga_kbits:.1f} kbits | modified "
            f"{modified.lut_cell()} LUTs, {modified.ff_cell()} FFs | system "
            f"{system.lut_cell()} LUTs, {system.ff_cell()} FFs"
        )


class AutonomousEmulator:
    """An autonomous fault-emulation system for one circuit + technique."""

    def __init__(
        self,
        netlist: Netlist,
        technique: str,
        board: BoardModel = RC1000,
        campaign_cycles: int = 0,
        campaign_faults: int = 0,
    ):
        if technique not in TECHNIQUES:
            raise CampaignError(
                f"unknown technique {technique!r}; expected one of {TECHNIQUES}"
            )
        self.netlist = netlist
        self.technique = technique
        self.board = board
        # Controller sizing defaults: counters are dimensioned for the
        # campaign; synthesize() before run_campaign() uses these hints.
        self._campaign_cycles = campaign_cycles
        self._campaign_faults = campaign_faults
        self._instrumented: Optional[InstrumentedCircuit] = None
        self._controller: Optional[Netlist] = None

    # ------------------------------------------------------------------
    @property
    def instrumented(self) -> InstrumentedCircuit:
        """The instrumented circuit (built on first use)."""
        if self._instrumented is None:
            self._instrumented = instrument_circuit(self.netlist, self.technique)
        return self._instrumented

    def controller_netlist(
        self, num_cycles: Optional[int] = None, num_faults: Optional[int] = None
    ) -> Netlist:
        """The generated emulation controller netlist."""
        cycles = num_cycles or self._campaign_cycles or 256
        faults = num_faults or self._campaign_faults or (
            self.netlist.num_ffs * cycles
        )
        if self._controller is None:
            ram = self._ram_layout(cycles, faults)
            self._controller = build_controller(
                self.technique,
                num_inputs=len(self.netlist.inputs),
                num_outputs=len(self.netlist.outputs),
                num_flops=self.netlist.num_ffs,
                num_cycles=cycles,
                num_faults=faults,
                ram_words=ram.total_words(),
            )
        return self._controller

    def _ram_layout(self, num_cycles: int, num_faults: int) -> RamLayout:
        return ram_layout_for(
            self.technique,
            num_inputs=len(self.netlist.inputs),
            num_outputs=len(self.netlist.outputs),
            num_flops=self.netlist.num_ffs,
            num_cycles=num_cycles,
            num_faults=num_faults,
        )

    # ------------------------------------------------------------------
    def synthesize(
        self, num_cycles: Optional[int] = None, num_faults: Optional[int] = None
    ) -> SynthesisSummary:
        """Measure the Table-1 areas: original, modified, full system.

        The system row is the modified circuit plus the generated
        controller (the paper's "Emulator System"); RAM is reported
        separately, as in the paper.
        """
        cycles = num_cycles or self._campaign_cycles or 256
        faults = num_faults or self._campaign_faults or (
            self.netlist.num_ffs * cycles
        )
        original = area_of(self.netlist)
        modified = area_of(self.instrumented.netlist)
        controller = area_of(self.controller_netlist(cycles, faults))
        system = modified.plus(
            controller, name=f"{self.netlist.name}.{self.technique}.system"
        )
        return SynthesisSummary(
            technique=self.technique,
            original=original,
            modified=modified,
            controller=controller,
            system=system,
            ram=self._ram_layout(cycles, faults),
        )

    def run_campaign(
        self,
        testbench: Testbench,
        faults: Optional[Sequence[SeuFault]] = None,
        oracle: Optional[FaultGradingResult] = None,
    ) -> CampaignResult:
        """Execute the fault-grading campaign and count FPGA cycles."""
        return run_campaign(
            self.netlist,
            testbench,
            self.technique,
            board=self.board,
            faults=faults,
            oracle=oracle,
        )

    # ------------------------------------------------------------------
    def merged_system_netlist(
        self, num_cycles: Optional[int] = None, num_faults: Optional[int] = None
    ) -> Netlist:
        """One flat netlist containing instrumented circuit + controller.

        Controller outputs drive the instrument's control inputs and the
        circuit's stimulus inputs; circuit outputs feed the controller's
        observation inputs. RAM ports and ``start``/``done`` remain the
        primary interface — exactly the autonomous system's boundary
        (host talks to RAM and the start/done handshake only).
        """
        instrument = self.instrumented
        controller = self.controller_netlist(num_cycles, num_faults)
        return merge_system(instrument, controller)


def merge_system(instrument: InstrumentedCircuit, controller: Netlist) -> Netlist:
    """Flatten controller + instrumented circuit into one netlist."""
    circuit = instrument.netlist
    merged = Netlist(f"{circuit.name}.system")

    # Controller nets are prefixed to avoid collisions; connection points
    # are resolved through this renaming.
    def ctrl_net(net: str) -> str:
        return f"ctl.{net}"

    # --- primary inputs of the merged system: controller's RAM/start.
    # A 1-bit port is a bare net ("obs"), a wider one a bus ("obs[0]").
    internal = ("obs", "circ_state", "state_diff", "scan_out_bit")
    for net in controller.inputs:
        if net.split("[")[0] in internal:
            continue  # driven internally
        merged.add_input(ctrl_net(net))

    # --- controller gates and flops (renamed)
    for gate in controller.gates.values():
        merged.add_gate(
            f"ctl.{gate.name}",
            gate.gate_type,
            [ctrl_net(n) for n in gate.inputs],
            ctrl_net(gate.output),
        )
    for dff in controller.dffs.values():
        merged.add_dff(f"ctl.{dff.name}", ctrl_net(dff.d), ctrl_net(dff.q), dff.init)

    # Controller primary outputs are driven by internal nets named after
    # the output with a buffer; map output name -> its driving net.
    # (Controller netlists come from the elaborator, where outputs are
    # buf-driven nets with the port name itself.)

    # --- instrumented circuit, unprefixed
    for gate in circuit.gates.values():
        merged.add_gate(gate.name, gate.gate_type, gate.inputs, gate.output)
    for dff in circuit.dffs.values():
        merged.add_dff(dff.name, dff.d, dff.q, dff.init)

    # --- wire controller outputs to circuit inputs
    original_inputs = instrument.original.inputs
    connected = set()
    for index, net in enumerate(original_inputs):
        source = ctrl_net(f"stim[{index}]" if len(original_inputs) > 1 else "stim")
        merged.add_gate(f"link.stim[{index}]", "buf", [source], net)
        connected.add(net)
    for role_net in instrument.control_inputs.values():
        source = ctrl_net(role_net)
        if role_net in connected:
            continue
        merged.add_gate(f"link.{role_net}", "buf", [source], role_net)
        connected.add(role_net)

    # --- wire circuit outputs to controller observation inputs
    for index, net in enumerate(instrument.original.outputs):
        name = f"obs[{index}]" if len(instrument.original.outputs) > 1 else "obs"
        merged.add_gate(f"link.obs[{index}]", "buf", [net], ctrl_net(name))
    if "state_diff" in controller.inputs or any(
        n == "state_diff" for n in controller.inputs
    ):
        merged.add_gate(
            "link.state_diff",
            "buf",
            [instrument.control_outputs["state_diff"]],
            ctrl_net("state_diff"),
        )
    for net in controller.inputs:
        if net.split("[")[0] == "circ_state":
            index = int(net[len("circ_state[") : -1] or 0)
            flop_name = instrument.flop_order[index]
            q_net = instrument.original.dffs[flop_name].q
            merged.add_gate(f"link.{net}", "buf", [q_net], ctrl_net(net))
        elif net == "scan_out_bit":
            merged.add_gate(
                "link.scan_out",
                "buf",
                [instrument.control_outputs["scan_out"]],
                ctrl_net(net),
            )

    # --- merged primary outputs: the RAM interface and the done flag are
    # the functional boundary; the remaining controller/instrument status
    # nets are exported too so no logic is dangling (and so waveforms of
    # the merged system show the protocol signals).
    for net in controller.outputs:
        merged.add_output(ctrl_net(net))
    for net in instrument.control_outputs.values():
        merged.add_output(f"dbg.{net}")
        merged.add_gate(f"link.dbg.{net}", "buf", [net], f"dbg.{net}")
    return merged
