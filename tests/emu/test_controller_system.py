"""Tests for the controller generator and the AutonomousEmulator facade."""

import pytest

from repro.circuits.registry import available_circuits, build_circuit
from repro.emu.controller import build_controller
from repro.emu.instrument import TECHNIQUES
from repro.emu.system import AutonomousEmulator, merge_system
from repro.errors import CampaignError, InstrumentationError
from repro.netlist.validate import validate_netlist
from repro.sim.compile import compile_netlist
from repro.sim.vectors import random_testbench
from tests.conftest import build_counter, build_toggle

PARAMS = dict(
    num_inputs=4,
    num_outputs=5,
    num_flops=8,
    num_cycles=32,
    num_faults=256,
    ram_words=512,
)


class TestControllerGeneration:
    @pytest.mark.parametrize(
        "technique", ["mask_scan", "state_scan", "time_multiplexed"]
    )
    def test_controller_is_valid_netlist(self, technique):
        controller = build_controller(technique, **PARAMS)
        validate_netlist(controller)
        compile_netlist(controller)  # must levelize cleanly

    def test_unknown_technique(self):
        with pytest.raises(InstrumentationError):
            build_controller("psychic", **PARAMS)

    def test_port_contract_mask_scan(self):
        controller = build_controller("mask_scan", **PARAMS)
        outputs = set(controller.outputs)
        for port in ("ms_set", "ms_rst", "ms_inject", "done", "ram_we"):
            assert port in outputs, port
        assert any(net.startswith("ms_row[") for net in outputs)
        assert any(net.startswith("circ_state[") for net in controller.inputs)

    def test_port_contract_state_scan(self):
        controller = build_controller("state_scan", **PARAMS)
        outputs = set(controller.outputs)
        for port in ("ss_si", "ss_shift", "ss_load"):
            assert port in outputs, port
        assert "scan_out_bit" in controller.inputs

    def test_port_contract_time_mux(self):
        controller = build_controller("time_multiplexed", **PARAMS)
        outputs = set(controller.outputs)
        for port in (
            "tm_ena_golden",
            "tm_ena_faulty",
            "tm_save_state",
            "tm_load_state",
            "tm_inject",
        ):
            assert port in outputs, port
        assert "state_diff" in controller.inputs

    def test_mask_scan_controller_carries_golden_state_register(self):
        small = build_controller("mask_scan", **PARAMS)
        # golden_final register bank: one flop per circuit flop
        golden_flops = [
            name for name in small.dffs if name.startswith("ff$golden_final")
        ]
        assert len(golden_flops) == PARAMS["num_flops"]

    def test_controller_scales_with_testbench_length(self):
        short = build_controller("state_scan", **{**PARAMS, "num_cycles": 8})
        long = build_controller(
            "state_scan", **{**PARAMS, "num_cycles": 4096}
        )
        assert long.num_ffs > short.num_ffs  # wider cycle counter

    def test_state_scan_controller_smallest(self):
        """The paper's system rows: state-scan has the leanest controller
        (no golden-state register, no output capture bank)."""
        sizes = {
            t: build_controller(t, **PARAMS).num_ffs
            for t in ("mask_scan", "state_scan", "time_multiplexed")
        }
        assert sizes["state_scan"] < sizes["mask_scan"]


class TestFacade:
    def test_bad_technique_rejected(self, counter):
        with pytest.raises(CampaignError):
            AutonomousEmulator(counter, "psychic")

    def test_synthesize_rows_are_additive(self, counter):
        emulator = AutonomousEmulator(
            counter, "mask_scan", campaign_cycles=16, campaign_faults=64
        )
        summary = emulator.synthesize(16, 64)
        assert summary.system.luts == summary.modified.luts + summary.controller.luts
        assert summary.system.ffs == summary.modified.ffs + summary.controller.ffs

    def test_synthesize_describe(self, counter):
        emulator = AutonomousEmulator(
            counter, "state_scan", campaign_cycles=16, campaign_faults=64
        )
        text = emulator.synthesize(16, 64).describe()
        assert "state_scan" in text and "LUTs" in text

    def test_run_campaign_through_facade(self, counter):
        bench = random_testbench(counter, 12, seed=3)
        emulator = AutonomousEmulator(counter, "time_multiplexed")
        result = emulator.run_campaign(bench)
        assert result.num_faults == counter.num_ffs * 12

    def test_instrumented_cached(self, counter):
        emulator = AutonomousEmulator(counter, "mask_scan")
        assert emulator.instrumented is emulator.instrumented


class TestMergedSystem:
    @pytest.mark.parametrize(
        "technique", ["mask_scan", "state_scan", "time_multiplexed"]
    )
    def test_merged_netlist_is_valid_and_compilable(self, counter, technique):
        emulator = AutonomousEmulator(
            counter, technique, campaign_cycles=16, campaign_faults=64
        )
        merged = emulator.merged_system_netlist(16, 64)
        validate_netlist(merged, allow_dangling=True)
        compiled = compile_netlist(merged)
        assert compiled.num_flops == (
            emulator.instrumented.netlist.num_ffs
            + emulator.controller_netlist(16, 64).num_ffs
        )

    @pytest.mark.parametrize("technique", TECHNIQUES)
    @pytest.mark.parametrize("name", available_circuits() + ["toggle"])
    def test_every_registered_circuit_merges(self, name, technique):
        """Single-output circuits (b02, b09) have a bare ``obs`` port and
        one-flop circuits (toggle) a bare ``circ_state``: both must be
        driven by the circuit, not left system inputs."""
        circuit = build_toggle() if name == "toggle" else build_circuit(name)
        merged = AutonomousEmulator(circuit, technique).merged_system_netlist()
        validate_netlist(merged, allow_dangling=True)
        compile_netlist(merged)
        assert all(
            net.startswith(("ctl.start", "ctl.ram_rdata")) for net in merged.inputs
        )

    def test_merged_boundary_is_ram_and_handshake(self, counter):
        emulator = AutonomousEmulator(
            counter, "mask_scan", campaign_cycles=16, campaign_faults=64
        )
        merged = emulator.merged_system_netlist(16, 64)
        # primary inputs: only start + RAM read data (the autonomous claim)
        assert all(
            net.startswith(("ctl.start", "ctl.ram_rdata")) for net in merged.inputs
        )

    def test_merged_system_clocks_without_error(self, counter):
        emulator = AutonomousEmulator(
            counter, "time_multiplexed", campaign_cycles=16, campaign_faults=64
        )
        merged = emulator.merged_system_netlist(16, 64)
        from repro.sim.cycle import CycleSimulator

        sim = CycleSimulator(merged)
        start_bit = merged.inputs.index("ctl.start")
        for cycle in range(20):
            sim.step(1 << start_bit if cycle == 0 else 0)
        # the controller's cycle counter must have advanced
        assert sim.get_state() != 0
