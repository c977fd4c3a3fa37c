"""Hardware-protocol vs oracle agreement — the library's keystone tests.

For every technique, drive the *instrumented netlist itself* through the
full injection protocol (mask programming, state scan-in, phase
interleaving...) and require that the verdict observed at the hardware
level equals the functional oracle's prediction for every fault. This
closes the loop: instrumentation transforms, protocol drivers and the
bit-parallel oracle are three independent implementations of the same
semantics.
"""

import pytest

from repro.emu.instrument import instrument_circuit
from repro.emu.protocol import (
    _Driver,
    drive_mask_scan,
    drive_state_scan,
    drive_time_mux,
)
from repro.faults.model import exhaustive_fault_list
from repro.sim.parallel import grade_faults
from repro.sim.vectors import random_testbench
from tests.conftest import build_counter, build_shift_register, build_sticky

DRIVERS = {
    "mask_scan": drive_mask_scan,
    "state_scan": drive_state_scan,
    "time_multiplexed": drive_time_mux,
}

CIRCUITS = {
    "counter": build_counter,
    "shift": build_shift_register,
    "sticky": build_sticky,
}


@pytest.mark.parametrize("technique", sorted(DRIVERS))
@pytest.mark.parametrize("circuit_name", sorted(CIRCUITS))
def test_protocol_verdicts_match_oracle(technique, circuit_name):
    circuit = CIRCUITS[circuit_name]()
    cycles = 14
    bench = random_testbench(circuit, cycles, seed=21)
    faults = exhaustive_fault_list(circuit, cycles)
    oracle = grade_faults(circuit, bench, faults)

    instrumented = instrument_circuit(circuit, technique)
    driver = _Driver(instrumented, bench)
    drive = DRIVERS[technique]

    for index, fault in enumerate(faults):
        outcome = drive(instrumented, bench, fault, driver=driver)
        assert outcome.verdict is oracle.verdict(index), (
            f"{technique} on {circuit_name}: {fault.describe()} -> "
            f"hardware {outcome.verdict}, oracle {oracle.verdict(index)}"
        )


@pytest.mark.parametrize("technique", sorted(DRIVERS))
def test_protocol_failure_cycles_match_oracle(technique):
    circuit = build_shift_register(5)
    bench = random_testbench(circuit, 12, seed=3)
    faults = exhaustive_fault_list(circuit, 12)
    oracle = grade_faults(circuit, bench, faults)
    instrumented = instrument_circuit(circuit, technique)
    driver = _Driver(instrumented, bench)
    for index, fault in enumerate(faults):
        if oracle.fail_cycles[index] == -1:
            continue
        outcome = DRIVERS[technique](instrumented, bench, fault, driver=driver)
        assert outcome.fail_cycle == oracle.fail_cycles[index], fault.describe()


def test_time_mux_stops_early_on_silent_faults():
    """The defining property: time-mux classifies a silent fault the
    moment its effect disappears, not at testbench end. The sticky
    latch masks a flip whenever ``trigger`` re-sets it, so some faults
    go silent within a few cycles."""
    circuit = build_sticky()
    cycles = 40
    bench = random_testbench(circuit, cycles, seed=21)
    faults = exhaustive_fault_list(circuit, cycles)
    oracle = grade_faults(circuit, bench, faults)
    instrumented = instrument_circuit(circuit, "time_multiplexed")
    driver = _Driver(instrumented, bench)

    # pick an early-injected fault that vanishes quickly
    chosen = None
    for index, fault in enumerate(faults):
        vanish = oracle.vanish_cycles[index]
        if (
            fault.cycle < 5
            and oracle.fail_cycles[index] == -1
            and vanish != -1
            and vanish - fault.cycle <= 4
        ):
            chosen = (index, fault)
            break
    assert chosen is not None, "no early-vanishing silent fault"
    index, fault = chosen
    outcome = drive_time_mux(instrumented, bench, fault, driver=driver)
    # protocol cost must be far below a full 2x-testbench interleave
    assert outcome.emulation_cycles < cycles
