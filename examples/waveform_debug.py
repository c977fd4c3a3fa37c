#!/usr/bin/env python3
"""Debugging a single fault with the cycle simulator and VCD waveforms.

Fault grading tells you *that* an upset fails; debugging asks *how* the
corruption propagated. This example picks the failing fault of the b01
comparator that stays hidden longest (the most cycles from the upset to
the first wrong output), replays it on the cycle simulator with a
waveform recorder sampling every net, and writes a GTKWave-compatible
VCD file of the propagation.

Run:  python examples/waveform_debug.py  [output.vcd]
"""

import sys

from repro import build_circuit, grade_faults, random_testbench
from repro.faults.classify import FaultClass
from repro.faults.model import exhaustive_fault_list
from repro.sim.cycle import CycleSimulator
from repro.sim.waves import VcdRecorder


def main():
    out_path = sys.argv[1] if len(sys.argv) > 1 else "b01_fault.vcd"
    circuit = build_circuit("b01")
    bench = random_testbench(circuit, 48, seed=5)
    faults = exhaustive_fault_list(circuit, bench.num_cycles)
    graded = grade_faults(circuit, bench, faults)
    target = max(
        (record for record in graded.to_dictionary()
         if record.verdict is FaultClass.FAILURE),
        key=lambda record: record.fail_cycle - record.fault.cycle,
    )
    fault = target.fault
    print(f"replaying {fault.describe()} "
          f"(fails at cycle {target.fail_cycle}) on the cycle simulator")

    simulator = CycleSimulator(circuit)
    recorder = VcdRecorder(simulator)
    for cycle, vector in enumerate(bench.vectors):
        if cycle == fault.cycle:
            simulator.flip_flop_bit(fault.flop_index)  # the SEU
        simulator.step(vector)
        recorder.sample()

    recorder.write(out_path)
    print(f"wrote {out_path} ({bench.num_cycles} cycles); "
          "open it in GTKWave to follow the corruption.")


if __name__ == "__main__":
    main()
