"""Netlist simulation.

* :mod:`repro.sim.compile` — levelize a netlist into a flat op program.
* :mod:`repro.sim.cycle` — the scalar cycle-based simulator (golden runs,
  the serial reference replay of any fault model, waveforms).
* :mod:`repro.sim.parallel` — bit-parallel fault simulator: the functional
  oracle for fault grading (64 faults per machine word).
* :mod:`repro.sim.backends` — pluggable grading engines behind the oracle:
  ``fused`` (batched kernels + early exit, the default), ``numpy`` and
  ``bigint``.
* :mod:`repro.sim.cache` — session caches for compiled netlists and
  golden traces.
* :mod:`repro.sim.vectors` — testbench/stimulus containers and generators.
* :mod:`repro.sim.waves` — VCD waveform export from the cycle simulator.
"""

from repro.sim.backends import GradingEngine, available_engines, get_engine
from repro.sim.cache import clear_caches, compiled_for, golden_for
from repro.sim.compile import CompiledNetlist, compile_netlist
from repro.sim.cycle import CycleSimulator, GoldenTrace, run_golden
from repro.sim.parallel import DEFAULT_BACKEND, FaultGradingResult, grade_faults
from repro.sim.vectors import Testbench, random_testbench

__all__ = [
    "CompiledNetlist",
    "CycleSimulator",
    "DEFAULT_BACKEND",
    "FaultGradingResult",
    "GoldenTrace",
    "GradingEngine",
    "Testbench",
    "available_engines",
    "clear_caches",
    "compile_netlist",
    "compiled_for",
    "get_engine",
    "golden_for",
    "grade_faults",
    "random_testbench",
    "run_golden",
]
