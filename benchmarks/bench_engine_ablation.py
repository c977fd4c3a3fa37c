"""Ablation benches for the design choices DESIGN.md calls out.

Not a paper table — these quantify the substrate decisions of this
reproduction: the bit-parallel oracle vs the bigint backend vs serial
replay, and LUT-mapper throughput. They justify why campaigns of paper
scale run in seconds in pure Python.
"""

import pytest

from benchmarks.conftest import once
from repro.faults.sampling import sample_fault_list
from repro.sim.compile import compile_netlist
from repro.sim.cycle import CycleSimulator, replay_fault, run_golden
from repro.sim.parallel import grade_faults
from repro.synth.lutmap import map_to_luts


def test_bench_engine_numpy(benchmark, b14, b14_bench, b14_faults):
    """34,400 faults, numpy engine — the fused engine's no-kernel fallback."""
    result = once(benchmark, grade_faults, b14, b14_bench, b14_faults, "numpy")
    assert result.num_faults == len(b14_faults)


def test_bench_engine_bigint_sample(benchmark, b14, b14_bench, b14_faults):
    """Bigint backend over a 2,048-fault sample (dependency-free path)."""
    sample = sample_fault_list(b14_faults, 2048, seed=3)
    result = once(benchmark, grade_faults, b14, b14_bench, sample, "bigint")
    assert result.num_faults == 2048


def test_bench_serial_replay_sample(benchmark, b14, b14_bench, b14_faults):
    """Serial replay over 16 faults — the per-fault cost that makes
    unaccelerated software fault simulation slow."""
    sample = sample_fault_list(b14_faults, 16, seed=4)
    compiled = compile_netlist(b14)
    golden = run_golden(compiled, b14_bench)

    def replay_all():
        for fault in sample:
            replay_fault(compiled, b14_bench, fault, golden)

    once(benchmark, replay_all)


def test_bench_golden_run(benchmark, b14, b14_bench):
    """One 160-cycle golden run of b14 on the compiled simulator."""
    compiled = compile_netlist(b14)

    def golden():
        return CycleSimulator(compiled).run(b14_bench)

    outputs = once(benchmark, golden)
    assert len(outputs) == b14_bench.num_cycles


def test_bench_lut_mapping_b14(benchmark, b14):
    """Priority-cuts 4-LUT mapping of the 1,700-gate b14."""
    mapping = once(benchmark, map_to_luts, b14)
    assert mapping.num_luts > 0


@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_bench_lut_k_sweep(benchmark, b14, k):
    """Mapper ablation: LUT count vs LUT input size."""
    mapping = once(benchmark, map_to_luts, b14, k)
    print(f"\nk={k}: {mapping.num_luts} LUTs, depth {mapping.depth}")
    assert all(len(cut) <= k for cut in mapping.luts.values())
