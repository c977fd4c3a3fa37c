"""Differential tests for the vectorized native kernel.

The fused engine's C kernel is multi-word: fault populations wider
than 64 lanes span several uint64 words per flop row, and dead lanes
are compacted away mid-campaign. Both paths must be bit-exact against
the pure-Python engines — these tests force each of them on random
netlists whose populations genuinely exceed one word.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.faults.model import exhaustive_fault_list
from repro.faults.sampling import sample_fault_list
from repro.netlist.builder import NetlistBuilder
from repro.run.spec import CampaignSpec
from repro.run.worker import window_slice
from repro.sim.backends import get_engine
from repro.sim.backends._native import native_kernel
from repro.sim.compile import compile_netlist
from repro.sim.cycle import run_golden
from repro.sim.parallel import grade_faults
from repro.sim.vectors import random_testbench
from tests.property.randnet import random_netlist

pytestmark = pytest.mark.skipif(
    native_kernel() is None,
    reason="native kernel unavailable (no C compiler or REPRO_FUSED_NATIVE=0)",
)


def _wide_scenario(seed: int):
    """A random circuit whose fault population spans many lane words.

    65+ flops x 40 cycles puts thousands of faults in flight, so the
    kernel runs multi-word rows and triggers mid-campaign lane
    compaction.
    """
    netlist = random_netlist(
        seed, min_flops=65, max_flops=96, max_gates=220, max_inputs=6
    )
    bench = random_testbench(netlist, 40, seed=1000 + seed)
    faults = exhaustive_fault_list(netlist, bench.num_cycles)
    assert len(faults) > 64  # must exceed one 64-lane word
    return netlist, bench, faults


@pytest.mark.parametrize("seed", range(4))
def test_wide_population_bit_exact_vs_python_engines(seed):
    netlist, bench, faults = _wide_scenario(seed)
    fused = grade_faults(netlist, bench, faults, backend="fused")
    stats = get_engine("fused").last_stats
    assert stats.get("native"), "wide scenario must run the native kernel"
    for reference_backend in ("numpy", "bigint"):
        reference = grade_faults(
            netlist, bench, faults, backend=reference_backend
        )
        assert list(fused.fail_cycles) == list(reference.fail_cycles), reference_backend
        assert list(fused.vanish_cycles) == list(reference.vanish_cycles), reference_backend


def test_every_call_runs_on_the_callers_thread():
    """The kernel has no width to set: ``threads`` is the constant 1 that
    benchmark fingerprints record, and a grade reports no width."""
    kernel = native_kernel()
    if kernel is None:
        pytest.skip("native kernel unavailable")
    assert kernel.threads == 1
    assert not hasattr(kernel, "set_threads")
    netlist, bench, faults = _wide_scenario(5)
    stats = _fused_matches_bigint(netlist, bench, faults)
    assert stats["native"] is True
    assert "threads" not in stats


def test_compaction_reported_and_exact_on_b14_sample():
    """A campaign long enough to retire lanes mid-flight compacts them
    (visible in last_stats) without perturbing a single verdict."""
    netlist = random_netlist(
        11, min_flops=70, max_flops=90, max_gates=200, max_inputs=5
    )
    bench = random_testbench(netlist, 64, seed=77)
    faults = exhaustive_fault_list(netlist, bench.num_cycles)
    fused = grade_faults(netlist, bench, faults, backend="fused")
    stats = get_engine("fused").last_stats
    assert stats.get("native")
    assert stats["repacks"] > 0
    for reference_backend in ("numpy", "bigint"):
        reference = grade_faults(
            netlist, bench, faults, backend=reference_backend
        )
        assert list(fused.fail_cycles) == list(reference.fail_cycles)
        assert list(fused.vanish_cycles) == list(reference.vanish_cycles)


def _fused_matches_bigint(netlist, bench, faults) -> dict:
    """Grade ``faults`` with both engines; returns the fused stats."""
    fused = grade_faults(netlist, bench, faults, backend="fused")
    stats = dict(get_engine("fused").last_stats)
    assert stats.get("native")
    reference = grade_faults(netlist, bench, faults, backend="bigint")
    assert fused.outcome_digest() == reference.outcome_digest()
    return stats


def test_every_fault_injected_on_the_last_cycle():
    netlist, bench, faults = _wide_scenario(8)
    last = faults.take(np.flatnonzero(faults.cycles == bench.num_cycles - 1))
    assert len(last) > 64
    stats = _fused_matches_bigint(netlist, bench, last)
    assert stats["cycles_executed"] == bench.num_cycles


@pytest.mark.parametrize("count", [64, 65, 640, 641])
def test_populations_at_and_past_a_word_boundary(count):
    netlist, bench, faults = _wide_scenario(9)
    _fused_matches_bigint(
        netlist, bench, sample_fault_list(faults, count, seed=count)
    )


def _pipelines(lanes: int = 12, depth: int = 8):
    """Shift registers loaded from the inputs every cycle: each flip is
    shifted out within ``depth`` cycles, and an AND with an input masks
    some of them at the outputs."""
    builder = NetlistBuilder("pipelines")
    data = builder.inputs("in", 4)
    for lane in range(lanes):
        q = builder.xor_(data[lane % 4], data[(lane + 1) % 4])
        for stage in range(depth):
            q = builder.dff(q, q=f"p{lane}_{stage}")
        builder.output_net(f"out{lane}", builder.and_(q, data[lane % 4]))
    return builder.build()


def test_converged_population_exits_before_the_bench_ends():
    netlist = _pipelines()
    bench = random_testbench(netlist, 40, seed=40)
    faults = exhaustive_fault_list(netlist, bench.num_cycles)
    early = faults.take(np.flatnonzero(faults.cycles < 20))
    stats = _fused_matches_bigint(netlist, bench, early)
    assert stats["repacks"] > 0
    assert stats["cycles_executed"] < bench.num_cycles


def test_b14_shard_window_matches_bigint():
    scenario = CampaignSpec("b14", "time_multiplexed").scenario()
    lo, hi = window_slice(scenario.faults, 0, 40)
    _fused_matches_bigint(
        scenario.netlist, scenario.testbench, scenario.faults[lo:hi]
    )


def test_short_golden_is_rejected_before_the_kernel_runs():
    """The kernel reads golden rows by raw address, so a trace shorter
    than the testbench must be refused, not read past its end."""
    netlist = random_netlist(3)
    bench = random_testbench(netlist, 12, seed=3)
    compiled = compile_netlist(netlist)
    golden = run_golden(compiled, random_testbench(netlist, 11, seed=3))
    faults = exhaustive_fault_list(netlist, bench.num_cycles)
    with pytest.raises(SimulationError, match="shorter than the testbench"):
        get_engine("fused").grade(compiled, bench, faults, golden)
