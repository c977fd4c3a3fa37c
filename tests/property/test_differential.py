"""Differential grading over seeded random netlists.

The library's core correctness claim: for *any* netlist, fault model and
fault, the fused, numpy and bigint engines produce bit-identical
(fail_cycle, vanish_cycle) verdicts — and agree with the scalar
reference replay. This suite drives that claim over the random-netlist
generator, plain and under every hardening transform, for every fault
model family (seu, mbu:2, stuck_at_0/1, intermittent). The golden trace
the native kernel computes is held to the scalar ``run_golden`` the
same way, over every registered circuit and testbench kind.
"""

import pytest

from repro.circuits.itc99.b14 import b14_program_testbench
from repro.circuits.registry import available_circuits, build_circuit
from repro.faults.models import get_fault_model
from repro.hardening import apply_hardening, available_schemes
from repro.sim import cache
from repro.sim.backends._native import native_kernel
from repro.sim.backends.fused import golden_trace
from repro.sim.compile import compile_netlist
from repro.sim.cycle import replay_fault, run_golden
from repro.sim.parallel import grade_faults
from repro.sim.vectors import (
    burst_testbench,
    constant_testbench,
    random_testbench,
    walking_ones_testbench,
)

from tests.property.randnet import random_netlist

ENGINES = ("fused", "numpy", "bigint")
MODELS = ("seu", "mbu:2", "stuck_at_0", "stuck_at_1", "intermittent")
CYCLES = 20


def _population(netlist, model_name, stride=1):
    model = get_fault_model(model_name)
    faults = model.population(netlist, CYCLES)
    return faults[::stride]


def _verdicts(netlist, bench, faults, engine):
    result = grade_faults(netlist, bench, faults, backend=engine)
    return list(zip(result.fail_cycles, result.vanish_cycles))


class TestPlainNetlists:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("model_name", MODELS)
    def test_engines_bit_exact(self, seed, model_name):
        netlist = random_netlist(seed)
        bench = random_testbench(netlist, CYCLES, seed=seed)
        faults = _population(netlist, model_name)
        reference = _verdicts(netlist, bench, faults, ENGINES[0])
        for engine in ENGINES[1:]:
            assert _verdicts(netlist, bench, faults, engine) == reference, (
                f"{engine} disagrees with {ENGINES[0]} on seed={seed}, "
                f"model={model_name}"
            )

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("model_name", ("seu", "stuck_at_1", "intermittent"))
    def test_engines_match_serial_replay(self, seed, model_name):
        """The bit-parallel verdicts equal the one-fault-at-a-time
        scalar reference, fault by fault."""
        netlist = random_netlist(seed)
        bench = random_testbench(netlist, CYCLES, seed=seed)
        faults = _population(netlist, model_name, stride=5)
        golden = run_golden(netlist, bench)
        graded = _verdicts(netlist, bench, faults, "fused")
        for fault, (fail_cycle, vanish_cycle) in zip(faults, graded):
            replayed = replay_fault(netlist, bench, fault, golden=golden)
            assert (fail_cycle, vanish_cycle) == (
                replayed["fail_cycle"],
                replayed["vanish_cycle"],
            ), f"seed={seed}, model={model_name}, fault={fault.describe()}"


class TestHardenedNetlists:
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("scheme", sorted(available_schemes()))
    @pytest.mark.parametrize("model_name", ("seu", "mbu:2", "stuck_at_0"))
    def test_engines_bit_exact_on_hardened(self, seed, scheme, model_name):
        netlist = apply_hardening(scheme, random_netlist(100 + seed))
        bench = random_testbench(netlist, CYCLES, seed=seed)
        faults = _population(netlist, model_name, stride=3)
        reference = _verdicts(netlist, bench, faults, ENGINES[0])
        for engine in ENGINES[1:]:
            assert _verdicts(netlist, bench, faults, engine) == reference, (
                f"{engine} disagrees on seed={seed}, scheme={scheme}, "
                f"model={model_name}"
            )

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("scheme", sorted(available_schemes()))
    def test_hardened_golden_run_matches_plain(self, seed, scheme):
        """Hardening never changes the fault-free function: the original
        output bits agree cycle by cycle."""
        plain = random_netlist(100 + seed)
        hardened = apply_hardening(scheme, plain)
        bench = random_testbench(plain, CYCLES, seed=seed)
        plain_outputs = run_golden(plain, bench).outputs
        hardened_outputs = run_golden(hardened, bench).outputs
        original = (1 << len(plain.outputs)) - 1
        assert [word & original for word in hardened_outputs] == plain_outputs

    @pytest.mark.parametrize("seed", range(2))
    def test_tmr_masks_random_netlists(self, seed):
        """TMR's masking claim holds beyond the ITC benchmarks: on any
        random netlist, the complete single-fault set is failure-free."""
        netlist = apply_hardening("tmr", random_netlist(200 + seed))
        bench = random_testbench(netlist, CYCLES, seed=seed)
        faults = _population(netlist, "seu")
        result = grade_faults(netlist, bench, faults)
        assert all(cycle == -1 for cycle in result.fail_cycles)
        assert all(cycle != -1 for cycle in result.vanish_cycles)


GOLDEN_CIRCUITS = available_circuits() + [
    "proc:64",
    "hardened:tmr:b04",
    "hardened:parity:b04",
    "corpus:c17",  # no flops
]
#: (num_cycles, seed) per bench; seedless kinds run each length once
GOLDEN_RUNS = ((1, 0), (40, 0), (40, 1), (40, 2))
BENCHES = {
    "random": lambda net, cycles, seed: random_testbench(net, cycles, seed=seed),
    "burst": lambda net, cycles, seed: burst_testbench(net, cycles, seed=seed),
    "walking_ones": lambda net, cycles, seed: walking_ones_testbench(net, cycles),
    "constant": lambda net, cycles, seed: constant_testbench(
        net, cycles, value=(1 << len(net.inputs)) - 1
    ),
    "program": lambda net, cycles, seed: b14_program_testbench(
        net, cycles, seed=seed
    ),
}
SEEDLESS = ("walking_ones", "constant")


def _golden_cases():
    for name in GOLDEN_CIRCUITS:
        for kind in BENCHES:
            if kind != "program" or name == "b14":  # b14's own stimulus
                yield name, kind


@pytest.mark.skipif(native_kernel() is None, reason="native kernel unavailable")
class TestKernelGolden:
    @pytest.mark.parametrize("name,kind", list(_golden_cases()))
    def test_matches_run_golden(self, name, kind):
        netlist = build_circuit(name)
        compiled = compile_netlist(netlist)
        for cycles, seed in GOLDEN_RUNS:
            if seed and kind in SEEDLESS:
                continue
            bench = BENCHES[kind](netlist, cycles, seed)
            kernel = golden_trace(compiled, bench)
            scalar = run_golden(compiled, bench)
            assert (kernel.num_cycles, kernel.outputs, kernel.states) == (
                scalar.num_cycles,
                scalar.outputs,
                scalar.states,
            ), f"{name}/{kind}: cycles={cycles}, seed={seed}"

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_run_golden_on_random_netlists(self, seed):
        netlist = random_netlist(seed)
        bench = random_testbench(netlist, CYCLES, seed=seed)
        kernel = golden_trace(compile_netlist(netlist), bench)
        scalar = run_golden(netlist, bench)
        assert (kernel.outputs, kernel.states) == (scalar.outputs, scalar.states)

    def test_golden_for_uses_the_kernel(self, monkeypatch):
        monkeypatch.setattr(cache, "run_golden", _forbidden)
        netlist = random_netlist(7)
        bench = random_testbench(netlist, CYCLES, seed=7)
        cache.clear_caches()
        golden = cache.golden_for(compile_netlist(netlist), bench)
        assert golden.states == run_golden(netlist, bench).states


def _forbidden(*args):
    raise AssertionError("run_golden called")


def test_golden_for_falls_back_to_run_golden_without_kernel(monkeypatch):
    """With the kernel off (``REPRO_FUSED_NATIVE=0``) the golden comes
    from the scalar reference simulator."""
    monkeypatch.setattr("repro.sim.backends.fused.native_kernel", lambda: None)
    calls = []

    def spy(*args):
        calls.append(args)
        return run_golden(*args)

    monkeypatch.setattr(cache, "run_golden", spy)
    netlist = random_netlist(8)
    compiled = compile_netlist(netlist)
    bench = random_testbench(netlist, CYCLES, seed=8)
    assert golden_trace(compiled, bench) is None
    cache.clear_caches()
    golden = cache.golden_for(compiled, bench)
    assert calls == [(compiled, bench)]
    assert golden.outputs == run_golden(netlist, bench).outputs


def test_generator_is_deterministic():
    from repro.netlist.textio import dumps_netlist

    assert dumps_netlist(random_netlist(42)) == dumps_netlist(random_netlist(42))


def test_generator_meets_floor():
    for seed in range(10):
        netlist = random_netlist(seed)
        assert netlist.num_ffs >= 2  # mbu:2 needs two flops
        assert netlist.outputs
