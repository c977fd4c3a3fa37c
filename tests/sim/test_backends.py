"""Cross-engine equivalence and behaviour of the grading backends.

The fused engine is the default oracle, so it gets adversarial coverage:
property-style randomized cross-checks of every registered engine (and
the fused engine's no-kernel fallback) against the bigint reference and
the serial replay, plus regression tests for the early exit and the session caches.
"""

import random

import pytest

from repro.faults.model import SeuFault, exhaustive_fault_list
from repro.netlist.builder import NetlistBuilder
from repro.sim.backends import available_engines, get_engine
from repro.sim.cache import compiled_for, golden_for
from repro.sim.cycle import replay_fault, run_golden
from repro.sim.parallel import grade_faults
from repro.sim.vectors import constant_testbench, random_testbench
from tests.conftest import build_shift_register


def random_netlist(rng: random.Random):
    """A random feed-forward synchronous circuit.

    Gates only consume already-available nets, so the result is always
    loop-free; flop D inputs and primary outputs are wired up at the end
    from the full net pool.
    """
    builder = NetlistBuilder(f"rand{rng.randrange(1 << 30)}")
    num_inputs = rng.randint(1, 3)
    num_flops = rng.randint(2, 6)
    inputs = [builder.input(f"in{i}") for i in range(num_inputs)]
    d_nets = [builder.netlist.fresh_net(f"d{i}") for i in range(num_flops)]
    q_nets = [
        builder.dff(d_nets[i], q=f"q{i}", init=rng.randint(0, 1), name=f"ff{i}")
        for i in range(num_flops)
    ]
    pool = inputs + q_nets
    for _ in range(rng.randint(3, 14)):
        kind = rng.choice(
            ["and", "or", "xor", "nand", "nor", "inv", "buf", "mux", "xnor"]
        )
        if kind == "inv":
            net = builder.inv(rng.choice(pool))
        elif kind == "buf":
            net = builder.buf(rng.choice(pool))
        elif kind == "mux":
            net = builder.mux(
                rng.choice(pool), rng.choice(pool), rng.choice(pool)
            )
        elif kind == "xnor":
            net = builder.xnor_(rng.choice(pool), rng.choice(pool))
        else:
            arity = rng.randint(2, 4)
            nets = [rng.choice(pool) for _ in range(arity)]
            net = getattr(builder, kind + "_")(*nets)
        pool.append(net)
    for d_net in d_nets:
        builder.buf(rng.choice(pool), out=d_net)
    for index in range(rng.randint(1, 3)):
        builder.output_net(f"out{index}", rng.choice(pool))
    return builder.build(allow_dangling=True)


def random_fault_list(rng: random.Random, num_flops: int, num_cycles: int):
    """Random faults: arbitrary order, duplicates allowed."""
    count = rng.randint(1, 80)
    return [
        SeuFault(
            cycle=rng.randrange(num_cycles), flop_index=rng.randrange(num_flops)
        )
        for _ in range(count)
    ]


class TestEngineRegistry:
    def test_builtin_engines_registered(self):
        names = available_engines()
        assert {"bigint", "fused", "numpy"} <= set(names)

    def test_get_engine_unknown_name(self):
        from repro.errors import CampaignError

        with pytest.raises(CampaignError, match="backend"):
            get_engine("quantum")

    def test_engines_are_singletons(self):
        assert get_engine("fused") is get_engine("fused")


class TestPropertyCrossCheck:
    """Random circuits x random fault lists: every engine must agree."""

    @pytest.mark.parametrize("seed", range(12))
    def test_all_engines_agree_with_bigint(self, seed):
        rng = random.Random(1000 + seed)
        circuit = random_netlist(rng)
        num_cycles = rng.randint(4, 24)
        bench = random_testbench(circuit, num_cycles, seed=seed)
        faults = random_fault_list(rng, circuit.num_ffs, num_cycles)

        reference = grade_faults(circuit, bench, faults, backend="bigint")
        for name in available_engines():
            result = grade_faults(circuit, bench, faults, backend=name)
            assert list(result.fail_cycles) == list(reference.fail_cycles), (name, seed)
            assert list(result.vanish_cycles) == list(reference.vanish_cycles), (name, seed)

    @pytest.mark.parametrize("seed", range(6))
    def test_fused_python_plan_agrees(self, seed, monkeypatch):
        """Without the kernel, fused delegates to the numpy engine and
        must still match the native result."""
        rng = random.Random(4000 + seed)
        circuit = random_netlist(rng)
        num_cycles = rng.randint(4, 20)
        bench = random_testbench(circuit, num_cycles, seed=seed)
        faults = random_fault_list(rng, circuit.num_ffs, num_cycles)

        native = grade_faults(circuit, bench, faults, backend="fused")
        monkeypatch.setattr(
            "repro.sim.backends.fused.native_kernel", lambda: None
        )
        fallback = grade_faults(circuit, bench, faults, backend="fused")
        assert get_engine("fused").last_stats["native"] is False
        assert list(fallback.fail_cycles) == list(native.fail_cycles)
        assert list(fallback.vanish_cycles) == list(native.vanish_cycles)

    @pytest.mark.parametrize("seed", range(4))
    def test_fused_agrees_with_serial_replay(self, seed):
        rng = random.Random(2000 + seed)
        circuit = random_netlist(rng)
        num_cycles = rng.randint(4, 16)
        bench = random_testbench(circuit, num_cycles, seed=seed)
        faults = random_fault_list(rng, circuit.num_ffs, num_cycles)

        oracle = grade_faults(circuit, bench, faults, backend="fused")
        golden = run_golden(circuit, bench)
        for index, fault in enumerate(faults):
            reference = replay_fault(circuit, bench, fault, golden)
            assert oracle.fail_cycles[index] == reference["fail_cycle"], fault
            assert oracle.vanish_cycles[index] == reference["vanish_cycle"], fault

    def test_word_boundary_lane_counts(self):
        # 63, 64, 65 and 130 faults straddle uint64 word boundaries
        rng = random.Random(77)
        circuit = random_netlist(rng)
        bench = random_testbench(circuit, 12, seed=3)
        base = exhaustive_fault_list(circuit, 12)
        for count in (1, 63, 64, 65, min(130, len(base))):
            faults = base[:count]
            fused = grade_faults(circuit, bench, faults, backend="fused")
            bigint = grade_faults(circuit, bench, faults, backend="bigint")
            assert list(fused.fail_cycles) == list(bigint.fail_cycles), count
            assert list(fused.vanish_cycles) == list(bigint.vanish_cycles), count


class TestEarlyExit:
    def test_fused_stops_once_all_faults_vanish(self):
        # Shift-register faults wash out after `depth` shifts; with a
        # 200-cycle bench the engine must stop within the first dozen
        # cycles instead of simulating the tail.
        depth = 4
        shift = build_shift_register(depth)
        bench = constant_testbench(shift, 200, value=0)
        faults = [
            SeuFault(cycle=cycle, flop_index=flop)
            for cycle in range(3)
            for flop in range(depth)
        ]
        engine = get_engine("fused")
        fused = grade_faults(shift, bench, faults, backend="fused")
        stats = engine.last_stats
        if stats["native"]:  # the no-kernel bigint fallback runs every cycle
            assert stats["cycles_executed"] < 12
        assert stats["num_cycles"] == 200
        # correctness is unaffected by the early exit
        bigint = grade_faults(shift, bench, faults, backend="bigint")
        assert list(fused.fail_cycles) == list(bigint.fail_cycles)
        assert list(fused.vanish_cycles) == list(bigint.vanish_cycles)
        assert all(cycle != -1 for cycle in fused.vanish_cycles)

    def test_no_early_exit_for_persistent_faults(self, counter, counter_bench):
        # counter corruption persists: the loop must run the whole bench
        faults = exhaustive_fault_list(counter, counter_bench.num_cycles)
        engine = get_engine("fused")
        grade_faults(counter, counter_bench, faults, backend="fused")
        assert (
            engine.last_stats["cycles_executed"]
            == counter_bench.num_cycles
        )


class TestSessionCaches:
    def test_golden_trace_shared_between_grades(self, counter, counter_bench):
        faults = exhaustive_fault_list(counter, counter_bench.num_cycles)
        first = grade_faults(counter, counter_bench, faults)
        second = grade_faults(counter, counter_bench, faults, backend="bigint")
        assert first.golden is second.golden

    def test_compiled_netlist_cached(self, counter):
        assert compiled_for(counter) is compiled_for(counter)

    def test_golden_cache_distinguishes_testbenches(self, counter):
        bench_a = random_testbench(counter, 10, seed=1)
        bench_b = random_testbench(counter, 10, seed=2)
        compiled = compiled_for(counter)
        assert golden_for(compiled, bench_a) is not golden_for(compiled, bench_b)
        assert golden_for(compiled, bench_a) is golden_for(compiled, bench_a)

    def test_dictionary_memoized_on_result(self, counter, counter_bench):
        faults = exhaustive_fault_list(counter, counter_bench.num_cycles)
        oracle = grade_faults(counter, counter_bench, faults)
        assert oracle.to_dictionary() is oracle.to_dictionary()
