"""Cross-engine equivalence for the non-SEU fault models.

Every grading engine must agree with the bigint reference and with the
serial generalized replay for every fault model — the same adversarial
structure PR 1 established for SEUs, extended to multi-bit, stuck-at and
intermittent injection. Also locks the native grade's contract: every
model is one kernel call, transient models (SEU, MBU) retire, repack and
early-exit, persistent ones run every lane through the whole bench.
"""

import random

import pytest

from repro.circuits.itc99.b14 import b14_program_testbench, build_b14
from repro.faults.model import SeuFault
from repro.faults.models import get_fault_model
from repro.faults.sampling import sample_fault_list
from repro.sim.backends import available_engines, get_engine
from repro.sim.backends._native import native_kernel
from repro.sim.cycle import replay_fault, run_golden
from repro.sim.inject import schedule_for
from repro.sim.parallel import grade_faults
from repro.sim.vectors import constant_testbench, random_testbench
from tests.conftest import build_counter, build_shift_register
from tests.sim.test_backends import random_netlist

MODELS = ["mbu:2", "mbu:3", "stuck_at_0", "stuck_at_1", "intermittent:4:2"]


def model_fault_sample(model_name, circuit, num_cycles, rng, count=70):
    population = get_fault_model(model_name).population(circuit, num_cycles)
    return [population[rng.randrange(len(population))] for _ in range(count)]


class TestScheduleFor:
    def test_seu_lists_flip_once_per_fault(self):
        from repro.faults.model import FLIP

        faults = [SeuFault(cycle=3, flop_index=2), SeuFault(cycle=1, flop_index=0)]
        schedule = schedule_for(faults, 8, 4)
        assert not schedule.persistent
        assert list(schedule.op) == [FLIP, FLIP]
        for lane, fault in enumerate(faults):
            rows = schedule.events(fault.cycle)
            assert list(schedule.lane[rows]) == [lane]
            assert list(schedule.flop[rows]) == [fault.flop_index]
        assert len(schedule_for([], 8, 4).op) == 0

    def test_mbu_is_transient(self):
        from repro.faults.model import FLIP

        faults = get_fault_model("mbu:2").population(build_counter(), 4)[:5]
        schedule = schedule_for(faults, 4, build_counter().num_ffs)
        assert not schedule.persistent
        assert list(schedule.op) == [FLIP] * 10
        assert schedule.offsets[-1] == 10

    def test_stuck_at_is_persistent(self):
        from repro.faults.model import FORCE1

        faults = get_fault_model("stuck_at_1").population(build_counter(), 4)[:5]
        schedule = schedule_for(faults, 4, build_counter().num_ffs)
        assert schedule.persistent
        assert list(schedule.op) == [FORCE1] * 5

    def test_out_of_range_flip_rejected(self):
        from repro.errors import CampaignError
        from repro.faults.models import MbuFault

        with pytest.raises(CampaignError, match="flips flop"):
            schedule_for([MbuFault(cycle=0, flop_index=2, width=3)], 4, 4)


class TestCrossEngineEquivalence:
    @pytest.mark.parametrize("model_name", MODELS)
    @pytest.mark.parametrize("seed", range(4))
    def test_all_engines_agree_with_bigint(self, model_name, seed):
        rng = random.Random(9000 + seed)
        circuit = random_netlist(rng)
        model = get_fault_model(model_name)
        if circuit.num_ffs < getattr(model, "width", 1):
            pytest.skip("circuit smaller than the MBU run")
        num_cycles = rng.randint(6, 20)
        bench = random_testbench(circuit, num_cycles, seed=seed)
        faults = model_fault_sample(model_name, circuit, num_cycles, rng)

        reference = grade_faults(circuit, bench, faults, backend="bigint")
        for name in available_engines():
            result = grade_faults(circuit, bench, faults, backend=name)
            assert list(result.fail_cycles) == list(reference.fail_cycles), (name, seed)
            assert list(result.vanish_cycles) == list(reference.vanish_cycles), (name, seed)

    @pytest.mark.parametrize("model_name", MODELS)
    def test_engines_agree_with_serial_replay(self, model_name):
        rng = random.Random(31)
        circuit = build_counter()
        bench = random_testbench(circuit, 14, seed=2)
        golden = run_golden(circuit, bench)
        faults = model_fault_sample(model_name, circuit, 14, rng, count=40)
        oracle = grade_faults(circuit, bench, faults, backend="fused")
        for index, fault in enumerate(faults):
            reference = replay_fault(circuit, bench, fault, golden)
            assert oracle.fail_cycles[index] == reference["fail_cycle"], (
                fault.describe()
            )
            assert oracle.vanish_cycles[index] == reference["vanish_cycle"], (
                fault.describe()
            )

    @pytest.mark.parametrize("model_name", MODELS)
    def test_fused_plan_path_agrees(self, model_name, monkeypatch):
        """Without the kernel, fused delegates to the numpy engine and
        must still match the native result."""
        rng = random.Random(77)
        circuit = build_shift_register(5)
        bench = random_testbench(circuit, 16, seed=1)
        faults = model_fault_sample(model_name, circuit, 16, rng, count=66)
        native = grade_faults(circuit, bench, faults, backend="fused")
        monkeypatch.setattr(
            "repro.sim.backends.fused.native_kernel", lambda: None
        )
        fallback = grade_faults(circuit, bench, faults, backend="fused")
        assert get_engine("fused").last_stats["native"] is False
        assert list(fallback.fail_cycles) == list(native.fail_cycles)
        assert list(fallback.vanish_cycles) == list(native.vanish_cycles)

    @pytest.mark.parametrize("model_name", MODELS)
    def test_word_boundary_lane_counts(self, model_name):
        circuit = build_shift_register(6)
        bench = random_testbench(circuit, 24, seed=9)
        population = get_fault_model(model_name).population(circuit, 24)
        for count in (1, 63, 64, 65, 130):
            faults = population[:count]
            fused = grade_faults(circuit, bench, faults, backend="fused")
            bigint = grade_faults(circuit, bench, faults, backend="bigint")
            assert list(fused.fail_cycles) == list(bigint.fail_cycles), count
            assert list(fused.vanish_cycles) == list(bigint.vanish_cycles), count


class TestEarlyExitContract:
    def test_mbu_campaign_still_early_exits(self):
        """MBUs are transient: a shift register flushes them, and the
        generic fused branch must stop instead of simulating the tail."""
        shift = build_shift_register(4)
        bench = constant_testbench(shift, 200, value=0)
        faults = get_fault_model("mbu:2").population(shift, 3)
        engine = get_engine("fused")
        result = grade_faults(shift, bench, faults, backend="fused")
        if engine.last_stats["native"]:  # the bigint fallback runs every cycle
            assert engine.last_stats["cycles_executed"] < 15
        assert all(cycle != -1 for cycle in result.vanish_cycles)

    def test_stuck_at_campaign_runs_the_full_bench(self):
        """Persistent faults can re-diverge; no early exit allowed even
        when every lane momentarily matches the golden state."""
        shift = build_shift_register(4)
        bench = constant_testbench(shift, 60, value=0)
        faults = get_fault_model("stuck_at_0").population(shift, 3)
        engine = get_engine("fused")
        grade_faults(shift, bench, faults, backend="fused")
        assert engine.last_stats["cycles_executed"] == 60

    def test_every_model_is_one_native_call(self):
        """Every model grades through the one native call whenever the
        kernel is available, and reports ``repacks``; persistent models
        never retire a lane, so they never repack."""
        counter = build_counter()
        bench = random_testbench(counter, 12, seed=0)
        engine = get_engine("fused")
        has_kernel = native_kernel() is not None
        grade_faults(
            counter, bench, [SeuFault(cycle=0, flop_index=0)], backend="fused"
        )
        assert engine.last_stats["native"] == has_kernel
        assert ("repacks" in engine.last_stats) == has_kernel
        rng = random.Random(5)
        for model_name in MODELS:
            faults = model_fault_sample(model_name, counter, 12, rng, count=8)
            grade_faults(counter, bench, faults, backend="fused")
            assert engine.last_stats["native"] == has_kernel, model_name
            if has_kernel and not get_fault_model(model_name).transient:
                assert engine.last_stats["repacks"] == 0, model_name

    def test_mbu_lanes_repack_exactly(self):
        """Multi-flip lanes retire and repack like SEU lanes; the squeezed
        lanes keep every verdict bit-exact with the bigint reference."""
        circuit = build_b14()
        bench = b14_program_testbench(circuit, 160)
        population = get_fault_model("mbu:2").population(circuit, 160)
        faults = sample_fault_list(population, 1500, seed=1)
        fused = grade_faults(circuit, bench, faults, backend="fused")
        stats = get_engine("fused").last_stats
        if not stats["native"]:
            pytest.skip("native kernel unavailable")
        assert stats["repacks"] > 0
        bigint = grade_faults(circuit, bench, faults, backend="bigint")
        assert fused.outcome_digest() == bigint.outcome_digest()


class TestPersistentReconvergence:
    def test_vanish_is_the_final_suffix_not_the_first_match(self):
        """A stuck-at-0 fault on a flop whose golden value toggles
        matches the golden state on the golden-0 cycles; first-match
        semantics would wrongly call it silent."""
        from tests.conftest import build_toggle

        toggle = build_toggle()
        bench = constant_testbench(toggle, 12, value=0)
        population = get_fault_model("stuck_at_0").population(toggle, 12)
        fault = population[0]  # onset at cycle 0
        oracle = grade_faults(toggle, bench, [fault], backend="fused")
        reference = replay_fault(toggle, bench, fault)
        assert oracle.fail_cycles[0] == reference["fail_cycle"]
        assert oracle.vanish_cycles[0] == reference["vanish_cycle"]
        # Golden q alternates 0,1,0,1..., the forced flop holds 0: the
        # state matches on every even cycle and re-diverges on every odd
        # one. First-match semantics would report vanish at cycle 1; the
        # final-suffix rule must instead report the *last* convergence —
        # the even end-of-bench state, cycle 11.
        assert oracle.vanish_cycles[0] == 11

    def test_odd_length_bench_never_vanishes(self):
        """Same fault, bench one cycle shorter: the run now *ends* on a
        diverged state, so the candidate reset must leave vanish = -1."""
        from tests.conftest import build_toggle

        toggle = build_toggle()
        bench = constant_testbench(toggle, 11, value=0)
        fault = get_fault_model("stuck_at_0").population(toggle, 11)[0]
        oracle = grade_faults(toggle, bench, [fault], backend="fused")
        reference = replay_fault(toggle, bench, fault)
        assert oracle.vanish_cycles[0] == reference["vanish_cycle"] == -1
