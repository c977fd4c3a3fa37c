"""Tests for the sharded, resumable campaign runner.

The load-bearing property: a campaign graded in shards — in-process or
across a process pool, fresh or resumed from a half-written store — is
*bit-exact* with the serial `run_campaign` path, for every technique.
"""

import pytest

from repro.emu.board import RC1000
from repro.emu.campaign import run_campaign
from repro.emu.instrument import TECHNIQUES
from repro.errors import CampaignError
from repro.run import worker
from repro.run.runner import CampaignRunner, plan_windows
from repro.run.spec import CampaignSpec
from repro.sim.parallel import grade_faults


def serial_reference(spec, scan_chains=None):
    """The serial path for a spec: direct grade + run_campaign."""
    scenario = spec.scenario()
    oracle = grade_faults(
        scenario.netlist, scenario.testbench, scenario.faults,
        backend=spec.engine,
    )
    return run_campaign(
        scenario.netlist,
        scenario.testbench,
        spec.technique,
        faults=scenario.faults,
        oracle=oracle,
        scan_chains=scan_chains if scan_chains is not None else spec.scan_chains,
    )


def assert_bit_exact(sharded, serial):
    assert sharded.breakdown.prologue == serial.breakdown.prologue
    assert sharded.breakdown.setup == serial.breakdown.setup
    assert sharded.breakdown.run == serial.breakdown.run
    assert sharded.breakdown.readback == serial.breakdown.readback
    assert sharded.breakdown.extra == serial.breakdown.extra
    assert sharded.total_cycles == serial.total_cycles
    assert sharded.timing.milliseconds == serial.timing.milliseconds
    assert sharded.dictionary.counts() == serial.dictionary.counts()


class TestPlanWindows:
    def test_covers_all_cycles_contiguously(self):
        windows = plan_windows(23, 5)
        assert windows[0].start_cycle == 0
        assert windows[-1].end_cycle == 23
        for before, after in zip(windows, windows[1:]):
            assert before.end_cycle == after.start_cycle

    def test_balanced(self):
        sizes = [w.end_cycle - w.start_cycle for w in plan_windows(23, 5)]
        assert max(sizes) - min(sizes) <= 1

    def test_capped_at_cycle_count(self):
        assert len(plan_windows(3, 16)) == 3

    def test_zero_cycles_rejected(self):
        with pytest.raises(CampaignError):
            plan_windows(0, 4)


class TestShardedEqualsSerial:
    """Sharded vs serial bit-exact equivalence: randomized circuits x
    all three techniques (the PR's core acceptance property)."""

    @pytest.mark.parametrize("technique", TECHNIQUES)
    @pytest.mark.parametrize(
        "circuit,cycles,seed",
        [("b01", 18, 3), ("b04", 21, 11), ("b09", 16, 7)],
    )
    def test_in_process_shards(self, technique, circuit, cycles, seed):
        spec = CampaignSpec(
            circuit=circuit, technique=technique, num_cycles=cycles, seed=seed
        )
        sharded = CampaignRunner(workers=1, shards=5).run(spec)
        assert_bit_exact(sharded, serial_reference(spec))

    def test_thread_pool(self):
        spec = CampaignSpec(
            circuit="b04", technique="time_multiplexed", num_cycles=20, seed=2
        )
        sharded = CampaignRunner(workers=2, shards=4).run(spec)
        assert_bit_exact(sharded, serial_reference(spec))

    def test_single_shard_degenerate(self):
        spec = CampaignSpec(
            circuit="b01", technique="mask_scan", num_cycles=10
        )
        sharded = CampaignRunner(workers=1, shards=1).run(spec)
        assert_bit_exact(sharded, serial_reference(spec))

    def test_sampled_fault_list_with_empty_windows(self):
        """A sparse sample leaves some cycle windows empty; merge order
        must still match the serial sampled list."""
        spec = CampaignSpec(
            circuit="b01",
            technique="state_scan",
            num_cycles=30,
            sample=7,
            seed=5,
        )
        sharded = CampaignRunner(workers=1, shards=10).run(spec)
        assert_bit_exact(sharded, serial_reference(spec))
        assert sharded.num_faults == 7

    def test_scan_chains_accounting_through_runner(self):
        """scan_chains > 1 divides state-scan's per-fault scan-in cost;
        the sharded path must account it identically."""
        single = CampaignSpec(
            circuit="b04", technique="state_scan", num_cycles=15
        )
        quad = CampaignSpec(
            circuit="b04", technique="state_scan", num_cycles=15,
            scan_chains=4,
        )
        runner = CampaignRunner(workers=1, shards=4)
        sharded_single = runner.run(single)
        sharded_quad = runner.run(quad)
        assert_bit_exact(sharded_single, serial_reference(single))
        assert_bit_exact(sharded_quad, serial_reference(quad))
        faults = sharded_quad.num_faults
        # 66 flops -> 66 cycles scan-in single-chain, 17 with 4 chains
        assert sharded_single.breakdown.setup == faults * (66 + 1)
        assert sharded_quad.breakdown.setup == faults * (17 + 1)
        assert sharded_single.breakdown.run == sharded_quad.breakdown.run

    def test_engines_agree_through_runner(self):
        spec_fused = CampaignSpec(
            circuit="b06", technique="mask_scan", num_cycles=14, engine="fused"
        )
        spec_numpy = CampaignSpec(
            circuit="b06", technique="mask_scan", num_cycles=14, engine="numpy"
        )
        runner = CampaignRunner(workers=1, shards=3)
        assert list(runner.grade(spec_fused).fail_cycles) == list(
            runner.grade(spec_numpy).fail_cycles
        )

    def test_board_override(self):
        spec = CampaignSpec(
            circuit="b01", technique="mask_scan", num_cycles=10
        )
        result = CampaignRunner(workers=1).run(spec)
        assert result.timing.board is RC1000


class TestResume:
    def _graded_store(self, tmp_path, spec, shards=4):
        runner = CampaignRunner(
            workers=1, shards=shards, store_root=str(tmp_path)
        )
        result = runner.run(spec)
        store_dir = tmp_path / spec.campaign_id
        assert (store_dir / "shards.jsonl").exists()
        return runner, result

    def test_resume_after_kill_regrades_only_missing_shards(
        self, tmp_path, monkeypatch
    ):
        """Drop one shard record and truncate the tail (what a SIGKILL
        mid-append leaves behind); the rerun grades exactly the missing
        shard and the merged campaign stays bit-exact."""
        spec = CampaignSpec(
            circuit="b04", technique="time_multiplexed", num_cycles=20, seed=4
        )
        _, full = self._graded_store(tmp_path, spec)

        shards_file = tmp_path / spec.campaign_id / "shards.jsonl"
        lines = shards_file.read_text().strip().split("\n")
        assert len(lines) == 4
        # lose the last complete record and leave a truncated write
        shards_file.write_text("\n".join(lines[:-1]) + "\n" + lines[-1][:30])

        graded_windows = []
        original = worker.grade_window

        def counting(spec_dict, index, start, end):
            graded_windows.append(index)
            return original(spec_dict, index, start, end)

        monkeypatch.setattr(worker, "grade_window", counting)
        runner = CampaignRunner(
            workers=1, shards=4, store_root=str(tmp_path)
        )
        resumed = runner.run(spec)
        assert len(graded_windows) == 1  # only the lost shard
        assert_bit_exact(resumed, full)
        assert_bit_exact(resumed, serial_reference(spec))

    def test_completed_store_runs_without_grading(
        self, tmp_path, monkeypatch
    ):
        spec = CampaignSpec(
            circuit="b01", technique="mask_scan", num_cycles=12
        )
        _, full = self._graded_store(tmp_path, spec)

        def explode(*args, **kwargs):
            raise AssertionError("grade_window called on a complete store")

        monkeypatch.setattr(worker, "grade_window", explode)
        runner = CampaignRunner(workers=1, shards=4, store_root=str(tmp_path))
        assert_bit_exact(runner.run(spec), full)

    def test_no_resume_regrades_everything(self, tmp_path, monkeypatch):
        spec = CampaignSpec(
            circuit="b01", technique="mask_scan", num_cycles=12
        )
        self._graded_store(tmp_path, spec)
        graded_windows = []
        original = worker.grade_window

        def counting(spec_dict, index, start, end):
            graded_windows.append(index)
            return original(spec_dict, index, start, end)

        monkeypatch.setattr(worker, "grade_window", counting)
        runner = CampaignRunner(
            workers=1, shards=4, store_root=str(tmp_path), resume=False
        )
        runner.run(spec)
        assert sorted(graded_windows) == [0, 1, 2, 3]

    def test_changed_shard_plan_adopts_stored_plan(
        self, tmp_path, monkeypatch
    ):
        """Resuming with a different worker/shard count must not throw
        away completed grading: the store's plan wins and nothing is
        regraded."""
        spec = CampaignSpec(
            circuit="b01", technique="mask_scan", num_cycles=12
        )
        _, full = self._graded_store(tmp_path, spec, shards=4)

        def explode(*args, **kwargs):
            raise AssertionError("regraded despite a complete store")

        monkeypatch.setattr(worker, "grade_window", explode)
        resumed = CampaignRunner(
            workers=2, shards=2, store_root=str(tmp_path)
        ).run(spec)
        assert_bit_exact(resumed, full)


class TestSweep:
    def test_techniques_share_one_grading(self, monkeypatch):
        spec_count = []
        original = worker.grade_window

        def counting(spec_dict, index, start, end):
            spec_count.append(index)
            return original(spec_dict, index, start, end)

        monkeypatch.setattr(worker, "grade_window", counting)
        specs = CampaignSpec.matrix(
            circuits=["b06"], num_cycles=16, seed=9
        )
        assert len(specs) == 3
        runner = CampaignRunner(workers=1, shards=4)
        results = runner.sweep(specs)
        assert len(spec_count) == 4  # one grading pass, not three
        for spec, result in zip(specs, results):
            assert_bit_exact(result, serial_reference(spec))

    def test_sweep_matches_table2(self):
        """The acceptance path: a sharded multi-process sweep reproduces
        the serial Table-2 machinery bit-exactly."""
        specs = CampaignSpec.matrix(circuits=["b09"], num_cycles=24, seed=1)
        results = CampaignRunner(workers=2, shards=4).sweep(specs)
        for spec, result in zip(specs, results):
            assert_bit_exact(result, serial_reference(spec))
