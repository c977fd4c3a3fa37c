"""Tests for the JSONL results store."""

import json
import os

import pytest

from repro.errors import CampaignError
from repro.run.store import STORE_VERSION, ResultsStore, ShardRecord

KEY = {"circuit": "b01", "num_cycles": 8, "seed": 0}
FAULT_KEY = {"fault_model": "seu", "sampling": "uniform", "sample": None, "seed": 0}
WINDOWS = [(0, 4), (4, 8)]


def make_record(index, start, end, count=3):
    return ShardRecord(
        index=index,
        start_cycle=start,
        end_cycle=end,
        num_faults=count,
        fail_cycles=list(range(count)),
        vanish_cycles=[-1] * count,
        engine="fused",
        elapsed_s=0.01,
    )


class TestLifecycle:
    def test_open_creates_manifest(self, tmp_path):
        store = ResultsStore.open(str(tmp_path), KEY, "b01-abc", WINDOWS)
        with open(store.manifest_path) as handle:
            manifest = json.load(handle)
        assert manifest["oracle"] == KEY
        assert manifest["windows"] == [[0, 4], [4, 8]]

    def test_reopen_same_config_ok(self, tmp_path):
        ResultsStore.open(str(tmp_path), KEY, "b01-abc", WINDOWS)
        ResultsStore.open(str(tmp_path), KEY, "b01-abc", WINDOWS)

    def test_reopen_different_plan_adopts_stored_windows(self, tmp_path):
        ResultsStore.open(str(tmp_path), KEY, "b01-abc", WINDOWS)
        store = ResultsStore.open(str(tmp_path), KEY, "b01-abc", [(0, 8)])
        assert store.windows == WINDOWS

    def test_reopen_fresh_repins_proposed_plan(self, tmp_path):
        first = ResultsStore.open(str(tmp_path), KEY, "b01-abc", WINDOWS)
        first.append(make_record(0, 0, 4))
        store = ResultsStore.open(
            str(tmp_path), KEY, "b01-abc", [(0, 8)], fresh=True
        )
        assert store.windows == [(0, 8)]
        assert store.completed() == {}

    def test_reopen_different_oracle_rejected(self, tmp_path):
        ResultsStore.open(str(tmp_path), KEY, "b01-abc", WINDOWS)
        with pytest.raises(CampaignError):
            ResultsStore.open(
                str(tmp_path), {**KEY, "seed": 9}, "b01-abc", WINDOWS
            )


class TestFaultKeyRefusal:
    """A store graded under one fault population must refuse another."""

    def open_with(self, root, fault_key, fresh=False):
        return ResultsStore.open(
            str(root), KEY, "b01-abc", WINDOWS, fresh=fresh,
            fault_key=fault_key,
        )

    def test_same_fault_key_resumes(self, tmp_path):
        self.open_with(tmp_path, FAULT_KEY)
        store = self.open_with(tmp_path, dict(FAULT_KEY))
        assert store.windows == WINDOWS

    def test_different_fault_model_refused_with_named_field(self, tmp_path):
        self.open_with(tmp_path, FAULT_KEY)
        with pytest.raises(CampaignError) as excinfo:
            self.open_with(tmp_path, {**FAULT_KEY, "fault_model": "stuck_at_1"})
        message = str(excinfo.value)
        assert "fault_model" in message
        assert "'seu'" in message and "'stuck_at_1'" in message

    def test_different_sampling_seed_refused(self, tmp_path):
        self.open_with(tmp_path, {**FAULT_KEY, "sample": 100, "seed": 0})
        with pytest.raises(CampaignError, match="seed"):
            self.open_with(tmp_path, {**FAULT_KEY, "sample": 100, "seed": 1})

    def test_different_sampling_method_refused(self, tmp_path):
        self.open_with(tmp_path, {**FAULT_KEY, "sample": 50})
        with pytest.raises(CampaignError, match="sampling"):
            self.open_with(
                tmp_path,
                {**FAULT_KEY, "sample": 50, "sampling": "stratified"},
            )

    def test_fresh_repins_the_fault_key(self, tmp_path):
        self.open_with(tmp_path, FAULT_KEY)
        store = self.open_with(
            tmp_path, {**FAULT_KEY, "fault_model": "mbu:2"}, fresh=True
        )
        assert store.completed() == {}
        # and the new key is now the recorded one
        self.open_with(tmp_path, {**FAULT_KEY, "fault_model": "mbu:2"})

    def test_store_without_fault_record_refused(self, tmp_path):
        """A manifest missing the fault section (hand-edited or foreign)
        cannot prove what population its shards grade."""
        store = self.open_with(tmp_path, FAULT_KEY)
        with open(store.manifest_path) as handle:
            manifest = json.load(handle)
        del manifest["fault"]
        with open(store.manifest_path, "w") as handle:
            json.dump(manifest, handle)
        with pytest.raises(CampaignError, match="fault-population identity"):
            self.open_with(tmp_path, FAULT_KEY)

    def test_old_store_version_refused_with_clear_message(self, tmp_path):
        store = self.open_with(tmp_path, FAULT_KEY)
        with open(store.manifest_path) as handle:
            manifest = json.load(handle)
        manifest["version"] = STORE_VERSION - 1
        with open(store.manifest_path, "w") as handle:
            json.dump(manifest, handle)
        with pytest.raises(CampaignError, match="store format"):
            self.open_with(tmp_path, FAULT_KEY)

    def test_runner_integration_refuses_mismatched_store(self, tmp_path):
        """End to end: grade a campaign, then impersonate its campaign id
        with a different fault model — the runner must refuse to resume."""
        from repro.run.runner import CampaignRunner
        from repro.run.spec import CampaignSpec

        spec = CampaignSpec(
            circuit="b01", technique="mask_scan", num_cycles=8, sample=5
        )
        runner = CampaignRunner(store_root=str(tmp_path))
        runner.grade(spec)
        other = CampaignSpec(
            circuit="b01", technique="mask_scan", num_cycles=8, sample=5,
            fault_model="stuck_at_1",
        )
        # Different fault model -> different campaign id -> different
        # directory; force the collision a hand-copied store would create.
        os.rename(
            os.path.join(str(tmp_path), spec.campaign_id),
            os.path.join(str(tmp_path), other.campaign_id),
        )
        with pytest.raises(CampaignError, match="fault"):
            runner.grade(other)


class TestShardRecords:
    def test_append_and_completed(self, tmp_path):
        store = ResultsStore.open(str(tmp_path), KEY, "b01-abc", WINDOWS)
        store.append(make_record(0, 0, 4))
        store.append(make_record(1, 4, 8))
        completed = store.completed()
        assert sorted(completed) == [0, 1]
        assert list(completed[0].fail_cycles) == [0, 1, 2]
        assert completed[1].engine == "fused"

    def test_truncated_tail_line_ignored(self, tmp_path):
        """A kill mid-append leaves a partial JSON line; resume skips it."""
        store = ResultsStore.open(str(tmp_path), KEY, "b01-abc", WINDOWS)
        store.append(make_record(0, 0, 4))
        with open(store.shards_path, "a") as handle:
            handle.write(make_record(1, 4, 8).to_json_line()[:25])
        completed = store.completed()
        assert sorted(completed) == [0]

    def test_garbage_lines_ignored(self, tmp_path):
        store = ResultsStore.open(str(tmp_path), KEY, "b01-abc", WINDOWS)
        with open(store.shards_path, "w") as handle:
            handle.write("not json at all\n")
            handle.write('{"index": 0}\n')  # missing fields
            handle.write(make_record(1, 4, 8).to_json_line() + "\n")
        assert sorted(store.completed()) == [1]

    def test_inconsistent_record_rejected(self, tmp_path):
        store = ResultsStore.open(str(tmp_path), KEY, "b01-abc", WINDOWS)
        bad = make_record(0, 0, 4)
        bad.num_faults = 99  # arrays no longer match
        with open(store.shards_path, "w") as handle:
            handle.write(bad.to_json_line() + "\n")
        assert store.completed() == {}

    def test_duplicate_index_keeps_last(self, tmp_path):
        store = ResultsStore.open(str(tmp_path), KEY, "b01-abc", WINDOWS)
        store.append(make_record(0, 0, 4))
        newer = make_record(0, 0, 4)
        newer.fail_cycles = [7, 7, 7]
        store.append(newer)
        assert list(store.completed()[0].fail_cycles) == [7, 7, 7]

    def test_reset_drops_records(self, tmp_path):
        store = ResultsStore.open(str(tmp_path), KEY, "b01-abc", WINDOWS)
        store.append(make_record(0, 0, 4))
        store.reset()
        assert store.completed() == {}
        assert os.path.exists(store.manifest_path)
