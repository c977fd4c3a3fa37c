"""Columnar campaigns: no per-fault objects on the grading path, and one
byte order for packed outcomes on every host."""

import json

import numpy as np
import pytest

from repro.emu.instrument import TECHNIQUES
from repro.faults.dictionary import FaultRecord
from repro.faults.model import SeuFault
from repro.run import worker
from repro.run.runner import CampaignRunner
from repro.run.spec import CampaignSpec
from repro.run.store import ShardRecord
from repro.sim.parallel import FaultGradingResult


@pytest.fixture
def built(monkeypatch):
    """Counts of ``SeuFault`` (any model's fault) and ``FaultRecord``
    instances constructed while the fixture is active."""
    counts = {"faults": 0, "records": 0}
    post_init = SeuFault.__post_init__
    record_init = FaultRecord.__init__

    def counting_post_init(self):
        counts["faults"] += 1
        post_init(self)

    def counting_init(self, *args, **kwargs):
        counts["records"] += 1
        record_init(self, *args, **kwargs)

    monkeypatch.setattr(SeuFault, "__post_init__", counting_post_init)
    monkeypatch.setattr(FaultRecord, "__init__", counting_init)
    return counts


@pytest.mark.parametrize(
    "fault_model, sample",
    [("seu", None), ("seu", 4000), ("stuck_at_1", 4000), ("mbu:2", 4000),
     ("intermittent:4:2", 4000)],
    ids=["exhaustive", "sampled", "stuck_at_1", "mbu:2", "intermittent:4:2"],
)
def test_b14_campaign_builds_no_per_fault_objects(
    built, tmp_path, fault_model, sample
):
    specs = [CampaignSpec("b14", technique, sample=sample, sampling="stratified",
                          fault_model=fault_model)
             for technique in TECHNIQUES]
    with CampaignRunner(workers=1, store_root=str(tmp_path)) as runner:
        oracle = runner.grade(specs[0])
        results = [runner.run(spec, oracle=oracle) for spec in specs]
        counts = results[0].dictionary.counts()
        oracle.outcome_digest()
    assert sum(counts.values()) == oracle.num_faults
    assert built == {"faults": 0, "records": 0}
    # objects are still built on demand, and the counters see them
    oracle.faults[0]
    next(iter(results[0].dictionary))
    assert built == {"faults": 2, "records": 1}


def test_packed_cycles_are_little_endian():
    record = ShardRecord.from_json_obj({
        "index": 0, "start_cycle": 0, "end_cycle": 4, "num_faults": 2,
        "fail_cycles": b"\x03\x00\x00\x00\xff\xff\xff\xff",
        "vanish_cycles": b"\xff\xff\xff\xff\x02\x01\x00\x00",
    })
    assert list(record.fail_cycles) == [3, -1]
    assert list(record.vanish_cycles) == [-1, 258]


def test_packed_cycles_roundtrip_through_a_shard_record():
    cycles = [0, 1, -1, 159, 2**31 - 1]
    packed = np.asarray(cycles, dtype="<i4").tobytes()
    record = ShardRecord.from_json_obj({
        "index": 0, "start_cycle": 0, "end_cycle": 160, "num_faults": 5,
        "fail_cycles": packed, "vanish_cycles": packed[::-1],
    })
    assert list(record.fail_cycles) == cycles
    restored = ShardRecord.from_json_obj(json.loads(record.to_json_line()))
    assert list(restored.fail_cycles) == cycles
    assert np.array_equal(restored.vanish_cycles, record.vanish_cycles)


def test_empty_window_packs_to_empty_columns():
    spec = CampaignSpec("b04", "time_multiplexed", sample=200)
    scenario = worker.scenario_for(spec)
    end = scenario.testbench.num_cycles
    record = worker.grade_scenario_window(scenario, 0, end, end + 8, engine="fused")
    assert record["num_faults"] == 0
    assert record["fail_cycles"] == record["vanish_cycles"] == b""
    shard = ShardRecord.from_json_obj(record)
    assert len(shard.fail_cycles) == len(shard.vanish_cycles) == 0
    assert json.loads(shard.to_json_line())["fail_cycles"] == []


def test_worker_packs_shards_little_endian():
    spec = CampaignSpec("b04", "time_multiplexed", sample=200)
    scenario = worker.scenario_for(spec)
    record = worker.grade_scenario_window(scenario, 0, 0, 64, engine="fused")
    oracle = CampaignRunner(workers=1).grade_scenario(
        scenario.netlist, scenario.testbench, scenario.faults)
    fail = np.frombuffer(record["fail_cycles"], dtype="<i4")
    assert list(fail) == list(oracle.fail_cycles)
    assert record["vanish_cycles"] == oracle.vanish_cycles.astype("<i4").tobytes()


def test_outcome_digest_is_independent_of_array_byte_order():
    def graded(dtype):
        return FaultGradingResult(
            faults=[SeuFault(0, 0), SeuFault(1, 0)], num_cycles=4,
            flop_names=["q"], golden=None,
            fail_cycles=np.array([2, -1], dtype=dtype),
            vanish_cycles=np.array([-1, 3], dtype=dtype),
        )

    assert graded(">i4").outcome_digest() == graded("<i4").outcome_digest()
    assert graded(">i8").outcome_digest() == graded("=i4").outcome_digest()


def test_bigint_seu_grade_of_a_fault_array_builds_no_fault_objects(built):
    """The reference engine reads a FaultArray's columns, not its items."""
    from repro.circuits.itc99.b04 import build_b04
    from repro.faults.model import exhaustive_fault_list
    from repro.faults.sampling import sample_fault_list
    from repro.sim.parallel import grade_faults
    from repro.sim.vectors import random_testbench

    netlist = build_b04()
    bench = random_testbench(netlist, 32, seed=4)
    faults = sample_fault_list(exhaustive_fault_list(netlist, 32), 500, seed=4)
    built["faults"] = 0
    grade_faults(netlist, bench, faults, backend="bigint")
    assert built["faults"] == 0
