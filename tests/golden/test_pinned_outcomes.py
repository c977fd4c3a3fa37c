"""Bit-exactness pins for grading, sampling, merging and accounting.

The literals below were recorded with per-fault ``SeuFault`` lists,
``FaultRecord`` dictionaries and native-endian ``array("i")`` packing,
before fault populations and outcomes became numpy columns. Every
outcome digest, class count and per-technique cycle total must still
match them exactly, and a JSONL store written by that code must still
load, merge and re-serialize byte for byte.
"""

import json
import re
import shutil
from pathlib import Path

import numpy as np
import pytest

from repro.emu.instrument import TECHNIQUES
from repro.run.runner import CampaignRunner
from repro.run.spec import CampaignSpec
from repro.run.store import ShardRecord

GOLDEN_DIR = Path(__file__).parent

#: (spec fields, outcome digest, class counts, total cycles per technique)
PINS = [
    (
        dict(circuit="b14", testbench="program", seed=0),
        "a64fc04437ffb58efaee5e7bca36b455",
        {"failure": 19668, "latent": 1848, "silent": 12884},
        {"mask_scan": 4354440, "state_scan": 8981240, "time_multiplexed": 1036780},
    ),
    (
        dict(circuit="b14", testbench="program", seed=1),
        "07b6c00c6b918555abbabdcc9a0aa970",
        {"failure": 18847, "latent": 4668, "silent": 10885},
        {"mask_scan": 4184617, "state_scan": 8811417, "time_multiplexed": 1103766},
    ),
    (
        dict(circuit="b14", seed=2, sample=4000, sampling="uniform"),
        "4c34505183078e5516456964c79bfcd0",
        {"failure": 2300, "latent": 258, "silent": 1442},
        {"mask_scan": 476253, "state_scan": 1012610, "time_multiplexed": 96030},
    ),
    (
        dict(circuit="b14", seed=3, sample=4000, sampling="stratified"),
        "0703e92988cc96291d18ed2212ad5f52",
        {"failure": 2340, "latent": 180, "silent": 1480},
        {"mask_scan": 505981, "state_scan": 1043626, "time_multiplexed": 134462},
    ),
    (
        dict(circuit="b04", seed=4, sample=1500, fault_model="mbu:2"),
        "5d20daf5c17e47f518fded38a13592c8",
        {"failure": 946, "latent": 45, "silent": 509},
        {"mask_scan": 71794, "state_scan": 122095, "time_multiplexed": 16176},
    ),
    (
        dict(circuit="b04", seed=5, sample=1500, fault_model="stuck_at_1"),
        "0853283a410508ebb034893914ecb48c",
        {"failure": 1264, "latent": 114, "silent": 122},
        {"mask_scan": 65621, "state_scan": 969513, "time_multiplexed": 32022},
    ),
    (
        dict(circuit="b04", seed=6, sample=1500, fault_model="intermittent:4:2",
             sampling="stratified"),
        "b5fb5a301e5cd0dd8841ab91bc791280",
        {"failure": 1267, "latent": 74, "silent": 159},
        {"mask_scan": 64852, "state_scan": 1003817, "time_multiplexed": 33046},
    ),
]


def _pin_id(fields):
    drawn = fields.get("sampling", "uniform") if "sample" in fields else "exhaustive"
    model = fields.get("fault_model", "seu")
    return f"{fields['circuit']}-{model}-{drawn}-seed{fields['seed']}"


@pytest.mark.parametrize(
    "fields, digest, classes, total_cycles", PINS,
    ids=[_pin_id(pin[0]) for pin in PINS],
)
def test_campaign_matches_pinned_outcomes(fields, digest, classes, total_cycles):
    specs = [CampaignSpec(technique=technique, **fields) for technique in TECHNIQUES]
    with CampaignRunner(workers=1) as runner:
        oracle = runner.grade(specs[0])
        results = [runner.run(spec, oracle=oracle) for spec in specs]
    assert oracle.outcome_digest() == digest
    assert {key.value: count for key, count
            in results[0].dictionary.counts().items()} == classes
    assert {spec.technique: result.total_cycles
            for spec, result in zip(specs, results)} == total_cycles


# ----------------------------------------------------------------------
# the JSONL store
# ----------------------------------------------------------------------
#: the campaign of ``store_b04_stuck_at_1/`` and its pinned outcomes
STORE_SPEC = CampaignSpec("b04", "time_multiplexed", seed=7, sample=300,
                          fault_model="stuck_at_1")
STORE_DIGEST = "86d2f455cc05d839934b8da369ed1b62"
STORE_CLASSES = {"failure": 252, "latent": 22, "silent": 26}


def _pinned_store(tmp_path) -> Path:
    root = tmp_path / "runs"
    shutil.copytree(GOLDEN_DIR / "store_b04_stuck_at_1", root / STORE_SPEC.campaign_id)
    return root


def test_pinned_store_loads_and_merges_without_regrading(tmp_path):
    root = _pinned_store(tmp_path)
    shards = root / STORE_SPEC.campaign_id / "shards.jsonl"
    written = shards.read_bytes()
    with CampaignRunner(workers=1, shards=3, store_root=str(root)) as runner:
        oracle = runner.grade(STORE_SPEC)
    assert shards.read_bytes() == written  # every shard resumed, none regraded
    assert oracle.outcome_digest() == STORE_DIGEST
    assert {key.value: count for key, count
            in oracle.to_dictionary().counts().items()} == STORE_CLASSES


def test_pinned_store_lines_reserialize_byte_for_byte():
    shards = GOLDEN_DIR / "store_b04_stuck_at_1" / "shards.jsonl"
    lines = shards.read_text().splitlines()
    assert len(lines) == 3
    for line in lines:
        record = ShardRecord.from_json_obj(json.loads(line))
        assert record.to_json_line() == line


def test_regraded_store_matches_pinned_lines(tmp_path):
    """A fresh grade writes the pinned store's lines again, byte for byte
    apart from the measured ``elapsed_s``."""
    with CampaignRunner(workers=1, shards=3, store_root=str(tmp_path)) as runner:
        runner.grade(STORE_SPEC)

    def lines(directory):
        text = (directory / "shards.jsonl").read_text()
        return sorted(re.sub(r'"elapsed_s": [0-9.e-]+', '"elapsed_s": 0', text)
                      .splitlines())

    assert lines(tmp_path / STORE_SPEC.campaign_id) == lines(
        GOLDEN_DIR / "store_b04_stuck_at_1")


def test_shard_line_is_byte_equal_from_arrays_and_lists():
    cycles = [5, -1, 0, 2**31 - 1, -(2**31)]
    fields = dict(index=2, start_cycle=3, end_cycle=9, num_faults=5,
                  engine="fused", elapsed_s=0.25, worker="inline")
    from_lists = ShardRecord(fail_cycles=cycles, vanish_cycles=cycles[::-1], **fields)
    from_arrays = ShardRecord(fail_cycles=np.array(cycles, dtype="<i4"),
                              vanish_cycles=np.array(cycles[::-1], dtype=">i4"),
                              **fields)
    line = from_lists.to_json_line()
    assert from_arrays.to_json_line() == line
    assert '"fail_cycles": [5, -1, 0, 2147483647, -2147483648]' in line
