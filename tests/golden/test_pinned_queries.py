"""Bit-exactness pins for the results DB's aggregate queries.

The literals below were recorded while the database still held one row
per fault. Every cross-campaign aggregate (``flop_failure_rates`` per
sampling mode and circuit, ``class_breakdown`` per group) and every
per-campaign ``class_counts`` must return exactly the same rows, keys,
rounding and order from the per-(campaign, flop) count table.
"""

import hashlib
import json

import pytest

from repro.run.runner import CampaignRunner
from repro.run.spec import CampaignSpec
from repro.service.db import ResultsDB


def _spec(circuit="b04", num_cycles=48, sample=30, **fields):
    return CampaignSpec(circuit, "time_multiplexed", num_cycles=num_cycles,
                        sample=sample, **fields)


#: the graded stores every pin below is computed over
SPECS = [
    _spec(seed=0),
    _spec(seed=1),
    _spec(seed=2),
    _spec("b02", num_cycles=24, sample=None),
    _spec("b02", num_cycles=24),
    _spec(hardening="tmr"),
    _spec("b06"),
]

GROUPS = ("effective_circuit", "circuit", "hardening", "fault_model",
          "status", "sampling", "testbench")


def _sha(rows) -> str:
    text = json.dumps(rows, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def db(tmp_path_factory):
    root = tmp_path_factory.mktemp("pinned-queries")
    with CampaignRunner(workers=0, store_root=str(root / "runs")) as runner:
        for spec in SPECS:
            runner.grade(spec)
    with ResultsDB(str(root / "svc.db")) as opened:
        results = opened.import_root(str(root / "runs"))
        assert sorted(r["action"] for r in results) == ["imported"] * len(SPECS)
        yield opened


#: sha256 of each query's JSON rows, keyed by the query's arguments
FLOP_PINS = {
    "all": "3cace1e2bc4de8a94888293bd5fcfc2161f7241c28198a726da1bb1a19c58aaa",
    "sampled": "903174dee3b120e32c09efc3eeccf67b5671d5de9d09b6d89ec72067a4a1a957",
    "exhaustive": "a20de9446fbb1889d804898071098a5a83053a9ca60e0d696513a9f4e809620f",
    "b04": "169d108eb95482a80ad768c85c2bfe14de4159a4a2f89868370897baa6bf57e8",
}

BREAKDOWN_PINS = {
    "effective_circuit":
        "1fcd9d22421b2cbf3c690f856663aab0f03e1f3ad61dcaea97ae49c35b9340ec",
    "circuit": "226f14875d4dfff96249b1fa694e69a83a30d4e351305c1e74fc13caefe8928b",
    "hardening": "eb5470f9d36d1545512df3a259efd9fd48a7bb396c4dd8fc4fd4ec3b77bbfa44",
    "fault_model":
        "d3f575c6504c6aa9e511f1115d7b2ff9fd3a8b0a50e82a7c35d932ff239ebaf6",
    "status": "d86a0cdfc5b8f7271a9b2f0c83a881b9b78b54966f79ff4965301bce6453fdc1",
    "sampling": "652f169838557bdd69d0a4f7d37492fa3a05f158b80163b2525e5b4eb092f70c",
    "testbench": "6535578b6a3fc9e12fd6ea2a71b13652c3579d2dfdaeab2eed0d1b00523f2f6a",
}

CLASS_COUNTS = {
    "b04-de446c0775": {"failure": 17, "latent": 3, "silent": 10},
    "b04-2a6ec6d6fc": {"failure": 15, "latent": 0, "silent": 15},
    "b04-f2dedf476b": {"failure": 13, "latent": 4, "silent": 13},
    "b02-bc8036f5ab": {"failure": 51, "latent": 4, "silent": 41},
    "b02-131555db6e": {"failure": 18, "latent": 0, "silent": 12},
    "hardened-tmr-b04-ca3d86d3cf": {"failure": 0, "latent": 0, "silent": 30},
    "b06-63887ab5d5": {"failure": 24, "latent": 1, "silent": 5},
}


def _flop_query(db, key):
    if key in ("sampled", "exhaustive"):
        return db.flop_failure_rates(mode=key)
    if key == "all":
        return db.flop_failure_rates()
    return db.flop_failure_rates(circuit=key)


@pytest.mark.parametrize("key", sorted(FLOP_PINS))
def test_flop_failure_rates_match_pins(db, key):
    assert _sha(_flop_query(db, key)) == FLOP_PINS[key]


@pytest.mark.parametrize("group", GROUPS)
def test_class_breakdown_matches_pins(db, group):
    assert _sha(db.class_breakdown(group=group)) == BREAKDOWN_PINS[group]


@pytest.mark.parametrize("spec", SPECS, ids=[s.campaign_id for s in SPECS])
def test_class_counts_match_pins(db, spec):
    assert db.class_counts(spec.campaign_id) == CLASS_COUNTS[spec.campaign_id]


def test_literal_rows(db):
    pooled = db.flop_failure_rates()
    assert len(pooled) == 91
    assert pooled[0] == {
        "flop": "ff$out_word[3]", "campaigns": 1, "sampled_campaigns": 1,
        "exhaustive_campaigns": 0, "faults": 4, "failures": 4,
        "failure_rate": 1.0, "mixed_pool": False,
    }
    assert [row for row in pooled if row["mixed_pool"]][0] == {
        "flop": "ff$phase[1]", "campaigns": 2, "sampled_campaigns": 1,
        "exhaustive_campaigns": 1, "faults": 32, "failures": 30,
        "failure_rate": 0.9375, "mixed_pool": True,
    }
    assert db.flop_failure_rates(mode="exhaustive", limit=1) == [{
        "flop": "ff$phase[0]", "campaigns": 1, "sampled_campaigns": 0,
        "exhaustive_campaigns": 1, "faults": 24, "failures": 22,
        "failure_rate": 0.916667, "mixed_pool": False,
    }]
    assert db.class_breakdown(group="hardening") == [
        {"grp": "none", "campaigns": 6, "faults": 246, "failures": 138,
         "latent": 12, "silent": 96, "failure_rate": 0.560976},
        {"grp": "tmr", "campaigns": 1, "faults": 30, "failures": 0,
         "latent": 0, "silent": 30, "failure_rate": 0.0},
    ]
