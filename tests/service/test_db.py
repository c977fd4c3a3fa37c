"""ResultsDB: schema versioning, JSONL import fidelity, WAL concurrency,
and the cross-campaign aggregates."""

import os
import sqlite3
import threading

import pytest

from repro.errors import ServiceError
from repro.faults.classify import classification_counts
from repro.run.runner import CampaignRunner
from repro.run.spec import CampaignSpec
from repro.run.store import ResultsStore, discover_stores
from repro.service.db import SCHEMA_VERSION, ResultsDB, spec_from_manifest


#: the schema-version-1 DDL, with one ``fault_outcomes`` row per fault
SCHEMA_V1 = """
CREATE TABLE campaigns (
    campaign_id   TEXT PRIMARY KEY,
    circuit       TEXT NOT NULL,
    effective_circuit TEXT NOT NULL,
    technique     TEXT NOT NULL,
    engine        TEXT NOT NULL,
    testbench     TEXT NOT NULL,
    num_cycles    INTEGER NOT NULL,
    seed          INTEGER NOT NULL,
    sample        INTEGER,
    sampling      TEXT NOT NULL,
    fault_model   TEXT NOT NULL,
    hardening     TEXT,
    spec_json     TEXT NOT NULL,
    source        TEXT NOT NULL DEFAULT 'service',
    status        TEXT NOT NULL DEFAULT 'queued',
    cancel_requested INTEGER NOT NULL DEFAULT 0,
    error         TEXT,
    submitted_at  REAL,
    started_at    REAL,
    finished_at   REAL,
    num_shards    INTEGER,
    shards_done   INTEGER NOT NULL DEFAULT 0,
    num_faults    INTEGER,
    oracle_digest TEXT,
    total_cycles  INTEGER,
    emulation_ms  REAL,
    us_per_fault  REAL
);
CREATE INDEX idx_campaigns_circuit ON campaigns (circuit);
CREATE INDEX idx_campaigns_status  ON campaigns (status);

CREATE TABLE shards (
    campaign_id TEXT NOT NULL REFERENCES campaigns (campaign_id)
                ON DELETE CASCADE,
    shard_index INTEGER NOT NULL,
    start_cycle INTEGER NOT NULL,
    end_cycle   INTEGER NOT NULL,
    num_faults  INTEGER NOT NULL,
    engine      TEXT NOT NULL DEFAULT '',
    elapsed_s   REAL NOT NULL DEFAULT 0.0,
    worker      TEXT NOT NULL DEFAULT '',
    attempts    INTEGER NOT NULL DEFAULT 1,
    PRIMARY KEY (campaign_id, shard_index)
);

CREATE TABLE fault_outcomes (
    campaign_id  TEXT NOT NULL REFERENCES campaigns (campaign_id)
                 ON DELETE CASCADE,
    fault_index  INTEGER NOT NULL,
    flop         TEXT NOT NULL,
    inject_cycle INTEGER NOT NULL,
    fail_cycle   INTEGER NOT NULL,
    vanish_cycle INTEGER NOT NULL,
    verdict      TEXT NOT NULL,
    PRIMARY KEY (campaign_id, fault_index)
);
CREATE INDEX idx_outcomes_flop    ON fault_outcomes (flop);
CREATE INDEX idx_outcomes_verdict ON fault_outcomes (campaign_id, verdict);
"""


def _spec(**overrides):
    fields = {
        "circuit": "b04",
        "technique": "time_multiplexed",
        "sample": 30,
        "num_cycles": 48,
    }
    fields.update(overrides)
    return CampaignSpec(**fields)


def _graded_store(tmp_path, spec):
    """Grade one campaign into a JSONL store; returns its oracle."""
    with CampaignRunner(workers=0, store_root=str(tmp_path / "runs")) as runner:
        return runner.grade(spec)


# ----------------------------------------------------------------------
# schema lifecycle
# ----------------------------------------------------------------------
class TestSchema:
    def test_creates_tables_and_version(self, tmp_path):
        path = str(tmp_path / "svc.db")
        with ResultsDB(path) as db:
            assert db.counts() == {
                "campaigns": 0, "shards": 0, "flop_outcomes": 0
            }
        conn = sqlite3.connect(path)
        (version,) = conn.execute("PRAGMA user_version").fetchone()
        conn.close()
        assert version == SCHEMA_VERSION

    def test_reopen_is_idempotent(self, tmp_path):
        path = str(tmp_path / "svc.db")
        ResultsDB(path).close()
        with ResultsDB(path) as db:
            assert db.counts()["campaigns"] == 0

    def test_refuses_other_schema_version(self, tmp_path):
        path = str(tmp_path / "svc.db")
        ResultsDB(path).close()
        conn = sqlite3.connect(path)
        conn.execute(f"PRAGMA user_version = {SCHEMA_VERSION + 7}")
        conn.close()
        with pytest.raises(ServiceError, match="schema version"):
            ResultsDB(path)

    def test_refuses_per_fault_v1_file(self, tmp_path):
        """A file written with the per-fault ``fault_outcomes`` schema is
        refused, and the error points at the lossless re-import."""
        path = str(tmp_path / "v1.db")
        conn = sqlite3.connect(path)
        conn.executescript(SCHEMA_V1)
        conn.execute("PRAGMA user_version = 1")
        conn.commit()
        conn.close()
        with pytest.raises(ServiceError) as raised:
            ResultsDB(path)
        assert "schema version 1" in str(raised.value)
        assert "repro db import" in str(raised.value)

    def test_refuses_foreign_sqlite_file(self, tmp_path):
        path = str(tmp_path / "other.db")
        conn = sqlite3.connect(path)
        conn.execute("CREATE TABLE unrelated (x)")
        conn.commit()
        conn.close()
        with pytest.raises(ServiceError, match="not a repro results"):
            ResultsDB(path)


# ----------------------------------------------------------------------
# submission lifecycle
# ----------------------------------------------------------------------
class TestSubmit:
    def test_submit_is_idempotent(self, tmp_path):
        with ResultsDB(str(tmp_path / "svc.db")) as db:
            spec = _spec()
            created, row = db.submit(spec)
            assert created and row["status"] == "queued"
            created, row = db.submit(spec)
            assert not created
            assert row["campaign_id"] == spec.campaign_id

    def test_failed_campaign_requeues_on_resubmit(self, tmp_path):
        with ResultsDB(str(tmp_path / "svc.db")) as db:
            spec = _spec()
            db.submit(spec)
            db.mark_failed(spec.campaign_id, "boom")
            created, row = db.submit(spec)
            assert created
            assert row["status"] == "queued"
            assert row["error"] is None

    def test_cancel_states(self, tmp_path):
        with ResultsDB(str(tmp_path / "svc.db")) as db:
            spec = _spec()
            db.submit(spec)
            assert db.request_cancel(spec.campaign_id) == "cancelled"
            # terminal: nothing to cancel
            assert db.request_cancel(spec.campaign_id) is None
            with pytest.raises(ServiceError, match="unknown campaign"):
                db.request_cancel("nope-0000000000")

    def test_running_cancel_sets_flag(self, tmp_path):
        with ResultsDB(str(tmp_path / "svc.db")) as db:
            spec = _spec()
            db.submit(spec)
            db.mark_running(spec.campaign_id)
            assert db.request_cancel(spec.campaign_id) == "cancelling"
            assert db.cancel_requested(spec.campaign_id)
            db.mark_cancelled(spec.campaign_id)
            assert db.campaign(spec.campaign_id)["status"] == "cancelled"


# ----------------------------------------------------------------------
# JSONL -> SQLite import
# ----------------------------------------------------------------------
class TestImport:
    def test_round_trip_is_bit_exact(self, tmp_path):
        """Imported outcome counts equal the ResultsStore's oracle."""
        spec = _spec()
        oracle = _graded_store(tmp_path, spec)
        with ResultsDB(str(tmp_path / "svc.db")) as db:
            results = db.import_root(str(tmp_path / "runs"))
            assert [r["action"] for r in results] == ["imported"]
            row = db.campaign(spec.campaign_id)
            assert row["status"] == "imported"
            assert row["oracle_digest"] == oracle.outcome_digest()
            assert row["num_faults"] == oracle.num_faults
            expected = {
                cls.value: count
                for cls, count in classification_counts(
                    oracle.verdicts()
                ).items()
            }
            assert db.class_counts(spec.campaign_id) == expected
        # every fault lands in exactly one per-flop count
        conn = sqlite3.connect(str(tmp_path / "svc.db"))
        (pooled,) = conn.execute(
            "SELECT SUM(failure + latent + silent) FROM flop_outcomes"
        ).fetchone()
        conn.close()
        assert pooled == oracle.num_faults

    def test_b14_exhaustive_writes_one_row_per_flop(self, tmp_path):
        """34,400 faults over 215 flops index as 215 count rows."""
        spec = CampaignSpec("b14", "time_multiplexed")
        with CampaignRunner(workers=0) as runner:
            oracle = runner.grade(spec)
        assert oracle.num_faults == 34400
        with ResultsDB(str(tmp_path / "svc.db")) as db:
            db.submit(spec)
            written = db.record_outcomes(
                spec.campaign_id, oracle.faults, oracle.fail_cycles,
                oracle.vanish_cycles,
            )
            assert written == db.counts()["flop_outcomes"] == 215
            assert sum(db.class_counts(spec.campaign_id).values()) == 34400

    def test_reimport_skips(self, tmp_path):
        spec = _spec()
        _graded_store(tmp_path, spec)
        with ResultsDB(str(tmp_path / "svc.db")) as db:
            db.import_root(str(tmp_path / "runs"))
            again = db.import_root(str(tmp_path / "runs"))
            assert [r["action"] for r in again] == ["exists"]

    def test_incomplete_store_is_refused(self, tmp_path):
        spec = _spec()
        _graded_store(tmp_path, spec)
        store_dir = tmp_path / "runs" / spec.campaign_id
        shards = (store_dir / "shards.jsonl").read_text().splitlines()
        (store_dir / "shards.jsonl").write_text("\n".join(shards[:-1]) + "\n")
        with ResultsDB(str(tmp_path / "svc.db")) as db:
            (result,) = db.import_root(str(tmp_path / "runs"))
            assert result["action"] == "refused"
            assert "incomplete" in result["reason"]

    def test_renamed_store_is_refused(self, tmp_path):
        """A store whose id cannot be reproduced from its manifest is
        refused — the fault population is no longer attributable."""
        spec = _spec()
        _graded_store(tmp_path, spec)
        root = tmp_path / "runs"
        os.rename(root / spec.campaign_id, root / "b04-0123456789")
        with ResultsDB(str(tmp_path / "svc.db")) as db:
            (result,) = db.import_root(str(root))
            assert result["action"] == "refused"
            assert "not reproducible" in result["reason"]

    def test_spec_from_manifest_reconstructs_identity(self, tmp_path):
        spec = _spec(seed=3, sampling="stratified")
        _graded_store(tmp_path, spec)
        (store,) = discover_stores(str(tmp_path / "runs"))
        rebuilt = spec_from_manifest(store.manifest())
        assert rebuilt.campaign_id == spec.campaign_id
        assert rebuilt.oracle_key() == spec.oracle_key()


# ----------------------------------------------------------------------
# concurrency (WAL)
# ----------------------------------------------------------------------
class TestConcurrency:
    def test_two_connections_write_concurrently(self, tmp_path):
        """Two ResultsDB instances on one file (the service process and
        a `repro db import` side by side) interleave writes under WAL
        without 'database is locked' failures."""
        path = str(tmp_path / "svc.db")
        ResultsDB(path).close()
        errors = []

        def writer(offset):
            try:
                with ResultsDB(path) as db:
                    for index in range(20):
                        spec = _spec(seed=offset * 100 + index)
                        db.submit(spec)
                        db.mark_running(spec.campaign_id)
                        db.update_progress(spec.campaign_id, 1, 4)
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [
            threading.Thread(target=writer, args=(n,)) for n in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        with ResultsDB(path) as db:
            assert db.counts()["campaigns"] == 40

    def test_reader_sees_writes_from_other_connection(self, tmp_path):
        path = str(tmp_path / "svc.db")
        writer = ResultsDB(path)
        reader = ResultsDB(path)
        spec = _spec()
        writer.submit(spec)
        assert reader.campaign(spec.campaign_id)["status"] == "queued"
        writer.close()
        reader.close()


# ----------------------------------------------------------------------
# cross-campaign queries
# ----------------------------------------------------------------------
class TestQueries:
    def test_flop_failure_rate_pools_across_campaigns(self, tmp_path):
        """The acceptance-criteria aggregate: per-flop failure rate
        across several campaigns of one circuit — a query the
        per-campaign JSONL layout cannot answer without rebuilding every
        scenario."""
        specs = [_spec(seed=seed) for seed in (0, 1, 2)]
        oracles = {}
        for spec in specs:
            oracles[spec.campaign_id] = _graded_store(tmp_path, spec)
        with ResultsDB(str(tmp_path / "svc.db")) as db:
            results = db.import_root(str(tmp_path / "runs"))
            assert all(r["action"] == "imported" for r in results)
            rows = db.flop_failure_rates(circuit="b04")
            assert rows, "aggregate returned no flops"
            # every (campaign, flop, verdict) pools into the SQL answer:
            # recompute the same aggregate from the oracles and compare.
            expected = {}
            for spec in specs:
                oracle = oracles[spec.campaign_id]
                for fault, verdict in zip(oracle.faults, oracle.verdicts()):
                    entry = expected.setdefault(
                        fault.flop_name, {"faults": 0, "failures": 0}
                    )
                    entry["faults"] += 1
                    entry["failures"] += verdict.value == "failure"
            assert len(rows) == len(expected)
            for row in rows:
                want = expected[row["flop"]]
                assert row["faults"] == want["faults"]
                assert row["failures"] == want["failures"]
                assert row["failure_rate"] == pytest.approx(
                    want["failures"] / want["faults"], abs=1e-6
                )
            # sampled per-seed campaigns genuinely pool: at least one
            # flop must appear in more than one campaign for the
            # "across campaigns" claim to be exercised.
            assert any(row["campaigns"] > 1 for row in rows)

    def test_flop_query_mode_scoping_and_mixed_pool_flag(self, tmp_path):
        """Mixing sampled and exhaustive campaigns biases the pooled
        per-fault rate; ``mode`` scopes the pool and the unscoped rows
        carry a ``mixed_pool`` warning flag."""
        # b02 is small enough to grade exhaustively in-test
        sampled_spec = _spec(circuit="b02", num_cycles=24, sample=30)
        exhaustive_spec = _spec(circuit="b02", num_cycles=24, sample=None)
        _graded_store(tmp_path, sampled_spec)
        _graded_store(tmp_path, exhaustive_spec)
        with ResultsDB(str(tmp_path / "svc.db")) as db:
            db.import_root(str(tmp_path / "runs"))
            pooled = db.flop_failure_rates(circuit="b02")
            sampled = db.flop_failure_rates(circuit="b02", mode="sampled")
            exhaustive = db.flop_failure_rates(
                circuit="b02", mode="exhaustive"
            )
            # every b02 flop appears in both campaigns -> all pooled
            # rows are flagged, scoped rows never are
            assert pooled and all(row["mixed_pool"] for row in pooled)
            assert sampled and not any(row["mixed_pool"] for row in sampled)
            assert exhaustive
            assert not any(row["mixed_pool"] for row in exhaustive)
            for rows, key in (
                (sampled, "sampled_campaigns"),
                (exhaustive, "exhaustive_campaigns"),
            ):
                assert all(row[key] == 1 for row in rows)
                assert all(row["campaigns"] == 1 for row in rows)
            # the scoped pools partition the unscoped one
            by_flop = {row["flop"]: row for row in pooled}
            for row in sampled:
                other = next(
                    r for r in exhaustive if r["flop"] == row["flop"]
                )
                assert (
                    row["faults"] + other["faults"]
                    == by_flop[row["flop"]]["faults"]
                )
            with pytest.raises(ServiceError, match="sampling-mode"):
                db.flop_failure_rates(mode="bogus")

    def test_flop_query_filters_by_circuit(self, tmp_path):
        _graded_store(tmp_path, _spec())
        _graded_store(tmp_path, _spec(circuit="b06"))
        with ResultsDB(str(tmp_path / "svc.db")) as db:
            db.import_root(str(tmp_path / "runs"))
            everything = db.flop_failure_rates()
            only_b06 = db.flop_failure_rates(circuit="b06")
            assert 0 < len(only_b06) < len(everything)

    def test_class_breakdown_groups_by_hardening(self, tmp_path):
        _graded_store(tmp_path, _spec())
        _graded_store(tmp_path, _spec(hardening="tmr"))
        with ResultsDB(str(tmp_path / "svc.db")) as db:
            db.import_root(str(tmp_path / "runs"))
            rows = db.class_breakdown(group="hardening")
            groups = {row["grp"] for row in rows}
            assert groups == {"none", "tmr"}
            with pytest.raises(ServiceError, match="cannot group"):
                db.class_breakdown(group="campaign_id; DROP TABLE")

    def test_shard_provenance_is_imported(self, tmp_path):
        spec = _spec()
        _graded_store(tmp_path, spec)
        store = ResultsStore(str(tmp_path / "runs" / spec.campaign_id))
        with ResultsDB(str(tmp_path / "svc.db")) as db:
            db.import_root(str(tmp_path / "runs"))
            rows = db.shards(spec.campaign_id)
            records = list(store.iter_shards())
            assert [row["shard_index"] for row in rows] == [
                record.index for record in records
            ]
            assert [row["num_faults"] for row in rows] == [
                record.num_faults for record in records
            ]
