"""Indexed SQLite results database for campaign outcomes.

The JSONL :class:`~repro.run.store.ResultsStore` is the *durability*
layer: append-only per-campaign shard checkpoints, optimized for
kill-tolerant resume. This module is the *query* layer: one indexed
SQLite file holding every campaign ever graded, so questions that span
campaigns — "failure rate of flop X across all b14 campaigns",
"hardened vs plain failure trend" — are one SQL statement instead of a
directory crawl plus a scenario rebuild per store.

Schema (three tables, mirroring DrSEUs's campaign/result/injection
split):

* ``campaigns``  — one row per campaign: the spec fields, lifecycle
  status (``queued → running → done`` / ``failed`` / ``cancelled``,
  or ``imported`` for JSONL imports), progress counters, timing and the
  merged oracle's ``oracle_digest``.
* ``shards``     — one row per graded cycle-window with its
  ``worker``/``attempts`` provenance (the JSONL shard records, minus
  the bulky outcome arrays).
* ``flop_outcomes`` — one row per (campaign, flop) with at least one
  fault: that flop's FAILURE/LATENT/SILENT counts. Every query only
  aggregates verdicts by campaign and flop, so this is the table they
  all sum; the per-fault cycles stay in the JSONL store alone.

The schema is versioned through ``PRAGMA user_version`` and the
database opens in WAL mode, so the service's executor thread, its HTTP
handler threads and an external ``repro query`` process can read and
write concurrently. A database written by a different schema version is
refused with a nameable error, never silently migrated.
"""

from __future__ import annotations

import json
import os
import sqlite3
import threading
import time
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.errors import CampaignError, ReproError, ServiceError
from repro.faults.classify import VERDICTS, verdict_codes
from repro.faults.model import FaultArray
from repro.run.spec import CampaignSpec
from repro.run.store import ResultsStore, ShardRecord, discover_stores

#: bump on any table/column/index change; mismatched files are refused.
SCHEMA_VERSION = 2

#: default database location, beside the JSONL stores it indexes
DEFAULT_DB_FILENAME = "service.db"

_SCHEMA = """
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

CREATE TABLE flop_outcomes (
    campaign_id TEXT NOT NULL REFERENCES campaigns (campaign_id)
                ON DELETE CASCADE,
    flop        TEXT NOT NULL,
    failure     INTEGER NOT NULL,
    latent      INTEGER NOT NULL,
    silent      INTEGER NOT NULL,
    PRIMARY KEY (campaign_id, flop)
);
"""

#: SQL for the number of faults pooled into a group of flop_outcomes rows
_FAULTS = "SUM(o.failure + o.latent + o.silent)"

#: campaign lifecycle states a row may hold
CAMPAIGN_STATUSES = (
    "queued", "running", "done", "failed", "cancelled", "imported"
)

def spec_from_manifest(manifest: Dict) -> CampaignSpec:
    """Reconstruct a gradeable spec from a JSONL store manifest.

    The manifest's oracle key holds every field that determined the
    graded outcomes (circuit, resolved testbench kind, cycles, seed,
    fault model, sampling, optional hardening); technique/board/engine
    do not affect fail/vanish cycles, so the reconstruction pins
    defaults for them. The caller must verify the reconstructed spec's
    ``campaign_id`` against the store directory name — a mismatch means
    the fault population is no longer reproducible (for imported
    circuits: the netlist file changed since grading).
    """
    oracle = manifest.get("oracle") or {}
    try:
        return CampaignSpec(
            circuit=str(oracle["circuit"]),
            technique="time_multiplexed",
            testbench=str(oracle["testbench"]),
            num_cycles=int(oracle["num_cycles"]),
            seed=int(oracle["seed"]),
            sample=oracle.get("sample"),
            fault_model=str(oracle.get("fault_model", "seu")),
            sampling=str(oracle.get("sampling", "uniform")),
            hardening=oracle.get("hardening"),
            hardening_flops=oracle.get("hardening_flops"),
        )
    except (KeyError, TypeError, ValueError) as error:
        raise ServiceError(
            f"store manifest oracle key is not reconstructable: {error}"
        ) from None


class ResultsDB:
    """One campaign-results database file.

    Thread-safe: a single connection guarded by an RLock (SQLite
    serializes writers anyway; WAL keeps readers from blocking on
    them). Separate *processes* — the service daemon plus a concurrent
    ``repro query`` — each open their own :class:`ResultsDB` on the
    same path and coexist through WAL.
    """

    def __init__(self, path: str, timeout: float = 30.0):
        self.path = str(path)
        parent = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(parent, exist_ok=True)
        self._lock = threading.RLock()
        self._conn = sqlite3.connect(
            self.path, timeout=timeout, check_same_thread=False
        )
        self._conn.row_factory = sqlite3.Row
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute("PRAGMA synchronous=NORMAL")
        self._conn.execute("PRAGMA foreign_keys=ON")
        self._init_schema()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def _init_schema(self) -> None:
        with self._lock:
            (version,) = self._conn.execute("PRAGMA user_version").fetchone()
            if version == SCHEMA_VERSION:
                return
            if version != 0:
                raise ServiceError(
                    f"results database {self.path} has schema version "
                    f"{version}; this build speaks {SCHEMA_VERSION} — "
                    "migrate or re-import into a fresh database "
                    "(repro db import writes losslessly from the JSONL "
                    "stores)"
                )
            has_tables = self._conn.execute(
                "SELECT name FROM sqlite_master WHERE type='table' LIMIT 1"
            ).fetchone()
            if has_tables:
                raise ServiceError(
                    f"{self.path} is a SQLite file but not a repro results "
                    "database (tables exist, schema version 0); refusing "
                    "to overwrite it"
                )
            with self._conn:
                self._conn.executescript(_SCHEMA)
                self._conn.execute(f"PRAGMA user_version = {SCHEMA_VERSION}")

    def close(self) -> None:
        with self._lock:
            self._conn.close()

    def __enter__(self) -> "ResultsDB":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # campaign lifecycle writes
    # ------------------------------------------------------------------
    def _spec_row(self, spec: CampaignSpec, source: str) -> Dict:
        return {
            "campaign_id": spec.campaign_id,
            "circuit": spec.circuit,
            "effective_circuit": spec.effective_circuit,
            "technique": spec.technique,
            "engine": spec.engine,
            "testbench": spec.resolved_testbench_kind(),
            "num_cycles": spec.resolved_cycles(),
            "seed": spec.seed,
            "sample": spec.sample,
            "sampling": spec.sampling,
            "fault_model": spec.fault_model,
            "hardening": spec.hardening,
            "spec_json": json.dumps(spec.to_dict(), sort_keys=True),
            "source": source,
        }

    def submit(self, spec: CampaignSpec) -> Tuple[bool, Dict]:
        """Record a submission; idempotent on the campaign id.

        Returns ``(created, row)``. An existing campaign in any *live*
        state (queued / running / done / imported) is returned as-is —
        resubmitting the same spec never regrades. A ``failed`` or
        ``cancelled`` campaign is re-queued: the terminal state is what
        the resubmission is asking to retry.
        """
        with self._lock, self._conn:
            existing = self.campaign(spec.campaign_id)
            if existing is not None:
                if existing["status"] in ("failed", "cancelled"):
                    self._conn.execute(
                        "UPDATE campaigns SET status='queued', error=NULL, "
                        "cancel_requested=0, submitted_at=?, started_at=NULL, "
                        "finished_at=NULL WHERE campaign_id=?",
                        (time.time(), spec.campaign_id),
                    )
                    return True, self.campaign(spec.campaign_id)
                return False, existing
            row = self._spec_row(spec, source="service")
            row.update(status="queued", submitted_at=time.time())
            columns = ", ".join(row)
            holes = ", ".join("?" for _ in row)
            self._conn.execute(
                f"INSERT INTO campaigns ({columns}) VALUES ({holes})",
                tuple(row.values()),
            )
            return True, self.campaign(spec.campaign_id)

    def delete_campaign(self, campaign_id: str) -> bool:
        """Drop a campaign and (via cascades) its shards and outcomes."""
        with self._lock, self._conn:
            cursor = self._conn.execute(
                "DELETE FROM campaigns WHERE campaign_id=?", (campaign_id,)
            )
            return cursor.rowcount > 0

    def mark_running(self, campaign_id: str) -> None:
        self._update(
            campaign_id, status="running", started_at=time.time(),
        )

    def update_progress(
        self, campaign_id: str, shards_done: int, num_shards: int
    ) -> None:
        self._update(
            campaign_id, shards_done=shards_done, num_shards=num_shards
        )

    def mark_failed(self, campaign_id: str, error: str) -> None:
        self._update(
            campaign_id, status="failed", error=str(error)[:2000],
            finished_at=time.time(),
        )

    def request_cancel(self, campaign_id: str) -> Optional[str]:
        """Ask for cancellation; returns the resulting status.

        A queued campaign flips straight to ``cancelled`` (the executor
        skips it). A running one gets ``cancel_requested`` set — the
        executor notices at its next shard boundary and transitions the
        status itself. Terminal campaigns return ``None`` (nothing to
        cancel).
        """
        with self._lock, self._conn:
            row = self.campaign(campaign_id)
            if row is None:
                raise ServiceError(f"unknown campaign {campaign_id!r}")
            if row["status"] == "queued":
                self._conn.execute(
                    "UPDATE campaigns SET status='cancelled', finished_at=? "
                    "WHERE campaign_id=? AND status='queued'",
                    (time.time(), campaign_id),
                )
                return "cancelled"
            if row["status"] == "running":
                self._conn.execute(
                    "UPDATE campaigns SET cancel_requested=1 "
                    "WHERE campaign_id=?",
                    (campaign_id,),
                )
                return "cancelling"
            return None

    def mark_cancelled(self, campaign_id: str) -> None:
        self._update(
            campaign_id, status="cancelled", cancel_requested=0,
            finished_at=time.time(),
        )

    def cancel_requested(self, campaign_id: str) -> bool:
        with self._lock:
            row = self._conn.execute(
                "SELECT cancel_requested FROM campaigns WHERE campaign_id=?",
                (campaign_id,),
            ).fetchone()
        return bool(row and row[0])

    def _update(self, campaign_id: str, **fields) -> None:
        assignments = ", ".join(f"{name}=?" for name in fields)
        with self._lock, self._conn:
            self._conn.execute(
                f"UPDATE campaigns SET {assignments} WHERE campaign_id=?",
                (*fields.values(), campaign_id),
            )

    # ------------------------------------------------------------------
    # results writes
    # ------------------------------------------------------------------
    def record_outcomes(
        self,
        campaign_id: str,
        faults: FaultArray,
        fail_cycles: Iterable[int],
        vanish_cycles: Iterable[int],
    ) -> int:
        """Replace one campaign's per-flop verdict counts; returns the
        rows written. Flops without a fault get no row: a zero row would
        count the campaign toward a flop its sample never touched."""
        width = len(VERDICTS)
        counts = np.bincount(
            faults.flops * width + verdict_codes(fail_cycles, vanish_cycles),
            minlength=len(faults.flop_names) * width,
        ).reshape(-1, width)
        rows = [
            (campaign_id, faults.flop_names[flop] or f"flop[{flop}]",
             *counts[flop].tolist())
            for flop in np.flatnonzero(counts.any(axis=1)).tolist()
        ]
        with self._lock, self._conn:
            self._conn.execute(
                "DELETE FROM flop_outcomes WHERE campaign_id=?",
                (campaign_id,),
            )
            self._conn.executemany(
                "INSERT INTO flop_outcomes VALUES (?,?,?,?,?)", rows
            )
        return len(rows)

    def record_shards(
        self, campaign_id: str, records: Iterable[ShardRecord]
    ) -> int:
        rows = [
            (
                campaign_id, record.index, record.start_cycle,
                record.end_cycle, record.num_faults, record.engine,
                record.elapsed_s, record.worker, record.attempts,
            )
            for record in records
        ]
        with self._lock, self._conn:
            self._conn.execute(
                "DELETE FROM shards WHERE campaign_id=?", (campaign_id,)
            )
            self._conn.executemany(
                "INSERT INTO shards VALUES (?,?,?,?,?,?,?,?,?)", rows
            )
        return len(rows)

    def mark_done(
        self,
        campaign_id: str,
        oracle_digest: str,
        num_faults: int,
        total_cycles: Optional[int] = None,
        emulation_ms: Optional[float] = None,
        us_per_fault: Optional[float] = None,
        status: str = "done",
    ) -> None:
        self._update(
            campaign_id,
            status=status,
            oracle_digest=oracle_digest,
            num_faults=num_faults,
            total_cycles=total_cycles,
            emulation_ms=emulation_ms,
            us_per_fault=us_per_fault,
            finished_at=time.time(),
            cancel_requested=0,
        )

    # ------------------------------------------------------------------
    # JSONL import
    # ------------------------------------------------------------------
    def import_store(self, store: ResultsStore) -> Dict:
        """Losslessly import one JSONL campaign store.

        Rebuilds the fault population from the manifest's oracle key
        (bit-identically — the same code path the runner uses),
        concatenates the stored shard outcomes in window order, derives
        verdicts, and writes campaign + shards + outcomes rows. Returns
        a summary dict with ``campaign_id`` and ``action`` (one of
        ``imported``, ``exists``, ``refused``) plus a ``reason`` when
        refused. Incomplete stores (missing shards) are refused — a
        partial import would undercount every aggregate that touches
        the campaign.
        """
        from repro.run import worker

        directory_id = os.path.basename(os.path.normpath(store.directory))
        manifest = store.manifest()
        if manifest is None:
            return self._refusal(directory_id, "no spec.json manifest")
        try:
            spec = spec_from_manifest(manifest)
        except (ServiceError, CampaignError) as error:
            return self._refusal(directory_id, str(error))
        if spec.campaign_id != directory_id:
            return self._refusal(
                directory_id,
                "fault population is not reproducible (the reconstructed "
                f"spec hashes to {spec.campaign_id}; for imported circuits "
                "this means the netlist file changed since grading)",
            )
        existing = self.campaign(spec.campaign_id)
        if existing is not None and existing["status"] in ("done", "imported"):
            return {
                "campaign_id": spec.campaign_id, "action": "exists",
                "reason": f"already {existing['status']}",
            }
        windows = [
            (int(start), int(end)) for start, end in manifest.get("windows", [])
        ]
        records = {record.index: record for record in store.iter_shards()}
        try:
            scenario = worker.scenario_for(spec)
        except ReproError as error:
            return self._refusal(directory_id, f"scenario rebuild failed: {error}")
        try:
            fail, vanish = worker.merge_windows(scenario.faults, windows, records)
        except CampaignError as error:
            return self._refusal(directory_id, str(error))

        from repro.sim.parallel import FaultGradingResult

        digest = FaultGradingResult(
            faults=scenario.faults,
            num_cycles=scenario.testbench.num_cycles,
            flop_names=[],
            golden=None,
            fail_cycles=fail,
            vanish_cycles=vanish,
        ).outcome_digest()
        with self._lock, self._conn:
            row = self._spec_row(spec, source="import")
            row.update(status="imported", submitted_at=time.time())
            columns = ", ".join(row)
            holes = ", ".join("?" for _ in row)
            self._conn.execute(
                "DELETE FROM campaigns WHERE campaign_id=?",
                (spec.campaign_id,),
            )
            self._conn.execute(
                f"INSERT INTO campaigns ({columns}) VALUES ({holes})",
                tuple(row.values()),
            )
        self.record_shards(spec.campaign_id, records.values())
        self.record_outcomes(spec.campaign_id, scenario.faults, fail, vanish)
        self.mark_done(
            spec.campaign_id, digest, len(fail), status="imported"
        )
        return {"campaign_id": spec.campaign_id, "action": "imported",
                "faults": len(fail), "shards": len(windows)}

    def import_root(self, root: str) -> List[Dict]:
        """Import every campaign store found under ``root``."""
        return [self.import_store(store) for store in discover_stores(root)]

    @staticmethod
    def _refusal(campaign_id: str, reason: str) -> Dict:
        return {"campaign_id": campaign_id, "action": "refused",
                "reason": reason}

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def campaign(self, campaign_id: str) -> Optional[Dict]:
        with self._lock:
            row = self._conn.execute(
                "SELECT * FROM campaigns WHERE campaign_id=?", (campaign_id,)
            ).fetchone()
        return dict(row) if row is not None else None

    def campaigns(self, status: Optional[str] = None) -> List[Dict]:
        """All campaigns, newest submission first."""
        query = "SELECT * FROM campaigns"
        params: Tuple = ()
        if status is not None:
            if status not in CAMPAIGN_STATUSES:
                raise ServiceError(
                    f"unknown campaign status {status!r}; expected one of "
                    f"{', '.join(CAMPAIGN_STATUSES)}"
                )
            query += " WHERE status=?"
            params = (status,)
        query += " ORDER BY submitted_at DESC, campaign_id"
        with self._lock:
            rows = self._conn.execute(query, params).fetchall()
        return [dict(row) for row in rows]

    def shards(self, campaign_id: str) -> List[Dict]:
        """One campaign's shard provenance rows, in shard-index order."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT * FROM shards WHERE campaign_id=? "
                "ORDER BY shard_index",
                (campaign_id,),
            ).fetchall()
        return [dict(row) for row in rows]

    def class_counts(self, campaign_id: str) -> Dict[str, int]:
        """FAILURE/LATENT/SILENT counts of one campaign, from SQL."""
        with self._lock:
            row = self._conn.execute(
                "SELECT SUM(failure), SUM(latent), SUM(silent) "
                "FROM flop_outcomes WHERE campaign_id=?",
                (campaign_id,),
            ).fetchone()
        return {verdict.value: count or 0 for verdict, count in zip(VERDICTS, row)}

    def counts(self) -> Dict[str, int]:
        """Row counts per table (db info / sanity checks)."""
        with self._lock:
            return {
                table: self._conn.execute(
                    f"SELECT COUNT(*) FROM {table}"
                ).fetchone()[0]
                for table in ("campaigns", "shards", "flop_outcomes")
            }

    # ------------------------------------------------------------------
    # cross-campaign queries
    # ------------------------------------------------------------------
    def flop_failure_rates(
        self,
        circuit: Optional[str] = None,
        fault_model: Optional[str] = None,
        limit: Optional[int] = None,
        mode: Optional[str] = None,
    ) -> List[Dict]:
        """Per-flop failure rate aggregated **across campaigns**.

        The query the JSONL store structurally cannot answer without
        rebuilding every campaign's scenario: how often does an upset
        in flop X propagate to an output, pooled over every campaign
        (optionally restricted to one circuit and/or fault model) in
        the database.

        Pooling gives every *fault* equal weight, so mixing sampled and
        exhaustive campaigns biases the rate toward whichever mode
        contributed more rows — an exhaustive campaign can drown a
        sampled one (or, with large samples over many campaigns, the
        reverse). ``mode`` scopes the aggregate: ``"exhaustive"`` pools
        only complete-population campaigns, ``"sampled"`` only sampled
        ones, ``None`` pools everything but flags the bias — each row
        then carries ``sampled_campaigns`` / ``exhaustive_campaigns``
        counts and ``mixed_pool`` is true where both contributed.
        Consumers that rank flops (the selective-hardening optimizer)
        should pass a mode or check the flag.
        """
        if mode not in (None, "sampled", "exhaustive"):
            raise ServiceError(
                f"unknown sampling-mode filter {mode!r}; expected "
                "'sampled', 'exhaustive' or None (pool everything)"
            )
        conditions = ["1=1"]
        params: List = []
        if circuit is not None:
            conditions.append("c.circuit = ?")
            params.append(circuit)
        if fault_model is not None:
            conditions.append("c.fault_model = ?")
            params.append(fault_model)
        if mode == "sampled":
            conditions.append("c.sample IS NOT NULL")
        elif mode == "exhaustive":
            conditions.append("c.sample IS NULL")
        query = (
            "SELECT o.flop AS flop, "
            "COUNT(*) AS campaigns, "
            "SUM(c.sample IS NOT NULL) AS sampled_campaigns, "
            "SUM(c.sample IS NULL) AS exhaustive_campaigns, "
            f"{_FAULTS} AS faults, "
            "SUM(o.failure) AS failures, "
            f"ROUND(1.0 * SUM(o.failure) / {_FAULTS}, 6) AS failure_rate "
            "FROM flop_outcomes o "
            "JOIN campaigns c ON c.campaign_id = o.campaign_id "
            f"WHERE {' AND '.join(conditions)} "
            "GROUP BY o.flop "
            "ORDER BY failure_rate DESC, failures DESC, flop"
        )
        if limit is not None:
            query += " LIMIT ?"
            params.append(int(limit))
        with self._lock:
            rows = self._conn.execute(query, params).fetchall()
        results = []
        for row in rows:
            result = dict(row)
            result["mixed_pool"] = bool(
                result["sampled_campaigns"] and result["exhaustive_campaigns"]
            )
            results.append(result)
        return results

    def class_breakdown(self, group: str = "effective_circuit") -> List[Dict]:
        """Per-group verdict totals across all campaigns.

        ``group`` is a campaigns column (``effective_circuit``,
        ``circuit``, ``hardening``, ``fault_model``, ``status``) — the
        hardened-vs-plain failure trend is ``group="hardening"``.
        """
        if group not in (
            "effective_circuit", "circuit", "hardening", "fault_model",
            "status", "sampling", "testbench",
        ):
            raise ServiceError(f"cannot group the class breakdown by {group!r}")
        query = (
            f"SELECT COALESCE(c.{group}, 'none') AS grp, "
            "COUNT(DISTINCT c.campaign_id) AS campaigns, "
            f"{_FAULTS} AS faults, "
            "SUM(o.failure) AS failures, "
            "SUM(o.latent) AS latent, "
            "SUM(o.silent) AS silent, "
            f"ROUND(1.0 * SUM(o.failure) / {_FAULTS}, 6) AS failure_rate "
            "FROM flop_outcomes o "
            "JOIN campaigns c ON c.campaign_id = o.campaign_id "
            "GROUP BY grp ORDER BY grp"
        )
        with self._lock:
            rows = self._conn.execute(query).fetchall()
        return [dict(row) for row in rows]
