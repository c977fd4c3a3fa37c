"""Resumable campaign results store.

One directory per campaign (``<root>/<campaign-id>/``) holding:

* ``spec.json`` — the manifest: store format version, the spec's oracle
  key and the shard plan. Opening an existing store re-validates the
  manifest so a resumed run cannot silently merge shards graded under a
  different configuration.
* ``shards.jsonl`` — one JSON line per *completed* shard with its
  fail/vanish cycles. Appends are flushed per record, so a campaign
  killed mid-run loses at most the shard being written; a truncated
  final line is detected and ignored on resume.

The store persists grading outcomes only — the expensive, restartable
part of a campaign. Cycle accounting is recomputed from the merged
oracle in microseconds, which keeps the store technique-independent:
one store serves mask-scan, state-scan and time-mux alike (the paper's
oracle-sharing observation, made durable).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import CampaignError
from repro.faults.model import CYCLE_DTYPE

#: Bumped to 2 when the manifest gained the ``fault`` section (fault
#: model + sampling identity). Older stores predate the fault-model
#: subsystem and cannot prove what they graded, so they are refused.
STORE_VERSION = 2
MANIFEST_FILE = "spec.json"
SHARDS_FILE = "shards.jsonl"


@dataclass
class ShardRecord:
    """Grading outcomes of one contiguous cycle-window of faults.

    ``worker`` names who graded the shard (``inline``, ``pool:<n>`` or a
    TCP worker's ``host:port``) and ``attempts`` how many dispatch tries
    the window took — 1 everywhere except a shard re-queued off a dead
    or hung worker. Both are provenance only: merge semantics depend on
    neither, and records written before these fields existed load with
    the defaults.
    """

    index: int
    start_cycle: int
    end_cycle: int
    num_faults: int
    fail_cycles: np.ndarray = ()
    vanish_cycles: np.ndarray = ()
    engine: str = ""
    elapsed_s: float = 0.0
    worker: str = ""
    attempts: int = 1

    def __post_init__(self) -> None:
        self.fail_cycles = self._cycle_array(self.fail_cycles)
        self.vanish_cycles = self._cycle_array(self.vanish_cycles)

    def to_json_line(self) -> str:
        return json.dumps(
            {
                "index": self.index,
                "start_cycle": self.start_cycle,
                "end_cycle": self.end_cycle,
                "num_faults": self.num_faults,
                "fail_cycles": self._cycle_array(self.fail_cycles).tolist(),
                "vanish_cycles": self._cycle_array(self.vanish_cycles).tolist(),
                "engine": self.engine,
                "elapsed_s": round(self.elapsed_s, 6),
                "worker": self.worker,
                "attempts": self.attempts,
            },
            sort_keys=True,
        )

    @staticmethod
    def _cycle_array(value) -> np.ndarray:
        """Cycle outcomes as an ``<i4`` column, from JSON lists, arrays or
        the workers' packed little-endian int32 IPC form
        (:func:`repro.run.worker.grade_window`)."""
        if isinstance(value, (bytes, bytearray)):
            return np.frombuffer(value, dtype=CYCLE_DTYPE)
        try:
            cycles = np.asarray(value, dtype=CYCLE_DTYPE)
        except OverflowError:
            raise ValueError("shard cycle outside the int32 range") from None
        if cycles.ndim != 1:
            raise ValueError("shard cycles must be a flat list")
        return cycles

    @classmethod
    def from_json_obj(cls, obj: Dict) -> "ShardRecord":
        record = cls(
            index=int(obj["index"]),
            start_cycle=int(obj["start_cycle"]),
            end_cycle=int(obj["end_cycle"]),
            num_faults=int(obj["num_faults"]),
            fail_cycles=obj["fail_cycles"],
            vanish_cycles=obj["vanish_cycles"],
            engine=str(obj.get("engine", "")),
            elapsed_s=float(obj.get("elapsed_s", 0.0)),
            worker=str(obj.get("worker", "")),
            attempts=int(obj.get("attempts", 1)),
        )
        if (
            len(record.fail_cycles) != record.num_faults
            or len(record.vanish_cycles) != record.num_faults
        ):
            raise ValueError("shard record arrays disagree with num_faults")
        return record


class ResultsStore:
    """JSONL persistence for one campaign's completed shards."""

    def __init__(self, directory: str):
        self.directory = directory
        #: the shard plan in force, as (start_cycle, end_cycle) pairs —
        #: set by :meth:`open` (the stored plan wins over the proposed
        #: one, so a resumed campaign keeps merging cleanly even when
        #: the caller's worker count changed).
        self.windows: List[Tuple[int, int]] = []

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @classmethod
    def open(
        cls,
        root: str,
        oracle_key: Dict,
        campaign_id: str,
        windows: Sequence[Tuple[int, int]],
        fresh: bool = False,
        fault_key: Optional[Dict] = None,
    ) -> "ResultsStore":
        """Open (creating if needed) the store for one campaign.

        ``windows`` is the caller's proposed shard plan as
        ``(start_cycle, end_cycle)`` pairs. A store that already holds a
        *different* plan for the same oracle keeps its own: shard
        records only merge under the plan they were graded with, and a
        changed worker count must not invalidate completed work. The
        adopted plan is exposed as ``store.windows``. ``fresh`` discards
        any existing records and re-pins the proposed plan. A store for
        a different *oracle* (different circuit/stimulus/faults) is an
        error.

        ``fault_key`` (fault model, sampling method, sample size, seed)
        is recorded in the manifest and re-validated field by field on
        resume: shard records are meaningless under a different fault
        population, and the mismatch message must say *what* differs —
        a generic "different configuration" would leave the operator
        diffing JSON by hand.
        """
        directory = os.path.join(root, campaign_id)
        os.makedirs(directory, exist_ok=True)
        store = cls(directory)
        proposed = [(int(start), int(end)) for start, end in windows]
        manifest = {
            "version": STORE_VERSION,
            "oracle": oracle_key,
            "fault": fault_key,
            "windows": [list(pair) for pair in proposed],
        }
        existing = store._read_manifest()
        if existing is None or fresh:
            store.reset()
            store._write_manifest(manifest)
            store.windows = proposed
            return store
        if existing.get("version") != STORE_VERSION:
            raise CampaignError(
                f"results store {directory} was written by store format "
                f"version {existing.get('version')!r} (this build writes "
                f"{STORE_VERSION}); its shards cannot be trusted to match "
                "the current fault population — delete the store directory "
                "or rerun with --no-resume to regrade"
            )
        store._check_fault_key(existing.get("fault"), fault_key, directory)
        if existing.get("oracle") != oracle_key:
            raise CampaignError(
                f"results store {directory} was created for a different "
                "campaign configuration; delete it (or pick another "
                "--store root) to regrade"
            )
        stored = existing.get("windows") or []
        store.windows = [(int(start), int(end)) for start, end in stored]
        return store

    @staticmethod
    def _check_fault_key(
        stored: Optional[Dict], requested: Optional[Dict], directory: str
    ) -> None:
        """Refuse to adopt shards graded under a different fault model or
        sampling configuration, naming each differing field."""
        if stored is None or requested is None:
            if stored != requested:
                raise CampaignError(
                    f"results store {directory} does not record the same "
                    "fault-population identity as this campaign; delete "
                    "the store directory or rerun with --no-resume to "
                    "regrade"
                )
            return
        differing = [
            f"{field_name}: store has {stored.get(field_name)!r}, campaign "
            f"wants {requested.get(field_name)!r}"
            for field_name in sorted(set(stored) | set(requested))
            if stored.get(field_name) != requested.get(field_name)
        ]
        if differing:
            raise CampaignError(
                f"results store {directory} holds shards graded under a "
                "different fault population (" + "; ".join(differing) + "); "
                "its fail/vanish records cannot be merged into this "
                "campaign — delete the store directory, choose another "
                "--store root, or rerun with --no-resume to regrade"
            )

    @property
    def manifest_path(self) -> str:
        return os.path.join(self.directory, MANIFEST_FILE)

    @property
    def shards_path(self) -> str:
        return os.path.join(self.directory, SHARDS_FILE)

    def _read_manifest(self) -> Optional[Dict]:
        try:
            with open(self.manifest_path, "r", encoding="utf-8") as handle:
                return json.load(handle)
        except FileNotFoundError:
            return None
        except json.JSONDecodeError:
            raise CampaignError(
                f"corrupt store manifest {self.manifest_path}; delete the "
                "store directory to regrade"
            ) from None

    def _write_manifest(self, manifest: Dict) -> None:
        with open(self.manifest_path, "w", encoding="utf-8") as handle:
            json.dump(manifest, handle, indent=2, sort_keys=True)
            handle.write("\n")

    # ------------------------------------------------------------------
    # shard records
    # ------------------------------------------------------------------
    def completed(self) -> Dict[int, ShardRecord]:
        """All intact shard records, keyed by shard index.

        Tolerates a truncated or garbled trailing line (the signature of
        a kill mid-append): bad lines are skipped, not fatal. Duplicate
        indices keep the last record.
        """
        records: Dict[int, ShardRecord] = {}
        try:
            handle = open(self.shards_path, "r", encoding="utf-8")
        except FileNotFoundError:
            return records
        with handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = ShardRecord.from_json_obj(json.loads(line))
                except (ValueError, KeyError, TypeError):
                    continue  # partial write from an interrupted run
                records[record.index] = record
        return records

    def append(self, record: ShardRecord) -> None:
        """Durably append one completed shard."""
        with open(self.shards_path, "a", encoding="utf-8") as handle:
            handle.write(record.to_json_line() + "\n")
            handle.flush()
            os.fsync(handle.fileno())

    def reset(self) -> None:
        """Drop all shard records (keeps the manifest)."""
        try:
            os.remove(self.shards_path)
        except FileNotFoundError:
            pass

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def manifest(self) -> Optional[Dict]:
        """The store manifest (version, oracle key, fault key, windows),
        or ``None`` when the directory holds no ``spec.json``. The read
        side of the export path — consumers that re-derive a campaign
        from a store (``repro db import``) start here."""
        return self._read_manifest()

    def iter_shards(self) -> Iterator[ShardRecord]:
        """Intact shard records in shard-index order.

        The streaming export iterator: same tolerance as
        :meth:`completed` (truncated / garbled lines are skipped,
        duplicate indices keep the last record) but yields in index
        order so consumers rebuilding the fault-list order — the SQLite
        importer — can concatenate windows directly.
        """
        records = self.completed()
        for index in sorted(records):
            yield records[index]


def discover_stores(root: str) -> Iterator["ResultsStore"]:
    """Every campaign store under ``root``, in directory-name order.

    A campaign store is any subdirectory holding a readable
    ``spec.json`` manifest; anything else (stray files, half-created
    directories) is skipped rather than fatal — an export sweep over a
    long-lived store root should report what it *can* read.
    """
    try:
        entries = sorted(os.listdir(root))
    except FileNotFoundError:
        return
    for entry in entries:
        directory = os.path.join(root, entry)
        if not os.path.isdir(directory):
            continue
        store = ResultsStore(directory)
        try:
            manifest = store.manifest()
        except CampaignError:
            continue  # unreadable manifest: not exportable, not fatal
        if manifest is not None:
            yield store
