"""Background campaign execution for the service daemon.

One executor thread drains a bounded submission queue and grades each
campaign through a persistent :class:`~repro.run.runner.CampaignRunner`
— so the service reuses whatever transport the operator configured
(serial, in-process thread pool, TCP fleet) and inherits all of the runner's
resume/retry behavior. Every state transition is written to the
:class:`~repro.service.db.ResultsDB` *and* the JSONL store stays the
durability layer: a service killed mid-campaign resumes the campaign's
completed shards on resubmission exactly like the CLI does.

Cancellation is cooperative and shard-grained: ``DELETE`` sets
``cancel_requested`` in the database, and the runner's ``on_shard``
callback — which fires between shards, never inside one — raises
:class:`_Cancelled` at the next boundary. Completed shards remain
checkpointed in the JSONL store, so a cancelled campaign that is later
resubmitted picks up where it stopped.
"""

from __future__ import annotations

import os
import queue
import threading
import traceback
from typing import Optional

from repro.errors import ServiceError
from repro.run.runner import CampaignRunner
from repro.run.spec import CampaignSpec
from repro.run.store import ResultsStore
from repro.service.db import ResultsDB

#: default bound on queued-but-unstarted campaigns
DEFAULT_QUEUE_LIMIT = 64


class _Cancelled(Exception):
    """Raised from the on_shard callback to abort between shards."""


class CampaignExecutor:
    """Single-threaded campaign queue draining into a shared runner."""

    def __init__(
        self,
        db: ResultsDB,
        runner: CampaignRunner,
        queue_limit: int = DEFAULT_QUEUE_LIMIT,
    ):
        if runner.store_root is None:
            raise ServiceError(
                "the service runner needs a store_root: the JSONL store is "
                "the durability layer the database indexes"
            )
        self.db = db
        self.runner = runner
        self._queue: "queue.Queue[Optional[CampaignSpec]]" = queue.Queue(
            maxsize=max(1, int(queue_limit))
        )
        self._thread = threading.Thread(
            target=self._drain, name="repro-service-executor", daemon=True
        )
        self._started = False
        self._current: Optional[str] = None
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        if not self._started:
            self._started = True
            self._thread.start()

    def stop(self, wait: bool = True) -> None:
        """Finish the in-flight campaign, then exit the drain thread."""
        if not self._started:
            return
        self._queue.put(None)
        if wait:
            self._thread.join()

    @property
    def queue_depth(self) -> int:
        return self._queue.qsize()

    @property
    def current_campaign(self) -> Optional[str]:
        """Campaign id being graded right now, if any."""
        with self._lock:
            return self._current

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    def submit(self, spec: CampaignSpec) -> None:
        """Enqueue a campaign the database already holds as queued.

        Raises :class:`ServiceError` when the bounded queue is full —
        the HTTP layer turns that into a 503 so a client can back off
        instead of the daemon buffering unboundedly.
        """
        try:
            self._queue.put_nowait(spec)
        except queue.Full:
            raise ServiceError(
                f"submission queue is full ({self._queue.maxsize} campaigns "
                "queued); retry after some complete"
            ) from None

    # ------------------------------------------------------------------
    # drain loop
    # ------------------------------------------------------------------
    def _drain(self) -> None:
        while True:
            spec = self._queue.get()
            if spec is None:
                return
            row = self.db.campaign(spec.campaign_id)
            if row is None or row["status"] != "queued":
                # cancelled-while-queued (or deleted); nothing to run
                continue
            with self._lock:
                self._current = spec.campaign_id
            try:
                self._execute(spec)
            except _Cancelled:
                self.db.mark_cancelled(spec.campaign_id)
            except Exception as error:  # one bad campaign must not kill the drain
                detail = "".join(
                    traceback.format_exception_only(type(error), error)
                ).strip()
                self.db.mark_failed(spec.campaign_id, detail)
            finally:
                with self._lock:
                    self._current = None

    def _execute(self, spec: CampaignSpec) -> None:
        campaign_id = spec.campaign_id
        self.db.mark_running(campaign_id)

        def on_shard(record, done, total):
            self.db.update_progress(campaign_id, done, total)
            if self.db.cancel_requested(campaign_id):
                raise _Cancelled(campaign_id)

        self.runner.on_shard = on_shard
        try:
            oracle = self.runner.grade(spec)
        finally:
            self.runner.on_shard = None
        result = self.runner.run(spec, oracle=oracle)

        # Re-read the shard records from the JSONL store rather than
        # trusting the callback trail: resumed shards graded by an
        # earlier process belong in the index too.
        store = ResultsStore(
            # the runner opened/validated this store during grade()
            os.path.join(self.runner.store_root, campaign_id)
        )
        self.db.record_shards(campaign_id, store.iter_shards())
        self.db.record_outcomes(
            campaign_id, oracle.faults, oracle.fail_cycles,
            oracle.vanish_cycles,
        )
        self.db.mark_done(
            campaign_id,
            oracle_digest=oracle.outcome_digest(),
            num_faults=oracle.num_faults,
            total_cycles=result.total_cycles,
            emulation_ms=result.timing.milliseconds,
            us_per_fault=result.timing.us_per_fault,
        )
