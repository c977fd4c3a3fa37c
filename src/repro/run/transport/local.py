"""In-process and local process-pool transports.

``serial`` grades windows inline — the reference path every other
transport is verified against. ``local`` wraps the persistent
``ProcessPoolExecutor`` (PR 6: prewarmed fork inheritance, packed-bytes
IPC) behind the dynamic-queue contract: at most a small multiple of the
worker count is in flight, and the next window is submitted the moment
one completes, so an uneven shard (or an overloaded core) never leaves
the rest of the plan pre-assigned to a straggler. A worker process lost
mid-shard (OOM kill, segfault) breaks the pool; the transport rebuilds
it and re-queues the windows that were in flight — grading is
deterministic, so the retried records are bit-identical.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Dict, Iterator, Optional, Sequence

import repro
from repro.errors import CampaignError
from repro.run import worker
from repro.run.store import ShardRecord
from repro.run.transport.base import ShardTransport

#: rebuilds tolerated per grade_windows call before giving up — repeated
#: pool deaths mean the shard itself kills workers, and retrying forever
#: would loop.
MAX_POOL_REBUILDS = 2


class SerialTransport(ShardTransport):
    """Grade windows inline, one at a time, in this process."""

    name = "serial"

    def grade_windows(self, spec, spec_dict, windows) -> Iterator[ShardRecord]:
        for window in windows:
            record = ShardRecord.from_json_obj(
                worker.grade_window(
                    spec_dict,
                    window.index,
                    window.start_cycle,
                    window.end_cycle,
                )
            )
            record.worker = "inline"
            yield record

    def describe(self) -> str:
        return "serial (in-process)"


class LocalPoolTransport(ShardTransport):
    """Persistent process pool with dynamic window dispatch."""

    name = "local"

    def __init__(
        self,
        workers: int,
        progress: Optional[Callable[[str], None]] = None,
    ):
        if workers < 2:
            raise CampaignError("the local pool transport needs >= 2 workers")
        self.workers = int(workers)
        self.progress = progress
        self._pool: Optional[ProcessPoolExecutor] = None

    # -- pool lifecycle ------------------------------------------------
    def _ensure_pool(self) -> ProcessPoolExecutor:
        """The persistent worker pool, created on first pooled grade.

        Keeping the executor alive across campaigns is a large share of
        the multi-worker win: repeated grades (sweeps, bench repeats,
        adaptive rounds) reuse warm worker processes instead of paying
        fork + import + scenario warmup per call. The runner prewarms the
        campaign artifacts *before* the first grade, so forked workers
        inherit every session cache.
        """
        if self._pool is None:
            # fork inherits the prewarmed caches; spawn where it is missing
            start_method = (
                "fork"
                if "fork" in multiprocessing.get_all_start_methods()
                else "spawn"
            )
            package_root = os.path.dirname(os.path.dirname(repro.__file__))
            self._pool = ProcessPoolExecutor(
                self.workers,
                multiprocessing.get_context(start_method),
                initializer=worker.worker_init,
                initargs=(package_root,),
            )
        return self._pool

    def _rebuild_pool(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def effective_workers(self) -> int:
        return self.workers

    def describe(self) -> str:
        return f"local pool ({self.workers} workers)"

    # -- grading -------------------------------------------------------
    def grade_windows(self, spec, spec_dict, windows) -> Iterator[ShardRecord]:
        pending = list(windows)
        attempts: Dict[int, int] = {}
        rebuilds = 0
        # Dynamic queue: keep the pool saturated (one extra window per
        # worker absorbs result-return latency) but never pre-assign the
        # whole plan — an idle worker pulls the next window, a slow one
        # simply pulls fewer.
        max_inflight = self.workers * 2
        inflight: Dict = {}
        while pending or inflight:
            pool = self._ensure_pool()
            try:
                while pending and len(inflight) < max_inflight:
                    window = pending.pop(0)
                    attempts[window.index] = attempts.get(window.index, 0) + 1
                    future = pool.submit(
                        worker.grade_window,
                        spec_dict,
                        window.index,
                        window.start_cycle,
                        window.end_cycle,
                    )
                    inflight[future] = window
                finished, _ = wait(
                    set(inflight), return_when=FIRST_COMPLETED
                )
                for future in finished:
                    window = inflight.pop(future)
                    record = ShardRecord.from_json_obj(future.result())
                    record.worker = f"pool:{self.workers}"
                    record.attempts = attempts[window.index]
                    yield record
            except BrokenProcessPool:
                # A worker died mid-shard. Re-queue everything that was
                # in flight on the broken pool and grade it on a fresh
                # one — determinism makes the retry bit-identical.
                lost = sorted(
                    (window for window in inflight.values()),
                    key=lambda window: window.index,
                )
                inflight.clear()
                self._rebuild_pool()
                rebuilds += 1
                if rebuilds > MAX_POOL_REBUILDS:
                    raise CampaignError(
                        "local worker pool died "
                        f"{rebuilds} times (last while grading shards "
                        f"{[window.index for window in lost]}); the shard "
                        "work itself appears to kill workers"
                    ) from None
                if self.progress:
                    self.progress(
                        f"[transport:local] pool broke; re-queueing "
                        f"{len(lost)} in-flight shard(s) on a fresh pool"
                    )
                pending = lost + pending
                time.sleep(0.05)  # let the dead pool's fds drain
