"""In-process transports: inline and on a persistent thread pool.

``serial`` grades windows inline — the reference path every other
transport is verified against. ``local`` grades them on a persistent
pool of threads in this process. Every fused grade is one native kernel
call that releases the GIL, so shard threads run in parallel, and specs
and outcomes never cross a process boundary. The dynamic-queue contract
holds: at most twice the worker count is in flight, and the next window
is submitted the moment one completes, so an uneven shard (or an
overloaded core) never leaves the rest of the plan pre-assigned to a
straggler.

Without the native kernel ``fused`` grades on ``bigint``, which holds
the GIL, so the pool runs one thread: more would only contend for it.
On such a host the TCP fleet (``repro worker`` daemons) is the way to
use several cores.
"""

from __future__ import annotations

from concurrent.futures import FIRST_COMPLETED, Future, ThreadPoolExecutor, wait
from itertools import islice
from typing import Iterator, Optional, Set

from repro.errors import CampaignError
from repro.run import worker
from repro.run.store import ShardRecord
from repro.run.transport.base import ShardTransport


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
    """Persistent in-process thread pool with dynamic window dispatch."""

    name = "local"

    def __init__(self, workers: int):
        if workers < 2:
            raise CampaignError("the local pool transport needs >= 2 workers")
        self.workers = int(workers)
        self._pool: Optional[ThreadPoolExecutor] = None

    def _ensure_pool(self) -> ThreadPoolExecutor:
        """The persistent thread pool, created on first pooled grade.

        Repeated grades (sweeps, bench repeats, adaptive rounds) reuse
        its threads; the runner prewarms the campaign's artifacts before
        the first grade, so every thread finds the session caches warm.
        """
        if self._pool is None:
            from repro.sim.backends._native import native_kernel

            threads = self.workers if native_kernel() is not None else 1
            self._pool = ThreadPoolExecutor(
                threads, thread_name_prefix="repro-shard"
            )
        return self._pool

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(cancel_futures=True)
            self._pool = None

    def effective_workers(self) -> int:
        return self.workers

    def describe(self) -> str:
        return f"local pool ({self.workers} workers)"

    def grade_windows(self, spec, spec_dict, windows) -> Iterator[ShardRecord]:
        pool = self._ensure_pool()
        pending = iter(windows)
        # Dynamic queue: keep every thread busy (one extra window per
        # worker absorbs the hand-off latency) but never pre-assign the
        # whole plan — an idle thread pulls the next window.
        max_inflight = self.workers * 2
        inflight: Set[Future] = set()
        try:
            while True:
                for window in islice(pending, max_inflight - len(inflight)):
                    inflight.add(pool.submit(
                        worker.grade_window,
                        spec_dict,
                        window.index,
                        window.start_cycle,
                        window.end_cycle,
                    ))
                if not inflight:
                    return
                finished, _ = wait(inflight, return_when=FIRST_COMPLETED)
                for future in finished:
                    inflight.remove(future)
                    record = ShardRecord.from_json_obj(future.result())
                    record.worker = f"pool:{self.workers}"
                    yield record
        finally:
            # A shard that raised, or a consumer that stopped early,
            # leaves windows queued: drop the ones not yet started.
            for future in inflight:
                future.cancel()
