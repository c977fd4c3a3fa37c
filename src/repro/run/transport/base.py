"""Transport interface: how shard grading reaches compute.

A :class:`ShardTransport` owns the *where* of shard execution — inline,
on a thread pool in this process, or on a fleet of remote TCP workers —
while :class:`~repro.run.runner.CampaignRunner` keeps the *what*:
planning windows, checkpointing records, merging outcomes. The contract
every transport honours:

* ``grade_windows`` consumes pending windows from a **dynamic queue**:
  workers pull the next window when idle, so a slow worker (heterogeneous
  cores, a busy remote host) takes fewer shards instead of stalling the
  campaign on its fixed pre-assignment.
* Records are yielded **as they complete**, in any order; the runner
  checkpoints each one immediately, so a crash loses at most in-flight
  work no matter which transport produced the finished shards.
* A lost remote worker's in-flight window is **re-queued**, not lost; grading
  is deterministic, so a re-run shard is bit-identical and the merge
  invariant survives any interleaving of failures.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Dict, Iterator, Sequence

if TYPE_CHECKING:  # import cycle: runner imports the transport registry
    from repro.run.runner import ShardWindow
    from repro.run.spec import CampaignSpec
    from repro.run.store import ShardRecord


class ShardTransport(ABC):
    """One way of turning pending shard windows into shard records."""

    #: registry name (``serial`` / ``local`` / ``tcp``)
    name: str = ""

    @abstractmethod
    def grade_windows(
        self,
        spec: "CampaignSpec",
        spec_dict: Dict,
        windows: Sequence["ShardWindow"],
    ) -> Iterator["ShardRecord"]:
        """Grade every window, yielding completed records as they finish.

        ``spec_dict`` is the spec's serialized form (what shard tasks
        and the wire protocol carry); ``spec`` is available for
        planning-side artifacts the transport may need (digests, wire
        fields). Implementations must yield exactly one record per
        window or raise :class:`~repro.errors.CampaignError`.
        """

    def effective_workers(self) -> int:
        """Parallel grading slots, for shard-count planning."""
        return 1

    def describe(self) -> str:
        """One-line human description (progress lines, bench titles)."""
        return self.name or type(self).__name__

    def close(self) -> None:
        """Release threads/connections (idempotent)."""

    def __enter__(self) -> "ShardTransport":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
