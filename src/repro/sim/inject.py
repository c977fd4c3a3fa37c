"""Columnar injection schedules for the grading engines.

A plain SEU is one XOR into one flop at one cycle. MBUs flip several
flops at once and stuck-at and intermittent faults *force* a flop every
cycle, so the engines grade from an :class:`InjectionSchedule`: one CSR
table whose cycle-``c`` events are rows ``offsets[c]`` to
``offsets[c + 1]`` of the ``flop``, ``lane`` and ``op`` columns (``op``
is :data:`~repro.faults.model.FLIP`, ``FORCE0``, ``FORCE1`` or
``RELEASE``), emitted by the fault class's vectorised
``injection_events`` from the population's columns. Engines accumulate
the force rows into per-flop ``(mask, set)`` bit-planes and re-apply
them to the held state every cycle — the mask-scan instrument's
``ms_force`` override in array form. Cycle ``num_cycles`` carries the
post-bench state's transitions, which the final SILENT/LATENT compare
reads. A transient fault's events all fall on its injection cycle.
Every engine grades every schedule, SEU (one ``FLIP`` per fault)
included, in one loop: the fused engine's native call, and the
``bigint`` and ``numpy`` reference engines' Python loops.

A forced lane that matches the golden state can diverge again, so
``vanish_cycle`` is the start of a lane's *final* golden-equal suffix
(for transient faults, the first match).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import CampaignError
from repro.faults.model import (
    FLIP, FORCE1, RELEASE, SeuFault, fault_columns, fault_model_of
)


@dataclass
class InjectionSchedule:
    """Per-cycle injection work for one graded fault list."""

    num_faults: int
    num_cycles: int
    #: the faults re-apply a force each cycle
    persistent: bool
    #: ``num_cycles + 2`` row offsets, then the event columns
    offsets: np.ndarray
    flop: np.ndarray
    lane: np.ndarray
    op: np.ndarray
    #: per-lane injection cycle, fault-list order
    first_active: np.ndarray

    def events(self, cycle: int) -> slice:
        """The event rows of ``cycle``."""
        return slice(int(self.offsets[cycle]), int(self.offsets[cycle + 1]))


def schedule_for(
    faults: Sequence[SeuFault], num_cycles: int, num_flops: int
) -> InjectionSchedule:
    """Build the schedule for ``faults`` (validating flip/force targets).

    A :class:`~repro.faults.model.FaultArray` names its fault type, so
    it costs no fault object.
    """
    fault_type, params = fault_model_of(faults)
    first_active, flops = fault_columns(faults)
    cycle, flop, lane, op = fault_type.injection_events(
        first_active, flops, num_cycles, **params
    )
    if (flop >= num_flops).any():
        row = int(np.argmax(flop >= num_flops))
        raise CampaignError(
            f"{faults[int(lane[row])].describe()} "
            f"{'flips' if op[row] == FLIP else 'forces'} flop {flop[row]}; "
            f"circuit has only {num_flops} flops"
        )
    # The fused kernel seeds a lane at its injection cycle and may repack
    # a transient lane once that cycle is over.
    onset = first_active[lane]
    if (cycle < onset).any() or (
        not fault_type.persistent and (cycle > onset).any()
    ):
        raise CampaignError(
            f"{fault_type.__name__} schedules an event before its fault's "
            "injection cycle, or after it for a transient fault"
        )
    # Events past the bench only need to sort last; numpy's stable sort of
    # 16-bit keys is a radix sort (~4x faster on intermittent events).
    keys = np.minimum(cycle, num_cycles + 1)
    if num_cycles < 1 << 15:
        keys = keys.astype(np.uint16)
    order = np.argsort(keys, kind="stable")
    return InjectionSchedule(
        len(faults),
        num_cycles,
        fault_type.persistent,
        np.searchsorted(keys[order], np.arange(num_cycles + 2)),
        flop[order].astype(np.intp),
        lane[order].astype(np.intp),
        op[order],
        first_active,
    )


class WordInjector:
    """A schedule applied to lanes packed 64 to a ``uint64`` word (lane
    ``i`` is bit ``i % 64`` of word ``i // 64``): the numpy engine's
    applier, on flat word indices of ``(flops, words)`` state and force
    planes."""

    def __init__(self, schedule: InjectionSchedule, num_flops: int, num_words: int):
        self.schedule = schedule
        self.index = schedule.flop * num_words + (schedule.lane >> 6)
        self.bits = _lane_bits(schedule.lane)
        self.force_mask = np.zeros((num_flops, num_words), dtype=np.uint64)
        self.force_set = np.zeros((num_flops, num_words), dtype=np.uint64)
        first_active = schedule.first_active
        self.onset_order = np.argsort(first_active, kind="stable")
        self.onsets = np.searchsorted(
            first_active[self.onset_order], np.arange(schedule.num_cycles + 2)
        )
        #: lanes whose injection cycle has been reached (:meth:`activate`)
        self.injected = np.zeros(num_words, dtype=np.uint64)

    def apply(self, cycle: int, q: np.ndarray) -> None:
        """Flips, force transitions and force re-application for the
        C-contiguous state ``q`` (one row per flop) held during ``cycle``."""
        rows = self.schedule.events(cycle)
        op, index, bits = self.schedule.op[rows], self.index[rows], self.bits[rows]
        flip, off = op == FLIP, op == RELEASE
        np.bitwise_xor.at(q.reshape(-1), index[flip], bits[flip])
        planes = ((self.force_mask, ~(flip | off)), (self.force_set, op == FORCE1))
        for plane, sets in planes:
            np.bitwise_or.at(plane.reshape(-1), index[sets], bits[sets])
            np.bitwise_and.at(plane.reshape(-1), index[off], ~bits[off])
        if self.schedule.persistent:
            np.bitwise_and(q, ~self.force_mask, out=q)
            np.bitwise_or(q, self.force_set, out=q)

    def activate(self, cycle: int) -> None:
        """Mark the lanes injected at ``cycle`` in :attr:`injected`."""
        lanes = self.onset_order[self.onsets[cycle] : self.onsets[cycle + 1]]
        np.bitwise_or.at(self.injected, lanes >> 6, _lane_bits(lanes))


def _lane_bits(lanes: np.ndarray) -> np.ndarray:
    """Each lane's bit within its word."""
    return np.left_shift(np.uint64(1), (lanes & 63).astype(np.uint64))


__all__ = ["InjectionSchedule", "WordInjector", "schedule_for"]
