"""Model-agnostic injection schedules for the grading engines.

The engines' original inner loops assume every fault is a plain SEU: one
XOR into one flop at one cycle, after which the lane evolves freely. The
other fault models break both assumptions — MBUs flip several flops at
once, stuck-at and intermittent faults *force* a flop every cycle — so
each engine gains a generic execution branch driven by the
:class:`InjectionSchedule` built here:

* ``flips``      — per-cycle one-shot XOR events ``(flop_index, lane)``;
* ``force_on`` / ``force_off`` — per-cycle transitions of the per-lane
  force masks ``(flop_index, lane, value)`` / ``(flop_index, lane)``;
  engines accumulate them into ``(mask, set)`` bit-planes and re-apply
  those planes to the held state every cycle — the per-cycle mask
  re-application that one-shot XOR cannot express. Cycle ``num_cycles``
  carries the transitions governing the *post-bench* state, which the
  final SILENT/LATENT compare uses;
* ``first_active`` — each lane's injection cycle (fail/vanish gating).

When every fault is a plain transient single-flip (``simple``), engines
skip all of this and run their original fast path on the original arrays
— the seed SEU results stay bit-exact by construction.

Vanish semantics differ for persistent schedules: a forced lane that
matches the golden state can diverge again, so ``vanish_cycle`` is the
start of the lane's *final* golden-equal suffix (candidate set on
convergence, reset on re-divergence) rather than the first match. For
transient faults the two definitions coincide.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.errors import CampaignError
from repro.faults.model import FaultArray, SeuFault


@dataclass
class InjectionSchedule:
    """Per-cycle injection work for one graded fault list."""

    num_faults: int
    num_cycles: int
    #: every fault is a plain one-flop transient flip (legacy fast path)
    simple: bool
    #: at least one fault re-applies a force each cycle
    persistent: bool
    #: cycle -> [(flop_index, lane)]: one-shot XOR flips
    flips: Dict[int, List[Tuple[int, int]]] = field(default_factory=dict)
    #: cycle -> [(flop_index, lane, value)]: force becomes active
    force_on: Dict[int, List[Tuple[int, int, int]]] = field(default_factory=dict)
    #: cycle -> [(flop_index, lane)]: force releases
    force_off: Dict[int, List[Tuple[int, int]]] = field(default_factory=dict)
    #: per-lane injection cycle, fault-list order
    first_active: List[int] = field(default_factory=list)


def schedule_for(
    faults: Sequence[SeuFault], num_cycles: int, num_flops: int
) -> InjectionSchedule:
    """Build the schedule for ``faults`` (validating flip/force targets).

    The common all-SEU case is detected without materializing any event
    lists or fault objects: a :class:`FaultArray` names its fault type,
    and a list of faults costs one ``type`` check per fault.
    """
    if isinstance(faults, FaultArray):
        simple = faults.fault_type is SeuFault
    else:
        simple = all(type(fault) is SeuFault for fault in faults)
    if simple:
        return InjectionSchedule(
            num_faults=len(faults),
            num_cycles=num_cycles,
            simple=True,
            persistent=False,
        )

    schedule = InjectionSchedule(
        num_faults=len(faults),
        num_cycles=num_cycles,
        simple=False,
        persistent=False,
    )
    simple = True
    for lane, fault in enumerate(faults):
        schedule.first_active.append(fault.cycle)
        schedule.persistent = schedule.persistent or fault.persistent
        flips = fault.flip_flops()
        force = fault.force_value()
        if force is None and len(flips) == 1:
            pass  # still expressible by the legacy path
        else:
            simple = False
        for flop_index in flips:
            if not 0 <= flop_index < num_flops:
                raise CampaignError(
                    f"{fault.describe()} flips flop {flop_index}; circuit "
                    f"has only {num_flops} flops"
                )
            schedule.flips.setdefault(fault.cycle, []).append(
                (flop_index, lane)
            )
        if force is not None:
            if not 0 <= fault.flop_index < num_flops:
                raise CampaignError(
                    f"{fault.describe()}: circuit has only {num_flops} flops"
                )
            for cycle, turned_on in fault.force_events(num_cycles):
                if turned_on:
                    schedule.force_on.setdefault(cycle, []).append(
                        (fault.flop_index, lane, force)
                    )
                else:
                    schedule.force_off.setdefault(cycle, []).append(
                        (fault.flop_index, lane)
                    )
    schedule.simple = simple and not schedule.persistent
    return schedule


__all__ = ["InjectionSchedule", "schedule_for"]
