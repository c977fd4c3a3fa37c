"""The SEU fault model: a single bit-flip in one flip-flop at one cycle.

The paper adopts the standard bit-flip model for single-event upsets: only
memory elements are affected, and a fault is the pair (flip-flop, clock
cycle). The *complete set of single faults* for a circuit with N flops and
a T-cycle testbench therefore has N x T members — 215 x 160 = 34,400 for
the b14 experiment.

:class:`SeuFault` doubles as the base class for every other fault model
(:mod:`repro.faults.models`): a fault is, generically, a set of one-shot
bit *flips* at its injection cycle plus an optional per-cycle *force* on
its flop. :meth:`SeuFault.injection_events` emits a whole column of
faults' events at once for the grading engines (:mod:`repro.sim.inject`);
:meth:`SeuFault.flip_flops`, :meth:`SeuFault.force_active` and
:meth:`SeuFault.apply_force` state one fault's semantics independently,
for the serial reference replay the engines are checked against.

Populations are not lists of those objects: a :class:`FaultArray` holds
one model's faults as cycle and flop columns and builds a fault object
only when one is indexed.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, fields
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.errors import CampaignError
from repro.netlist.netlist import Netlist

#: dtype of every cycle column — fault cycles and flops, fail/vanish
#: outcomes — and of packed outcome bytes: little-endian int32 on every
#: host, so workers, clients, stores and digests agree byte for byte
CYCLE_DTYPE = np.dtype("<i4")

#: injection event ops (``uint8``): one-shot XOR, force to 0 / to 1 (the
#: force stays on until released), release the force
FLIP, FORCE0, FORCE1, RELEASE = 0, 1, 2, 3

#: ``(cycle, flop, lane, op)`` event columns; ``lane`` indexes the fault
Events = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]

#: fault fields that identify one fault; the others are model parameters
_IDENTITY = ("cycle", "flop_index", "flop_name")


@dataclass(frozen=True, order=True)
class SeuFault:
    """One single-event upset: flip flop ``flop_index`` at the start of
    cycle ``cycle`` (i.e. perturb the state the flop holds during that
    cycle).

    ``flop_index`` refers to the netlist's deterministic flop order (the
    same order used for state packing and scan chains).
    """

    cycle: int
    flop_index: int
    flop_name: str = ""

    #: True for models whose effect is re-applied every cycle (stuck-at,
    #: intermittent) rather than a one-shot state perturbation. Persistent
    #: faults can re-diverge after matching the golden state, so engines
    #: must not retire their lanes early.
    persistent = False

    def __post_init__(self) -> None:
        if self.cycle < 0:
            raise CampaignError(f"fault cycle must be non-negative, got {self.cycle}")
        if self.flop_index < 0:
            raise CampaignError(
                f"fault flop index must be non-negative, got {self.flop_index}"
            )

    # ------------------------------------------------------------------
    # the injection semantics (overridden by other fault models)
    # ------------------------------------------------------------------
    @classmethod
    def injection_events(cls, cycles, flops, num_cycles: int) -> Events:
        """Events of faults ``(cycles[i], flops[i])`` (lane ``i``) over cycles
        ``0..num_cycles`` (the last is the post-bench state the final
        compare reads); model parameters arrive as keywords."""
        lanes = np.arange(len(cycles))
        return cycles, flops, lanes, np.full(len(lanes), FLIP, np.uint8)

    def flip_flops(self) -> Tuple[int, ...]:
        """Flop indices whose bits are flipped once, at ``self.cycle``."""
        return (self.flop_index,)

    def force_active(self, cycle: int) -> bool:
        """Whether the force is applied during ``cycle`` (state held at
        the start of that cycle). Transient faults never force."""
        return False

    def apply_force(self, state: int, cycle: int) -> int:
        """Packed-state helper for the serial reference replay (only the
        forcing models, which carry a ``value``, are ever active)."""
        if not self.force_active(cycle):
            return state
        bit = 1 << self.flop_index
        if self.value:
            return state | bit
        return state & ~bit

    def describe(self) -> str:
        """Human-readable fault identity."""
        name = self.flop_name or f"flop[{self.flop_index}]"
        return f"SEU({name} @ cycle {self.cycle})"


class FaultArray(Sequence):
    """One fault model's faults as ``<i4`` columns, cycle-major.

    ``cycles[i]`` and ``flops[i]`` identify fault ``i``; ``flop_names``
    labels flop indices and ``factory(cycle=, flop_index=, flop_name=)``
    builds the model's fault object (:class:`SeuFault` or a subclass,
    usually a :func:`functools.partial` carrying the model parameters).
    Indexing builds that object on demand; slices and :meth:`take`
    return columns, so populations, samples and shard windows cross the
    grading and accounting layers without per-fault objects.
    """

    def __init__(
        self,
        cycles,
        flops,
        flop_names: Sequence[str],
        factory: Callable[..., SeuFault] = SeuFault,
    ):
        self.cycles = np.asarray(cycles, dtype=CYCLE_DTYPE)
        self.flops = np.asarray(flops, dtype=CYCLE_DTYPE)
        if self.cycles.shape != self.flops.shape or self.cycles.ndim != 1:
            raise CampaignError("fault columns must be equal-length vectors")
        if len(self.cycles) and (self.cycles.min() < 0 or self.flops.min() < 0):
            raise CampaignError("fault cycles and flop indices must be non-negative")
        self.flop_names = flop_names
        self.factory = factory
        #: the class ``factory`` builds (partials expose it as ``func``)
        self.fault_type = getattr(factory, "func", factory)

    def __len__(self) -> int:
        return len(self.cycles)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self._with(self.cycles[index], self.flops[index])
        flop = int(self.flops[index])
        return self.factory(
            cycle=int(self.cycles[index]),
            flop_index=flop,
            flop_name=self.flop_names[flop],
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return list(self) == list(other)  # fault by fault, as lists compare

    __hash__ = None  # mutable columns

    def __repr__(self) -> str:
        return f"FaultArray({len(self)} x {self.fault_type.__name__})"

    def take(self, indices) -> "FaultArray":
        """The faults at ``indices`` (any integer index array), in that order."""
        indices = np.asarray(indices, dtype=np.intp)
        return self._with(self.cycles[indices], self.flops[indices])

    def _with(self, cycles, flops) -> "FaultArray":
        return FaultArray(cycles, flops, self.flop_names, self.factory)


def fault_columns(faults: Sequence[SeuFault]) -> Tuple[np.ndarray, np.ndarray]:
    """``(cycles, flops)`` of any fault sequence: a :class:`FaultArray`'s
    own columns, or ``<i4`` columns read off a list of fault objects."""
    if isinstance(faults, FaultArray):
        return faults.cycles, faults.flops
    count = len(faults)
    cycles = np.fromiter((fault.cycle for fault in faults), CYCLE_DTYPE, count)
    flops = np.fromiter((fault.flop_index for fault in faults), CYCLE_DTYPE, count)
    return cycles, flops


def fault_model_of(faults: Sequence[SeuFault]) -> Tuple[type, Dict[str, object]]:
    """The fault class (hence ``persistent``) and model parameters shared by
    ``faults``: a :class:`FaultArray` names both; a list is read fault by
    fault and refused if it mixes models or parameters."""
    if isinstance(faults, FaultArray):
        keywords = getattr(faults.factory, "keywords", {})
        return faults.fault_type, {**_model_params(faults.fault_type), **keywords}
    models = {(type(fault), tuple(_model_params(fault).items())) for fault in faults}
    if len(models) > 1:
        raise CampaignError(
            "fault list mixes fault models or parameters; grade one "
            "model's faults at a time"
        )
    fault_type, params = models.pop() if models else (SeuFault, ())
    return fault_type, dict(params)


def _model_params(fault) -> Dict[str, object]:
    """A fault's (or a fault class's default) model parameters."""
    names = [field.name for field in fields(fault) if field.name not in _IDENTITY]
    return {name: getattr(fault, name) for name in names}


def model_population(
    netlist: Netlist,
    num_cycles: int,
    factory: Callable[..., SeuFault],
    num_starts: Optional[int] = None,
    flop_names: Optional[List[str]] = None,
) -> FaultArray:
    """Every (cycle, flop) pair of ``num_cycles`` x ``num_starts`` (default:
    every flop), cycle-major — the shape of every registered population."""
    if num_cycles <= 0:
        raise CampaignError("fault list needs a positive number of cycles")
    names = flop_names if flop_names is not None else netlist.ff_names()
    starts = len(names) if num_starts is None else num_starts
    return FaultArray(
        np.repeat(np.arange(num_cycles, dtype=CYCLE_DTYPE), starts),
        np.tile(np.arange(starts, dtype=CYCLE_DTYPE), num_cycles),
        names,
        factory,
    )


def exhaustive_fault_list(
    netlist: Netlist, num_cycles: int, flop_names: Optional[List[str]] = None
) -> FaultArray:
    """The complete single-fault set: every (flop, cycle) pair.

    Faults are ordered cycle-major — the order the time-multiplexed
    technique processes them in, so the golden state only ever advances.
    """
    return model_population(netlist, num_cycles, SeuFault, flop_names=flop_names)


def faults_for_flop(netlist: Netlist, flop_index: int, num_cycles: int) -> FaultArray:
    """All faults targeting one flop (used for per-flop vulnerability
    reports)."""
    names = netlist.ff_names()
    if not 0 <= flop_index < len(names):
        raise CampaignError(f"no flop with index {flop_index}")
    return FaultArray(np.arange(num_cycles), np.full(num_cycles, flop_index), names)
