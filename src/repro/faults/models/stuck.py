"""Permanent stuck-at faults on flip-flops.

A stuck-at fault forces one flop to a constant value from its onset cycle
until the end of the testbench — the classic model for permanent defects
(and for SEUs in configuration memory, which hold until scrubbed). Unlike
the transient models this is *not* a one-shot XOR: the force is
re-applied to the held state every cycle, so a faulty run that happens to
match the golden state can diverge again the next time the golden value
of the stuck flop changes. Grading engines therefore disable their
convergence early-exit and classify SILENT/LATENT from the *final*
converged suffix, not the first match.

The population is every (onset cycle, flop) pair — ``N x T`` faults, like
the SEU set (an onset cycle matters because the flop is fault-free before
it).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Tuple

import numpy as np

from repro.errors import CampaignError
from repro.faults.model import FORCE0, Events, FaultArray, SeuFault
from repro.faults.model import model_population
from repro.faults.models.base import FaultModel, register_model
from repro.netlist.netlist import Netlist


@dataclass(frozen=True, order=True)
class StuckAtFault(SeuFault):
    """Force ``flop_index`` to ``value`` during every cycle >= ``cycle``."""

    value: int = 0

    persistent = True

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.value not in (0, 1):
            raise CampaignError(
                f"stuck-at value must be 0 or 1, got {self.value}"
            )

    @classmethod
    def injection_events(cls, cycles, flops, num_cycles: int, *, value) -> Events:
        """One force-on at each onset; nothing releases it."""
        lanes = np.flatnonzero(cycles <= num_cycles)
        ops = np.full(len(lanes), FORCE0 + value, np.uint8)
        return cycles[lanes], flops[lanes], lanes, ops

    def flip_flops(self) -> Tuple[int, ...]:
        return ()

    def force_active(self, cycle: int) -> bool:
        return cycle >= self.cycle

    def describe(self) -> str:
        name = self.flop_name or f"flop[{self.flop_index}]"
        return f"SA{self.value}({name} @ cycle {self.cycle}..)"


class _StuckAtModel(FaultModel):
    transient = False
    value = 0

    def population(self, netlist: Netlist, num_cycles: int) -> FaultArray:
        return model_population(
            netlist, num_cycles, partial(StuckAtFault, value=self.value)
        )

    def describe(self) -> str:
        return (
            f"permanent stuck-at-{self.value}: flop forced to "
            f"{self.value} every cycle from onset to end of bench"
        )


@register_model
class StuckAt0Model(_StuckAtModel):
    name = "stuck_at_0"
    value = 0


@register_model
class StuckAt1Model(_StuckAtModel):
    name = "stuck_at_1"
    value = 1
