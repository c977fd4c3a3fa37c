"""Multi-bit upsets: one particle strike flipping k adjacent flops.

MBUs model high-LET strikes (and modern dense SRAM layouts) where one
event corrupts a *run* of physically adjacent memory elements. Adjacency
here is netlist flop order — the same order used for state packing and
scan chains, i.e. the layout proxy the rest of the library already uses.

The population is every (cycle, starting flop) pair whose k-flop run fits
inside the register file: ``(N - k + 1) x T`` faults. Like SEUs the upset
is transient — a one-shot XOR of k bits — so MBU campaigns keep the
engines' early-exit optimizations.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Tuple

import numpy as np

from repro.errors import CampaignError
from repro.faults.model import FLIP, Events, FaultArray, SeuFault
from repro.faults.model import model_population
from repro.faults.models.base import (
    FaultModel,
    register_model,
    register_model_prefix,
)
from repro.netlist.netlist import Netlist

DEFAULT_WIDTH = 2


@dataclass(frozen=True, order=True)
class MbuFault(SeuFault):
    """Flip ``width`` adjacent flops (``flop_index`` ..
    ``flop_index + width - 1``) at the start of ``cycle``."""

    width: int = DEFAULT_WIDTH

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.width < 1:
            raise CampaignError(f"MBU width must be positive, got {self.width}")

    @classmethod
    def injection_events(cls, cycles, flops, num_cycles: int, *, width) -> Events:
        """``width`` flips per fault, at its cycle, on its run of flops."""
        lanes = np.repeat(np.arange(len(cycles)), width)
        run = flops[lanes] + np.tile(np.arange(width), len(cycles))
        return cycles[lanes], run, lanes, np.full(len(lanes), FLIP, np.uint8)

    def flip_flops(self) -> Tuple[int, ...]:
        return tuple(range(self.flop_index, self.flop_index + self.width))

    def describe(self) -> str:
        name = self.flop_name or f"flop[{self.flop_index}]"
        return f"MBU{self.width}({name}.. @ cycle {self.cycle})"


class MbuModel(FaultModel):
    """k-adjacent-bit transient upset."""

    transient = True

    def __init__(self, width: int = DEFAULT_WIDTH):
        if width < 2:
            raise CampaignError(
                f"MBU width must be at least 2 (got {width}); width 1 is "
                "the seu model"
            )
        self.width = width
        self.name = f"mbu:{width}"

    def population(self, netlist: Netlist, num_cycles: int) -> FaultArray:
        if netlist.num_ffs < self.width:
            raise CampaignError(
                f"{netlist.name!r} has {netlist.num_ffs} flops; cannot inject "
                f"{self.width}-bit MBUs"
            )
        return model_population(
            netlist,
            num_cycles,
            partial(MbuFault, width=self.width),
            num_starts=netlist.num_ffs - self.width + 1,
        )

    def population_size(self, netlist: Netlist, num_cycles: int) -> int:
        return max(0, netlist.num_ffs - self.width + 1) * num_cycles

    def describe(self) -> str:
        return (
            f"transient {self.width}-adjacent-bit flip at one cycle "
            "(adjacency = flop packing order)"
        )


def _parse_mbu(name: str) -> MbuModel:
    parts = name.split(":")
    if len(parts) == 1:
        return MbuModel()
    if len(parts) != 2:
        raise CampaignError(
            f"bad MBU model {name!r}; expected mbu or mbu:<width>"
        )
    try:
        width = int(parts[1])
    except ValueError:
        raise CampaignError(
            f"bad MBU width in {name!r}; expected an integer"
        ) from None
    return MbuModel(width)


register_model_prefix("mbu", _parse_mbu, syntax="mbu:<width>")
