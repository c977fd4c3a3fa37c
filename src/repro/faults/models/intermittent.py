"""Intermittent duty-cycle faults.

Intermittent faults — marginal hardware, aging, crosstalk — assert and
release repeatedly: from its onset cycle the fault forces the flop to a
value for ``duty`` cycles out of every ``period``, then releases it. They
are the hardest class for an injection platform because the forcing mask
must be re-applied (and removed) on a schedule, not once; the grading
engines model this with per-cycle force masks, and the emulated mask-scan
instrument with a held force enable.

The population is every (onset cycle, flop) pair, forcing toward the
flop's *inverted reset value* is deliberately avoided: like stuck-at, the
forced value is a model parameter (default 1), so a campaign can probe
both polarities with two runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Tuple

import numpy as np

from repro.errors import CampaignError
from repro.faults.model import FORCE0, RELEASE, Events, FaultArray, SeuFault
from repro.faults.model import model_population
from repro.faults.models.base import (
    FaultModel,
    register_model_prefix,
)
from repro.netlist.netlist import Netlist

DEFAULT_PERIOD = 4
DEFAULT_DUTY = 2


def _check_params(value: int, period: int, duty: int) -> None:
    if value not in (0, 1):
        raise CampaignError(f"intermittent value must be 0 or 1, got {value}")
    if period < 2:
        raise CampaignError(f"intermittent period must be at least 2, got {period}")
    if not 1 <= duty < period:
        raise CampaignError(f"intermittent duty must be in [1, period), got {duty}")


def _periodic(onsets: np.ndarray, last: int, period: int):
    """Lane and cycle of every ``onset + k * period`` up to ``last``,
    lane-major."""
    counts = np.maximum((last - onsets) // period + 1, 0)
    lanes = np.repeat(np.arange(len(onsets)), counts)
    nth = np.arange(len(lanes)) - np.repeat(np.cumsum(counts) - counts, counts)
    return lanes, onsets[lanes] + nth * period


@dataclass(frozen=True, order=True)
class IntermittentFault(SeuFault):
    """Force ``flop_index`` to ``value`` during cycles ``t >= cycle``
    where ``(t - cycle) % period < duty``."""

    value: int = 1
    period: int = DEFAULT_PERIOD
    duty: int = DEFAULT_DUTY

    persistent = True

    def __post_init__(self) -> None:
        super().__post_init__()
        _check_params(self.value, self.period, self.duty)

    @classmethod
    def injection_events(
        cls, cycles, flops, num_cycles: int, *, value, period, duty
    ) -> Events:
        """A force-on every ``period`` cycles from onset, each released
        ``duty`` cycles later; only events within ``0..num_cycles``.

        Every force-on of every lane comes first, then every release,
        each lane-major; a lane's releases are its first force-ons that
        still fit ``duty`` cycles before the bench ends.
        """
        onsets = np.asarray(cycles, dtype=np.int64)
        on_lanes, on = _periodic(onsets, num_cycles, period)
        off_lanes, off = _periodic(onsets, num_cycles - duty, period)
        cycle = np.concatenate([on, off + duty])
        lane = np.concatenate([on_lanes, off_lanes])
        op = np.repeat(
            np.array([FORCE0 + value, RELEASE], np.uint8), [len(on), len(off)]
        )
        return cycle, flops[lane], lane, op

    def flip_flops(self) -> Tuple[int, ...]:
        return ()

    def force_active(self, cycle: int) -> bool:
        if cycle < self.cycle:
            return False
        return (cycle - self.cycle) % self.period < self.duty

    def describe(self) -> str:
        name = self.flop_name or f"flop[{self.flop_index}]"
        return (
            f"INT{self.value}({name} @ cycle {self.cycle}.., "
            f"{self.duty}/{self.period})"
        )


class IntermittentModel(FaultModel):
    """Duty-cycle forcing fault."""

    transient = False

    def __init__(
        self,
        period: int = DEFAULT_PERIOD,
        duty: int = DEFAULT_DUTY,
        value: int = 1,
    ):
        # bad model names fail at spec time, not mid-campaign
        _check_params(value, period, duty)
        self.period = period
        self.duty = duty
        self.value = value
        self.name = f"intermittent:{period}:{duty}"

    def population(self, netlist: Netlist, num_cycles: int) -> FaultArray:
        factory = partial(
            IntermittentFault, value=self.value, period=self.period, duty=self.duty
        )
        return model_population(netlist, num_cycles, factory)

    def describe(self) -> str:
        return (
            f"intermittent stuck-at-{self.value}: forced {self.duty} of "
            f"every {self.period} cycles from onset"
        )


def _parse_intermittent(name: str) -> IntermittentModel:
    parts = name.split(":")
    if len(parts) == 1:
        return IntermittentModel()
    if len(parts) != 3:
        raise CampaignError(
            f"bad intermittent model {name!r}; expected intermittent or "
            "intermittent:<period>:<duty>"
        )
    try:
        period, duty = int(parts[1]), int(parts[2])
    except ValueError:
        raise CampaignError(
            f"bad intermittent parameters in {name!r}; expected integers"
        ) from None
    return IntermittentModel(period=period, duty=duty)


register_model_prefix(
    "intermittent", _parse_intermittent, syntax="intermittent:<period>:<duty>"
)
