"""Baselines: host-driven emulation and software fault simulation.

The paper quotes two baselines for the speed comparison (our experiment
C2): the host-in-the-loop FPGA injector of Civera et al. 2001 (~100
microseconds per fault, dominated by host<->board transactions) and plain
software fault simulation (~1300 microseconds per fault). Both are
modelled here — the host-link model from explicit per-fault transaction
counts, the simulation baseline both analytically and by *measuring* our
own serial fault simulator (:func:`repro.sim.cycle.replay_fault`, which
replays each fault model's own semantics).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.emu.board import RC1000, BoardModel
from repro.errors import CampaignError
from repro.faults.model import SeuFault
from repro.netlist.netlist import Netlist
from repro.sim.cache import compiled_for, golden_for
from repro.sim.cycle import replay_fault
from repro.sim.vectors import Testbench


@dataclass
class HostLinkModel:
    """Timing model of a host-driven FPGA injection campaign [2].

    Per fault the host must (a) send the injection command (which flop,
    which cycle), (b) let the board run — or, in the slower variants,
    feed stimuli cycle by cycle — and (c) read the verdict back. Each
    interaction costs one bus transaction; the defaults reflect a PCI
    board of the paper's era and land at the ~100 us/fault the paper
    quotes for [2].
    """

    board: BoardModel = RC1000
    transactions_per_fault: int = 2  # inject command + result readback
    per_vector_io: bool = False  # stimuli applied from the host each cycle

    def seconds_per_fault(self, num_cycles: int) -> float:
        """Average time per fault for a ``num_cycles``-long testbench."""
        transaction = self.board.pci_transaction_us * 1e-6
        run = self.board.cycles_to_seconds(num_cycles)
        if self.per_vector_io:
            # one transaction per applied vector: the fully host-driven mode
            return num_cycles * transaction + run
        return self.transactions_per_fault * transaction + run

    def campaign_seconds(self, num_faults: int, num_cycles: int) -> float:
        """Whole-campaign time."""
        if num_faults <= 0:
            raise CampaignError("campaign needs at least one fault")
        return num_faults * self.seconds_per_fault(num_cycles)

    def us_per_fault(self, num_cycles: int) -> float:
        """Average speed in us/fault (the paper's unit)."""
        return self.seconds_per_fault(num_cycles) * 1e6


@dataclass
class SoftwareFaultSimModel:
    """Software fault-simulation baseline.

    Two modes:

    * **analytic** — ``gates x cycles-simulated x seconds-per-gate-eval``
      with a per-gate-evaluation cost typical of the paper era
      (event-driven commercial simulators, ~5-10 ns effective per gate
      evaluation after event filtering);
    * **measured** — wall-clock of our own compiled serial replay over a
      fault sample, which is an *actual* software fault simulator.
    """

    seconds_per_gate_eval: float = 8e-9

    def seconds_per_fault_analytic(self, netlist: Netlist, num_cycles: int) -> float:
        """Analytic per-fault simulation time (full-testbench replay)."""
        return netlist.num_gates * num_cycles * self.seconds_per_gate_eval

    def seconds_per_fault_measured(
        self,
        netlist: Netlist,
        testbench: Testbench,
        sample: Sequence[SeuFault],
        repetitions: int = 1,
    ) -> float:
        """Measure our serial fault simulator over a fault sample."""
        if not sample:
            raise CampaignError("need at least one fault to measure")
        compiled = compiled_for(netlist)
        golden = golden_for(compiled, testbench)
        started = time.perf_counter()
        for _ in range(max(1, repetitions)):
            for fault in sample:
                replay_fault(compiled, testbench, fault, golden)
        elapsed = time.perf_counter() - started
        return elapsed / (len(sample) * max(1, repetitions))


@dataclass(frozen=True)
class SpeedComparison:
    """One row of the speed-comparison table (experiment C2)."""

    method: str
    us_per_fault: float

    def speedup_vs(self, other: "SpeedComparison") -> float:
        """How many times faster ``self`` is than ``other``."""
        if self.us_per_fault == 0:
            return float("inf")
        return other.us_per_fault / self.us_per_fault


def reference_baselines(
    netlist: Netlist,
    num_cycles: int,
    board: Optional[BoardModel] = None,
) -> list:
    """The two paper baselines as :class:`SpeedComparison` rows."""
    host = HostLinkModel(board=board or RC1000)
    sim = SoftwareFaultSimModel()
    return [
        SpeedComparison(
            "fault simulation (software)",
            sim.seconds_per_fault_analytic(netlist, num_cycles) * 1e6,
        ),
        SpeedComparison(
            "host-driven emulation [2]", host.us_per_fault(num_cycles)
        ),
    ]
