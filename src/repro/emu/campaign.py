"""Cycle-accurate campaign engines.

Each engine models one technique's hardware protocol *per fault*, using
the functional oracle (:func:`repro.sim.parallel.grade_faults`) for the
circuit behaviour — which cycle the fault first corrupts an output
(``fail``), and which cycle its effect disappears (``vanish``). The engine
then counts exactly the FPGA clock cycles the autonomous controller would
spend, which is what the paper's Table 2 reports (time = cycles / 25 MHz).

Protocols (N = flip-flops, T = testbench cycles, fault injected at t):

* **mask-scan** — golden prologue ``T``; per fault: 2 cycles of mask
  programming (global clear + addressed set), replay from cycle 0 with
  the on-chip expected-output comparator, stop at ``min(fail+1, T)``,
  1 cycle verdict write. Silent vs latent comes from the final-state
  comparator (combinational, no extra cycles).
* **state-scan** — golden prologue ``T`` (streaming per-cycle states to
  RAM); per fault: ``N`` scan-in cycles, 1 parallel load, run the tail
  ``min(fail+1, T) - t``, 1 verdict write (the final-state serial compare
  overlaps the next fault's scan-in). Worse than mask-scan exactly when
  ``N`` dominates the average replay length — the paper's b14 case.
* **time-multiplexed** — no RAM prologue (the golden run happens on-chip,
  interleaved); the golden state is walked across the testbench once
  (2 cycles per testbench cycle, including the ``save_state``
  checkpoint); per fault: 2 cycles mask programming + 1 ``load_state``
  (which injects), then 2 FPGA cycles per emulated cycle until the fault
  is classified: ``stop = min(fail, vanish, T-1)``. The ``vanish`` term —
  detecting that the fault effect disappeared — is the early exit the
  other techniques cannot take, and the source of the order-of-magnitude
  win.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.emu.board import RC1000, BoardModel
from repro.emu.ram import RamLayout, ram_layout_for
from repro.emu.timing import CycleBreakdown, EmulationTiming
from repro.errors import CampaignError
from repro.faults.classify import FaultClass
from repro.faults.dictionary import FaultDictionary
from repro.faults.model import (
    SeuFault,
    exhaustive_fault_list,
    fault_columns,
    fault_model_of,
)
from repro.netlist.netlist import Netlist
from repro.sim.parallel import DEFAULT_BACKEND, FaultGradingResult, grade_faults
from repro.sim.vectors import Testbench
from repro.util.bitops import ceil_div

#: fixed per-fault overhead cycles
MASK_PROGRAM_CYCLES = 2  # global clear + addressed set
VERDICT_WRITE_CYCLES = 1
STATE_LOAD_CYCLES = 1


@dataclass
class CampaignResult:
    """Everything one emulated campaign produces."""

    technique: str
    circuit_name: str
    num_faults: int
    num_cycles: int
    breakdown: CycleBreakdown
    timing: EmulationTiming
    dictionary: FaultDictionary
    ram: RamLayout

    @property
    def total_cycles(self) -> int:
        return self.breakdown.total

    def summary(self) -> str:
        """Text summary in the paper's Table 2 terms."""
        counts = self.dictionary.counts()
        return (
            f"{self.technique} on {self.circuit_name}: "
            f"{self.num_faults} faults, {self.total_cycles:,} cycles -> "
            f"{self.timing.milliseconds:.2f} ms "
            f"({self.timing.us_per_fault:.2f} us/fault) | "
            f"F/L/S = {counts[FaultClass.FAILURE]}/"
            f"{counts[FaultClass.LATENT]}/{counts[FaultClass.SILENT]}"
        )


def run_campaign(
    netlist: Netlist,
    testbench: Testbench,
    technique: str,
    board: BoardModel = RC1000,
    faults: Optional[Sequence[SeuFault]] = None,
    oracle: Optional[FaultGradingResult] = None,
    scan_chains: int = 1,
    engine: str = DEFAULT_BACKEND,
) -> CampaignResult:
    """Run one autonomous-emulation campaign and account its cycles.

    ``faults`` defaults to the complete single-fault set (every flop at
    every cycle). A precomputed ``oracle`` may be passed when several
    techniques are evaluated on the same circuit/testbench (the oracle is
    technique-independent); otherwise ``engine`` selects the grading
    backend (see :func:`repro.sim.backends.available_engines`).
    ``scan_chains`` (state-scan only) splits the shadow register into
    parallel chains, dividing the per-fault scan-in cost — our extension
    beyond the paper's single chain.
    """
    if faults is None:
        faults = exhaustive_fault_list(netlist, testbench.num_cycles)
    if oracle is None:
        oracle = grade_faults(netlist, testbench, faults, backend=engine)
    else:
        _validate_oracle(oracle, faults)
    if scan_chains < 1:
        raise CampaignError("scan_chains must be at least 1")

    breakdown = technique_breakdown(
        technique,
        fault_cycles=fault_columns(faults)[0],
        fail_cycles=oracle.fail_cycles,
        vanish_cycles=oracle.vanish_cycles,
        num_cycles=testbench.num_cycles,
        scan_in_cycles=scan_in_cost(netlist.num_ffs, scan_chains),
        persistent=fault_model_of(faults)[0].persistent,
    )

    ram = ram_layout_for(
        technique,
        num_inputs=len(netlist.inputs),
        num_outputs=len(netlist.outputs),
        num_flops=netlist.num_ffs,
        num_cycles=testbench.num_cycles,
        num_faults=len(faults),
    )
    timing = EmulationTiming(
        cycles=breakdown.total, board=board, num_faults=len(faults)
    )
    return CampaignResult(
        technique=technique,
        circuit_name=netlist.name,
        num_faults=len(faults),
        num_cycles=testbench.num_cycles,
        breakdown=breakdown,
        timing=timing,
        dictionary=oracle.to_dictionary(),
        ram=ram,
    )


def _validate_oracle(
    oracle: FaultGradingResult, faults: Sequence[SeuFault]
) -> None:
    """The oracle must grade exactly the given fault sequence, in order.

    A length check alone would let a mismatched fault list (different
    flops, different cycles, different order) silently produce a wrong
    dictionary and wrong cycle accounting. Identity is compared on the
    (cycle, flop_index) columns, vectorized — ``flop_name`` is derived
    labelling, not identity.
    """
    if len(oracle.faults) != len(faults):
        raise CampaignError(
            f"oracle covers {len(oracle.faults)} faults, campaign has "
            f"{len(faults)}"
        )
    if oracle.faults is faults:
        return
    graded_cycles, graded_flops = fault_columns(oracle.faults)
    wanted_cycles, wanted_flops = fault_columns(faults)
    mismatch = (graded_cycles != wanted_cycles) | (graded_flops != wanted_flops)
    if mismatch.any():
        index = int(np.argmax(mismatch))
        raise CampaignError(
            f"oracle fault {index} is {oracle.faults[index].describe()}, "
            f"campaign expects {faults[index].describe()}"
        )


def scan_in_cost(num_ffs: int, scan_chains: int) -> int:
    """Per-fault state-insertion cycles: the longest chain's length
    (N for the paper's single chain; ceil(N/K) for K parallel chains)."""
    if num_ffs == 0:
        return 0
    return ceil_div(num_ffs, min(scan_chains, num_ffs))


def technique_prologue(technique: str, num_cycles: int) -> CycleBreakdown:
    """The once-per-campaign cycles a technique spends before (or, for
    time-mux, interleaved with) the first fault.

    Kept separate from :func:`technique_per_fault_cycles` so a sharded
    runner can account each fault shard independently and add the
    prologue exactly once at merge time.
    """
    breakdown = CycleBreakdown()
    if technique in ("mask_scan", "state_scan"):
        breakdown.prologue = num_cycles  # golden run filling the RAM
    elif technique == "time_multiplexed":
        # Walking the golden state across the testbench: one golden phase
        # and one checkpoint slot per testbench cycle.
        breakdown.extra["golden_walk"] = 2 * num_cycles
    else:
        raise CampaignError(f"unknown technique {technique!r}")
    return breakdown


def technique_per_fault_cycles(
    technique: str,
    fault_cycles,
    fail_cycles,
    vanish_cycles,
    num_cycles: int,
    scan_in_cycles: int = 0,
    persistent: bool = False,
) -> CycleBreakdown:
    """Vectorized per-fault cycle accounting for one technique.

    Takes parallel sequences (injection cycle, fail cycle, vanish cycle —
    -1 for "never") and reduces them with numpy; at b14 scale the previous
    per-fault Python loops walked 34,400 faults per technique. The inputs
    may be any slice of a campaign's fault list, so shards account
    independently and their breakdowns sum to the serial result exactly
    (integer arithmetic throughout).

    ``persistent`` marks campaigns whose fault model re-applies a force
    every cycle (stuck-at, intermittent). Two protocol consequences:

    * **time-multiplexed** loses its disappearance early exit — a forced
      flop that momentarily matches the golden state can diverge again,
      so the on-chip detector cannot retire the fault; every persistent
      fault runs to its fail cycle or the end of the bench.
    * **state-scan** must re-insert the forced state every emulated
      cycle (the scanned-in corruption would otherwise be overwritten at
      the next clock), multiplying its run phase by ``1 + scan_in``
      cycles per emulated cycle — the per-cycle mask re-application cost
      the mask-based techniques get for free from their held mask flops.
    """
    injected = np.asarray(fault_cycles, dtype=np.int64)
    fail = np.asarray(fail_cycles, dtype=np.int64)
    vanish = np.asarray(vanish_cycles, dtype=np.int64)
    count = len(fail)
    breakdown = CycleBreakdown()
    if technique == "mask_scan":
        # Replay from cycle 0 with the on-chip comparator: stop one cycle
        # after the first mismatch, or run the whole testbench. The mask
        # flops hold the target (and, for persistent models, the force)
        # for the whole replay, so persistence costs no extra cycles.
        stop = np.where(fail < 0, num_cycles, np.minimum(fail + 1, num_cycles))
        breakdown.setup = MASK_PROGRAM_CYCLES * count
        breakdown.run = int(stop.sum())
        breakdown.readback = VERDICT_WRITE_CYCLES * count
    elif technique == "state_scan":
        stop = np.where(fail < 0, num_cycles, np.minimum(fail + 1, num_cycles))
        breakdown.setup = (scan_in_cycles + STATE_LOAD_CYCLES) * count
        run_cycles = stop - injected
        if persistent:
            run_cycles = run_cycles * (1 + scan_in_cycles)
        breakdown.run = int(run_cycles.sum())
        breakdown.readback = VERDICT_WRITE_CYCLES * count
    elif technique == "time_multiplexed":
        last = num_cycles - 1
        fail_stop = np.where(fail < 0, last, fail)
        if persistent:
            stop = np.minimum(fail_stop, last)
        else:
            stop = np.minimum(
                fail_stop, np.where(vanish < 0, last, vanish)
            )
            np.minimum(stop, last, out=stop)
        breakdown.setup = (MASK_PROGRAM_CYCLES + STATE_LOAD_CYCLES) * count
        breakdown.run = int(2 * (stop - injected + 1).sum())
        breakdown.readback = VERDICT_WRITE_CYCLES * count
    else:
        raise CampaignError(f"unknown technique {technique!r}")
    return breakdown


def technique_breakdown(
    technique: str,
    fault_cycles,
    fail_cycles,
    vanish_cycles,
    num_cycles: int,
    scan_in_cycles: int = 0,
    persistent: bool = False,
) -> CycleBreakdown:
    """Full campaign accounting: prologue + per-fault cycles."""
    breakdown = technique_prologue(technique, num_cycles)
    breakdown.add(
        technique_per_fault_cycles(
            technique,
            fault_cycles,
            fail_cycles,
            vanish_cycles,
            num_cycles,
            scan_in_cycles,
            persistent,
        )
    )
    return breakdown
