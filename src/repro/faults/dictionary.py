"""Fault dictionary: per-fault records and aggregate queries.

The emulation RAM stores a 2-bit verdict per fault; the host-side fault
dictionary is its decoded, queryable form — the artifact a hardening
engineer actually reads ("which flops cause failures?", "how long do
latent errors survive?").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence

import numpy as np

from repro.errors import CampaignError
from repro.faults.classify import (
    FAILURE_CODE,
    SILENT_CODE,
    VERDICTS,
    FaultClass,
    code_counts,
    verdict_codes,
)
from repro.faults.model import CYCLE_DTYPE, FaultArray, SeuFault, fault_columns


@dataclass(frozen=True)
class FaultRecord:
    """One graded fault.

    ``fail_cycle``/``vanish_cycle`` are -1 when the event never occurred.
    ``latency`` is the number of cycles from injection until the verdict
    was decidable (what the time-multiplexed technique exploits).
    """

    fault: SeuFault
    verdict: FaultClass
    fail_cycle: int
    vanish_cycle: int

    def latency(self, num_cycles: int) -> int:
        """Cycles from injection to classification.

        Failures classify at the first wrong output; silent faults at state
        convergence; latent faults only at the end of the testbench.
        """
        if self.verdict is FaultClass.FAILURE:
            return self.fail_cycle - self.fault.cycle
        if self.verdict is FaultClass.SILENT:
            return self.vanish_cycle - self.fault.cycle
        return num_cycles - self.fault.cycle


class FaultDictionary:
    """All graded faults of one campaign, held as columns.

    ``faults`` is the graded fault sequence (a
    :class:`~repro.faults.model.FaultArray` or a list of faults),
    ``fail_cycles``/``vanish_cycles`` its oracle outcomes and ``codes``
    each fault's uint8 verdict (an index into
    :data:`~repro.faults.classify.VERDICTS`). Aggregate queries reduce
    the columns; :class:`FaultRecord` objects are built only when the
    dictionary is iterated.
    """

    def __init__(
        self,
        num_cycles: int,
        flop_names: List[str],
        faults: Sequence[SeuFault] = (),
        fail_cycles=(),
        vanish_cycles=(),
    ):
        self.num_cycles = num_cycles
        self.flop_names = list(flop_names)
        self.faults = faults if isinstance(faults, FaultArray) else list(faults)
        self.cycles, self.flops = fault_columns(self.faults)
        self.fail_cycles = np.asarray(fail_cycles, dtype=CYCLE_DTYPE)
        self.vanish_cycles = np.asarray(vanish_cycles, dtype=CYCLE_DTYPE)
        if not len(self.faults) == len(self.fail_cycles) == len(self.vanish_cycles):
            raise CampaignError("fault dictionary columns disagree in length")
        late = self.cycles >= num_cycles
        if late.any():
            raise CampaignError(
                f"fault at cycle {self.cycles[np.argmax(late)]} outside "
                f"testbench of {num_cycles} cycles"
            )
        self.codes = verdict_codes(self.fail_cycles, self.vanish_cycles)

    def __len__(self) -> int:
        return len(self.codes)

    def __iter__(self) -> Iterator[FaultRecord]:
        outcomes = zip(
            self.faults,
            self.codes.tolist(),
            self.fail_cycles.tolist(),
            self.vanish_cycles.tolist(),
        )
        for fault, code, fail, vanish in outcomes:
            yield FaultRecord(fault, VERDICTS[code], fail, vanish)

    # ------------------------------------------------------------------
    # aggregate queries
    # ------------------------------------------------------------------
    def counts(self) -> Dict[FaultClass, int]:
        """Verdict histogram — the paper's classification split."""
        return code_counts(self.codes)

    def percentages(self) -> Dict[FaultClass, float]:
        """Verdict percentages."""
        total = len(self)
        if total == 0:
            return {key: 0.0 for key in FaultClass}
        counts = self.counts()
        return {key: 100.0 * counts[key] / total for key in counts}

    def per_flop_failures(self) -> Dict[str, int]:
        """Failure count per flip-flop — the weak-area report that
        motivates emulation-based grading (paper section I)."""
        failed = self.flops[self.codes == FAILURE_CODE]
        hits = np.bincount(failed, minlength=len(self.flop_names))
        return dict(zip(self.flop_names, hits.tolist()))

    def weakest_flops(self, count: int = 10) -> List[tuple]:
        """The ``count`` flops with the most failures, worst first."""
        per_flop = self.per_flop_failures()
        ranked = sorted(per_flop.items(), key=lambda item: (-item[1], item[0]))
        return ranked[:count]

    def mean_latency(self, verdict: Optional[FaultClass] = None) -> float:
        """Average classification latency in cycles (optionally filtered by
        verdict). This is the quantity that determines time-mux speed.
        See :meth:`FaultRecord.latency`."""
        decided = np.where(
            self.codes == FAILURE_CODE,
            self.fail_cycles,
            np.where(self.codes == SILENT_CODE, self.vanish_cycles, self.num_cycles),
        )
        latency = decided.astype(np.int64) - self.cycles
        if verdict is not None:
            latency = latency[self.codes == VERDICTS.index(verdict)]
        if not len(latency):
            return 0.0
        return int(latency.sum()) / len(latency)

    def summary(self) -> str:
        """Multi-line text summary."""
        counts = self.counts()
        percentages = self.percentages()
        lines = [f"{len(self)} faults graded over {self.num_cycles} cycles"]
        for verdict in FaultClass:
            lines.append(
                f"  {verdict.value:>8}: {counts[verdict]:>8} "
                f"({percentages[verdict]:5.1f} %)"
            )
        return "\n".join(lines)
