"""Fault classification: failure / latent / silent.

The paper grades each injected fault into exactly one of three classes
(the 49.2 % / 4.4 % / 46.4 % split reported for b14):

* **FAILURE** — the faulty run produced a wrong value on a primary output
  at some cycle.
* **LATENT**  — outputs stayed correct for the whole testbench, but the
  circuit state still differs from the golden state at the end: the error
  is stored, and a longer workload might still expose it.
* **SILENT**  — outputs stayed correct and the fault effect disappeared
  (faulty state became equal to the golden state), so the SEU had no
  consequence.
"""

from __future__ import annotations

import enum
from typing import Dict, Iterable

import numpy as np


class FaultClass(enum.Enum):
    """Grading verdict for a single fault."""

    FAILURE = "failure"
    LATENT = "latent"
    SILENT = "silent"


def classify_outcome(fail_cycle: int, vanish_cycle: int) -> FaultClass:
    """Classify from the two oracle observations.

    ``fail_cycle``: first cycle with an output mismatch, -1 if never.
    ``vanish_cycle``: first cycle at whose end the faulty state equals the
    golden state, -1 if never.

    An output mismatch dominates: even if the state later converges, the
    wrong output was already produced (the paper counts these as failures).
    """
    if fail_cycle != -1:
        return FaultClass.FAILURE
    if vanish_cycle != -1:
        return FaultClass.SILENT
    return FaultClass.LATENT


#: verdict codes (the emulator's per-fault RAM verdict): index into VERDICTS
VERDICTS = tuple(FaultClass)
FAILURE_CODE = VERDICTS.index(FaultClass.FAILURE)
SILENT_CODE = VERDICTS.index(FaultClass.SILENT)
LATENT_CODE = VERDICTS.index(FaultClass.LATENT)


def verdict_codes(fail_cycles, vanish_cycles) -> np.ndarray:
    """:func:`classify_outcome` over outcome columns, as uint8 codes."""
    codes = np.where(np.asarray(vanish_cycles) != -1, SILENT_CODE, LATENT_CODE)
    codes[np.asarray(fail_cycles) != -1] = FAILURE_CODE
    return codes.astype(np.uint8)


def code_counts(codes: np.ndarray) -> Dict[FaultClass, int]:
    """Verdict histogram of a code column."""
    return dict(zip(VERDICTS, np.bincount(codes, minlength=len(VERDICTS)).tolist()))


def classification_counts(classes: Iterable[FaultClass]) -> Dict[FaultClass, int]:
    """Histogram of verdicts."""
    counts = {FaultClass.FAILURE: 0, FaultClass.LATENT: 0, FaultClass.SILENT: 0}
    for verdict in classes:
        counts[verdict] += 1
    return counts


def classification_percentages(
    counts: Dict[FaultClass, int]
) -> Dict[FaultClass, float]:
    """Convert a verdict histogram to percentages (the paper's format)."""
    total = sum(counts.values())
    if total == 0:
        return {key: 0.0 for key in counts}
    return {key: 100.0 * value / total for key, value in counts.items()}
