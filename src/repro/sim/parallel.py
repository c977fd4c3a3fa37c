"""Bit-parallel fault grading: the functional oracle of the library.

Grading 34,400 faults by replaying the circuit one fault at a time is what
makes software fault simulation slow (the paper's 1300 us/fault baseline).
This module packs one fault per bit position and simulates all of them
simultaneously with word-wide logic ops — the classic parallel fault
simulation technique — producing, for every fault:

* ``fail_cycle``   — first cycle with a primary-output mismatch (-1 never),
* ``vanish_cycle`` — first cycle at whose end the faulty state equals the
  golden state (-1 never; once equal, always equal),
* the FAILURE / LATENT / SILENT verdict derived from the two.

These three observations are exactly what the emulation campaign engines
need to count FPGA clock cycles for each technique, and the verdicts are
the classification the autonomous emulator would read back from RAM.

The execution itself lives in :mod:`repro.sim.backends`: a registry of
interchangeable :class:`~repro.sim.backends.GradingEngine` implementations
(``fused`` — the batched-kernel default, ``numpy``, ``bigint``), selected
with the ``backend`` argument. Compiled netlists and golden traces are
reused through the session caches in :mod:`repro.sim.cache`, so repeated
campaigns on one circuit/testbench pay those costs once.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.errors import CampaignError
from repro.faults.classify import VERDICTS, FaultClass, classify_outcome, verdict_codes
from repro.faults.dictionary import FaultDictionary
from repro.faults.model import CYCLE_DTYPE, FaultArray, SeuFault, fault_columns
from repro.sim.backends import available_engines, get_engine
from repro.sim.cache import compiled_for, golden_for
from repro.sim.compile import CompiledNetlist
from repro.sim.cycle import GoldenTrace
from repro.sim.vectors import Testbench

#: the engine used when callers do not pick one explicitly
DEFAULT_BACKEND = "fused"


@dataclass
class FaultGradingResult:
    """Per-fault grading outcomes for one campaign.

    ``fail_cycles``/``vanish_cycles`` are ``<i4`` columns in fault-list
    order (sequences passed in are converted).
    """

    faults: Sequence[SeuFault]
    num_cycles: int
    flop_names: List[str]
    golden: GoldenTrace
    fail_cycles: np.ndarray = ()
    vanish_cycles: np.ndarray = ()
    _dictionary: Optional[FaultDictionary] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self.fail_cycles = np.asarray(self.fail_cycles, dtype=CYCLE_DTYPE)
        self.vanish_cycles = np.asarray(self.vanish_cycles, dtype=CYCLE_DTYPE)

    @property
    def num_faults(self) -> int:
        return len(self.faults)

    def verdict(self, index: int) -> FaultClass:
        """Classification of fault ``index``."""
        return classify_outcome(self.fail_cycles[index], self.vanish_cycles[index])

    def verdicts(self) -> List[FaultClass]:
        """All classifications, fault-list order."""
        codes = verdict_codes(self.fail_cycles, self.vanish_cycles)
        return [VERDICTS[code] for code in codes.tolist()]

    def outcome_digest(self) -> str:
        """Content digest of the per-fault outcomes (fail/vanish cycles).

        Two gradings of the same campaign agree on this hex string iff
        they are bit-exact, which is how the distributed-transport tests
        (and CI's fleet smoke) compare a remote-graded oracle against
        the serial reference without shipping the arrays around. The
        hashed bytes are little-endian int32 on every host.
        """
        digest = hashlib.blake2b(digest_size=16)
        digest.update(self.fail_cycles.tobytes())
        digest.update(b"|")
        digest.update(self.vanish_cycles.tobytes())
        return digest.hexdigest()

    def to_dictionary(self) -> FaultDictionary:
        """Decode into a queryable :class:`FaultDictionary`.

        The decode is memoized: campaign engines sharing one oracle (the
        normal multi-technique setup) receive the same dictionary object,
        which shares this result's outcome columns.
        """
        if self._dictionary is None:
            self._dictionary = FaultDictionary(
                self.num_cycles,
                self.flop_names,
                self.faults,
                self.fail_cycles,
                self.vanish_cycles,
            )
        return self._dictionary


def grade_faults(
    netlist_or_compiled,
    testbench: Testbench,
    faults: Sequence[SeuFault],
    backend: str = DEFAULT_BACKEND,
) -> FaultGradingResult:
    """Grade ``faults`` against ``testbench``; the library's main oracle.

    ``backend`` names a registered grading engine (see
    :func:`repro.sim.backends.available_engines`); all engines produce
    bit-identical results, differing only in speed.
    """
    compiled = compiled_for(netlist_or_compiled)
    _check_faults(compiled, testbench, faults)
    golden = golden_for(compiled, testbench)
    engine = get_engine(backend)
    fail, vanish = engine.grade(compiled, testbench, faults, golden)
    return FaultGradingResult(
        faults=faults if isinstance(faults, FaultArray) else list(faults),
        num_cycles=testbench.num_cycles,
        flop_names=[flop.name for flop in compiled.flops],
        golden=golden,
        fail_cycles=fail,
        vanish_cycles=vanish,
    )


def _check_faults(
    compiled: CompiledNetlist, testbench: Testbench, faults: Sequence[SeuFault]
) -> None:
    """Validate the fault list in bulk (no per-fault Python branching)."""
    if not len(faults):
        raise CampaignError("empty fault list")
    cycles, flop_indices = fault_columns(faults)
    late = cycles >= testbench.num_cycles
    if late.any():
        fault = faults[int(np.argmax(late))]
        raise CampaignError(
            f"{fault.describe()} is beyond the {testbench.num_cycles}-cycle "
            "testbench"
        )
    out_of_range = flop_indices >= compiled.num_flops
    if out_of_range.any():
        fault = faults[int(np.argmax(out_of_range))]
        raise CampaignError(
            f"{fault.describe()}: circuit has only {compiled.num_flops} flops"
        )


__all__ = [
    "DEFAULT_BACKEND",
    "FaultGradingResult",
    "available_engines",
    "grade_faults",
]
