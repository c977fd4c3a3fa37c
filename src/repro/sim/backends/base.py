"""Grading-engine interface and registry.

A grading engine is one implementation of the bit-parallel fault oracle:
given a compiled netlist, a testbench, a fault list and the golden trace,
it produces each fault's ``fail_cycle`` and ``vanish_cycle``. All engines
implement the same algorithm (the definitions in
:mod:`repro.sim.parallel`); they differ only in how the word-wide logic is
executed. Engines register themselves by name so
:func:`repro.sim.parallel.grade_faults` and the campaign layers can select
one with a plain string (``backend="fused"``).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, List, Sequence, Tuple, Type

import numpy as np

from repro.errors import CampaignError
from repro.faults.model import SeuFault
from repro.sim.compile import CompiledNetlist
from repro.sim.cycle import GoldenTrace
from repro.sim.vectors import Testbench


class GradingEngine(ABC):
    """One backend of the fault-grading oracle.

    Subclasses set ``name`` (the registry key) and implement
    :meth:`grade`. Engines must be stateless across calls except for
    opt-in diagnostics such as :attr:`last_stats`.
    """

    #: registry key, e.g. ``"fused"``
    name: str = ""

    #: diagnostics of the most recent :meth:`grade` call (engine-specific
    #: keys; the fused engine reports early-exit and windowing counters).
    last_stats: Dict[str, int]

    def __init__(self) -> None:
        self.last_stats = {}

    @abstractmethod
    def grade(
        self,
        compiled: CompiledNetlist,
        testbench: Testbench,
        faults: Sequence[SeuFault],
        golden: GoldenTrace,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Return ``(fail_cycles, vanish_cycles)`` as int32 arrays in
        fault-list order."""


_REGISTRY: Dict[str, GradingEngine] = {}


def register_engine(engine_cls: Type[GradingEngine]) -> Type[GradingEngine]:
    """Class decorator: instantiate and register an engine by its name."""
    engine = engine_cls()
    if not engine.name:
        raise ValueError(f"{engine_cls.__name__} must set a name")
    _REGISTRY[engine.name] = engine
    return engine_cls


def get_engine(name: str) -> GradingEngine:
    """Look up a registered engine; raise :class:`CampaignError` if absent."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise CampaignError(
            f"unknown backend {name!r}; available engines: "
            + ", ".join(available_engines())
        ) from None


def available_engines() -> List[str]:
    """Sorted names of every registered grading engine."""
    return sorted(_REGISTRY)
