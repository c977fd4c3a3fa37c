"""Pluggable grading engines for the bit-parallel fault oracle.

The oracle's algorithm (parallel-pattern SEU grading producing
``fail_cycle`` / ``vanish_cycle`` per fault) is fixed; *engines* are
interchangeable executors of that algorithm, registered by name:

* ``fused``  — the native C cycle kernel with lane compaction and
  resolved-fault early exit (the default; see
  :mod:`repro.sim.backends.fused`);
* ``numpy``  — the classic row-per-net uint64 implementation with per-op
  Python dispatch;
* ``bigint`` — dependency-free Python-int lanes, the trusted cross-check.

Third-party engines can subclass :class:`GradingEngine` and decorate with
:func:`register_engine`; ``grade_faults(..., backend=<name>)`` then picks
them up with no further wiring.
"""

from repro.sim.backends.base import (
    GradingEngine,
    available_engines,
    get_engine,
    register_engine,
)

# Importing the engine modules registers the built-in engines.
from repro.sim.backends import bigint_engine as _bigint_engine  # noqa: F401
from repro.sim.backends import fused as _fused  # noqa: F401
from repro.sim.backends import numpy_engine as _numpy_engine  # noqa: F401
from repro.sim.backends.fused import FusedProgram, build_fused_program

__all__ = [
    "GradingEngine",
    "available_engines",
    "get_engine",
    "register_engine",
    "FusedProgram",
    "build_fused_program",
]
