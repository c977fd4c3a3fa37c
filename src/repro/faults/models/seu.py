"""The paper's fault model: transient single-bit SEU.

The population is exactly :func:`repro.faults.model.exhaustive_fault_list`
— the same :class:`~repro.faults.model.SeuFault` columns, in the same
cycle-major order — so campaigns described through the model registry are
bit-exact with the original hard-coded path.
"""

from __future__ import annotations

from repro.faults.model import FaultArray, exhaustive_fault_list
from repro.faults.models.base import FaultModel, register_model
from repro.netlist.netlist import Netlist


@register_model
class SeuModel(FaultModel):
    """Single-event upset: one flop flipped for one cycle."""

    name = "seu"
    transient = True

    def population(self, netlist: Netlist, num_cycles: int) -> FaultArray:
        return exhaustive_fault_list(netlist, num_cycles)

    def describe(self) -> str:
        return "transient single-bit flip: one flop XOR-ed at one cycle"
