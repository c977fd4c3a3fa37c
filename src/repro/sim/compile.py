"""Compilation of netlists into flat evaluation programs.

A :class:`CompiledNetlist` assigns every driven net a dense index and
levelizes the combinational gates into a straight-line list of ops. Both
the scalar cycle simulator and the bit-parallel fault simulator execute
this program; compiling once and simulating many times is what makes
34,400-fault campaigns tractable in Python.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.errors import SimulationError
from repro.logic.values import Value
from repro.netlist.netlist import Netlist
from repro.netlist.topo import levelize

# Opcode numbers: dense ints so backends can dispatch on them cheaply.
OP_AND = 0
OP_OR = 1
OP_NAND = 2
OP_NOR = 3
OP_XOR = 4
OP_XNOR = 5
OP_BUF = 6
OP_INV = 7
OP_MUX2 = 8
OP_CONST0 = 9
OP_CONST1 = 10

_OPCODE_OF = {
    "and": OP_AND,
    "or": OP_OR,
    "nand": OP_NAND,
    "nor": OP_NOR,
    "xor": OP_XOR,
    "xnor": OP_XNOR,
    "buf": OP_BUF,
    "inv": OP_INV,
    "mux2": OP_MUX2,
    "const0": OP_CONST0,
    "const1": OP_CONST1,
}


@dataclass(frozen=True)
class FlipFlopSlot:
    """Compiled view of one flip-flop."""

    name: str
    d_index: int
    q_index: int
    init: Value


@dataclass(eq=False)
class CompiledNetlist:
    """A netlist lowered to a dense, levelized op program.

    Compared and hashed by identity (``eq=False``) so engines can key
    weak caches of derived artifacts (fused programs, golden traces) on
    the compiled object itself.

    Attributes:
        net_index: net name -> dense value-array slot.
        ops: ``(opcode, input_slots, output_slot)`` in topological order.
        input_slots / output_slots: slots of the primary I/O in port order.
        flops: compiled flip-flops in netlist (scan-chain) order.
    """

    source: Netlist
    net_index: Dict[str, int]
    num_slots: int
    ops: List[Tuple[int, Tuple[int, ...], int]]
    input_slots: List[int]
    output_slots: List[int]
    flops: List[FlipFlopSlot]

    @property
    def num_inputs(self) -> int:
        return len(self.input_slots)

    @property
    def num_outputs(self) -> int:
        return len(self.output_slots)

    @property
    def num_flops(self) -> int:
        return len(self.flops)

    def initial_state(self) -> int:
        """Packed reset state (bit i = flop i in chain order). X inits
        become 0: an FPGA flop powers up to 0."""
        state = 0
        for position, flop in enumerate(self.flops):
            if flop.init == 1:
                state |= 1 << position
        return state


def compile_netlist(netlist: Netlist) -> CompiledNetlist:
    """Compile ``netlist`` into a :class:`CompiledNetlist`."""
    net_index: Dict[str, int] = {}

    def slot(net: str) -> int:
        if net not in net_index:
            net_index[net] = len(net_index)
        return net_index[net]

    # Inputs and flop outputs first: they are the program's live-in values.
    input_slots = [slot(net) for net in netlist.inputs]
    for dff in netlist.dffs.values():
        slot(dff.q)

    ops: List[Tuple[int, Tuple[int, ...], int]] = []
    for gate in levelize(netlist):
        in_slots = tuple(slot(net) for net in gate.inputs)
        out_slot = slot(gate.output)
        ops.append((_OPCODE_OF[gate.gate_type], in_slots, out_slot))

    output_slots = [slot(net) for net in netlist.outputs]
    flops = [
        FlipFlopSlot(
            name=dff.name,
            d_index=slot(dff.d),
            q_index=net_index[dff.q],
            init=dff.init,
        )
        for dff in netlist.dffs.values()
    ]

    return CompiledNetlist(
        source=netlist,
        net_index=net_index,
        num_slots=len(net_index),
        ops=ops,
        input_slots=input_slots,
        output_slots=output_slots,
        flops=flops,
    )


def eval_program_scalar(
    compiled: CompiledNetlist, values: List[int]
) -> None:
    """Run the op program over two-valued scalars in place.

    ``values`` holds one int (0/1) per slot; inputs and flop q slots must
    be set by the caller before the call. This is the inner loop of the
    scalar simulator — kept free of attribute lookups on purpose.
    """
    for opcode, in_slots, out_slot in compiled.ops:
        if opcode == OP_AND:
            result = 1
            for index in in_slots:
                result &= values[index]
            values[out_slot] = result
        elif opcode == OP_OR:
            result = 0
            for index in in_slots:
                result |= values[index]
            values[out_slot] = result
        elif opcode == OP_NAND:
            result = 1
            for index in in_slots:
                result &= values[index]
            values[out_slot] = result ^ 1
        elif opcode == OP_NOR:
            result = 0
            for index in in_slots:
                result |= values[index]
            values[out_slot] = result ^ 1
        elif opcode == OP_XOR:
            result = 0
            for index in in_slots:
                result ^= values[index]
            values[out_slot] = result
        elif opcode == OP_XNOR:
            result = 0
            for index in in_slots:
                result ^= values[index]
            values[out_slot] = result ^ 1
        elif opcode == OP_BUF:
            values[out_slot] = values[in_slots[0]]
        elif opcode == OP_INV:
            values[out_slot] = values[in_slots[0]] ^ 1
        elif opcode == OP_MUX2:
            select, d0, d1 = in_slots
            values[out_slot] = values[d1] if values[select] else values[d0]
        elif opcode == OP_CONST0:
            values[out_slot] = 0
        elif opcode == OP_CONST1:
            values[out_slot] = 1
        else:  # pragma: no cover - compile_netlist only emits known opcodes
            raise SimulationError(f"bad opcode {opcode}")
