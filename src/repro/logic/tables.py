"""Combinational gate semantics.

One table (`GATE_EVAL`) defines the function each gate type computes over
three-valued inputs. Netlist constant propagation, expression evaluation
and arity checks come through here; the compiled simulators' opcodes are
held to it by a fixpoint reference simulator in the tests.

Gate types are lowercase strings. Sequential elements (``dff``) and ports
are *not* listed here; they are handled structurally by the netlist layer.
"""

from __future__ import annotations

from typing import Callable, Dict, Sequence

from repro.logic.values import X, Value, is_known, v3_and, v3_not, v3_or, v3_xor


def _eval_and(inputs: Sequence[Value]) -> Value:
    result: Value = 1
    for value in inputs:
        result = v3_and(result, value)
        if result == 0:
            return 0
    return result


def _eval_or(inputs: Sequence[Value]) -> Value:
    result: Value = 0
    for value in inputs:
        result = v3_or(result, value)
        if result == 1:
            return 1
    return result


def _eval_nand(inputs: Sequence[Value]) -> Value:
    return v3_not(_eval_and(inputs))


def _eval_nor(inputs: Sequence[Value]) -> Value:
    return v3_not(_eval_or(inputs))


def _eval_xor(inputs: Sequence[Value]) -> Value:
    result: Value = 0
    for value in inputs:
        result = v3_xor(result, value)
    return result


def _eval_xnor(inputs: Sequence[Value]) -> Value:
    return v3_not(_eval_xor(inputs))


def _eval_buf(inputs: Sequence[Value]) -> Value:
    (value,) = inputs
    if value == 0 or value == 1:
        return value
    return X


def _eval_inv(inputs: Sequence[Value]) -> Value:
    (value,) = inputs
    return v3_not(value)


def _eval_mux2(inputs: Sequence[Value]) -> Value:
    """2:1 multiplexer; inputs are (select, d0, d1) -> d1 if select else d0.

    An X select still yields a known output when both data inputs agree —
    the standard optimistic mux semantics.
    """
    select, d0, d1 = inputs
    if select == 0:
        return _eval_buf([d0])
    if select == 1:
        return _eval_buf([d1])
    if is_known(d0) and d0 == d1:
        return d0
    return X


def _eval_const0(inputs: Sequence[Value]) -> Value:
    if inputs:
        raise ValueError("const0 takes no inputs")
    return 0


def _eval_const1(inputs: Sequence[Value]) -> Value:
    if inputs:
        raise ValueError("const1 takes no inputs")
    return 1


GATE_EVAL: Dict[str, Callable[[Sequence[Value]], Value]] = {
    "and": _eval_and,
    "or": _eval_or,
    "nand": _eval_nand,
    "nor": _eval_nor,
    "xor": _eval_xor,
    "xnor": _eval_xnor,
    "buf": _eval_buf,
    "inv": _eval_inv,
    "mux2": _eval_mux2,
    "const0": _eval_const0,
    "const1": _eval_const1,
}

# arity: (min_inputs, max_inputs); None means unbounded.
GATE_ARITY: Dict[str, tuple] = {
    "and": (2, None),
    "or": (2, None),
    "nand": (2, None),
    "nor": (2, None),
    "xor": (2, None),
    "xnor": (2, None),
    "buf": (1, 1),
    "inv": (1, 1),
    "mux2": (3, 3),
    "const0": (0, 0),
    "const1": (0, 0),
}

GATE_NAMES = tuple(sorted(GATE_EVAL))


def eval_gate(gate_type: str, inputs: Sequence[Value]) -> Value:
    """Evaluate one gate over three-valued inputs.

    Raises ``ValueError`` for unknown gate types or arity violations so that
    simulator bugs surface immediately rather than as silent X values.
    """
    try:
        fn = GATE_EVAL[gate_type]
    except KeyError:
        raise ValueError(f"unknown gate type: {gate_type!r}") from None
    low, high = GATE_ARITY[gate_type]
    if len(inputs) < low or (high is not None and len(inputs) > high):
        raise ValueError(
            f"{gate_type} expects between {low} and {high or 'inf'} inputs, "
            f"got {len(inputs)}"
        )
    return fn(inputs)


def truth_table(gate_type: str, arity: int) -> int:
    """Return the truth table of a gate as an integer bitmask.

    Bit ``i`` of the result is the gate output when the inputs spell the
    binary number ``i`` (input 0 is the least-significant bit). Used by the
    LUT mapper to fold mapped cones into single LUT functions.
    """
    low, high = GATE_ARITY[gate_type]
    if arity < low or (high is not None and arity > high):
        raise ValueError(f"{gate_type} cannot have arity {arity}")
    table = 0
    for row in range(1 << arity):
        inputs = [(row >> bit) & 1 for bit in range(arity)]
        if eval_gate(gate_type, inputs) == 1:
            table |= 1 << row
    return table
