"""The fused grading engine: the C cycle kernel with lane compaction.

This is the default oracle backend. Every fault model grades through a
lazily compiled C kernel (:mod:`repro.sim.backends._native`) that runs
an emulation cycle (input drive, the op program, output compare, state
latch and compare) by streaming each op over the active word columns.
A grade is one kernel call for all cycles, whatever the fault model;
the golden trace calls it once a cycle:

* **Compilation** — the levelized op program is lowered once per netlist
  into a flat ``(code, a, b, c, out)`` table: buffers alias away, gates
  are rewritten to 2-input form, inverting gates (nand/nor/xnor and inv)
  become their base op's inverted code, and a stage scheduler orders
  independent gates of one base op next to each other with contiguous
  output slots. Programs are cached per :class:`CompiledNetlist`.
* **Golden trace and mask rows** — :func:`golden_trace` runs the
  fault-free machine through the same kernel (one word column, every
  row 0 or ~0). Each grade expands the golden words into uint64 mask
  rows with one ``np.unpackbits``, so per-cycle compares are one XOR
  and an OR-reduction over the active words.
* **Injection** — the columnar schedule
  (:func:`~repro.sim.inject.schedule_for`; plain SEU lists get one flip
  per fault) is applied inside the call at each lane's packed position:
  flips XOR the q rows, and a persistent schedule's force bit-planes are
  re-imposed on the held state every cycle.
* **Dead lanes and dead cycles** (transient models: SEU, MBU) — fault
  lanes are (stably) sorted by injection cycle and packed as they are
  injected, their fail and vanish cycles are read off the per-word
  diffs bit by bit, and the kernel's PEXT compactor squeezes them
  together once enough have re-converged, so it only streams live
  lanes. When every injected fault has vanished and no injections
  remain, the cycle loop exits early — resolved campaigns do not pay
  for the tail of the testbench. Persistent lanes (stuck-at,
  intermittent) can re-diverge, so they run to the end of the bench.

Each grade allocates its own value array and scratch, so concurrent
grades on one compiled netlist share only read-only tables. Without the
kernel (no C compiler, or ``REPRO_FUSED_NATIVE=0``) the engine hands the
call to the ``bigint`` engine, the faster of the two pure-Python
references, and reports ``last_stats["native"] = False``;
every engine and the serial replay are cross-checked in the test suite.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple
from weakref import WeakKeyDictionary

import numpy as np

from repro.errors import SimulationError
from repro.faults.model import SeuFault
from repro.sim.backends import bigint_engine as _bigint_engine  # noqa: F401
from repro.sim.backends._native import native_kernel
from repro.sim.backends.base import GradingEngine, get_engine, register_engine
from repro.sim.inject import schedule_for
from repro.sim.compile import (
    OP_AND,
    OP_BUF,
    OP_CONST0,
    OP_CONST1,
    OP_INV,
    OP_MUX2,
    OP_NAND,
    OP_NOR,
    OP_OR,
    OP_XNOR,
    OP_XOR,
    CompiledNetlist,
)
from repro.sim.cycle import GoldenTrace
from repro.sim.vectors import Testbench

_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)

# Gate families the stage scheduler batches together.
_K_BIN = 0  # base 2-input gate (optionally inverted)
_K_MUX = 1  # 2:1 mux

#: base (non-inverting) op of every 2-input gate family
_BASE_OP = {
    OP_AND: OP_AND,
    OP_NAND: OP_AND,
    OP_OR: OP_OR,
    OP_NOR: OP_OR,
    OP_XOR: OP_XOR,
    OP_XNOR: OP_XOR,
}
_INVERTING = frozenset((OP_NAND, OP_NOR, OP_XNOR))
#: native op table codes: base code + 3 when inverted; 6 = mux
_NATIVE_CODE = {OP_AND: 0, OP_OR: 1, OP_XOR: 2}
_NATIVE_MUX = 6


@dataclass
class FusedProgram:
    """A compiled netlist lowered to the C kernel's op table.

    ``native_ops`` is a flat ``(code, a, b, c, out)`` int32 table in
    execution order. Slots are renumbered: primary inputs first, then
    flop q's, then the remaining source slots, then one produced slot per
    gate in table order.
    """

    num_slots: int
    native_ops: np.ndarray
    ones_rows: np.ndarray  # rows held at ~0 (const1 gates; const0 rows stay 0)
    num_inputs: int
    q_start: int
    q_stop: int
    output_slots: np.ndarray
    d_slots: np.ndarray
    q_slots: np.ndarray


_PROGRAM_CACHE: "WeakKeyDictionary[CompiledNetlist, FusedProgram]" = (
    WeakKeyDictionary()
)


def clear_program_cache() -> None:
    """Drop all cached fused programs (used by benchmarks and tests)."""
    _PROGRAM_CACHE.clear()


def fused_program_for(compiled: CompiledNetlist) -> FusedProgram:
    """Session-cached :class:`FusedProgram` for ``compiled``."""
    try:
        return _PROGRAM_CACHE[compiled]
    except KeyError:
        program = build_fused_program(compiled)
        _PROGRAM_CACHE[compiled] = program
        return program


def build_fused_program(compiled: CompiledNetlist) -> FusedProgram:
    """Lower the levelized op list into the native op table."""
    next_slot = compiled.num_slots
    const0_old: List[int] = []
    const1_old: List[int] = []
    alias = {}  # buf output -> the slot it forwards
    entries: List[Tuple[int, Tuple[int, ...], int]] = []

    def resolve(slot: int) -> int:
        while slot in alias:
            slot = alias[slot]
        return slot

    # ---- pass 1: 2-input normal form ---------------------------------
    # Buffers (and degenerate 1-input and/or/xor) alias to their input;
    # inverters (and 1-input inverting gates) become NOR(a, a) so they
    # ride the OR family as its inverted code; multi-input associative
    # gates become chains through temp slots.
    for opcode, in_slots, out_slot in compiled.ops:
        in_slots = tuple(resolve(slot) for slot in in_slots)
        if opcode == OP_CONST0:
            const0_old.append(out_slot)
            continue
        if opcode == OP_CONST1:
            const1_old.append(out_slot)
            continue
        if opcode == OP_MUX2:
            entries.append((OP_MUX2, in_slots, out_slot))
            continue
        if opcode == OP_BUF or (
            len(in_slots) == 1 and opcode not in _INVERTING and opcode != OP_INV
        ):
            alias[out_slot] = in_slots[0]
            continue
        if opcode == OP_INV or len(in_slots) == 1:
            entries.append((OP_NOR, (in_slots[0], in_slots[0]), out_slot))
            continue
        chain_op = _BASE_OP[opcode]
        accumulator = in_slots[0]
        for middle in in_slots[1:-1]:
            temp = next_slot
            next_slot += 1
            entries.append((chain_op, (accumulator, middle), temp))
            accumulator = temp
        entries.append((opcode, (accumulator, in_slots[-1]), out_slot))

    # ---- pass 2: stage scheduling ------------------------------------
    # Every gate lands in stage 1 + max(stage of producers); gates of one
    # base-op family at the same stage share a group. Groups of a stage
    # are mutually independent, so emitting groups in (stage, family)
    # order preserves dataflow and keeps same-code rows adjacent.
    slot_stage = {}  # produced slot -> pipeline stage
    stage_groups: dict = {}  # (stage, family) -> group index
    groups_members: List[List[Tuple[int, Tuple[int, ...], int]]] = []
    groups_key: List[tuple] = []

    for opcode, in_slots, out_slot in entries:
        stage = 0
        for slot in in_slots:
            producer = slot_stage.get(slot, -1)
            if producer >= stage:
                stage = producer + 1
        family = (
            (_K_MUX, OP_MUX2)
            if opcode == OP_MUX2
            else (_K_BIN, _BASE_OP[opcode])
        )
        key = (stage, family)
        group_index = stage_groups.get(key)
        if group_index is None:
            group_index = len(groups_members)
            stage_groups[key] = group_index
            groups_members.append([])
            groups_key.append(key)
        groups_members[group_index].append((opcode, in_slots, out_slot))
        slot_stage[out_slot] = stage

    group_order = sorted(range(len(groups_members)), key=lambda i: groups_key[i])
    groups_members = [groups_members[i] for i in group_order]
    groups_family = [groups_key[i][1] for i in group_order]

    # ---- pass 3: slot renumbering + the native op table ----------------
    # Sources keep their relative order (inputs, then q's, then the
    # rest); each group's outputs become one contiguous range.
    skip = set(const0_old)
    skip.update(const1_old)
    skip.update(alias)
    new_of = {}
    for slot in range(compiled.num_slots):
        if slot not in slot_stage and slot not in skip:
            new_of[slot] = len(new_of)
    for old in const0_old:
        new_of[old] = len(new_of)
    for old in const1_old:
        new_of[old] = len(new_of)
    native_rows: List[Tuple[int, int, int, int, int]] = []
    for (kind, base_op), members in zip(groups_family, groups_members):
        # Sort members by their operands' already-renumbered slots: buses
        # that flow through the circuit in order keep their outputs in
        # order too, so the kernel streams neighbouring rows (every
        # producer ran in an earlier group, so its new ids are known).
        members.sort(
            key=lambda member: tuple(new_of[slot] for slot in member[1])
        )
        for opcode, in_slots, out_slot in members:
            new_of[out_slot] = len(new_of)
            operands = [new_of[slot] for slot in in_slots]
            if kind == _K_MUX:
                code = _NATIVE_MUX
            else:
                code = _NATIVE_CODE[base_op] + (3 if opcode in _INVERTING else 0)
                operands.append(operands[1])
            native_rows.append((code, *operands, new_of[out_slot]))
    num_slots = len(new_of)

    def renumber(slot: int) -> int:
        return new_of[resolve(slot)]

    input_slots = np.array(
        [renumber(slot) for slot in compiled.input_slots], dtype=np.int64
    )
    q_slots = np.array(
        [renumber(flop.q_index) for flop in compiled.flops], dtype=np.int64
    )
    num_inputs = len(input_slots)
    num_flops = len(q_slots)
    # compile_netlist assigns inputs then q's first; renumbering keeps
    # source order, so both blocks stay contiguous at the front.
    assert list(input_slots) == list(range(num_inputs))
    assert list(q_slots) == list(range(num_inputs, num_inputs + num_flops))

    return FusedProgram(
        num_slots=num_slots,
        native_ops=np.array(native_rows, dtype=np.int32).reshape(-1, 5),
        ones_rows=np.array(
            [new_of[slot] for slot in const1_old], dtype=np.int64
        ),
        num_inputs=num_inputs,
        q_start=num_inputs,
        q_stop=num_inputs + num_flops,
        output_slots=np.array(
            [renumber(slot) for slot in compiled.output_slots], dtype=np.int64
        ),
        d_slots=np.array(
            [renumber(flop.d_index) for flop in compiled.flops], dtype=np.int64
        ),
        q_slots=q_slots,
    )


def _mask_rows(words: Sequence[int], num_bits: int) -> np.ndarray:
    """Expand packed golden words into per-bit uint64 mask rows (0 / ~0)."""
    row_bytes = (num_bits + 7) // 8
    packed = np.frombuffer(
        b"".join(word.to_bytes(row_bytes, "little") for word in words),
        dtype=np.uint8,
    ).reshape(len(words), row_bytes)
    bits = np.unpackbits(packed, axis=1, count=num_bits, bitorder="little")
    return bits.astype(np.uint64) * _ONES


def _masks_for(
    program: FusedProgram, testbench: Testbench, golden: GoldenTrace
) -> tuple:
    """The (input, output, state) mask rows of one grade (~0.1 ms at b14)."""
    cycles = testbench.num_cycles  # the kernel reads rows by raw address
    if len(golden.outputs) < cycles or len(golden.states) <= cycles:
        raise SimulationError("golden trace is shorter than the testbench")
    return (
        _mask_rows(testbench.vectors, program.num_inputs),
        _mask_rows(golden.outputs, len(program.output_slots)),
        _mask_rows(golden.states, len(program.q_slots)),
    )


def _value_rows(program: FusedProgram, num_words: int) -> np.ndarray:
    """One grade's private slot rows, const1 rows held at ~0."""
    values = np.zeros((program.num_slots, num_words), dtype=np.uint64)
    if len(program.ones_rows):
        values[program.ones_rows, :] = _ONES
    return values


def _pack_rows(rows: np.ndarray) -> List[int]:
    """Pack 0 / ~0 mask rows back into ints (bit i = column i)."""
    packed = np.packbits(rows, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def golden_trace(
    compiled: CompiledNetlist, testbench: Testbench
) -> Optional[GoldenTrace]:
    """The fault-free trace from the C kernel, or ``None`` without it.

    One word column whose 64 lanes all run the golden machine, reset as
    :func:`~repro.sim.cycle.run_golden` does; one kernel call per cycle,
    its golden compares fed a zero row and ignored. Buffers are private
    to the call, like a grade's.
    """
    kernel = native_kernel()
    if kernel is None:
        return None
    program = fused_program_for(compiled)
    num_cycles = testbench.num_cycles
    out_slots = program.output_slots
    num_flops = len(program.q_slots)
    inputs = _mask_rows(testbench.vectors, program.num_inputs)
    values = _value_rows(program, 1)
    buffers = (
        values, program.native_ops, out_slots.astype(np.int32),
        np.zeros(max(len(out_slots), num_flops), np.uint64),  # golden rows
        np.zeros(2, np.uint64),  # out_diff, state_diff
        program.d_slots.astype(np.int32), np.empty(num_flops, np.uint64),
    )
    # Addresses are resolved once: ``.ctypes.data`` costs microseconds
    # and the pass makes one call per cycle. Input rows are contiguous.
    values_at, ops_at, out_at, blank_at, diff_at, d_at, scratch_at = (
        array.ctypes.data for array in buffers
    )
    in_at, in_step = inputs.ctypes.data, inputs.strides[0]
    column = values[:, 0]
    q_rows = column[program.q_start : program.q_stop]
    q_rows[:] = _mask_rows([compiled.initial_state()], num_flops)
    states = np.empty((num_cycles + 1, num_flops), dtype=np.uint64)
    outputs = np.empty((num_cycles, len(out_slots)), dtype=np.uint64)
    for cycle in range(num_cycles):
        states[cycle] = q_rows
        kernel.grade_cycle(
            values_at, 1, 0, 1, ops_at, len(program.native_ops),
            in_at + cycle * in_step, program.num_inputs,
            out_at, blank_at, len(out_slots), diff_at,
            d_at, blank_at, num_flops, program.q_start, diff_at + 8, scratch_at,
        )
        np.take(column, out_slots, out=outputs[cycle])
    states[num_cycles] = q_rows
    # An output that is a flop Q (through an aliased buffer) reads a row
    # the latch has already overwritten: it shows the held state.
    held = (out_slots >= program.q_start) & (out_slots < program.q_stop)
    outputs[:, held] = states[:-1, out_slots[held] - program.q_start]
    return GoldenTrace(num_cycles, _pack_rows(outputs), _pack_rows(states))


@register_engine
class FusedEngine(GradingEngine):
    """Native-kernel grading with lane compaction and early exit."""

    name = "fused"

    def grade(
        self,
        compiled: CompiledNetlist,
        testbench: Testbench,
        faults: Sequence[SeuFault],
        golden: GoldenTrace,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """One native call (``repro_grade``) runs the whole cycle loop.

        Lanes occupy *packed positions*: they append at the packed end
        as they activate, and once enough transient lanes have
        re-converged the kept bits of every flop row are squeezed to the
        front by the PEXT compactor; a packed position -> fault index
        map follows. On convergence-heavy campaigns this cuts the
        streamed word columns by ~2x over a contiguous word window,
        because a word column stays active while *any* of its 64 lanes
        is unresolved.
        """
        kernel = native_kernel()
        if kernel is None:
            fallback = get_engine("bigint")
            result = fallback.grade(compiled, testbench, faults, golden)
            self.last_stats = {**fallback.last_stats, "native": False}
            return result

        program = fused_program_for(compiled)
        num_cycles = testbench.num_cycles
        schedule = schedule_for(faults, num_cycles, len(program.q_slots))
        masks = _masks_for(program, testbench, golden)
        num_faults = schedule.num_faults
        first_active = schedule.first_active
        order = np.argsort(first_active, kind="stable")
        # the sorted lanes [bounds[t], bounds[t + 1]) activate at cycle t
        bounds = np.searchsorted(first_active[order], np.arange(num_cycles + 1))
        values = _value_rows(program, (num_faults + 63) // 64)
        fail_cycle = np.full(num_faults, -1, dtype=np.int32)
        vanish_cycle = np.full(num_faults, -1, dtype=np.int32)
        repacks = ctypes.c_long()
        executed = kernel.grade(
            values, values.shape[1], *masks,
            program.native_ops, len(program.native_ops), program.num_inputs,
            program.output_slots.astype(np.int32), len(program.output_slots),
            program.d_slots.astype(np.int32), len(program.d_slots),
            program.q_start, num_cycles, num_faults, bounds, order,
            schedule.offsets, schedule.flop, schedule.lane, schedule.op,
            schedule.persistent, fail_cycle, vanish_cycle,
            ctypes.byref(repacks),
        )
        if executed < 0:
            raise MemoryError("the grade kernel could not allocate its scratch")
        self.last_stats = {
            "num_cycles": num_cycles,
            "num_words": values.shape[1],
            "native": True,
            "cycles_executed": executed,
            "repacks": repacks.value,
        }
        return fail_cycle, vanish_cycle
