"""The classic numpy grading engine: one fault per uint64 bit lane.

This is the original reference backend: nets are rows of uint64 words (64
faults per word) and every op of the levelized program is dispatched
through a Python ``if/elif`` chain each cycle. It is kept as a registered
engine for cross-checking the fused engine and for bisecting perf
regressions; production grading uses ``fused``.

Every fault model (:mod:`repro.faults.models`) runs one loop driven by
an :class:`~repro.sim.inject.InjectionSchedule`: flips, and per-cycle
force-mask re-application for the persistent models.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.faults.model import SeuFault
from repro.sim.backends.base import GradingEngine, register_engine
from repro.sim.compile import (
    OP_AND,
    OP_BUF,
    OP_CONST0,
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
from repro.sim.inject import WordInjector, schedule_for
from repro.sim.vectors import Testbench

_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)


def _unpack_bits(words: np.ndarray, num_bits: int) -> np.ndarray:
    """Unpack a uint64 word array into a boolean array of ``num_bits``
    (bit i of word w is fault w*64+i)."""
    as_bytes = words.view(np.uint8)
    bits = np.unpackbits(as_bytes, bitorder="little")
    return bits[:num_bits].astype(bool)


def _eval_ops(values: np.ndarray, ops, ones: np.uint64) -> None:
    """Evaluate the levelized op program over the value array in place."""
    for opcode, in_slots, out_slot in ops:
        if opcode == OP_AND:
            row = values[in_slots[0]].copy()
            for slot in in_slots[1:]:
                row &= values[slot]
            values[out_slot] = row
        elif opcode == OP_OR:
            row = values[in_slots[0]].copy()
            for slot in in_slots[1:]:
                row |= values[slot]
            values[out_slot] = row
        elif opcode == OP_NAND:
            row = values[in_slots[0]].copy()
            for slot in in_slots[1:]:
                row &= values[slot]
            values[out_slot] = ~row
        elif opcode == OP_NOR:
            row = values[in_slots[0]].copy()
            for slot in in_slots[1:]:
                row |= values[slot]
            values[out_slot] = ~row
        elif opcode == OP_XOR:
            row = values[in_slots[0]].copy()
            for slot in in_slots[1:]:
                row ^= values[slot]
            values[out_slot] = row
        elif opcode == OP_XNOR:
            row = values[in_slots[0]].copy()
            for slot in in_slots[1:]:
                row ^= values[slot]
            values[out_slot] = ~row
        elif opcode == OP_BUF:
            values[out_slot] = values[in_slots[0]]
        elif opcode == OP_INV:
            values[out_slot] = ~values[in_slots[0]]
        elif opcode == OP_MUX2:
            select = values[in_slots[0]]
            values[out_slot] = (select & values[in_slots[2]]) | (
                ~select & values[in_slots[1]]
            )
        elif opcode == OP_CONST0:
            values[out_slot, :] = 0
        else:  # OP_CONST1
            values[out_slot, :] = ones


@register_engine
class NumpyEngine(GradingEngine):
    """Word-parallel grading with per-op Python dispatch."""

    name = "numpy"

    def grade(
        self,
        compiled: CompiledNetlist,
        testbench: Testbench,
        faults: Sequence[SeuFault],
        golden: GoldenTrace,
    ) -> Tuple[np.ndarray, np.ndarray]:
        schedule = schedule_for(faults, testbench.num_cycles, compiled.num_flops)
        num_faults = schedule.num_faults
        num_cycles = testbench.num_cycles
        num_words = (num_faults + 63) // 64
        ones = _ONES
        num_flops = compiled.num_flops
        q_slots = np.array([flop.q_index for flop in compiled.flops], dtype=np.intp)

        values = np.zeros((compiled.num_slots, num_words), dtype=np.uint64)
        reset = golden.states[0]
        for position, slot in enumerate(q_slots):
            values[slot, :] = ones if (reset >> position) & 1 else 0

        fail_cycle = np.full(num_faults, -1, dtype=np.int32)
        vanish_cycle = np.full(num_faults, -1, dtype=np.int32)

        # Word-plane bookkeeping (bit i of word w = lane w*64+i).
        injector = WordInjector(schedule, num_flops, num_words)
        injected = injector.injected
        not_failed = np.full(num_words, ones, dtype=np.uint64)
        no_candidate = np.full(num_words, ones, dtype=np.uint64)

        def apply_cycle_events(cycle: int) -> None:
            held = values[q_slots]  # gathered, injected, scattered back
            injector.apply(cycle, held)
            values[q_slots] = held

        def update_vanish(state_word: int, end_cycle: int) -> None:
            """Candidate bookkeeping for "vanished by the end of
            ``end_cycle``", comparing the held q rows to ``state_word``."""
            state_diff = np.zeros(num_words, dtype=np.uint64)
            for position, slot in enumerate(q_slots):
                if (state_word >> position) & 1:
                    state_diff |= ~values[slot]
                else:
                    state_diff |= values[slot]
            conv = ~state_diff & injected
            newly = conv & no_candidate
            if newly.any():
                bits = _unpack_bits(newly, num_faults)
                vanish_cycle[bits] = end_cycle
                np.bitwise_and(no_candidate, ~newly, out=no_candidate)
            lost = state_diff & injected & ~no_candidate
            if lost.any():
                bits = _unpack_bits(lost, num_faults)
                vanish_cycle[bits] = -1
                np.bitwise_or(no_candidate, lost, out=no_candidate)

        for cycle in range(num_cycles):
            apply_cycle_events(cycle)
            if cycle > 0:
                update_vanish(golden.states[cycle], cycle - 1)
            injector.activate(cycle)

            vector = testbench.vectors[cycle]
            for position, slot in enumerate(compiled.input_slots):
                values[slot, :] = ones if (vector >> position) & 1 else 0

            _eval_ops(values, compiled.ops, ones)

            golden_out = golden.outputs[cycle]
            out_diff = np.zeros(num_words, dtype=np.uint64)
            for position, slot in enumerate(compiled.output_slots):
                if (golden_out >> position) & 1:
                    out_diff |= ~values[slot]
                else:
                    out_diff |= values[slot]
            newly_failed = out_diff & not_failed & injected
            if newly_failed.any():
                bits = _unpack_bits(newly_failed, num_faults)
                fail_cycle[bits] = cycle
                not_failed &= ~newly_failed

            next_rows = [values[flop.d_index].copy() for flop in compiled.flops]
            for slot, row in zip(q_slots, next_rows):
                values[slot] = row

        # The post-bench state: force transitions scheduled at num_cycles
        # govern what the circuit is left holding after the last latch.
        apply_cycle_events(num_cycles)
        update_vanish(golden.states[num_cycles], num_cycles - 1)

        self.last_stats = {
            "cycles_executed": num_cycles,
            "num_cycles": num_cycles,
        }
        return fail_cycle, vanish_cycle
