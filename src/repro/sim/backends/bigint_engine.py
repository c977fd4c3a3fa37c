"""The dependency-free bigint grading engine: one fault per int bit.

Nets are arbitrary-precision Python ints, one fault per bit position. Its
simulation needs nothing beyond the standard library (numpy only holds
the returned outcome columns), which makes it the trusted cross-check
for the numpy-based engines and the fused engine's fallback when the C
kernel is unavailable.

Every fault model runs one loop over its injection schedule: flips,
per-cycle force re-application and final-suffix vanish semantics (for
a transient fault, the first match) — see :mod:`repro.sim.inject`.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.faults.model import FLIP, FORCE1, RELEASE, SeuFault
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
from repro.sim.inject import schedule_for
from repro.sim.vectors import Testbench


def _eval_ops_int(values: List[int], ops, all_ones: int) -> None:
    """Evaluate the levelized op program over bigint lanes in place."""
    for opcode, in_slots, out_slot in ops:
        if opcode == OP_AND:
            row = all_ones
            for slot in in_slots:
                row &= values[slot]
            values[out_slot] = row
        elif opcode == OP_OR:
            row = 0
            for slot in in_slots:
                row |= values[slot]
            values[out_slot] = row
        elif opcode == OP_NAND:
            row = all_ones
            for slot in in_slots:
                row &= values[slot]
            values[out_slot] = row ^ all_ones
        elif opcode == OP_NOR:
            row = 0
            for slot in in_slots:
                row |= values[slot]
            values[out_slot] = row ^ all_ones
        elif opcode == OP_XOR:
            row = 0
            for slot in in_slots:
                row ^= values[slot]
            values[out_slot] = row
        elif opcode == OP_XNOR:
            row = 0
            for slot in in_slots:
                row ^= values[slot]
            values[out_slot] = row ^ all_ones
        elif opcode == OP_BUF:
            values[out_slot] = values[in_slots[0]]
        elif opcode == OP_INV:
            values[out_slot] = values[in_slots[0]] ^ all_ones
        elif opcode == OP_MUX2:
            select = values[in_slots[0]]
            values[out_slot] = (select & values[in_slots[2]]) | (
                (select ^ all_ones) & values[in_slots[1]]
            )
        elif opcode == OP_CONST0:
            values[out_slot] = 0
        else:  # OP_CONST1
            values[out_slot] = all_ones


def _set_lanes(target: List[int], mask: int, cycle: int) -> None:
    """Assign ``cycle`` to every lane whose bit is set in ``mask``."""
    while mask:
        low_bit = mask & -mask
        target[low_bit.bit_length() - 1] = cycle
        mask ^= low_bit


@register_engine
class BigintEngine(GradingEngine):
    """Bit-parallel grading over Python bigints."""

    name = "bigint"

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
        all_ones = (1 << num_faults) - 1
        q_slots = [flop.q_index for flop in compiled.flops]

        values = [0] * compiled.num_slots
        reset = golden.states[0]
        for position, slot in enumerate(q_slots):
            values[slot] = all_ones if (reset >> position) & 1 else 0

        fail_cycle = [-1] * num_faults
        vanish_cycle = [-1] * num_faults
        not_failed = all_ones

        # Per-flop force lanes, re-applied to the held state every cycle.
        force_mask = [0] * len(q_slots)
        force_set = [0] * len(q_slots)
        forced_rows: set = set()

        activations: Dict[int, int] = {}
        for lane, cycle in enumerate(schedule.first_active.tolist()):
            activations[cycle] = activations.get(cycle, 0) | (1 << lane)

        state = {"injected": 0, "no_candidate": all_ones}
        columns = (schedule.flop, schedule.lane, schedule.op)
        events = list(zip(*(column.tolist() for column in columns)))

        def apply_cycle_events(cycle: int) -> None:
            for flop_index, lane, op in events[schedule.events(cycle)]:
                bit = 1 << lane
                if op == FLIP:
                    values[q_slots[flop_index]] ^= bit
                elif op == RELEASE:
                    force_mask[flop_index] &= ~bit
                    force_set[flop_index] &= ~bit
                else:
                    force_mask[flop_index] |= bit
                    if op == FORCE1:
                        force_set[flop_index] |= bit
                    forced_rows.add(flop_index)
            for flop_index in forced_rows:
                slot = q_slots[flop_index]
                values[slot] = (values[slot] & ~force_mask[flop_index]) | (
                    force_set[flop_index]
                )

        def update_vanish(state_word: int, end_cycle: int) -> None:
            state_diff = 0
            for position, slot in enumerate(q_slots):
                if (state_word >> position) & 1:
                    state_diff |= values[slot] ^ all_ones
                else:
                    state_diff |= values[slot]
            conv = (state_diff ^ all_ones) & state["injected"]
            newly = conv & state["no_candidate"]
            if newly:
                _set_lanes(vanish_cycle, newly, end_cycle)
                state["no_candidate"] &= ~newly
            lost = state_diff & state["injected"] & ~state["no_candidate"]
            if lost:
                _set_lanes(vanish_cycle, lost, -1)
                state["no_candidate"] |= lost

        for cycle in range(num_cycles):
            apply_cycle_events(cycle)
            if cycle > 0:
                update_vanish(golden.states[cycle], cycle - 1)
            state["injected"] |= activations.get(cycle, 0)

            vector = testbench.vectors[cycle]
            for position, slot in enumerate(compiled.input_slots):
                values[slot] = all_ones if (vector >> position) & 1 else 0

            _eval_ops_int(values, compiled.ops, all_ones)

            golden_out = golden.outputs[cycle]
            out_diff = 0
            for position, slot in enumerate(compiled.output_slots):
                if (golden_out >> position) & 1:
                    out_diff |= values[slot] ^ all_ones
                else:
                    out_diff |= values[slot]
            newly_failed = out_diff & not_failed & state["injected"]
            if newly_failed:
                _set_lanes(fail_cycle, newly_failed, cycle)
                not_failed &= ~newly_failed

            next_rows = [values[flop.d_index] for flop in compiled.flops]
            for slot, row in zip(q_slots, next_rows):
                values[slot] = row

        apply_cycle_events(num_cycles)
        update_vanish(golden.states[num_cycles], num_cycles - 1)

        self.last_stats = {
            "cycles_executed": num_cycles,
            "num_cycles": num_cycles,
        }
        # the simulation itself is pure Python; only the result is a column
        return np.array(fail_cycle, dtype=np.int32), np.array(
            vanish_cycle, dtype=np.int32
        )
