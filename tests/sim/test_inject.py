"""The columnar injection schedule against each fault's own semantics.

``schedule_for`` emits a whole population's events from its columns;
``flip_flops`` / ``force_active`` state one fault's injection on its own
(they drive the serial reference replay). Accumulating the schedule's
events cycle by cycle over ``0..num_cycles`` must reproduce, for every
fault, exactly its flips at its onset and its force on every cycle.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CampaignError
from repro.faults.model import FLIP, FORCE0, FORCE1, RELEASE, FaultArray, SeuFault
from repro.faults.models import (
    IntermittentFault,
    MbuFault,
    StuckAtFault,
    get_fault_model,
)
from repro.sim.inject import schedule_for
from tests.conftest import build_shift_register

MODELS = [
    "mbu:2",
    "mbu:3",
    "stuck_at_0",
    "stuck_at_1",
    "intermittent:4:2",
    "intermittent:2:1",
    "intermittent:5:1",
    "intermittent:3:2",
]


def replay_schedule(schedule, num_flops):
    """Per-cycle ``(forced, value)`` planes ``[cycle, lane, flop]`` and the
    ``(cycle, flop)`` flips of each lane, accumulated from the CSR rows."""
    shape = (schedule.num_cycles + 1, schedule.num_faults, num_flops)
    forced = np.zeros(shape, dtype=bool)
    value = np.zeros(shape, dtype=bool)
    flips = [set() for _ in range(schedule.num_faults)]
    on = np.zeros(shape[1:], dtype=bool)
    high = np.zeros(shape[1:], dtype=bool)
    for cycle in range(schedule.num_cycles + 1):
        rows = schedule.events(cycle)
        for flop, lane, op in zip(
            schedule.flop[rows], schedule.lane[rows], schedule.op[rows]
        ):
            if op == FLIP:
                flips[lane].add((cycle, flop))
            elif op == RELEASE:
                assert on[lane, flop], "release of an inactive force"
                on[lane, flop] = high[lane, flop] = False
            else:
                assert not on[lane, flop], "force-on of an active force"
                on[lane, flop] = True
                high[lane, flop] = op == FORCE1
        forced[cycle], value[cycle] = on, high
    return forced, value, flips


def assert_schedule_matches(faults, num_cycles, num_flops):
    schedule = schedule_for(faults, num_cycles, num_flops)
    forced, value, flips = replay_schedule(schedule, num_flops)
    assert list(schedule.first_active) == [fault.cycle for fault in faults]
    for lane, fault in enumerate(faults):
        assert flips[lane] == {
            (fault.cycle, flop) for flop in fault.flip_flops()
        }, fault.describe()
        for cycle in range(num_cycles + 1):
            expected = np.zeros(num_flops, dtype=bool)
            expected[fault.flop_index] = fault.force_active(cycle)
            assert list(forced[cycle, lane]) == list(expected), (
                fault.describe(), cycle
            )
            if fault.force_active(cycle):
                assert value[cycle, lane, fault.flop_index] == fault.value
    return schedule


@pytest.mark.parametrize("model_name", MODELS)
@pytest.mark.parametrize("num_cycles", [1, 2, 9])
def test_population_schedule_matches_each_fault(model_name, num_cycles):
    # every (onset, flop) pair: onsets reach the last cycle, MBU runs
    # reach the last flop
    circuit = build_shift_register(6)
    population = get_fault_model(model_name).population(circuit, num_cycles)
    schedule = assert_schedule_matches(population, num_cycles, circuit.num_ffs)
    assert schedule.persistent == population.fault_type.persistent
    # a list of the same faults builds the same schedule
    listed = schedule_for(list(population), num_cycles, circuit.num_ffs)
    for column in ("offsets", "flop", "lane", "op", "first_active"):
        assert np.array_equal(getattr(listed, column), getattr(schedule, column))


@settings(max_examples=60, deadline=None)
@given(
    period=st.integers(min_value=2, max_value=7),
    duty_fraction=st.floats(min_value=0, max_value=0.999),
    value=st.integers(min_value=0, max_value=1),
    num_cycles=st.integers(min_value=1, max_value=20),
    onsets=st.lists(st.integers(min_value=0, max_value=25), min_size=1, max_size=8),
)
def test_intermittent_parameters(period, duty_fraction, value, num_cycles, onsets):
    # onsets past the bench force nothing and release nothing
    duty = 1 + int(duty_fraction * (period - 1))
    faults = [
        IntermittentFault(
            cycle=onset, flop_index=lane % 3, value=value, period=period, duty=duty
        )
        for lane, onset in enumerate(onsets)
    ]
    assert_schedule_matches(faults, num_cycles, 3)


def _masked_intermittent_events(onsets, flops, num_cycles, value, period, duty):
    """Build every force-on and release, then drop those past the bench."""
    counts = np.maximum((num_cycles - onsets) // period + 1, 0)
    lanes = np.repeat(np.arange(len(onsets)), counts)
    nth = np.arange(len(lanes)) - np.repeat(np.cumsum(counts) - counts, counts)
    starts = onsets[lanes] + nth * period
    cycle = np.concatenate([starts, starts + duty])
    lane = np.tile(lanes, 2)
    op = np.repeat(np.array([FORCE0 + value, RELEASE], np.uint8), len(lanes))
    keep = cycle <= num_cycles
    return cycle[keep], flops[lane[keep]], lane[keep], op[keep]


@pytest.mark.parametrize("num_cycles", [0, 1, 7, 20])
@pytest.mark.parametrize("period,duty", [(2, 1), (3, 2), (4, 2), (5, 1), (7, 6)])
def test_intermittent_events_count_releases_directly(num_cycles, period, duty):
    """Counting releases per lane emits exactly the events, in the order,
    of building every release and masking off those past the bench —
    including onsets within ``duty`` of ``num_cycles`` and past it."""
    onsets = np.arange(num_cycles + period + 2, dtype=np.int64)
    flops = (onsets * 5 + 1) % 11
    for value in (0, 1):
        got = IntermittentFault.injection_events(
            onsets, flops, num_cycles, value=value, period=period, duty=duty
        )
        want = _masked_intermittent_events(
            onsets, flops, num_cycles, value, period, duty
        )
        for got_column, want_column in zip(got, want):
            assert got_column.dtype == want_column.dtype
            assert np.array_equal(got_column, want_column)


def test_onset_after_the_bench_emits_no_force():
    schedule = schedule_for([StuckAtFault(cycle=5, flop_index=0, value=1)], 4, 1)
    assert schedule.offsets[-1] == 0


def test_force_ops_carry_the_value():
    faults = [StuckAtFault(cycle=0, flop_index=0, value=0)]
    assert list(schedule_for(faults, 3, 1).op) == [FORCE0]


def test_out_of_range_force_rejected():
    with pytest.raises(CampaignError, match="forces flop 4"):
        schedule_for([StuckAtFault(cycle=0, flop_index=4, value=1)], 4, 4)


class _LateFlip(SeuFault):
    """Transient, but its flip lands one cycle after its injection cycle."""

    @classmethod
    def injection_events(cls, cycles, flops, num_cycles):
        lanes = np.arange(len(cycles))
        return cycles + 1, flops, lanes, np.full(len(lanes), FLIP, np.uint8)


class _EarlyForce(StuckAtFault):
    """Persistent, but its force starts one cycle before its onset."""

    @classmethod
    def injection_events(cls, cycles, flops, num_cycles, *, value):
        lanes = np.arange(len(cycles))
        return cycles - 1, flops, lanes, np.full(len(lanes), FORCE1, np.uint8)


@pytest.mark.parametrize(
    "faults",
    [[_LateFlip(cycle=2, flop_index=0)], [_EarlyForce(2, 0, value=1)]],
    ids=["transient-late", "persistent-early"],
)
def test_events_outside_a_faults_active_cycles_are_refused(faults):
    """The fused kernel seeds each lane at its injection cycle and may
    repack a transient lane once that cycle is over."""
    with pytest.raises(CampaignError, match="before its fault's injection"):
        schedule_for(faults, 8, 4)


def test_events_past_the_bench_sort_last():
    faults = [SeuFault(cycle=70000, flop_index=1), SeuFault(cycle=3, flop_index=2)]
    schedule = schedule_for(faults, 8, 4)
    assert list(schedule.offsets) == [0, 0, 0, 0, 1, 1, 1, 1, 1, 1]
    assert list(schedule.lane) == [1, 0]


@pytest.mark.parametrize(
    "faults",
    [
        [SeuFault(cycle=0, flop_index=0), MbuFault(cycle=0, flop_index=0)],
        [StuckAtFault(0, 0, value=0), StuckAtFault(0, 1, value=1)],
        [MbuFault(0, 0, width=2), MbuFault(1, 0, width=3)],
    ],
    ids=["models", "values", "widths"],
)
def test_mixed_lists_are_refused(faults):
    with pytest.raises(CampaignError, match="mixes fault models or parameters"):
        schedule_for(faults, 4, 4)


def test_seu_arrays_and_lists_flip_once_per_fault():
    array = FaultArray([2, 0, 2], [1, 0, 0], ["a", "b"])
    for faults in (array, list(array)):
        schedule = schedule_for(faults, 4, 2)
        assert list(schedule.op) == [FLIP] * 3
        assert list(schedule.offsets) == [0, 1, 1, 3, 3, 3]
        # cycle order, fault order within a cycle
        assert list(schedule.lane) == [1, 0, 2]
        assert list(schedule.flop) == [0, 1, 0]
    assert len(schedule_for([], 4, 2).op) == 0
