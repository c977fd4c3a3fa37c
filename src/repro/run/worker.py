"""Worker-side shard grading for the campaign runner.

Each pool worker receives (spec dict, cycle window) tasks. The scenario —
netlist, testbench, full fault list — is rebuilt from the spec once per
process and memoized here, so the PR-1 session caches
(:mod:`repro.sim.cache`: compiled netlist, golden trace, fused program)
are warm for every subsequent shard the worker grades. Workers return
plain ints and packed outcome bytes only; nothing simulator-side crosses
the process boundary.

The same functions run in-process when the runner is configured with a
single worker, so serial and pooled execution share one code path.
"""

from __future__ import annotations

import sys
import time
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.errors import CampaignError
from repro.faults.model import CYCLE_DTYPE, SeuFault, fault_columns
from repro.run.spec import MAX_CACHED_SCENARIOS, CampaignSpec, Scenario, netlist_for
from repro.run.store import ShardRecord
from repro.sim.cache import evict_oldest

#: per-process scenario memo: campaign id -> resolved scenario
_SCENARIOS: Dict[str, Scenario] = {}


def worker_init(path_entry: Optional[str]) -> None:
    """Pool initializer: make the repro package importable in children
    (``spawn`` does not inherit the parent's ``sys.path``)."""
    if path_entry and path_entry not in sys.path:
        sys.path.insert(0, path_entry)


def scenario_for(spec: CampaignSpec) -> Scenario:
    """Resolve (and memoize, per process) the spec's scenario."""
    key = spec.campaign_id
    scenario = _SCENARIOS.get(key)
    if scenario is None:
        evict_oldest(_SCENARIOS, MAX_CACHED_SCENARIOS)
        scenario = spec.scenario()
        _SCENARIOS[key] = scenario
    return scenario


def prewarm(spec: CampaignSpec) -> Scenario:
    """Materialize every grading artifact the spec's campaign needs.

    Beyond resolving the scenario, this compiles the netlist, runs the
    golden trace, lowers the fused program and builds the native kernel,
    populating the session caches. The runner calls it once before
    fanning out, so forked workers inherit the warm memos; spawned (or
    later-recycled) workers rebuild them on their first shard.
    """
    scenario = scenario_for(spec)
    prewarm_scenario(scenario)
    return scenario


def prewarm_scenario(scenario: Scenario) -> None:
    """Warm the simulation caches for an already-resolved scenario.

    The scenario-level half of :func:`prewarm`, shared with the TCP
    worker daemon — which resolves its scenarios from wire artifacts,
    not from the circuit registry, but warms the same caches.
    """
    from repro.sim.backends._native import native_kernel
    from repro.sim.backends.fused import fused_program_for
    from repro.sim.cache import compiled_for, golden_for

    compiled = compiled_for(scenario.netlist)
    golden_for(compiled, scenario.testbench)
    fused_program_for(compiled)
    native_kernel()


def clear_scenarios() -> None:
    """Drop the per-process scenario and netlist memos (tests use this)."""
    _SCENARIOS.clear()
    netlist_for.cache_clear()


def window_slice(
    faults: Sequence[SeuFault], start_cycle: int, end_cycle: int
) -> Tuple[int, int]:
    """Fault-list slice [lo, hi) covering one contiguous cycle window.

    Fault lists are cycle-major sorted (exhaustive lists by
    construction, sampled lists re-sorted by
    :func:`repro.faults.sampling.sample_fault_list`), so a cycle window
    is a contiguous slice and shard concatenation reproduces the serial
    fault order exactly.
    """
    cycles = fault_columns(faults)[0]
    lo, hi = np.searchsorted(cycles, (start_cycle, end_cycle), side="left")
    return int(lo), int(hi)


def merge_windows(
    faults: Sequence[SeuFault],
    windows: Sequence[Tuple[int, int]],
    records: Dict[int, ShardRecord],
) -> Tuple[np.ndarray, np.ndarray]:
    """Concatenate shard outcomes (``records`` keyed by window index) into
    fault-list-order ``(fail_cycles, vanish_cycles)`` columns, checking
    every record against its ``(start_cycle, end_cycle)`` window."""
    fails = [np.empty(0, dtype=CYCLE_DTYPE)]
    vanishes = [np.empty(0, dtype=CYCLE_DTYPE)]
    for index, (start, end) in enumerate(windows):
        record = records.get(index)
        if record is None:
            raise CampaignError(
                f"incomplete store: shard {index} of {len(windows)} missing "
                "(resume the campaign to finish grading first)"
            )
        lo, hi = window_slice(faults, start, end)
        if (record.start_cycle, record.end_cycle, record.num_faults) != (
            start, end, hi - lo
        ):
            raise CampaignError(
                f"shard {index} holds {record.num_faults} faults of cycles "
                f"[{record.start_cycle}, {record.end_cycle}) but the shard "
                f"plan puts {hi - lo} in [{start}, {end}); delete the store "
                "directory to regrade"
            )
        fails.append(record.fail_cycles)
        vanishes.append(record.vanish_cycles)
    fail, vanish = np.concatenate(fails), np.concatenate(vanishes)
    if len(fail) != len(faults):
        raise CampaignError(
            f"merged shards cover {len(fail)} faults, campaign has {len(faults)}"
        )
    return fail, vanish


def grade_window(
    spec_dict: Dict, index: int, start_cycle: int, end_cycle: int
) -> Dict:
    """Grade the faults of one cycle window; returns a plain record dict."""
    spec = CampaignSpec.from_dict(spec_dict)
    scenario = scenario_for(spec)
    return grade_scenario_window(
        scenario,
        index,
        start_cycle,
        end_cycle,
        engine=spec.engine,
    )


def grade_scenario_window(
    scenario: Scenario,
    index: int,
    start_cycle: int,
    end_cycle: int,
    engine: str,
) -> Dict:
    """Grade one cycle window of an already-resolved scenario.

    The shared core of pool-worker and TCP-daemon shard grading. Returns
    the plain record dict both the store and the wire protocol consume.
    """
    from repro.sim.parallel import grade_faults

    lo, hi = window_slice(scenario.faults, start_cycle, end_cycle)
    window_faults = scenario.faults[lo:hi]
    started = time.perf_counter()
    if window_faults:
        result = grade_faults(
            scenario.netlist,
            scenario.testbench,
            window_faults,
            backend=engine,
        )
        # Outcomes cross the process (or network) boundary as packed
        # little-endian int32 bytes (the result's own columns): one
        # contiguous buffer pickles in microseconds where a list of
        # thousands of Python ints costs milliseconds per shard.
        fail = result.fail_cycles.tobytes()
        vanish = result.vanish_cycles.tobytes()
    else:  # a cycle window no sampled fault landed in
        fail, vanish = b"", b""
    return {
        "index": index,
        "start_cycle": start_cycle,
        "end_cycle": end_cycle,
        "num_faults": len(window_faults),
        "fail_cycles": fail,
        "vanish_cycles": vanish,
        "engine": engine,
        "elapsed_s": time.perf_counter() - started,
    }
