"""Concurrent grading in one process must be bit-exact.

``repro worker`` serves each connection on its own thread, so several
grades can run at once on one compiled netlist, each a native kernel
call on buffers of its own. Every scenario grades one b14 fault sample
from four threads at once and requires each digest to equal the serial
one, for every fault model family, both through the kernel and on the
no-kernel path (``REPRO_FUSED_NATIVE=0``); another grades the runner's
b14 shard windows on four threads at once; others grade two circuits
at once, grade while a second thread computes kernel golden traces on
the same compiled netlist, and resolve one fresh scalar golden trace
from several threads. All grading runs on worker
threads joined with a timeout, so a deadlock fails the test instead of
stalling the run.
"""

from __future__ import annotations

import random
import threading
import time

import pytest

from repro.circuits.itc99.b14 import b14_program_testbench, build_b14
from repro.eval.paper import PAPER_B14
from repro.faults.models import get_fault_model
from repro.run import worker
from repro.run.runner import CampaignRunner, plan_windows
from repro.run.spec import CampaignSpec
from repro.sim.backends import get_engine
from repro.sim.backends._native import native_kernel
from repro.sim.backends.fused import golden_trace
from repro.sim.cache import clear_caches, compiled_for, golden_for
from repro.sim.cycle import run_golden
from repro.sim.parallel import grade_faults
from repro.sim.vectors import random_testbench

MODELS = ["seu", "stuck_at_1", "mbu:2", "intermittent:4:2"]
CLIENTS = 4
#: dozens of lane words per grade
SAMPLE = 3000
JOIN_TIMEOUT_S = 120.0


@pytest.fixture(scope="module")
def b14_scenario():
    circuit = build_b14()
    bench = b14_program_testbench(
        circuit, PAPER_B14["stimulus_vectors"], seed=0
    )
    return circuit, bench


@pytest.fixture(params=["native", "no_kernel"])
def kernel_path(request, monkeypatch):
    """Grade through the native kernel, or as with
    ``REPRO_FUSED_NATIVE=0``: fused hands the grade to ``numpy`` and
    golden traces come from the scalar ``run_golden``."""
    if request.param == "no_kernel":
        monkeypatch.setattr("repro.sim.backends.fused.native_kernel", lambda: None)
    return request.param


def run_concurrently(tasks) -> list:
    """Run every task on its own thread at once; return their results.

    Fails (rather than hangs) when any thread is still running after
    :data:`JOIN_TIMEOUT_S`, and re-raises the first thread's error.
    """
    count = len(tasks)
    results = [None] * count
    errors = []
    barrier = threading.Barrier(count)

    def client(index: int) -> None:
        try:
            barrier.wait(timeout=JOIN_TIMEOUT_S)
            results[index] = tasks[index]()
        except BaseException as error:  # noqa: BLE001 - re-raised below
            errors.append(error)

    threads = [
        threading.Thread(target=client, args=(index,), daemon=True)
        for index in range(count)
    ]
    for thread in threads:
        thread.start()
    deadline = time.monotonic() + JOIN_TIMEOUT_S
    for thread in threads:
        thread.join(timeout=max(0.0, deadline - time.monotonic()))
    hung = sum(thread.is_alive() for thread in threads)
    assert not hung, f"{hung} task(s) still running after {JOIN_TIMEOUT_S}s"
    if errors:
        raise errors[0]
    return results


@pytest.mark.parametrize("model_name", MODELS)
def test_concurrent_grades_match_serial(b14_scenario, model_name, kernel_path):
    circuit, bench = b14_scenario
    population = get_fault_model(model_name).population(
        circuit, bench.num_cycles
    )
    faults = random.Random(13).sample(population, SAMPLE)

    def grade() -> str:
        return grade_faults(circuit, bench, faults).outcome_digest()

    (serial,) = run_concurrently([grade])
    native = kernel_path == "native" and native_kernel() is not None
    assert get_engine("fused").last_stats["native"] is native
    assert run_concurrently([grade] * CLIENTS) == [serial] * CLIENTS


def test_concurrent_shard_windows_match_serial():
    """The runner's unit of work, one shard window per thread: the
    windows graded at once concatenate to the serial campaign."""
    spec = CampaignSpec("b14", "time_multiplexed")
    serial = CampaignRunner(workers=1).grade(spec)
    worker.prewarm(spec)
    spec_dict = spec.to_dict()
    windows = plan_windows(spec.resolved_cycles(), CLIENTS)
    records = run_concurrently([
        lambda window=window: worker.grade_window(
            spec_dict, window.index, window.start_cycle, window.end_cycle
        )
        for window in windows
    ])
    assert all(record["num_faults"] for record in records)
    assert b"".join(record["fail_cycles"] for record in records) == (
        serial.fail_cycles.tobytes()
    )
    assert b"".join(record["vanish_cycles"] for record in records) == (
        serial.vanish_cycles.tobytes()
    )


def test_two_circuits_graded_at_once(b14_scenario):
    """Kernel calls share no state across netlists: b14 and b04 grades
    on separate threads each equal their serial digest."""
    b14, b14_bench = b14_scenario
    b04 = CampaignSpec("b04", "mask_scan").scenario()
    b14_faults = random.Random(19).sample(
        get_fault_model("seu").population(b14, b14_bench.num_cycles), SAMPLE
    )
    tasks = [
        lambda: grade_faults(b14, b14_bench, b14_faults).outcome_digest(),
        lambda: grade_faults(
            b04.netlist, b04.testbench, b04.faults
        ).outcome_digest(),
    ] * 2
    serial = [task() for task in tasks[:2]] * 2
    assert run_concurrently(tasks) == serial


def test_scalar_golden_resolved_from_several_threads(b14_scenario, monkeypatch):
    """Without the kernel, golden_for runs ``run_golden``; threads
    resolving one fresh stimulus at once all get the serial trace."""
    monkeypatch.setattr("repro.sim.backends.fused.native_kernel", lambda: None)
    circuit, _ = b14_scenario
    compiled = compiled_for(circuit)
    bench = random_testbench(circuit, 64, seed=23)
    expected = run_golden(compiled, bench)
    clear_caches()
    compiled = compiled_for(circuit)
    try:
        traces = run_concurrently(
            [lambda: golden_for(compiled, bench)] * CLIENTS
        )
        assert all(
            (trace.outputs, trace.states) == (expected.outputs, expected.states)
            for trace in traces
        )
    finally:
        clear_caches()


@pytest.mark.skipif(native_kernel() is None, reason="native kernel unavailable")
def test_golden_pass_beside_a_grade(b14_scenario):
    """Kernel golden passes for fresh stimuli run while a grade streams
    the same compiled netlist; neither may disturb the other."""
    circuit, bench = b14_scenario
    compiled = compiled_for(circuit)
    population = get_fault_model("seu").population(circuit, bench.num_cycles)
    faults = random.Random(17).sample(population, SAMPLE)
    stimuli = [
        b14_program_testbench(circuit, PAPER_B14["stimulus_vectors"], seed=seed)
        for seed in range(1, 9)
    ]

    def grade() -> str:
        return grade_faults(compiled, bench, faults).outcome_digest()

    def goldens() -> list:
        traces = [golden_trace(compiled, stimulus) for stimulus in stimuli]
        return [(trace.outputs, trace.states) for trace in traces]

    serial = [grade(), goldens()]
    assert run_concurrently([grade, goldens]) == serial
