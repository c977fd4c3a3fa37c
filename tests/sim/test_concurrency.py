"""Concurrent grading in one process must be bit-exact.

``repro worker`` serves each connection on its own thread, so several
grades can run at once on one compiled netlist and one native thread
pool. Every scenario grades one b14 fault sample from four threads at
once and requires each digest to equal the serial one, for every fault
model family and at kernel pool widths 1 and 2; another grades while a
second thread computes kernel golden traces on the same compiled
netlist. All grading runs on worker threads joined with a timeout, so a
deadlocked pool fails the test instead of stalling the run.
"""

from __future__ import annotations

import random
import threading
import time

import pytest

from repro.circuits.itc99.b14 import b14_program_testbench, build_b14
from repro.eval.paper import PAPER_B14
from repro.faults.models import get_fault_model
from repro.sim.backends._native import (
    configure_threads,
    default_threads,
    native_kernel,
)
from repro.sim.backends.fused import golden_trace
from repro.sim.cache import compiled_for
from repro.sim.parallel import grade_faults

MODELS = ["seu", "stuck_at_1", "mbu:2", "intermittent:4:2"]
CLIENTS = 4
#: wide enough that the kernel splits the word range across pool threads
SAMPLE = 3000
JOIN_TIMEOUT_S = 120.0


@pytest.fixture(scope="module")
def b14_scenario():
    circuit = build_b14()
    bench = b14_program_testbench(
        circuit, PAPER_B14["stimulus_vectors"], seed=0
    )
    return circuit, bench


@pytest.fixture
def restore_threads():
    """Put the kernel's pool width back however a test leaves it."""
    yield
    configure_threads(default_threads())


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


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("model_name", MODELS)
def test_concurrent_grades_match_serial(
    b14_scenario, model_name, threads, restore_threads
):
    circuit, bench = b14_scenario
    population = get_fault_model(model_name).population(
        circuit, bench.num_cycles
    )
    faults = random.Random(13).sample(population, SAMPLE)
    configure_threads(threads)

    def grade() -> str:
        return grade_faults(circuit, bench, faults).outcome_digest()

    (serial,) = run_concurrently([grade])
    assert run_concurrently([grade] * CLIENTS) == [serial] * CLIENTS


@pytest.mark.skipif(native_kernel() is None, reason="native kernel unavailable")
@pytest.mark.parametrize("threads", [1, 2])
def test_golden_pass_beside_a_grade(b14_scenario, threads, restore_threads):
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
    configure_threads(threads)

    def grade() -> str:
        return grade_faults(compiled, bench, faults).outcome_digest()

    def goldens() -> list:
        traces = [golden_trace(compiled, stimulus) for stimulus in stimuli]
        return [(trace.outputs, trace.states) for trace in traces]

    serial = [grade(), goldens()]
    assert run_concurrently([grade, goldens]) == serial
