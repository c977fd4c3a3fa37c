"""Concurrent grading in one process must be bit-exact.

``repro worker`` serves each connection on its own thread, so several
grades can run at once on one compiled netlist and one native thread
pool. Every scenario grades one b14 fault sample from four threads at
once and requires each digest to equal the serial one, for every fault
model family and at kernel pool widths 1 and 2. All grading runs on
worker threads joined with a timeout, so a deadlocked pool fails the
test instead of stalling the run.
"""

from __future__ import annotations

import random
import threading
import time

import pytest

from repro.circuits.itc99.b14 import b14_program_testbench, build_b14
from repro.eval.paper import PAPER_B14
from repro.faults.models import get_fault_model
from repro.sim.backends._native import configure_threads, default_threads
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


def grade_concurrently(count: int, grade) -> list:
    """Run ``grade()`` on ``count`` threads at once; return the digests.

    Fails (rather than hangs) when any thread is still running after
    :data:`JOIN_TIMEOUT_S`, and re-raises the first thread's error.
    """
    digests = [None] * count
    errors = []
    barrier = threading.Barrier(count)

    def client(index: int) -> None:
        try:
            barrier.wait(timeout=JOIN_TIMEOUT_S)
            digests[index] = grade()
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
    assert not hung, f"{hung} grade(s) still running after {JOIN_TIMEOUT_S}s"
    if errors:
        raise errors[0]
    return digests


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

    (serial,) = grade_concurrently(1, grade)
    assert grade_concurrently(CLIENTS, grade) == [serial] * CLIENTS
