"""Tests for what the artifact cache keeps on disk.

Only the TCP worker daemon's wire store persists (its restart-survival
and corrupt-entry behaviour is covered end to end in
``tests/run/test_worker_daemon.py``). Compiled plans and golden traces
are per-process memos: grading a campaign-scale circuit, with or
without the native kernel, must leave no plan or trace file behind.
"""

from __future__ import annotations

import os
import random

import pytest

from repro.circuits.itc99.b14 import b14_program_testbench, build_b14
from repro.eval.paper import PAPER_B14
from repro.faults.models import get_fault_model
from repro.sim.backends import get_engine
from repro.sim.backends._native import native_kernel
from repro.sim.cache import cache_root, clear_caches, load_wire, store_wire
from repro.sim.parallel import grade_faults


@pytest.fixture
def cache_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    clear_caches()
    yield str(tmp_path)
    clear_caches()


def _files_under(root: str) -> list:
    return sorted(
        name for _, _, names in os.walk(root) for name in names
    )


@pytest.mark.parametrize("kernel", [True, False], ids=["kernel", "no_kernel"])
def test_grading_leaves_no_plan_or_golden_file(cache_dir, monkeypatch, kernel):
    if kernel and native_kernel() is None:
        pytest.skip("native kernel unavailable")
    if not kernel:
        monkeypatch.setattr("repro.sim.backends.fused.native_kernel", lambda: None)
    circuit = build_b14()
    bench = b14_program_testbench(circuit, PAPER_B14["stimulus_vectors"])
    population = get_fault_model("seu").population(circuit, bench.num_cycles)
    faults = random.Random(5).sample(population, 400)
    grade_faults(circuit, bench, faults)
    assert get_engine("fused").last_stats["native"] is kernel
    leftovers = [
        name
        for name in _files_under(cache_root())
        if name.startswith(("compiled.", "golden_"))
    ]
    assert leftovers == []


class TestWireStore:
    def test_last_write_wins_and_leaves_only_the_payload(self, cache_dir):
        digest = "ef" * 32
        store_wire(digest, b"first")
        store_wire(digest, b"second")
        assert load_wire(digest) == b"second"
        path = os.path.join(cache_root(), "wire", digest[:2], digest)
        assert os.path.isfile(path)
        assert _files_under(cache_dir) == [digest]  # no temp file left

    def test_unwritable_root_is_ignored(self, tmp_path, monkeypatch):
        blocker = tmp_path / "not-a-directory"
        blocker.write_bytes(b"")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(blocker))
        store_wire("ab" * 32, b"payload")  # must not raise
        assert load_wire("ab" * 32) is None
