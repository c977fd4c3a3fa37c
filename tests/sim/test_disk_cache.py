"""Tests for the on-disk artifact cache (compiled plans + golden traces).

Covers the properties the pooled runner depends on: artifacts written by
one process are readable by a later one (kill-and-resume), corrupted or
truncated entries are silently rebuilt — never trusted — and scenarios
below the campaign-scale thresholds stay session-only. Golden traces
reach the disk only on the scalar path (no native kernel), so the
golden cases run with the kernel switched off.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

import repro
import repro.sim.cache as cache_module
from repro.circuits.registry import build_circuit
from repro.sim.backends._native import native_kernel
from repro.sim.cache import (
    DISK_MIN_CYCLES,
    DiskArtifactCache,
    cache_root,
    clear_caches,
    compiled_for,
    disk_cache,
    golden_for,
    netlist_digest,
)
from repro.sim.cycle import GoldenTrace
from repro.sim.vectors import random_testbench
from tests.conftest import build_counter

#: the scenario both restart processes rebuild — b04 (66 flops) at 40
#: cycles sits above both disk thresholds; the seeded testbench gives
#: an identical stimulus digest in every process.
_SCENARIO = """
from repro.circuits.registry import build_circuit
from repro.sim.cache import compiled_for, golden_for, netlist_digest
from repro.sim.vectors import random_testbench
netlist = build_circuit("b04")
bench = random_testbench(netlist, 40, seed=3)
"""


def _run_python(code: str, cache_dir: str) -> str:
    env = dict(os.environ)
    env["REPRO_CACHE_DIR"] = cache_dir
    env["REPRO_FUSED_NATIVE"] = "0"
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.fixture
def cache_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    clear_caches()
    yield str(tmp_path)
    clear_caches()


@pytest.fixture
def scalar_golden(monkeypatch):
    """Golden traces from the scalar ``run_golden``, as with
    ``REPRO_FUSED_NATIVE=0``: the path that uses the disk layer."""
    monkeypatch.setattr("repro.sim.backends.fused.native_kernel", lambda: None)


def _golden_files(root: str) -> list:
    return [
        name
        for _, _, names in os.walk(root)
        for name in names
        if name.startswith("golden_")
    ]


def _golden_dir(netlist, bench) -> str:
    nd = netlist_digest(netlist)
    return os.path.join(
        cache_root(), nd[:2], nd, bench.stimulus_digest()
    )


class TestRestartSurvival:
    def test_artifacts_survive_a_killed_process(self, cache_dir):
        """Process one populates the cache and dies without cleanup
        (``os._exit``, the persistence profile of a kill); process two
        must resolve both artifacts from disk alone — compiling or
        re-running golden there is made fatal."""
        warm = _SCENARIO + (
            "import os\n"
            "golden = golden_for(compiled_for(netlist), bench)\n"
            "print(netlist_digest(netlist))\n"
            "print(sum(golden.outputs) % (10 ** 9))\n"
            "print(sum(golden.states) % (10 ** 9))\n"
            "os._exit(0)\n"
        )
        digest, outputs_sum, states_sum = _run_python(warm, cache_dir).split()

        resume = _SCENARIO + (
            "import repro.sim.cache as cache\n"
            "def boom(*a, **k): raise AssertionError('disk miss')\n"
            "cache.compile_netlist = boom\n"
            "cache.run_golden = boom\n"
            "golden = golden_for(compiled_for(netlist), bench)\n"
            "print(netlist_digest(netlist))\n"
            "print(sum(golden.outputs) % (10 ** 9))\n"
            "print(sum(golden.states) % (10 ** 9))\n"
        )
        assert _run_python(resume, cache_dir).split() == [
            digest, outputs_sum, states_sum,
        ]

    def test_cache_layout_is_content_keyed(self, cache_dir, scalar_golden):
        netlist = build_circuit("b04")
        bench = random_testbench(netlist, 40, seed=3)
        golden_for(compiled_for(netlist), bench)
        nd = netlist_digest(netlist)
        base = os.path.join(cache_root(), nd[:2], nd)
        assert os.path.exists(os.path.join(base, "compiled.pkl"))
        assert os.path.exists(os.path.join(base, "compiled.meta.json"))
        golden_dir = os.path.join(base, bench.stimulus_digest())
        for name in ("golden_outputs.npy", "golden_states.npy", "meta.json"):
            assert os.path.exists(os.path.join(golden_dir, name))


@pytest.mark.usefixtures("scalar_golden")
class TestCorruptionRebuild:
    def _populate(self):
        netlist = build_circuit("b04")
        bench = random_testbench(netlist, 40, seed=3)
        golden = golden_for(compiled_for(netlist), bench)
        return netlist, bench, golden

    def test_flipped_golden_bytes_are_rebuilt_not_trusted(self, cache_dir):
        netlist, bench, golden = self._populate()
        expected = (list(golden.outputs), list(golden.states))
        path = os.path.join(_golden_dir(netlist, bench), "golden_outputs.npy")
        with open(path, "r+b") as handle:
            handle.seek(-1, os.SEEK_END)
            last = handle.read(1)[0]
            handle.seek(-1, os.SEEK_END)
            handle.write(bytes([last ^ 0xFF]))
        cache = disk_cache()
        key = (netlist_digest(netlist), bench.stimulus_digest())
        assert cache.load_golden(*key) is None  # checksum mismatch
        clear_caches()
        rebuilt = golden_for(compiled_for(netlist), bench)
        assert (list(rebuilt.outputs), list(rebuilt.states)) == expected
        # the rebuild overwrote the bad entry with a good one
        assert cache.load_golden(*key) is not None

    def test_truncated_golden_is_rebuilt(self, cache_dir):
        netlist, bench, golden = self._populate()
        expected = list(golden.outputs)
        path = os.path.join(_golden_dir(netlist, bench), "golden_states.npy")
        with open(path, "r+b") as handle:
            handle.truncate(8)
        clear_caches()
        rebuilt = golden_for(compiled_for(netlist), bench)
        assert list(rebuilt.outputs) == expected

    def test_corrupt_compiled_plan_is_rebuilt(self, cache_dir):
        netlist, bench, _ = self._populate()
        nd = netlist_digest(netlist)
        path = os.path.join(cache_root(), nd[:2], nd, "compiled.pkl")
        with open(path, "wb") as handle:
            handle.write(b"not a pickle")
        assert disk_cache().load_compiled(nd) is None
        clear_caches()
        compiled = compiled_for(netlist)  # silently recompiled
        assert compiled.num_flops == netlist.num_ffs
        assert disk_cache().load_compiled(nd) is not None

    def test_garbled_meta_json_is_a_miss(self, cache_dir):
        netlist, bench, _ = self._populate()
        meta = os.path.join(_golden_dir(netlist, bench), "meta.json")
        with open(meta, "w", encoding="utf-8") as handle:
            handle.write("{ definitely not json")
        key = (netlist_digest(netlist), bench.stimulus_digest())
        assert disk_cache().load_golden(*key) is None


class TestThresholdsAndRoundtrip:
    def test_small_scenarios_stay_session_only(self, cache_dir):
        netlist = build_counter(4)  # 4 flops < DISK_MIN_FLOPS
        bench = random_testbench(netlist, 2 * DISK_MIN_CYCLES, seed=1)
        golden_for(compiled_for(netlist), bench)
        nd = netlist_digest(netlist)
        assert not os.path.exists(os.path.join(cache_root(), nd[:2], nd))

    def test_golden_roundtrip_preserves_wide_words(self, tmp_path):
        """States wider than 64 bits (many-flop circuits pack into one
        big int) must roundtrip through the byte-matrix encoding."""
        cache = DiskArtifactCache(str(tmp_path))
        trace = GoldenTrace(num_cycles=2)
        trace.outputs.extend([0, (1 << 200) | 5])
        trace.states.extend([(1 << 130) - 1, 7, 1 << 199])
        cache.store_golden("ab" * 32, "cd" * 32, trace)
        loaded = cache.load_golden("ab" * 32, "cd" * 32)
        assert loaded is not None
        assert loaded.outputs == trace.outputs
        assert loaded.states == trace.states

    def test_missing_entry_is_none(self, tmp_path):
        cache = DiskArtifactCache(str(tmp_path))
        assert cache.load_golden("ab" * 32, "cd" * 32) is None
        assert cache.load_compiled("ab" * 32) is None

    def test_disk_cache_disabled_by_env(self, cache_dir, monkeypatch):
        monkeypatch.setenv("REPRO_DISK_CACHE", "0")
        assert disk_cache() is None
        netlist = build_circuit("b04")
        bench = random_testbench(netlist, 40, seed=3)
        golden_for(compiled_for(netlist), bench)
        nd = netlist_digest(netlist)
        assert not os.path.exists(os.path.join(cache_root(), nd[:2], nd))


class TestGoldenOnDisk:
    def test_kernel_golden_leaves_no_golden_file(self, cache_dir):
        """A fresh stimulus costs one kernel golden pass and no disk
        entry, so fresh-seed campaigns do not grow the cache."""
        if native_kernel() is None:
            pytest.skip("native kernel unavailable")
        netlist = build_circuit("b04")
        bench = random_testbench(netlist, 2 * DISK_MIN_CYCLES, seed=4)
        golden_for(compiled_for(netlist), bench)
        nd = netlist_digest(netlist)
        assert os.path.exists(os.path.join(cache_root(), nd[:2], nd))
        assert _golden_files(cache_dir) == []

    def test_scalar_golden_is_stored_and_loaded(
        self, cache_dir, scalar_golden, monkeypatch
    ):
        netlist = build_circuit("b04")
        bench = random_testbench(netlist, 2 * DISK_MIN_CYCLES, seed=4)
        golden = golden_for(compiled_for(netlist), bench)
        assert sorted(_golden_files(cache_dir)) == [
            "golden_outputs.npy", "golden_states.npy",
        ]
        clear_caches()

        def boom(*args, **kwargs):
            raise AssertionError("golden recomputed instead of loaded")

        monkeypatch.setattr(cache_module, "run_golden", boom)
        loaded = golden_for(compiled_for(netlist), bench)
        assert (loaded.outputs, loaded.states) == (golden.outputs, golden.states)
