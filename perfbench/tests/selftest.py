"""The benchmark's own tests.

Run from the repository root (not part of the default test collection,
because the smoke runs take a few minutes)::

    python3 -m pytest perfbench/tests/selftest.py -q
"""

import json
import os
import random
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import report  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


# ----------------------------------------------------------------------
# arithmetic
# ----------------------------------------------------------------------
def test_percentile_interpolates_between_ranks():
    values = list(range(1, 11))
    random.Random(0).shuffle(values)
    assert report.percentile(values, 50) == 5.5
    assert report.percentile(values, 90) == pytest.approx(9.1)
    assert report.percentile(values, 0) == 1
    assert report.percentile(values, 100) == 10
    assert report.percentile([3.0], 90) == 3.0
    with pytest.raises(ValueError):
        report.percentile([], 50)


def test_percentile_matches_numpy():
    numpy = pytest.importorskip("numpy")
    rng = random.Random(1)
    values = [rng.expovariate(3.0) for _ in range(137)]
    for q in (50, 90, 99):
        assert report.percentile(values, q) == pytest.approx(
            float(numpy.percentile(values, q)))


def test_sliced_percentile_averages_consecutive_slices():
    fast, slow = [1.0] * 10, [3.0] * 10
    values = fast * 8 + slow * 2  # a slow fifth, at the end
    assert report.percentile(values, 90) == 3.0
    assert report.sliced_percentile(values, 90) == pytest.approx(1.4)
    assert report.sliced_percentile(list(range(10)), 90, slices=1) == \
        report.percentile(list(range(10)), 90)
    assert report.sliced_percentile([2.0, 4.0], 90) == 3.0  # fewer values than slices


def span(name, start, end, parent=-1, op=""):
    return [name, start, end, parent, op]


def test_self_time_subtracts_child_coverage():
    spans = [
        span("op", 0.0, 10.0),
        span("a", 1.0, 3.0, parent=0),
        span("b", 4.0, 8.0, parent=0),
        span("c", 5.0, 6.0, parent=2),
    ]
    assert tracing.self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 1.0])


def test_self_time_counts_overlapping_children_once():
    spans = [
        span("op", 0.0, 10.0),
        span("a", 1.0, 5.0, parent=0),
        span("b", 3.0, 7.0, parent=0),  # another thread's child overlaps
        span("c", 9.0, 12.0, parent=0),  # runs past the parent's end
    ]
    assert tracing.self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_trace_attributes_untagged_spans_by_op_interval():
    spans = [span("sim.grade", 1.0, 2.0), span("sim.grade", 5.0, 6.0, op="read"),
             span("sim.grade", 8.0, 8.5)]
    counts = [("sim.grade.faults", 10, 1.5, "")]
    trace = tracing.Trace(spans, counts, [("op0", 0.5, 3.0), ("op1", 4.0, 7.0)])
    assert trace.self_sum("sim.grade", ["op0"]) == pytest.approx(1.0)
    assert trace.self_sum("sim.grade", ["op1"]) == 0.0
    assert trace.self_sum("sim.grade", ["read"]) == pytest.approx(1.0)
    assert trace.self_sum("sim.grade", [""]) == pytest.approx(0.5)
    assert trace.count_sum("sim.grade.faults", ["op0"]) == 10


def test_wrappers_record_nested_spans_and_uninstall():
    class Layer:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

        @classmethod
        def build(cls):
            return cls()

    originals = dict(Layer.__dict__)
    tracer = tracing.Tracer()
    counted = []
    tracer.wrap_method(Layer, "outer", "outer")
    tracer.wrap_method(Layer, "inner", "inner",
                       after=lambda result, args, kwargs: counted.append(result))
    tracer.wrap_method(Layer, "build", "build")
    tracer.op = "op7"
    assert Layer.build().outer() == 2
    names = [(s[0], s[3], s[4]) for s in tracer.spans]
    assert names == [("build", -1, "op7"), ("outer", -1, "op7"), ("inner", 1, "op7")]
    assert counted == [1]
    tracer.uninstall()
    for attr in ("outer", "inner", "build"):
        assert Layer.__dict__[attr] is originals[attr]


def test_install_wraps_every_layer_and_restores():
    from repro.sim import cache, parallel

    original = cache.golden_for
    tracer = tracing.install(tracing.Tracer())
    try:
        assert cache.golden_for is not original
        assert parallel.golden_for is cache.golden_for  # alias patched too
    finally:
        tracer.uninstall()
    assert cache.golden_for is original and parallel.golden_for is original


# ----------------------------------------------------------------------
# metric names and BENCHMARK.json
# ----------------------------------------------------------------------
def test_metric_names_and_units_are_well_formed():
    names = [name for name, _ in report.E2E_METRICS] + report.layer_names()
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for unit in report.units().values():
        assert UNIT.match(unit), unit


def test_benchmark_json_lists_exactly_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    units = report.units()
    assert [m["name"] for m in bench["end_to_end"]] == [
        name for name, _ in report.E2E_METRICS]
    assert [m["name"] for m in bench["per_layer"]] == report.layer_names()
    for metric in bench["end_to_end"] + bench["per_layer"]:
        assert metric["unit"] == units[metric["name"]]
    for metric in bench["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])
    for workload in bench["workloads"]:
        assert workload["name"] in workloads.WORKLOADS
        assert "\n" not in workload["why"] and len(workload["why"]) <= 200


# ----------------------------------------------------------------------
# verification
# ----------------------------------------------------------------------
def campaign(index, returned, circuit="b14"):
    return workloads.Op("campaign", f"op{index}", 0.0, 1.0, True,
                        specs=[{"circuit": circuit, "technique": "mask_scan"}],
                        returned=returned)


def test_verification_mismatch_marks_the_op_failed():
    good = {"digest": "aa", "classes": {"failure": 1}, "total_cycles": {"mask_scan": 9}}
    window = workloads.Window([campaign(i, good) for i in range(50)])
    window.ops[49].returned = dict(good, digest="bb")
    problems = workloads.verify(window, 1, regrader=lambda specs: good)
    assert [op.ok for op in window.ops] == [True] * 49 + [False]
    assert len(problems) == 1 and problems[0].startswith("op49")
    assert window.failed() == [window.ops[49]]


def test_verification_regrades_the_deterministic_subset():
    window = workloads.Window([campaign(i, {}) for i in range(120)])
    picked = [op.op_id for op in workloads.to_verify(window, 1)]
    assert picked == ["op0", "op49", "op99"]
    picked = [op.op_id for op in workloads.to_verify(window, 2)]
    assert picked == ["op0", "op1", "op49", "op99"]
    seen = []
    workloads.verify(window, 2, regrader=lambda specs: seen.append(1) or {})
    assert len(seen) == 4


def test_verification_covers_every_service_write_of_a_short_window():
    # the traced half of a run starts mid-rotation
    writes = [circuit for circuit, _ in workloads.SERVICE_WRITES]
    window = workloads.Window([campaign(i, {}, writes[i % len(writes)])
                               for i in range(13, 38)])
    checked = workloads.to_verify(window, len(writes))
    assert {op.specs[0]["circuit"] for op in checked} == set(writes)


def test_op_seeds_are_distinct_and_reproducible():
    first = workloads.op_seeds("b14-table2-seu", 3)
    again = workloads.op_seeds("b14-table2-seu", 3)
    values = [next(first) for _ in range(500)]
    assert values == [next(again) for _ in range(500)]
    assert len(set(values)) == 500
    other = workloads.op_seeds("b14-table2-seu", 4)
    assert next(other) != values[0]


# ----------------------------------------------------------------------
# smoke runs
# ----------------------------------------------------------------------
def run_bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run(workload, trace):
    done = run_bench(ROOT, "--workload", workload, "--seed", "5", "--seconds",
                     "1", "--trace", str(trace))
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = ([name for name, _ in report.E2E_METRICS] if trace == 0
                else report.layer_names())
    assert list(result["metrics"]) == expected
    for name, metric in result["metrics"].items():
        assert set(metric) == {"value", "unit"}
        if trace == 0:
            assert metric["value"] > 0, name


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench(tmp_path, "--workload", "b14-table2-seu", "--seed", "1",
                     "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert not any(line.startswith("{") for line in done.stdout.splitlines())
