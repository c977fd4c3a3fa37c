"""Oracle engine benchmark: the us/fault cost of each grading backend.

The functional oracle is the wall-clock bottleneck of every campaign and
eval table, so this bench tracks each registered engine on the paper's
b14 setup (34,400 faults x 160 cycles), plus the sharded campaign
runner at several worker counts (the orchestration-overhead row).
``scripts/bench_report.py`` dumps the same measurements to
``BENCH_oracle.json`` so the perf trajectory is recorded across PRs.

Also runnable standalone (CI smoke)::

    PYTHONPATH=src python benchmarks/bench_oracle.py --quick
"""

import os
import sys

if __package__ in (None, ""):  # standalone: python benchmarks/bench_oracle.py
    _ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, _ROOT)
    sys.path.insert(0, os.path.join(_ROOT, "src"))

import pytest

from benchmarks.conftest import once
from repro.run.runner import CampaignRunner, default_pool_workers
from repro.run.spec import CampaignSpec
from repro.sim.backends import available_engines, get_engine
from repro.sim.cache import compiled_for, golden_for
from repro.sim.parallel import grade_faults

#: the "many workers" point benchmarked against workers=1
POOL_WORKERS = default_pool_workers()


@pytest.fixture(scope="module", autouse=True)
def warm_shared_artifacts(b14, b14_bench):
    """Pre-build compile/golden caches so each engine bench measures
    grading alone, not shared setup."""
    golden_for(compiled_for(b14), b14_bench)


@pytest.mark.parametrize("backend", sorted(available_engines()))
def test_bench_oracle_backend(benchmark, b14, b14_bench, b14_faults, backend):
    result = once(
        benchmark, grade_faults, b14, b14_bench, b14_faults, backend=backend
    )
    assert len(result.fail_cycles) == len(b14_faults)
    us_per_fault = benchmark.stats["mean"] * 1e6 / len(b14_faults)
    print(f"\n{backend}: {us_per_fault:.3f} us/fault on {len(b14_faults)} faults")


@pytest.mark.parametrize("workers", [1, POOL_WORKERS])
def test_bench_sharded_runner(benchmark, b14, b14_bench, b14_faults, workers):
    """Campaign-runner grading of the b14 oracle, workers=1 vs a pool —
    the cost of orchestration (sharding, merge, process fan-out)."""
    spec = CampaignSpec(circuit="b14", technique="time_multiplexed")
    runner = CampaignRunner(workers=workers)
    result = once(benchmark, runner.grade, spec)
    assert result.num_faults == len(b14_faults)
    us_per_fault = benchmark.stats["mean"] * 1e6 / len(b14_faults)
    print(
        f"\nsharded runner, workers={workers}: {us_per_fault:.3f} us/fault"
    )


class TestOracleSpeedContract:
    """The acceptance bar this repo holds the default engine to."""

    def test_fused_is_default_and_at_least_5x_numpy(
        self, b14, b14_bench, b14_faults
    ):
        import time

        from repro.sim.parallel import DEFAULT_BACKEND

        assert DEFAULT_BACKEND == "fused"
        # warm the program and golden-mask caches before timing
        grade_faults(b14, b14_bench, b14_faults, backend="fused")

        started = time.perf_counter()
        fused = grade_faults(b14, b14_bench, b14_faults, backend="fused")
        fused_seconds = time.perf_counter() - started

        started = time.perf_counter()
        reference = grade_faults(b14, b14_bench, b14_faults, backend="numpy")
        numpy_seconds = time.perf_counter() - started

        assert fused.fail_cycles.tolist() == reference.fail_cycles.tolist()
        assert fused.vanish_cycles.tolist() == reference.vanish_cycles.tolist()
        if get_engine("fused").last_stats.get("native"):
            assert numpy_seconds / fused_seconds >= 5.0, (
                f"fused {fused_seconds:.3f}s vs numpy {numpy_seconds:.3f}s"
            )


def _standalone(argv=None) -> int:
    """No-pytest smoke bench (CI runs this with ``--quick --gate-scaling``)."""
    import argparse
    import time

    from repro.run.runner import SHARDS_PER_WORKER

    parser = argparse.ArgumentParser(description=_standalone.__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="workers 1 vs 2 only, two steady repeats",
    )
    parser.add_argument(
        "--workers",
        default=None,
        metavar="N,N,...",
        help="comma-separated worker counts to time (e.g. 1,2,4; default: "
        "1,2 with --quick, else 1 and the pool default)",
    )
    parser.add_argument(
        "--gate-scaling",
        action="store_true",
        help="fail when workers=2 steady state is more than "
        "--scaling-tolerance slower than workers=1",
    )
    parser.add_argument(
        "--scaling-tolerance",
        type=float,
        default=None,
        help="fractional slowdown of workers=2 vs workers=1 the scaling "
        "gate tolerates (default: 0 on a multi-core host — workers=2 "
        "must win — and 0.10 on a single core, where only pool overhead "
        "is measurable)",
    )
    args = parser.parse_args(argv)

    from repro.circuits.itc99.b14 import b14_program_testbench, build_b14
    from repro.faults.model import exhaustive_fault_list

    circuit = build_b14()
    bench = b14_program_testbench(circuit, 160, seed=0)
    faults = exhaustive_fault_list(circuit, bench.num_cycles)
    golden_for(compiled_for(circuit), bench)  # shared setup out of timings

    started = time.perf_counter()
    reference = grade_faults(circuit, bench, faults)
    serial_seconds = time.perf_counter() - started
    print(
        f"grade_faults (fused, serial): {serial_seconds:.3f}s "
        f"({serial_seconds * 1e6 / len(faults):.3f} us/fault)"
    )

    spec = CampaignSpec(circuit="b14", technique="time_multiplexed")
    if args.workers:
        worker_counts = tuple(
            int(part) for part in args.workers.split(",") if part.strip()
        )
    else:
        worker_counts = (1, 2) if args.quick else (1, POOL_WORKERS)
    # One shard plan for every worker count — the workers=1 default
    # plan: the comparison below is about process scaling, so shard
    # count (and its per-shard/IPC overhead) must not vary with the
    # worker count.
    shards = SHARDS_PER_WORKER
    steady = {}
    for workers in worker_counts:
        with CampaignRunner(workers=workers, shards=shards) as runner:
            started = time.perf_counter()
            merged = runner.grade(spec)  # warmup pass, reported separately
            warmup = time.perf_counter() - started
            best = float("inf")
            for _ in range(2):
                started = time.perf_counter()
                merged = runner.grade(spec)
                best = min(best, time.perf_counter() - started)
        steady[workers] = best
        print(
            f"sharded runner (workers={workers}): steady {best:.3f}s "
            f"({best * 1e6 / len(faults):.3f} us/fault), "
            f"warmup {warmup:.3f}s"
        )
        if merged.fail_cycles.tolist() != reference.fail_cycles.tolist() or (
            merged.vanish_cycles.tolist() != reference.vanish_cycles.tolist()
        ):
            print("ERROR: sharded runner disagrees with serial grading")
            return 1
    print("sharded runner bit-exact with serial grading")
    if args.gate_scaling and 1 in steady and 2 in steady:
        tolerance = args.scaling_tolerance
        if tolerance is None:
            # On >= 2 real cores the dynamic queue must make workers=2
            # win outright; a single core can only measure pool overhead,
            # so a small slowdown budget applies instead.
            tolerance = 0.0 if (os.cpu_count() or 1) >= 2 else 0.10
        ratio = steady[2] / steady[1]
        limit = 1.0 + tolerance
        print(
            f"scaling gate: workers=2 / workers=1 = {ratio:.3f} "
            f"(limit {limit:.2f}, {os.cpu_count()} cpu(s))"
        )
        if ratio > limit:
            print(
                f"ERROR: workers=2 ({steady[2]:.3f}s) is more than "
                f"{100 * tolerance:.0f}% slower than "
                f"workers=1 ({steady[1]:.3f}s)"
            )
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(_standalone())
