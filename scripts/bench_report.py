#!/usr/bin/env python
"""Measure every grading backend on the b14 campaign and update
``BENCH_oracle.json`` so future PRs can track the oracle's perf
trajectory.

Usage::

    PYTHONPATH=src python scripts/bench_report.py [--output BENCH_oracle.json]
    PYTHONPATH=src python scripts/bench_report.py --check BENCH_oracle.json

The JSON carries an append-only ``history`` list: every run adds a
timestamped entry recording the machine fingerprint, kernel flags
(native / thread count), seconds and us/fault per backend and
warmup-separated sharded-runner rows for every ``--workers`` count measured. The
top-level summary fields are **derived from the newest history entry
on write** — they exist for greppability and old tooling, but the
history tail is the source of truth, so the two can never disagree.

The runner rows grade a *fixed shard plan* at every worker count and
discard a warmup pass first (recorded as ``warmup_seconds``): the
steady-state numbers then compare process scaling alone, not pool
spin-up, compile time or per-shard overhead differences.

``--check`` is the CI regression gate. When the committed baseline
holds history entries from the *same machine fingerprint*, the gate
compares absolute us/fault against the best such entry. Otherwise
(CI machine differs from the committing machine) it re-measures the
numpy reference engine in the same run and scales the baseline's fused
number by the observed numpy ratio — machine speed cancels, and what
remains is the fused engine's speed relative to a fixed yardstick that
changes only when engine code changes. On a host without the native
kernel the fused engine runs the numpy engine, so the gate compares it
with the committed numpy row instead. It never rewrites the baseline —
refreshing it is a deliberate act (rerun without ``--check`` and commit
the diff).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

from repro.circuits.itc99.b14 import b14_program_testbench, build_b14  # noqa: E402
from repro.eval.paper import PAPER_B14  # noqa: E402
from repro.faults.model import exhaustive_fault_list  # noqa: E402
from repro.run.runner import (  # noqa: E402
    SHARDS_PER_WORKER,
    CampaignRunner,
    default_pool_workers,
)
from repro.run.spec import CampaignSpec  # noqa: E402
from repro.sim.backends import available_engines, get_engine  # noqa: E402
from repro.sim.cache import compiled_for, golden_for  # noqa: E402
from repro.sim.parallel import DEFAULT_BACKEND, grade_faults  # noqa: E402

#: default worker counts for the sharded-runner (orchestration) rows —
#: override with ``--workers 1,2,4``
RUNNER_WORKERS = (1, default_pool_workers())
#: one shard plan for every runner row — the workers=1 default plan, so
#: the rows differ only in process scaling, never in per-shard overhead
RUNNER_SHARDS = SHARDS_PER_WORKER


def machine_fingerprint() -> dict:
    """Identity of the benchmarking host, for same-machine gating.

    Coarse on purpose: arch + logical CPU count + CPU model catches
    "different CI runner generation" without tripping on reboots.
    """
    cpu_model = platform.processor() or ""
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as handle:
            for line in handle:
                if line.lower().startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "arch": platform.machine(),
        "cpus": os.cpu_count(),
        "cpu_model": cpu_model,
    }


def kernel_flags() -> dict:
    """The fused engine's kernel configuration, as last observed."""
    stats = get_engine("fused").last_stats
    return {
        "native": bool(stats.get("native")),
        "threads": int(stats.get("threads", 1) or 1),
    }


def measure(circuit, bench, faults, backend: str, repeats: int) -> dict:
    """Best-of-N wall clock of one backend (caches pre-warmed)."""
    reference = None
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        result = grade_faults(circuit, bench, faults, backend=backend)
        best = min(best, time.perf_counter() - started)
        reference = result
    return {
        "seconds": round(best, 4),
        "us_per_fault": round(best * 1e6 / len(faults), 3),
        "fail_cycles": reference.fail_cycles.tolist(),
        "vanish_cycles": reference.vanish_cycles.tolist(),
    }


def best_prior_for_machine(baseline: dict, fingerprint: dict):
    """The lowest prior fused us/fault recorded on this machine, if any."""
    candidates = [
        entry["fused_us_per_fault"]
        for entry in baseline.get("history", [])
        if entry.get("machine") == fingerprint
        and entry.get("kernel", {}).get("native")
        and entry.get("fused_us_per_fault")
    ]
    return min(candidates) if candidates else None


def baseline_backend_us(baseline: dict, name: str):
    """One backend's baseline us/fault, from either JSON layout.

    New layout: the newest ``history`` entry is the source of truth (its
    ``backends`` map may hold ``{seconds, us_per_fault}`` rows or bare
    us/fault scalars, depending on vintage). Old layout: only the
    top-level ``backends`` snapshot exists. Returns ``None`` when the
    backend was never measured.
    """
    for entry in reversed(baseline.get("history") or []):
        row = entry.get("backends", {}).get(name)
        if isinstance(row, dict):
            return float(row["us_per_fault"])
        if row is not None:
            return float(row)
        break  # the tail entry is authoritative; do not walk further
    row = baseline.get("backends", {}).get(name)
    return float(row["us_per_fault"]) if row else None


def check_regression(baseline_path: str, threshold: float, repeats: int) -> int:
    """CI gate: fail when the fused engine's us/fault regresses more than
    ``threshold`` (fractional) against the committed baseline."""
    with open(baseline_path) as handle:
        baseline = json.load(handle)
    baseline_fused = baseline_backend_us(baseline, "fused")
    baseline_numpy = baseline_backend_us(baseline, "numpy")
    if baseline_fused is None or baseline_numpy is None:
        print(
            f"baseline {baseline_path} records no fused/numpy measurement",
            file=sys.stderr,
        )
        return 1

    circuit = build_b14()
    bench = b14_program_testbench(
        circuit, PAPER_B14["stimulus_vectors"], seed=0
    )
    faults = exhaustive_fault_list(circuit, bench.num_cycles)
    golden_for(compiled_for(circuit), bench)  # shared setup out of the timing
    grade_faults(circuit, bench, faults, backend="fused")  # warm the program
    measured = measure(circuit, bench, faults, "fused", repeats)["us_per_fault"]
    native = bool(get_engine("fused").last_stats.get("native"))

    same_machine_best = (
        best_prior_for_machine(baseline, machine_fingerprint())
        if native
        else None
    )
    if same_machine_best is not None:
        # This host has committed history — absolute numbers compare.
        expected = same_machine_best
        ratio = measured / expected
        print(
            f"fused oracle: measured {measured:.3f} us/fault vs best prior "
            f"entry for this machine {expected:.3f} ({ratio:.2f}x, gate at "
            f"{1 + threshold:.2f}x, native kernel: {native})"
        )
    else:
        if baseline.get("fused_native_kernel") and not native:
            # Apples to apples: without a C compiler the fused engine
            # hands every grade to the numpy engine, so gate against the
            # committed numpy row.
            baseline_fused = baseline_numpy
            print(
                "no native kernel here; fused runs the numpy engine, gating "
                f"vs the numpy baseline ({baseline_fused:.3f} us/fault)"
            )
        numpy_now = measure(
            circuit, bench, faults, "numpy", max(1, repeats - 1)
        )["us_per_fault"]
        machine_scale = numpy_now / baseline_numpy
        expected = baseline_fused * machine_scale
        ratio = measured / expected
        print(
            f"fused oracle: measured {measured:.3f} us/fault; baseline "
            f"{baseline_fused:.3f} scaled by numpy ratio "
            f"{machine_scale:.2f} ({numpy_now:.3f}/{baseline_numpy:.3f}) -> "
            f"expected {expected:.3f} us/fault ({ratio:.2f}x, gate at "
            f"{1 + threshold:.2f}x, native kernel: {native})"
        )
    if ratio > 1 + threshold:
        print(
            f"REGRESSION: fused us_per_fault {measured:.3f} exceeds the "
            f"{100 * threshold:.0f}% budget over the baseline "
            f"{expected:.3f}",
            file=sys.stderr,
        )
        return 1
    print("benchmark gate passed")
    return 0


def measure_runner_rows(
    reference: dict, num_faults: int, repeats: int, worker_counts=RUNNER_WORKERS
):
    """Sharded-runner rows: the same campaign through the orchestration
    layer at several worker counts, one fixed shard plan, steady state
    separated from warmup. Returns ``None`` on a bit-exactness failure.
    """
    spec = CampaignSpec(circuit="b14", technique="time_multiplexed")
    runner_rows = {}
    for workers in worker_counts:
        with CampaignRunner(workers=workers, shards=RUNNER_SHARDS) as runner:
            started = time.perf_counter()
            merged = runner.grade(spec)  # warmup: pool + caches, discarded
            warmup = time.perf_counter() - started
            best = float("inf")
            for _ in range(max(1, repeats - 1)):
                started = time.perf_counter()
                merged = runner.grade(spec)
                best = min(best, time.perf_counter() - started)
        if merged.fail_cycles.tolist() != reference["fail_cycles"] or (
            merged.vanish_cycles.tolist() != reference["vanish_cycles"]
        ):
            print(
                f"ERROR: sharded runner (workers={workers}) disagrees "
                "with numpy",
                file=sys.stderr,
            )
            return None
        runner_rows[f"workers={workers}"] = {
            "seconds": round(best, 4),
            "warmup_seconds": round(warmup, 4),
            "us_per_fault": round(best * 1e6 / num_faults, 3),
        }
        print(
            f"{'runner w=' + str(workers):>12}: {best:7.3f} s "
            f"({best * 1e6 / num_faults:7.3f} us/fault, "
            f"warmup {warmup:.3f} s)"
        )
    return runner_rows


def summary_from_entry(entry: dict) -> dict:
    """The top-level snapshot fields, derived from one history entry.

    The summary used to be written independently of the history append,
    which let the two drift; deriving it here makes the newest history
    entry the single source of truth.
    """
    seconds = entry["backends_seconds"]
    numpy_seconds = seconds["numpy"]
    return {
        "circuit": entry["circuit"],
        "num_faults": entry["num_faults"],
        "num_cycles": entry["num_cycles"],
        "default_backend": entry["default_backend"],
        "fused_native_kernel": entry["kernel"]["native"],
        "fused_threads": entry["kernel"]["threads"],
        "python": entry["python"],
        "machine": entry["machine"]["arch"],
        "runner_shards": entry["runner_shards"],
        "sharded_runner": entry["sharded_runner"],
        "backends": {
            name: {
                "seconds": seconds[name],
                "us_per_fault": us_per_fault,
                "speedup_vs_numpy": round(numpy_seconds / seconds[name], 2),
            }
            for name, us_per_fault in entry["backends"].items()
        },
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output", default="BENCH_oracle.json")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--workers",
        default=None,
        metavar="N,N,...",
        help="comma-separated worker counts for the sharded-runner rows "
        f"(default: {','.join(map(str, RUNNER_WORKERS))}); every count "
        "measured lands in the history entry",
    )
    parser.add_argument(
        "--check",
        metavar="BASELINE",
        default=None,
        help="regression-gate mode: compare the fused engine against this "
        "committed baseline instead of rewriting it",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.25,
        help="fractional us/fault regression tolerated by --check",
    )
    args = parser.parse_args()

    if args.check:
        return check_regression(args.check, args.threshold, args.repeats)

    circuit = build_b14()
    bench = b14_program_testbench(
        circuit, PAPER_B14["stimulus_vectors"], seed=0
    )
    faults = exhaustive_fault_list(circuit, bench.num_cycles)
    golden_for(compiled_for(circuit), bench)  # shared setup out of the timing

    rows = {}
    for backend in sorted(available_engines()):
        rows[backend] = measure(circuit, bench, faults, backend, args.repeats)
        print(
            f"{backend:>12}: {rows[backend]['seconds']:7.3f} s "
            f"({rows[backend]['us_per_fault']:7.3f} us/fault)"
        )
    flags = kernel_flags()

    reference = rows["numpy"]
    for name, row in rows.items():
        if row["fail_cycles"] != reference["fail_cycles"] or (
            row["vanish_cycles"] != reference["vanish_cycles"]
        ):
            print(f"ERROR: backend {name!r} disagrees with numpy", file=sys.stderr)
            return 1

    worker_counts = RUNNER_WORKERS
    if args.workers:
        worker_counts = tuple(
            int(part) for part in args.workers.split(",") if part.strip()
        )
    runner_rows = measure_runner_rows(
        reference, len(faults), args.repeats, worker_counts
    )
    if runner_rows is None:
        return 1

    history = []
    try:
        with open(args.output, "r", encoding="utf-8") as handle:
            history = list(json.load(handle).get("history", []))
    except (OSError, json.JSONDecodeError):
        pass  # first run, or a pre-history baseline: start the list
    history.append(
        {
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "machine": machine_fingerprint(),
            "python": platform.python_version(),
            "kernel": flags,
            "circuit": circuit.name,
            "num_faults": len(faults),
            "num_cycles": bench.num_cycles,
            "default_backend": DEFAULT_BACKEND,
            "fused_us_per_fault": rows["fused"]["us_per_fault"],
            "numpy_us_per_fault": rows["numpy"]["us_per_fault"],
            "backends": {
                name: row["us_per_fault"] for name, row in rows.items()
            },
            "backends_seconds": {
                name: row["seconds"] for name, row in rows.items()
            },
            "sharded_runner": runner_rows,
            "runner_shards": RUNNER_SHARDS,
            "runner_workers": list(worker_counts),
        }
    )

    # The top level is derived from the history tail, never written
    # independently — the snapshot and the trajectory cannot disagree.
    report = {**summary_from_entry(history[-1]), "history": history}
    with open(args.output, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.output} ({len(history)} history entries)")

    fused_speedup = report["backends"]["fused"]["speedup_vs_numpy"]
    print(f"fused speedup vs numpy: {fused_speedup}x")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
