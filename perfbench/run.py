"""Campaign benchmark: one workload, end-to-end or per-layer metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload b14-table2-seu --seed 1 --seconds 30 --trace 0

``--trace 0`` times the workload untraced and prints every end-to-end
metric; ``--trace 1`` runs half the window untraced and half with layer
tracing, and prints every per-layer metric plus the tracing overhead.
The last line of stdout is the JSON result; the lines before it are the
human-readable tables and the environment fingerprint. The exit code is
non-zero when any op failed or a post-window regrade disagreed, and
when the repository sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import report  # noqa: E402
import workloads  # noqa: E402
from tracing import Trace, Tracer, install  # noqa: E402

#: the untraced run's setup_s is the median of this many fresh starts
SETUP_REPEATS = 5
#: scratch space inside the checkout (listed in .gitignore)
WORK = os.path.join(ROOT, ".perfbench-work")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def pin_environment() -> None:
    """Point imports at this checkout's sources and pin the knobs that
    change what is measured."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        raise SystemExit(f"error: no repro sources under {src}; run from a "
                         "full checkout of the repository")
    sys.path.insert(0, src)
    os.environ["PYTHONPATH"] = src
    os.environ["REPRO_FUSED_THREADS"] = "1"
    # the native kernel's build cache lives in the checkout and stays
    # warm across runs; the artifact cache is fresh per start
    os.environ["XDG_CACHE_HOME"] = os.path.join(WORK, "xdg-cache")
    # temporary files (the kernel build, SQLite) stay in the checkout too
    os.environ["TMPDIR"] = os.path.join(WORK, "tmp")
    os.makedirs(os.environ["TMPDIR"], exist_ok=True)
    for knob in ("REPRO_FUSED_NATIVE", "REPRO_DISK_CACHE"):
        os.environ.pop(knob, None)


def fingerprint() -> dict:
    """The machine and build the numbers were measured on. Fails if
    the native kernel cannot be built or loaded."""
    import numpy
    from repro.sim.backends._native import native_kernel

    kernel = native_kernel()
    if kernel is None:
        raise workloads.SetupError(
            "the native grading kernel is unavailable (no C compiler, or "
            "its build failed); refusing to benchmark the numpy plan")
    cpu, flags = "unknown", []
    with open("/proc/cpuinfo", encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("model name") and cpu == "unknown":
                cpu = line.split(":", 1)[1].strip()
            elif line.startswith("flags") and not flags:
                flags = line.split(":", 1)[1].split()
    compiler = shutil.which("cc") or shutil.which("gcc") or shutil.which("clang")
    version = subprocess.run([compiler, "--version"], capture_output=True,
                             text=True).stdout.splitlines()[:1]
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "simd": [flag for flag in flags
                 if flag in ("sse4_2", "avx", "avx2", "avx512f", "bmi2")],
        "os_kernel": platform.release(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cc": version[0] if version else compiler,
        "native_kernel": True,
        "kernel_threads": kernel.threads,
        "REPRO_FUSED_THREADS": os.environ["REPRO_FUSED_THREADS"],
    }


def measure(args, workdir: str):
    """The untraced run: setup repeats, then the timed window."""
    setups = [
        workloads.probe_setup(args.workload, os.path.join(workdir, f"setup{k}"))
        for k in range(SETUP_REPEATS)
    ]
    seeds = workloads.op_seeds(args.workload, args.seed)
    runtime, _ = workloads.start(args.workload, os.path.join(workdir, "window"))
    try:
        window = workloads.run_window(runtime, args.seconds, seeds)
        rss = runtime.peak_rss_mb()
    finally:
        runtime.close()
    problems = workloads.verify(window, runtime.rotation)
    campaigns = [op.seconds for op in window.campaigns()]
    reads = [op.seconds for op in window.reads()]
    if not campaigns or not reads:
        return None, [window], problems + ["no op completed"], ""
    metrics = report.end_to_end(
        campaigns, reads, sum(op.faults for op in window.campaigns()),
        window.wall_s, setups, rss)
    failed = len(window.failed())
    table = report.render_e2e(
        args.workload, metrics,
        {"campaign": len(campaigns), "query": len(reads)},
        failed / len(window.ops))
    return metrics, [window], problems, table


def trace(args, workdir: str):
    """The traced run: half the window untraced, half traced."""
    seeds = workloads.op_seeds(args.workload, args.seed)
    half = args.seconds / 2
    runtime, _ = workloads.start(args.workload, os.path.join(workdir, "plain"))
    try:
        plain = workloads.run_window(runtime, half, seeds)
    finally:
        runtime.close()

    traces_dir = os.path.join(WORK, "traces")
    os.makedirs(traces_dir, exist_ok=True)
    child_trace = None
    if args.workload == "service-mixed":
        child_trace = os.path.join(traces_dir, f"{args.workload}-daemon.json")
    tracer = install(Tracer())
    try:
        runtime, _ = workloads.start(args.workload, os.path.join(workdir, "traced"),
                                     tracer, child_trace)
        try:
            first = len(plain.campaigns()) + len(plain.campaigns(False))
            traced = workloads.run_window(runtime, half, seeds, first)
        finally:
            runtime.close()
    finally:
        tracer.uninstall()
    tracer.dump(os.path.join(traces_dir, f"{args.workload}-client.json"))
    problems = (workloads.verify(plain, runtime.rotation)
                + workloads.verify(traced, runtime.rotation))

    ops = traced.campaigns()
    plain_ops = plain.campaigns()
    if not ops or not plain_ops:
        return None, [plain, traced], problems + ["no op completed"], ""
    intervals = [(op.op_id, op.start, op.end) for op in ops]
    traces = [Trace.of(tracer, intervals)]
    if child_trace:
        traces.append(Trace.load(child_trace, intervals))
    rows = {}
    for key in ("rows", "db_bytes", "queue_wait_s", "run_s"):
        values = [op.info[key] for op in ops if key in op.info]
        if values:
            rows[key] = statistics.fmean(values)
    overhead = (report.percentile([op.seconds for op in ops], 50)
                - report.percentile([op.seconds for op in plain_ops], 50))
    metrics = report.per_layer(
        traces, [op.op_id for op in ops],
        [op.seconds for op in traced.reads()], rows, overhead)
    table = report.render_layers(args.workload, metrics, len(ops))
    return metrics, [plain, traced], problems, table


def probe(args) -> int:
    """A fresh start of ``b14-table2-seu``, timed by the parent."""
    runtime = workloads.Library(args.workdir)
    runtime.warm()
    print("ready", flush=True)
    runtime.close()
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_environment()
    if args.setup_probe:
        return probe(args)
    env = fingerprint()
    workdir = os.path.join(WORK, f"run-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        metrics, windows, problems, table = (trace if args.trace else measure)(
            args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ops = [op for window in windows for op in window.ops]
    failed = [op for op in ops if not op.ok]
    if table:
        print(table)
    for op in failed[:10]:
        print(f"failed {op.kind} {op.op_id}: {op.error}")
    for problem in problems:
        print(f"problem: {problem}")
    print("env: " + json.dumps(env, sort_keys=True))
    correct = not failed and not problems
    if metrics is None:
        return 1
    print(json.dumps(report.result_line(
        correct, len(ops), len(failed), metrics, report.units())))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
