"""``repro bench``: one campaign timed on every engine (serial, best of
``repeats``) and on the sharded runner (one shard plan per worker count,
after a discarded warmup pass); every row must reproduce ``bigint``.

A history file (``BENCH_oracle.json``) is ``{"history": [entry, ...]}``:
``--json`` appends an entry, ``--check`` gates a run against the file
without writing it. Only the standard library is imported at load.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple

#: fused µs/fault may exceed the gate's baseline by this fraction
REGRESSION_TOLERANCE = 0.25
#: workers=2 / workers=1 steady-state slowdown allowed on >= 2 CPUs
SCALING_TOLERANCE = 0.0
#: ... and on one CPU, where the pool can only add overhead
SCALING_TOLERANCE_ONE_CPU = 0.10
#: the engine whose same-run row scales a baseline from another machine
YARDSTICK = "bigint"
#: entry fields a baseline's tail entry must share with the checked run
CAMPAIGN_KEYS = ("circuit", "num_faults", "num_cycles")


def machine_fingerprint() -> dict:
    """Arch, logical CPU count and CPU model: coarse on purpose, so a
    reboot keeps the fingerprint and another runner generation does not."""
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as handle:
            models = [line.split(":", 1)[1].strip() for line in handle
                      if line.lower().startswith("model name")]
    except OSError:
        models = []
    model = models[0] if models else platform.processor() or ""
    return {"arch": platform.machine(), "cpus": os.cpu_count(), "cpu_model": model}


def load_history(path: str) -> List[dict]:
    from repro.errors import CampaignError

    try:
        with open(path, "r", encoding="utf-8") as handle:
            return list(json.load(handle)["history"])
    except (OSError, ValueError, KeyError, TypeError) as error:
        raise CampaignError(f"cannot read bench history {path}: {error!r}")


def append_entry(path: str, entry: dict) -> int:
    """Append ``entry`` to ``path`` (created if missing); returns its length."""
    history = load_history(path) if os.path.exists(path) else []
    history.append(entry)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"history": history}, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return len(history)


def scaling_gate(steady: Dict[int, float], cpus: int) -> Optional[tuple]:
    """``(ratio, limit)`` of workers=2 over workers=1 steady state (the
    gate passes when ``ratio <= limit``), or ``None`` unless both ran."""
    if 1 not in steady or 2 not in steady:
        return None
    tolerance = SCALING_TOLERANCE if cpus >= 2 else SCALING_TOLERANCE_ONE_CPU
    return steady[2] / steady[1], 1.0 + tolerance


def expected_fused_us(history: Sequence[dict], entry: dict) -> Tuple[float, str]:
    """The fused µs/fault ``entry`` is gated against, and its basis."""
    same_machine = [
        prior["fused_us_per_fault"]
        for prior in history
        if prior.get("machine") == entry["machine"]
        and prior.get("kernel", {}).get("native")
        and all(prior.get(key) == entry[key] for key in CAMPAIGN_KEYS)
    ]
    if same_machine:
        return min(same_machine), "best prior entry for this machine"
    tail = history[-1]
    now, then = entry["backends"][YARDSTICK], tail["backends"][YARDSTICK]
    return tail["fused_us_per_fault"] * now / then, (
        f"tail entry {tail['fused_us_per_fault']:.3f} us/fault x {YARDSTICK} "
        f"ratio {now / then:.2f} ({now:.3f}/{then:.3f})"
    )


def _best_of(repeats: int, grade) -> Tuple[float, str]:
    """Best wall clock of ``repeats`` calls, and the last outcome digest."""
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        result = grade()
        best = min(best, time.perf_counter() - started)
    return best, result.outcome_digest()


def run_bench(spec, workers: Sequence[int], shards: Optional[int] = None,
              repeats: int = 3, json_path: Optional[str] = None,
              check_path: Optional[str] = None) -> int:
    """Measure ``spec``; append to ``json_path``, gate against ``check_path``."""
    from repro.errors import CampaignError
    from repro.run import worker
    from repro.run.runner import SHARDS_PER_WORKER, CampaignRunner
    from repro.sim.backends import available_engines, get_engine
    from repro.sim.parallel import DEFAULT_BACKEND, grade_faults
    from repro.util.tables import Table

    if repeats < 1:
        raise CampaignError(f"--repeats must be >= 1, got {repeats}")
    shards = shards or SHARDS_PER_WORKER
    scenario = worker.prewarm(spec)
    num_faults = len(scenario.faults)
    campaign = {"circuit": spec.effective_circuit, "num_faults": num_faults,
                "num_cycles": scenario.testbench.num_cycles}
    if check_path is not None:
        history = load_history(check_path)
        tail = {key: (history or [{}])[-1].get(key) for key in CAMPAIGN_KEYS}
        if tail != campaign:
            raise CampaignError(f"baseline {check_path} is {tail}, this run {campaign}")

    engines = {
        name: _best_of(repeats, lambda: grade_faults(
            scenario.netlist, scenario.testbench, scenario.faults, backend=name
        ))
        for name in sorted(available_engines())
    }
    stats = get_engine("fused").last_stats
    kernel = {"native": bool(stats.get("native"))}
    runner = {}
    for count in workers:
        with CampaignRunner(workers=count, shards=shards) as pool:
            started = time.perf_counter()
            pool.grade(spec)
            warmup = time.perf_counter() - started
            runner[count] = (*_best_of(repeats, lambda: pool.grade(spec)), warmup)

    def us(seconds: float) -> float:
        return round(seconds * 1e6 / num_faults, 3)

    table = Table(["row", "warmup (s)", "seconds", "us/fault", "outcome digest"],
                  title=f"{spec.effective_circuit}: {num_faults} faults x "
                  f"{campaign['num_cycles']} cycles, runner on {shards} shards")
    rows = [(name, "-", *row) for name, row in engines.items()] + [
        (f"runner workers={count}", f"{warmup:.3f}", seconds, digest)
        for count, (seconds, digest, warmup) in runner.items()
    ]
    for name, warmup, seconds, digest in rows:
        table.add_row([name, warmup, f"{seconds:.4f}", f"{us(seconds):.3f}", digest])
    print(table.render())
    reference = engines["bigint"][1]
    disagree = [row[0] for row in rows if row[3] != reference]
    if disagree:
        print(f"ERROR: {', '.join(disagree)} disagree with bigint", file=sys.stderr)
        return 1
    print(f"every row matches bigint: outcome digest {reference}")

    entry = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "machine": machine_fingerprint(),
        "python": platform.python_version(),
        "kernel": kernel,
        **campaign,
        "default_backend": DEFAULT_BACKEND,
        "fused_us_per_fault": us(engines["fused"][0]),
        "backends": {name: us(row[0]) for name, row in engines.items()},
        "backends_seconds": {name: round(row[0], 4) for name, row in engines.items()},
        "sharded_runner": {
            f"workers={count}": {
                "seconds": round(seconds, 4),
                "us_per_fault": us(seconds),
                "warmup_seconds": round(warmup, 4),
            }
            for count, (seconds, _, warmup) in runner.items()
        },
        "runner_shards": shards,
        "runner_workers": list(workers),
    }
    failed = False
    if check_path is not None:
        if not kernel["native"]:
            raise CampaignError("fused graded without its native kernel; not gating")
        expected, basis = expected_fused_us(history, entry)
        gates = [(f"regression gate: fused {entry['fused_us_per_fault']:.3f} us/fault"
                  f" vs {expected:.3f} ({basis})",
                  entry["fused_us_per_fault"] / expected, 1 + REGRESSION_TOLERANCE)]
        cpus = os.cpu_count() or 1
        scaling = scaling_gate({n: row[0] for n, row in runner.items()}, cpus)
        if scaling is not None:
            gates.append((f"scaling gate: workers=2 / workers=1 ({cpus} cpu(s))",
                          *scaling))
        for label, ratio, limit in gates:
            verdict = "pass" if ratio <= limit else "FAIL"
            print(f"{label} = {ratio:.3f}, limit {limit:.2f}: {verdict}",
                  file=sys.stdout if ratio <= limit else sys.stderr)
        failed = any(ratio > limit for _, ratio, limit in gates)
    if json_path is not None:
        total = append_entry(json_path, entry)
        print(f"appended to {json_path} ({total} history entries)")
    return int(failed)
