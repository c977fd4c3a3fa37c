"""Metric definitions, percentile arithmetic and the per-layer table.

The end-to-end metrics come from an untraced run; the per-layer ones
from a traced run (see :mod:`tracing`). ``LAYER_METRICS`` also records,
for each per-layer metric, the end-to-end metric and workload it is
expected to move — the table the benchmark prints carries that column,
so a perf claim can name both numbers.
"""

from __future__ import annotations

import statistics
from typing import Dict, Iterable, List, Sequence

#: (name, unit) of every end-to-end metric, in output order
E2E_METRICS = (
    ("setup_s", "s"),
    ("campaign_s_p50", "s"),
    ("campaign_s_p90", "s"),
    ("faults_per_s", "faults/s"),
    ("query_s_p50", "s"),
    ("query_s_p90", "s"),
    ("peak_rss_mb", "MB"),
)

#: (layer, name, unit, better, moves) of every per-layer metric
LAYER_METRICS = (
    (1, "run.spec.scenario_s", "s", "lower",
     "campaign_s_p50, faults_per_s, peak_rss_mb on b14-table2-seu; "
     "campaign_s_p50 on service-mixed"),
    (1, "run.spec.population_built", "count", "lower",
     "campaign_s_p50, peak_rss_mb on service-mixed"),
    (1, "run.spec.sample_yield", "ratio", "higher",
     "campaign_s_p50 on service-mixed"),
    (2, "sim.compile_s", "s", "lower", "setup_s on every workload"),
    (2, "sim.program_s", "s", "lower", "setup_s on every workload"),
    (2, "sim.cache.compile_hits", "count", "higher", "setup_s on every workload"),
    (3, "sim.golden_s", "s", "lower", "campaign_s_p50 on b14-table2-seu"),
    (4, "sim.grade_s", "s", "lower",
     "campaign_s_p50/p90, faults_per_s on b14-table2-seu (about a quarter)"),
    (4, "sim.us_per_fault.seu", "us", "lower", "faults_per_s on b14-table2-seu"),
    (4, "sim.parallel.self_s", "s", "lower", "campaign_s_p50 on b14-table2-seu"),
    (5, "run.transport.worker_busy_s", "s", "lower",
     "campaign_s_p50 everywhere (serial transport: the shard grading)"),
    (5, "run.transport.wait_s", "s", "lower",
     "flat: the serial transport waits on nothing"),
    (6, "run.store.open_s", "s", "lower", "campaign_s_p50 on b14-table2-seu"),
    (6, "run.store.append_s", "s", "lower", "campaign_s_p50 on b14-table2-seu"),
    (6, "run.store.bytes", "bytes", "lower",
     "campaign_s_p50, query_s_p50 on b14-table2-seu"),
    (6, "run.runner.grade_self_s", "s", "lower",
     "campaign_s_p50 on b14-table2-seu"),
    (6, "emu.campaign.accounting_s", "s", "lower",
     "campaign_s_p50, peak_rss_mb on b14-table2-seu"),
    (6, "faults.dictionary_s", "s", "lower",
     "campaign_s_p50, peak_rss_mb on b14-table2-seu"),
    (6, "sim.parallel.digest_s", "s", "lower", "campaign_s_p50 on b14-table2-seu"),
    (7, "service.db.record_outcomes_s", "s", "lower",
     "campaign_s_p50/p90 on service-mixed"),
    (7, "service.db.record_shards_s", "s", "lower",
     "campaign_s_p50 on service-mixed"),
    (7, "service.db.rows_per_campaign", "count", "lower",
     "campaign_s_p50, query_s_p90 on service-mixed"),
    (7, "service.db.bytes_per_campaign", "bytes", "lower",
     "campaign_s_p50, query_s_p90 on service-mixed"),
    (7, "service.db.query_s", "s", "lower", "query_s_p50/p90 on service-mixed"),
    (7, "service.executor.queue_wait_s", "s", "lower",
     "campaign_s_p50 on service-mixed"),
    (7, "service.executor.run_s", "s", "lower",
     "campaign_s_p50/p90 on service-mixed"),
    (7, "service.app.http_s", "s", "lower", "query_s_p50/p90 on service-mixed"),
    (0, "trace.overhead_s", "s", "lower",
     "none: traced minus untraced campaign_s_p50 of the same run"),
)

#: a p90 end-to-end metric is the mean of the p90s of this many slices
#: of the window's ops
TAIL_SLICES = 10


def percentile(values: Sequence[float], q: float) -> float:
    """The q-th percentile (0..100) by linear interpolation between
    closest ranks, as ``numpy.percentile`` computes it by default."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def sliced_percentile(values: Sequence[float], q: float,
                      slices: int = TAIL_SLICES) -> float:
    """The q-th percentile of each of ``slices`` runs of consecutive
    values (issue order), averaged over the runs.

    On a shared host whose speed changes every few seconds, a window's
    plain p90 jumps between the fast and the slow state's latency as the
    slow share of the window crosses a tenth; averaged over slices, it
    moves in proportion to that share instead.
    """
    slices = max(1, min(slices, len(values)))
    n = len(values)
    return statistics.fmean(
        percentile(values[k * n // slices:(k + 1) * n // slices], q)
        for k in range(slices))


def end_to_end(campaign_s: Sequence[float], query_s: Sequence[float],
               faults: int, wall_s: float, setup_s: Sequence[float],
               peak_rss_mb: float) -> Dict[str, float]:
    """Every end-to-end metric of one untraced run. Latencies are in
    issue order."""
    return {
        "setup_s": statistics.median(setup_s),
        "campaign_s_p50": percentile(campaign_s, 50),
        "campaign_s_p90": sliced_percentile(campaign_s, 90),
        "faults_per_s": faults / wall_s,
        "query_s_p50": percentile(query_s, 50),
        "query_s_p90": sliced_percentile(query_s, 90),
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(traces: Iterable, ops: Sequence[str],
              reads: Sequence[float], rows: Dict[str, float],
              overhead_s: float) -> Dict[str, float]:
    """Per-layer metrics of one traced window.

    ``traces`` are :class:`tracing.Trace` objects (the bench process and
    any traced subprocess); ``ops`` the ids of the window's completed
    campaign ops; ``reads`` the client
    latency of every completed read; ``rows`` per-op means the client
    measured itself (service row timestamps, DB growth).
    """
    traces = list(traces)
    n = max(1, len(ops))

    def own(name, scope=ops):
        return sum(trace.self_sum(name, scope) for trace in traces)

    def total(name, scope=ops):
        return sum(trace.total_sum(name, scope) for trace in traces)

    def counted(name, scope=ops):
        return sum(trace.count_sum(name, scope) for trace in traces)

    everything = set().union(*(trace.all_ops() for trace in traces)) if traces else set()
    built = counted("run.spec.population_built")
    busy = counted("run.transport.worker_busy_s")
    read_db = own("service.db.query", ["read"])
    graded = counted("sim.grade.faults")
    metrics = {
        "run.spec.scenario_s": total("run.spec.scenario") / n,
        "run.spec.population_built": built / n,
        "run.spec.sample_yield": counted("run.spec.sampled") / built if built else 0.0,
        "sim.compile_s": own("sim.compile", everything),
        "sim.program_s": own("sim.program", everything),
        "sim.cache.compile_hits": counted("sim.cache.compile_hits") / n,
        "sim.golden_s": own("sim.golden") / n,
        "sim.grade_s": own("sim.grade") / n,
        "sim.us_per_fault.seu": own("sim.grade") / graded * 1e6 if graded else 0.0,
        "sim.parallel.self_s": own("sim.parallel.grade_faults") / n,
        "run.transport.worker_busy_s": busy / n,
        "run.transport.wait_s": (total("run.transport.grade_windows") - busy) / n,
        "run.store.open_s": own("run.store.open") / n,
        "run.store.append_s": own("run.store.append") / n,
        "run.store.bytes": counted("run.store.bytes") / n,
        "run.runner.grade_self_s": own("run.runner.grade") / n,
        "emu.campaign.accounting_s": own("emu.campaign.run_campaign") / n,
        "faults.dictionary_s": own("faults.dictionary") / n,
        "sim.parallel.digest_s": own("sim.parallel.digest") / n,
        "service.db.record_outcomes_s": own("service.db.record_outcomes") / n,
        "service.db.record_shards_s": own("service.db.record_shards") / n,
        "service.db.rows_per_campaign": rows.get("rows", 0.0),
        "service.db.bytes_per_campaign": rows.get("db_bytes", 0.0),
        "service.db.query_s": read_db / len(reads) if reads and read_db else 0.0,
        "service.executor.queue_wait_s": rows.get("queue_wait_s", 0.0),
        "service.executor.run_s": rows.get("run_s", 0.0),
        "service.app.http_s": (sum(reads) - read_db) / len(reads) if reads and read_db else 0.0,
        "trace.overhead_s": overhead_s,
    }
    return {name: metrics[name] for name in layer_names()}


def render_layers(workload: str, metrics: Dict[str, float], ops: int) -> str:
    """The per-layer table: one row per metric, with what it moves."""
    lines = [
        f"per-layer table: {workload} (traced window, {ops} campaign ops; "
        "times are self time per op unless marked total)",
        f"{'layer':>5}  {'metric':<34} {'value':>14}  {'unit':<6} moves",
    ]
    for layer, name, unit, _, moves in LAYER_METRICS:
        value = metrics[name]
        note = " (total)" if name in ("sim.compile_s", "sim.program_s") else ""
        lines.append(
            f"{layer or '-':>5}  {name:<34} {value:>14.6g}  {unit:<6} {moves}{note}"
        )
    return "\n".join(lines)


def render_e2e(workload: str, metrics: Dict[str, float], counts: Dict[str, int],
               error_rate: float) -> str:
    """The end-to-end summary, with the sample count behind each
    percentile."""
    lines = [f"end-to-end: {workload}"]
    units = dict(E2E_METRICS)
    for name, value in metrics.items():
        kind = "campaign" if name.startswith("campaign") else (
            "query" if name.startswith("query") else None)
        samples = f"  (n={counts[kind]})" if kind else ""
        lines.append(f"  {name:<16} {value:>14.6g} {units[name]}{samples}")
    lines.append(f"  {'error_rate':<16} {error_rate:>14.6g} ratio")
    return "\n".join(lines)


def result_line(correct: bool, attempted: int, failed: int,
                metrics: Dict[str, float], units: Dict[str, str]) -> Dict:
    """The final JSON object the command prints."""
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }


def units() -> Dict[str, str]:
    table = dict(E2E_METRICS)
    table.update({name: unit for _, name, unit, _, _ in LAYER_METRICS})
    return table


def layer_names() -> List[str]:
    return [name for _, name, _, _, _ in LAYER_METRICS]
