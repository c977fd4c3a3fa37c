"""The ``python -m repro`` command line.

The subcommands replace the plumbing the example scripts used to carry:

* ``run``    — one campaign: build a spec, grade it sharded (resuming
  from ``runs/<campaign-id>/`` when present), print the paper-style
  summary and cycle breakdown. Sampled campaigns (``--sample`` /
  ``--ci-target``) additionally report per-class confidence intervals.
* ``sweep``  — circuits x techniques x engines; renders a Table-2-style
  table per circuit (with the paper's reference numbers for b14 at
  paper scale) from one shared oracle per circuit.
* ``report`` — the full paper reproduction (Tables 1-2, classification,
  speedup, Figure 1, optional crossover) for any registered circuit;
  ``--hardness`` renders the plain-vs-hardened classification table
  (``eval/hardness.py``) instead.
* ``harden`` — apply a :mod:`repro.hardening` transform (TMR / DWC /
  parity) to a circuit and report, or save, the protected netlist.
* ``optimize`` — the selective-hardening design-space explorer
  (:mod:`repro.optimize`): search flop subsets and mixed schemes under
  an area budget / target rate and print the seeded Pareto front of
  failure rate vs LUT/FF overhead (``--json`` for machines).
* ``sampling-error`` — sampled vs exhaustive classification rates with
  interval-coverage checks (``eval/sampling_error.py``).
* ``circuits`` — every registered + corpus circuit with its size
  statistics (``--json`` for machines).
* ``bench``  — every engine and the sharded runner timed on one campaign;
  ``--json`` appends to ``BENCH_oracle.json``, ``--check`` gates against it.
* ``worker`` — a shard-grading daemon (``--listen HOST:PORT``) that
  ``run``/``sweep`` on another host dispatch to via ``--hosts``.
* ``workers ping`` — fleet liveness, cache warmth and kernel flags for
  a ``--hosts`` list (``--json`` for machines; exit 1 on any down host).
* ``serve`` — the long-running campaign service: HTTP+JSON submission
  API, bounded queue, SQLite results index and HTML dashboard
  (``docs/service.md``).
* ``db``     — results-database maintenance: ``db import`` indexes the
  JSONL stores into SQLite losslessly, ``db info`` prints row counts.
* ``query``  — cross-campaign aggregates from the SQLite index
  (per-flop failure rates, per-circuit class breakdowns).

Every subcommand accepts the spec fields as flags — including
``--fault-model`` (seu, mbu:<k>, stuck_at_0/1, intermittent[:p:d]) and
``--sampling`` (uniform / stratified) — so any campaign the library can
describe can be launched, resumed and reported from the shell::

    python -m repro run --circuit b04 --technique time_multiplexed
    python -m repro run --circuit b04 --fault-model stuck_at_1 --sample 500
    python -m repro run --circuit hardened:tmr:b04 --sample 500
    python -m repro report --hardness --circuit b04
    python -m repro harden --circuit b04 --scheme tmr -o b04_tmr.bnet
    python -m repro optimize --circuit b04 --max-ff-overhead 100
    python -m repro run --circuit b04 --hardening tmr --hardening-flops 'ff$a+ff$b'
    python -m repro run --circuit b14 --sample 500 --ci-target 0.03
    python -m repro sweep --circuits b14 --workers 4
    python -m repro report --circuit b09 --no-crossover
    python -m repro sampling-error --circuits b04 b06
    python -m repro bench --workers 1 2 --check BENCH_oracle.json
    python -m repro worker --listen 0.0.0.0:7400        # on each host
    python -m repro run --circuit b14 --hosts a:7400,b:7400
    python -m repro workers ping --hosts a:7400,b:7400 --json
    python -m repro serve --listen 127.0.0.1:8780
    python -m repro db import && python -m repro query flops --circuit b14
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import List, Optional

from repro.emu.board import BOARDS
from repro.emu.instrument import TECHNIQUES
from repro.errors import ReproError
from repro.hardening import available_schemes
from repro.faults.classify import FaultClass
from repro.faults.models import DEFAULT_FAULT_MODEL, available_models
from repro.faults.sampling import (
    CI_METHODS,
    SAMPLING_METHODS,
    SampleEstimate,
)
from repro.run.runner import CampaignRunner, default_pool_workers
from repro.run.spec import TESTBENCH_KINDS, CampaignSpec
from repro.sim.backends import available_engines
from repro.sim.parallel import DEFAULT_BACKEND

DEFAULT_STORE_ROOT = "runs"


# ----------------------------------------------------------------------
# argument plumbing
# ----------------------------------------------------------------------
def _add_spec_arguments(parser: argparse.ArgumentParser, single: bool) -> None:
    """Flags mapping 1:1 onto CampaignSpec fields.

    ``single`` selects one-campaign form (``--circuit``/``--technique``)
    vs sweep form (``--circuits``/``--techniques``/``--engines``).
    """
    if single:
        parser.add_argument(
            "--circuit",
            default="b14",
            help="registered circuit name (also corpus:<name> or "
            "file:<path> for imported netlists)",
        )
        parser.add_argument(
            "--technique",
            default="time_multiplexed",
            choices=TECHNIQUES,
            help="autonomous emulation technique",
        )
        parser.add_argument(
            "--engine",
            default=DEFAULT_BACKEND,
            choices=sorted(available_engines()),
            help="fault-grading backend",
        )
    else:
        parser.add_argument(
            "--circuits",
            nargs="+",
            default=["b14"],
            help="registered circuit names to sweep",
        )
        parser.add_argument(
            "--techniques",
            nargs="+",
            default=list(TECHNIQUES),
            choices=TECHNIQUES,
            help="techniques to sweep",
        )
        parser.add_argument(
            "--engines",
            nargs="+",
            default=[DEFAULT_BACKEND],
            choices=sorted(available_engines()),
            help="grading backends to sweep",
        )
    parser.add_argument(
        "--cycles",
        type=int,
        default=None,
        help="testbench length (default: the circuit's paper/default length)",
    )
    parser.add_argument(
        "--testbench",
        default="auto",
        choices=TESTBENCH_KINDS,
        help="stimulus generator",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--fault-model",
        default=DEFAULT_FAULT_MODEL,
        help="fault model to inject: " + ", ".join(available_models()),
    )
    parser.add_argument(
        "--sample",
        type=int,
        default=None,
        help="grade a deterministic fault sample instead of the complete set",
    )
    parser.add_argument(
        "--sampling",
        default="uniform",
        choices=SAMPLING_METHODS,
        help="how --sample draws faults (stratified = proportional per flop)",
    )
    parser.add_argument("--scan-chains", type=int, default=1)
    parser.add_argument(
        "--board", default="rc1000", choices=sorted(BOARDS)
    )
    parser.add_argument(
        "--hardening",
        default=None,
        choices=available_schemes(),
        help="protect the circuit with a hardening scheme before grading "
        "(equivalent to naming the circuit hardened:<scheme>:<name>)",
    )
    parser.add_argument(
        "--hardening-flops",
        default=None,
        metavar="FLOP[+FLOP...]",
        help="restrict --hardening to a flop subset (selective hardening; "
        "equivalent to the hardened:<scheme>@<flop>+<flop>:<name> spelling)",
    )


def _add_runner_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="grading threads (>=2 grades shards on an in-process thread pool)",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=None,
        help="shard count (default: 4 per worker)",
    )
    parser.add_argument(
        "--store",
        default=DEFAULT_STORE_ROOT,
        help=f"results-store root (default: {DEFAULT_STORE_ROOT}/)",
    )
    parser.add_argument(
        "--no-store",
        action="store_true",
        help="do not persist shards (disables resume)",
    )
    parser.add_argument(
        "--no-resume",
        action="store_true",
        help="ignore completed shards in the store and regrade",
    )
    parser.add_argument(
        "--transport",
        default=None,
        help="shard transport: serial, local, or tcp (default: tcp when "
        "--hosts is given, local when --workers >= 2, else serial)",
    )
    parser.add_argument(
        "--hosts",
        default=None,
        metavar="HOST:PORT,...",
        help="remote `repro worker` daemons to grade on (enables the tcp "
        "transport)",
    )
    parser.add_argument(
        "--shard-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="re-queue a shard whose TCP worker holds it longer than this "
        "(default: trust heartbeats alone)",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress per-shard progress"
    )


def _human_stream(args: argparse.Namespace):
    """Where human-readable lines go: stderr when stdout carries a
    ``--json`` document (a boolean flag; ``bench --json`` names a file)."""
    return sys.stderr if getattr(args, "json", None) is True else sys.stdout


def _runner_from(args: argparse.Namespace) -> CampaignRunner:
    stream = _human_stream(args)
    return CampaignRunner(
        workers=args.workers,
        shards=args.shards,
        store_root=None if args.no_store else args.store,
        resume=not args.no_resume,
        progress=(
            None
            if args.quiet
            else lambda line: print(line, file=stream, flush=True)
        ),
        transport=getattr(args, "transport", None),
        hosts=getattr(args, "hosts", None),
        shard_timeout=getattr(args, "shard_timeout", None),
    )


def _spec_from(args: argparse.Namespace) -> CampaignSpec:
    return CampaignSpec(
        circuit=args.circuit,
        technique=args.technique,
        board=args.board,
        engine=args.engine,
        num_cycles=args.cycles,
        testbench=args.testbench,
        seed=args.seed,
        sample=args.sample,
        scan_chains=args.scan_chains,
        fault_model=args.fault_model,
        sampling=args.sampling,
        hardening=args.hardening,
        hardening_flops=args.hardening_flops,
    )


def _print_estimates(
    estimates, population: int, spec: CampaignSpec, args
) -> None:
    """Per-class confidence intervals of a sampled campaign."""
    stream = _human_stream(args)
    trials = next(iter(estimates.values())).trials
    print(
        f"  sampled {trials}/{population} {spec.fault_model} faults "
        f"({spec.sampling}, {args.ci_method} @"
        f"{int(args.confidence * 100)}%):",
        file=stream,
    )
    for fault_class in FaultClass:
        print(
            f"    {fault_class.value:>8}: {estimates[fault_class].describe()}",
            file=stream,
        )


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------
def _cmd_run(args: argparse.Namespace) -> int:
    spec = _spec_from(args)
    runner = _runner_from(args)
    started = time.perf_counter()
    estimates = None
    adaptive_rounds = None
    if args.ci_target is not None:
        adaptive = runner.run_adaptive(
            spec,
            target_half_width=args.ci_target,
            confidence=args.confidence,
            ci_method=args.ci_method,
        )
        spec = adaptive.spec
        estimates = adaptive.estimates
        adaptive_rounds = adaptive.rounds
        oracle = adaptive.oracle
        result = runner.run(spec, oracle=oracle)
    else:
        oracle = runner.grade(spec)
        result = runner.run(spec, oracle=oracle)
    elapsed = time.perf_counter() - started
    breakdown = result.breakdown
    stream = _human_stream(args)
    print(result.summary(), file=stream)
    print(
        f"  cycles: prologue={breakdown.prologue:,} setup={breakdown.setup:,} "
        f"run={breakdown.run:,} readback={breakdown.readback:,}"
        + "".join(
            f" {key}={value:,}" for key, value in breakdown.extra.items()
        ),
        file=stream,
    )
    population = None
    if spec.sample is not None or estimates is not None:
        from repro.run import worker

        population = spec.population_size(worker.scenario_for(spec).netlist)
        if estimates is None:
            estimates = {
                fault_class: SampleEstimate(
                    successes=count,
                    trials=result.num_faults,
                    confidence=args.confidence,
                    method=args.ci_method,
                )
                for fault_class, count in result.dictionary.counts().items()
            }
        _print_estimates(estimates, population, spec, args)
        if adaptive_rounds is not None:
            trail = " -> ".join(
                f"{count} ({width:.4f})" for count, width in adaptive_rounds
            )
            print(
                f"  adaptive: target half-width {args.ci_target:.4f}, "
                f"rounds {trail}",
                file=stream,
            )
    if not args.no_store:
        print(
            f"  store: {os.path.join(args.store, spec.campaign_id)}",
            file=stream,
        )
    print(
        f"  wall clock: {elapsed:.3f}s ({args.workers} worker(s))",
        file=stream,
    )
    if args.json:
        payload = {
            "spec": spec.to_dict(),
            "campaign_id": spec.campaign_id,
            "transport": runner.transport_name,
            "oracle_digest": oracle.outcome_digest(),
            "total_cycles": result.total_cycles,
            "emulation_ms": result.timing.milliseconds,
            "us_per_fault": result.timing.us_per_fault,
            "classification": {
                verdict.value: count
                for verdict, count in result.dictionary.counts().items()
            },
            "wall_seconds": round(elapsed, 4),
        }
        if estimates is not None:
            payload["population"] = population
            payload["estimates"] = {
                fault_class.value: {
                    "proportion": round(estimate.proportion, 6),
                    "interval": [round(v, 6) for v in estimate.interval],
                    "confidence": estimate.confidence,
                    "method": estimate.method,
                }
                for fault_class, estimate in estimates.items()
            }
        if adaptive_rounds is not None:
            payload["adaptive_rounds"] = [
                [count, round(width, 6)] for count, width in adaptive_rounds
            ]
        print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.eval.paper import PAPER_TABLE2
    from repro.util.tables import Table

    if len(set(args.engines)) > 1 and not args.no_store:
        # The store is keyed by the oracle (engines are bit-identical),
        # so a stored campaign would satisfy every engine without the
        # later ones ever running; grade fresh so each engine really
        # does the work it is labelled with.
        print("multi-engine sweep: store disabled so every engine grades")
        args.no_store = True
    runner = _runner_from(args)
    for circuit in args.circuits:
        specs = CampaignSpec.matrix(
            circuits=[circuit],
            techniques=args.techniques,
            engines=args.engines,
            board=args.board,
            num_cycles=args.cycles,
            testbench=args.testbench,
            seed=args.seed,
            sample=args.sample,
            scan_chains=args.scan_chains,
            fault_model=args.fault_model,
            sampling=args.sampling,
            hardening=args.hardening,
            hardening_flops=args.hardening_flops,
        )
        results = runner.sweep(specs)
        table = Table(
            ["technique", "engine", "emulation time (ms)",
             "avg speed (us/fault)", "cycles/fault"],
            title=(
                f"Sweep — {specs[0].effective_circuit} "
                f"({results[0].num_faults} faults, "
                f"{results[0].num_cycles} cycles)"
            ),
        )
        for spec, result in zip(specs, results):
            table.add_row(
                [
                    spec.technique,
                    spec.engine,
                    f"{result.timing.milliseconds:.2f}",
                    f"{result.timing.us_per_fault:.2f}",
                    f"{result.timing.cycles_per_fault:.1f}",
                ]
            )
        print(table.render())
        at_paper_scale = (
            circuit == "b14"
            and args.cycles in (None, 160)
            and args.sample is None
            and args.fault_model == "seu"
            and args.testbench in ("auto", "program")
            and args.seed == 0
        )
        if at_paper_scale:
            print("\npaper reference (Table 2):")
            for technique in args.techniques:
                ref = PAPER_TABLE2[technique]
                print(
                    f"  {technique}: {ref['emulation_ms']:.2f} ms, "
                    f"{ref['us_per_fault']:.2f} us/fault"
                )
        print()
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    if args.hardness:
        return _cmd_report_hardness(args)
    from repro.eval.experiments import ExperimentContext, run_all_experiments

    context = ExperimentContext(
        circuit=args.circuit,
        seed=args.seed,
        engine=args.engine,
        include_crossover=not args.no_crossover,
        workers=args.workers,
        shards=args.shards,
        store_root=None if args.no_store else args.store,
        resume=not args.no_resume,
        progress=None if args.quiet else lambda line: print(line, flush=True),
        num_cycles=args.cycles,
    )
    report = run_all_experiments(context)
    print(report.render())
    if report.crossover is not None:
        print("\npaper claim checks:")
        for claim, holds in report.crossover.paper_claims_hold().items():
            print(f"  {claim}: {'HOLDS' if holds else 'VIOLATED'}")
    fastest = report.table2.fastest()
    print(
        f"  fastest technique on {args.circuit}: {fastest} "
        f"({'matches paper' if fastest == 'time_multiplexed' else 'differs!'})"
    )
    return 0


def _cmd_report_hardness(args: argparse.Namespace) -> int:
    from repro.eval.hardness import (
        DEFAULT_FAULT_MODELS,
        DEFAULT_SCHEMES,
        run_hardness_experiment,
    )

    runner = _runner_from(args)
    report = run_hardness_experiment(
        args.circuit,
        schemes=args.schemes or DEFAULT_SCHEMES,
        fault_models=args.fault_models or DEFAULT_FAULT_MODELS,
        engine=args.engine,
        seed=args.seed,
        num_cycles=args.cycles,
        sample=args.sample,
        runner=runner,
    )
    print(report.render())
    return 0


def _cmd_harden(args: argparse.Namespace) -> int:
    from repro.circuits.registry import build_circuit
    from repro.hardening import apply_hardening
    from repro.netlist.textio import dumps_netlist
    from repro.synth.area import area_of

    plain = build_circuit(args.circuit)
    hardened = apply_hardening(args.scheme, plain, flops=args.flops)
    plain_area, hardened_area = area_of(plain), area_of(hardened)
    overhead = hardened_area.overhead_vs(plain_area)

    def _pct_text(pct: Optional[float]) -> str:
        # None = undefined overhead (zero-resource baseline); see area._pct
        return "n/a" if pct is None else f"{pct:+.0f}%"

    if args.output is not None:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(dumps_netlist(hardened))
    if args.json:
        print(
            json.dumps(
                {
                    "circuit": args.circuit,
                    "scheme": args.scheme,
                    "hardened_name": hardened.name,
                    "flops": {"plain": plain.num_ffs, "hardened": hardened.num_ffs},
                    "gates": {"plain": plain.num_gates, "hardened": hardened.num_gates},
                    "luts": {"plain": plain_area.luts, "hardened": hardened_area.luts},
                    "lut_overhead_pct": (
                        None
                        if overhead.lut_overhead_pct is None
                        else round(overhead.lut_overhead_pct, 2)
                    ),
                    "ff_overhead_pct": (
                        None
                        if overhead.ff_overhead_pct is None
                        else round(overhead.ff_overhead_pct, 2)
                    ),
                    "output": args.output,
                },
                indent=2,
                sort_keys=True,
            )
        )
        return 0
    protected = "all flops" if args.flops is None else f"{len(args.flops)} flops"
    print(
        f"{args.scheme} on {args.circuit} ({protected}): "
        f"{plain.num_ffs} -> {hardened.num_ffs} FFs, "
        f"{plain.num_gates} -> {hardened.num_gates} gates, "
        f"{plain_area.luts} -> {hardened_area.luts} LUTs "
        f"({_pct_text(overhead.lut_overhead_pct)} LUTs, "
        f"{_pct_text(overhead.ff_overhead_pct)} FFs)"
    )
    if args.output is not None:
        print(f"wrote {args.output}")
    else:
        print("(pass -o <path.bnet> to save the hardened netlist)")
    return 0


def _pct_value(text: str) -> float:
    """Budget flag value: ``50``, ``50%`` and ``50.5%`` all mean 50(.5)."""
    try:
        return float(text.rstrip("%"))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a percentage (e.g. 50 or 50%), got {text!r}"
        ) from None


def _cmd_optimize(args: argparse.Namespace) -> int:
    from repro.optimize import Evaluator, SearchConfig, explore, pareto_report

    sample = args.sample
    if sample is None and args.adaptive_half_width is None:
        # Exhaustive grading of every candidate is pointlessly slow on
        # anything bigger than the toy circuits; default to the sampled
        # evaluation the acceptance bar (and CI smoke) uses.
        sample = 200
    base = CampaignSpec(
        circuit=args.circuit,
        technique="time_multiplexed",  # does not affect grading outcomes
        engine=args.engine,
        num_cycles=args.cycles,
        testbench=args.testbench,
        seed=args.seed,
        sample=sample,
        fault_model=args.fault_model,
        sampling=args.sampling,
    )
    config = SearchConfig(
        schemes=tuple(args.schemes),
        mixed_scheme=(
            None if args.mixed_scheme == "none" else args.mixed_scheme
        ),
        max_ff_overhead=args.max_ff_overhead,
        max_lut_overhead=args.max_lut_overhead,
        target_rate=args.target_rate,
        sa_iterations=args.sa_iterations,
        seed=args.seed,
    )
    runner = _runner_from(args)
    evaluator = Evaluator(
        base, runner, adaptive_half_width=args.adaptive_half_width
    )
    result = explore(evaluator, config)
    report = pareto_report(base, result)
    if args.json:
        print(json.dumps(report.to_json(), indent=2, sort_keys=True))
        return 0
    print(report.render())
    return 0


def _cmd_sampling_error(args: argparse.Namespace) -> int:
    from repro.eval.sampling_error import sampling_error_report

    runner = _runner_from(args)
    report = sampling_error_report(
        circuits=args.circuits,
        samples=args.samples,
        fault_model=args.fault_model,
        sampling=args.sampling,
        seed=args.seed,
        num_cycles=args.cycles,
        confidence=args.confidence,
        ci_method=args.ci_method,
        runner=runner,
    )
    print(report.render())
    return 0


def _cmd_circuits(args: argparse.Namespace) -> int:
    from repro.circuits.registry import available_circuits, build_circuit
    from repro.frontend.corpus import corpus_names
    from repro.netlist.stats import netlist_stats
    from repro.util.tables import Table

    names = list(available_circuits())
    names += [f"corpus:{name}" for name in corpus_names()]
    rows = []
    for name in names:
        stats = netlist_stats(build_circuit(name))
        rows.append(
            {
                "circuit": name,
                "inputs": stats.num_inputs,
                "outputs": stats.num_outputs,
                "gates": stats.num_gates,
                "flops": stats.num_ffs,
                "depth": stats.logic_depth,
                "max_fanout": stats.max_fanout,
            }
        )
    if args.json:
        print(json.dumps(rows, indent=2, sort_keys=True))
        return 0
    table = Table(
        ["circuit", "inputs", "outputs", "gates", "flops", "depth",
         "max fanout"],
        title="Registered + corpus circuits",
    )
    for row in rows:
        table.add_row(
            [row["circuit"], row["inputs"], row["outputs"], row["gates"],
             row["flops"], row["depth"], row["max_fanout"]]
        )
    print(table.render())
    print(
        "\nparameterized families: proc:<flops>, corpus:<name>, "
        "file:<path> (.bench / .blif / .bnet), hardened:<scheme>:<circuit> "
        "(schemes: " + ", ".join(available_schemes()) + ")"
    )
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.run.bench import run_bench

    return run_bench(_spec_from(args), args.workers_list, args.shards,
                     args.repeats, args.json, args.check)


def _cmd_worker(args: argparse.Namespace) -> int:
    from repro.run.transport.daemon import WorkerDaemon
    from repro.run.transport.wire import parse_host_port

    host, port = parse_host_port(args.listen)
    daemon = WorkerDaemon(host=host, port=port, quiet=args.quiet)
    try:
        daemon.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        daemon.shutdown()
    return 0


def _cmd_workers_ping(args: argparse.Namespace) -> int:
    from repro.run.transport.tcp import ping_hosts
    from repro.util.tables import Table

    statuses = ping_hosts(args.hosts, timeout=args.timeout)
    if args.json:
        print(json.dumps(statuses, indent=2, sort_keys=True))
        return 0 if all(status["alive"] for status in statuses) else 1
    table = Table(
        ["host", "state", "rtt (ms)", "kernel", "campaigns", "digest h/m",
         "shards", "uptime (s)"],
        title=f"Worker fleet ({len(statuses)} host(s))",
    )
    for status in statuses:
        if not status["alive"]:
            table.add_row(
                [status["host"], f"DOWN ({status['error']})",
                 "-", "-", "-", "-", "-", "-"]
            )
            continue
        kernel = status.get("kernel", {})
        kernel_text = "native" if kernel.get("native") else "python"
        table.add_row(
            [
                status["host"],
                "up",
                f"{status['rtt_ms']:.2f}",
                kernel_text,
                len(status.get("campaigns_cached", [])),
                f"{status.get('digest_hits', 0)}/"
                f"{status.get('digest_misses', 0)}",
                status.get("shards_graded", 0),
                f"{status.get('uptime_s', 0):.0f}",
            ]
        )
    print(table.render())
    down = [status["host"] for status in statuses if not status["alive"]]
    if down:
        print(f"\n{len(down)} worker(s) unreachable: {', '.join(down)}")
        return 1
    return 0


def _default_db_path(args: argparse.Namespace) -> str:
    from repro.service.db import DEFAULT_DB_FILENAME

    if getattr(args, "db", None):
        return args.db
    return os.path.join(args.store, DEFAULT_DB_FILENAME)


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.run.transport.wire import parse_host_port
    from repro.service.app import CampaignService

    if args.no_store:
        print(
            "error: the service requires a results store (--no-store is "
            "incompatible with serve); the JSONL store is the durability "
            "layer the database indexes",
            file=sys.stderr,
        )
        return 1
    host, port = parse_host_port(args.listen)
    runner = CampaignRunner(
        workers=args.workers,
        shards=args.shards,
        store_root=args.store,
        resume=not args.no_resume,
        progress=None if args.quiet else lambda line: print(line, flush=True),
        transport=args.transport,
        hosts=args.hosts,
        shard_timeout=args.shard_timeout,
    )
    db_path = _default_db_path(args)
    service = CampaignService(
        db_path,
        runner,
        host=host,
        port=port,
        queue_limit=args.queue_limit,
        verbose=not args.quiet,
    )
    print(
        f"repro serve listening on {service.host}:{service.port}", flush=True
    )
    print(
        f"  store: {args.store}/  db: {db_path}  "
        f"transport: {runner.transport_name}",
        flush=True,
    )
    try:
        service.serve_forever()
    finally:
        runner.close()
    return 0


def _cmd_db_import(args: argparse.Namespace) -> int:
    from repro.service.db import ResultsDB

    with ResultsDB(_default_db_path(args)) as db:
        results = db.import_root(args.store)
        counts = db.counts()
    if args.json:
        print(json.dumps({"stores": results, "counts": counts}, indent=2))
        return 0
    if not results:
        print(f"no campaign stores under {args.store}/")
        return 0
    for result in results:
        if result["action"] == "imported":
            print(
                f"  imported {result['campaign_id']}: "
                f"{result['faults']} faults in {result['shards']} shards"
            )
        elif result["action"] == "exists":
            print(f"  skipped  {result['campaign_id']}: {result['reason']}")
        else:
            print(f"  refused  {result['campaign_id']}: {result['reason']}")
    print(
        f"database {_default_db_path(args)}: "
        f"{counts['campaigns']} campaigns, {counts['flop_outcomes']:,} "
        "per-flop outcome rows"
    )
    return 0


def _cmd_db_info(args: argparse.Namespace) -> int:
    from repro.service.db import SCHEMA_VERSION, ResultsDB

    path = _default_db_path(args)
    with ResultsDB(path) as db:
        counts = db.counts()
    payload = {
        "path": path,
        "schema_version": SCHEMA_VERSION,
        "counts": counts,
    }
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(f"{path}: schema v{SCHEMA_VERSION}")
    for table, count in counts.items():
        print(f"  {table}: {count:,}")
    return 0


def _cmd_query_flops(args: argparse.Namespace) -> int:
    from repro.service.db import ResultsDB
    from repro.util.tables import Table

    with ResultsDB(_default_db_path(args)) as db:
        rows = db.flop_failure_rates(
            circuit=args.circuit,
            fault_model=args.fault_model,
            limit=args.limit,
            mode=args.mode,
        )
    if args.json:
        print(json.dumps(rows, indent=2))
        return 0
    scope = f"circuit {args.circuit}" if args.circuit else "all circuits"
    if args.mode is not None:
        scope += f", {args.mode} campaigns only"
    table = Table(
        ["flop", "campaigns", "faults", "failures", "failure rate"],
        title=f"Per-flop failure rate across campaigns ({scope})",
    )
    mixed = False
    for row in rows:
        flop = row["flop"]
        if row["mixed_pool"]:
            mixed = True
            flop += " *"
        table.add_row(
            [flop, row["campaigns"], row["faults"], row["failures"],
             f"{row['failure_rate']:.4f}"]
        )
    print(table.render())
    if mixed:
        print(
            "  * pools sampled and exhaustive campaigns with equal per-fault "
            "weight; scope with --mode sampled|exhaustive for unbiased rates"
        )
    return 0


def _cmd_query_classes(args: argparse.Namespace) -> int:
    from repro.service.db import ResultsDB
    from repro.util.tables import Table

    with ResultsDB(_default_db_path(args)) as db:
        rows = db.class_breakdown(group=args.group)
    if args.json:
        print(json.dumps(rows, indent=2))
        return 0
    table = Table(
        [args.group, "campaigns", "faults", "failures", "latent", "silent",
         "failure rate"],
        title=f"Outcome classes by {args.group}, across campaigns",
    )
    for row in rows:
        table.add_row(
            [row["grp"], row["campaigns"], row["faults"], row["failures"],
             row["latent"], row["silent"], f"{row['failure_rate']:.4f}"]
        )
    print(table.render())
    return 0


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Campaign orchestration for the autonomous-emulation "
        "reproduction.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run_parser = commands.add_parser(
        "run", help="run one campaign (sharded, resumable)"
    )
    _add_spec_arguments(run_parser, single=True)
    _add_runner_arguments(run_parser)
    run_parser.add_argument(
        "--ci-target",
        type=float,
        default=None,
        metavar="HALF_WIDTH",
        help="adaptive sampling: grow the sample until every class "
        "interval's half-width is at most this (e.g. 0.03)",
    )
    run_parser.add_argument(
        "--ci-method",
        default="wilson",
        choices=CI_METHODS,
        help="confidence-interval construction for sampled campaigns",
    )
    run_parser.add_argument(
        "--confidence",
        type=float,
        default=0.95,
        help="confidence level for sampled-campaign intervals",
    )
    run_parser.add_argument(
        "--json",
        action="store_true",
        help="print a JSON record on stdout (human lines go to stderr)",
    )
    run_parser.set_defaults(func=_cmd_run)

    sweep_parser = commands.add_parser(
        "sweep", help="sweep circuits x techniques x engines"
    )
    _add_spec_arguments(sweep_parser, single=False)
    _add_runner_arguments(sweep_parser)
    # sweeps default to the sharded pool (run stays serial by default)
    sweep_parser.set_defaults(
        func=_cmd_sweep, workers=default_pool_workers()
    )

    report_parser = commands.add_parser(
        "report",
        help="full paper reproduction for one circuit (--hardness: "
        "plain-vs-hardened classification table instead)",
    )
    report_parser.add_argument("--circuit", default="b14")
    report_parser.add_argument(
        "--engine", default=DEFAULT_BACKEND,
        choices=sorted(available_engines()),
    )
    report_parser.add_argument("--cycles", type=int, default=None)
    report_parser.add_argument("--seed", type=int, default=0)
    report_parser.add_argument("--no-crossover", action="store_true")
    report_parser.add_argument(
        "--hardness",
        action="store_true",
        help="render the hardness-evaluation report: per-fault-model "
        "classification rates plain vs hardened, plus area overhead",
    )
    report_parser.add_argument(
        "--schemes",
        nargs="+",
        default=None,
        choices=available_schemes(),
        help="hardening schemes the --hardness report compares",
    )
    report_parser.add_argument(
        "--fault-models",
        nargs="+",
        default=None,
        help="fault models the --hardness report grades "
        "(default: seu, mbu:2, stuck_at_1)",
    )
    report_parser.add_argument(
        "--sample",
        type=int,
        default=None,
        help="sample size per --hardness campaign (default: exhaustive)",
    )
    _add_runner_arguments(report_parser)
    report_parser.set_defaults(func=_cmd_report)

    harden_parser = commands.add_parser(
        "harden",
        help="apply a hardening transform and report (or save) the result",
    )
    harden_parser.add_argument(
        "--circuit", default="b04",
        help="registered circuit name (also corpus:<name>, file:<path>)",
    )
    harden_parser.add_argument(
        "--scheme", required=True, choices=available_schemes(),
        help="hardening transform to apply",
    )
    harden_parser.add_argument(
        "--flops", nargs="+", default=None,
        help="flip-flop names to protect (default: all)",
    )
    harden_parser.add_argument(
        "-o", "--output", default=None,
        help="write the hardened netlist to this .bnet file",
    )
    harden_parser.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    harden_parser.set_defaults(func=_cmd_harden)

    optimize_parser = commands.add_parser(
        "optimize",
        help="search flop subsets / mixed schemes for the best "
        "protection-vs-area trade-off (Pareto front)",
    )
    optimize_parser.add_argument(
        "--circuit", default="b04",
        help="plain circuit to protect (also corpus:<name>, file:<path>)",
    )
    optimize_parser.add_argument(
        "--engine",
        default=DEFAULT_BACKEND,
        choices=sorted(available_engines()),
        help="fault-grading backend",
    )
    optimize_parser.add_argument("--cycles", type=int, default=None)
    optimize_parser.add_argument(
        "--testbench", default="auto", choices=TESTBENCH_KINDS
    )
    optimize_parser.add_argument("--seed", type=int, default=0)
    optimize_parser.add_argument(
        "--fault-model", default=DEFAULT_FAULT_MODEL,
        help="fault model to inject: " + ", ".join(available_models()),
    )
    optimize_parser.add_argument(
        "--sample", type=int, default=None,
        help="faults graded per candidate point (default: 200; the "
        "ranking campaign always grades stratified)",
    )
    optimize_parser.add_argument(
        "--sampling", default="uniform", choices=SAMPLING_METHODS,
        help="how candidate-point campaigns draw their sample",
    )
    optimize_parser.add_argument(
        "--adaptive-half-width", type=float, default=None, metavar="W",
        help="grade each point adaptively until the failure-rate 95%% "
        "interval half-width reaches W (e.g. 0.03) instead of one "
        "fixed-size sample",
    )
    optimize_parser.add_argument(
        "--schemes", nargs="+", default=["tmr"],
        choices=available_schemes(),
        help="masking scheme(s) searched over flop subsets",
    )
    optimize_parser.add_argument(
        "--mixed-scheme", default="parity",
        choices=[*available_schemes(), "none"],
        help="detection scheme layered under the masking prefix in mixed "
        "points (none disables mixed stacks)",
    )
    optimize_parser.add_argument(
        "--max-ff-overhead", "--budget-ffs", type=_pct_value, default=None,
        metavar="PCT",
        help="FF-overhead budget vs the plain circuit (50 or 50%%)",
    )
    optimize_parser.add_argument(
        "--max-lut-overhead", "--budget-luts", type=_pct_value, default=None,
        metavar="PCT",
        help="LUT-overhead budget vs the plain circuit",
    )
    optimize_parser.add_argument(
        "--target-rate", type=_pct_value, default=None, metavar="PCT",
        help="pick the cheapest point at or below this failure rate "
        "instead of the lowest-rate point in budget",
    )
    optimize_parser.add_argument(
        "--sa-iterations", type=int, default=40,
        help="simulated-annealing refinement steps (0 disables)",
    )
    optimize_parser.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    _add_runner_arguments(optimize_parser)
    optimize_parser.set_defaults(func=_cmd_optimize)

    sampling_parser = commands.add_parser(
        "sampling-error",
        help="table: sampled vs exhaustive classification rates",
    )
    sampling_parser.add_argument(
        "--circuits",
        nargs="+",
        default=["b04", "b06", "b14"],
        help="registered circuits to compare on",
    )
    sampling_parser.add_argument(
        "--samples",
        type=int,
        nargs="+",
        default=[200, 500, 1000],
        help="sample sizes to grade against the exhaustive campaign",
    )
    sampling_parser.add_argument(
        "--fault-model", default=DEFAULT_FAULT_MODEL,
        help="fault model to inject",
    )
    sampling_parser.add_argument(
        "--sampling", default="uniform", choices=SAMPLING_METHODS
    )
    sampling_parser.add_argument("--cycles", type=int, default=None)
    sampling_parser.add_argument("--seed", type=int, default=0)
    sampling_parser.add_argument(
        "--ci-method", default="wilson", choices=CI_METHODS
    )
    sampling_parser.add_argument("--confidence", type=float, default=0.95)
    _add_runner_arguments(sampling_parser)
    sampling_parser.set_defaults(func=_cmd_sampling_error)

    circuits_parser = commands.add_parser(
        "circuits",
        help="list registered + corpus circuits with size statistics",
    )
    circuits_parser.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    circuits_parser.set_defaults(func=_cmd_circuits)

    bench_parser = commands.add_parser(
        "bench",
        help="time every engine and the sharded runner on one campaign; "
        "append to or gate against a bench history",
    )
    _add_spec_arguments(bench_parser, single=True)
    bench_parser.add_argument(
        "--workers",
        dest="workers_list",
        type=int,
        nargs="+",
        default=[1, default_pool_workers()],
        metavar="N",
        help="worker counts for the sharded-runner rows",
    )
    bench_parser.add_argument(
        "--shards", type=int, default=None, help="shards for every row (default: 4)"
    )
    bench_parser.add_argument(
        "--repeats", type=int, default=3, help="timed passes per row; best counts"
    )
    bench_parser.add_argument(
        "--json", metavar="PATH", help="append the entry to this bench history"
    )
    bench_parser.add_argument(
        "--check", metavar="BASELINE", help="gate against this bench history "
        "without writing it (bounds in docs/performance.md); exit 1 on failure"
    )
    bench_parser.set_defaults(func=_cmd_bench)

    worker_parser = commands.add_parser(
        "worker",
        help="run a shard-grading daemon other hosts dispatch to "
        "(`repro run --hosts ...`)",
    )
    worker_parser.add_argument(
        "--listen",
        default="127.0.0.1:7400",
        metavar="HOST:PORT",
        help="listen address (port 0 binds an ephemeral port, printed on "
        "the startup line)",
    )
    worker_parser.add_argument(
        "--quiet", action="store_true", help="suppress per-event log lines"
    )
    worker_parser.set_defaults(func=_cmd_worker)

    workers_parser = commands.add_parser(
        "workers", help="manage a fleet of worker daemons"
    )
    workers_commands = workers_parser.add_subparsers(
        dest="workers_command", required=True
    )
    ping_parser = workers_commands.add_parser(
        "ping",
        help="probe fleet liveness, cache warmth and kernel flags "
        "(exit 1 if any worker is down)",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="""\
exit codes:
  0  every probed worker answered
  1  at least one worker was unreachable or timed out

--json emits a list with one object per probed host:
  host               "host:port" as given in --hosts
  alive              true when the worker answered the status probe
  error              connect/timeout detail (down hosts only)
  rtt_ms             status-probe round trip in milliseconds
  protocol           wire protocol version the worker speaks
  pid, uptime_s      worker process id and seconds since start
  kernel             {"native": bool} grading kernel
  campaigns_cached   campaign digests held in the artifact cache
  stats              lifetime counters: shards_graded, faults_graded,
                     digest_hits, digest_misses,
                     artifact_bytes_received, connections
Down hosts carry only host/alive/error; the worker-side fields are
whatever `repro worker` returned in its status reply and may grow
keys in later protocol versions.""",
    )
    ping_parser.add_argument(
        "--hosts",
        required=True,
        metavar="HOST:PORT,...",
        help="worker addresses to probe",
    )
    ping_parser.add_argument(
        "--timeout",
        type=float,
        default=5.0,
        help="per-host connect/reply timeout in seconds",
    )
    ping_parser.add_argument(
        "--json",
        action="store_true",
        help="machine-readable output (schema below); the exit code "
        "contract is unchanged",
    )
    ping_parser.set_defaults(func=_cmd_workers_ping)

    serve_parser = commands.add_parser(
        "serve",
        help="long-running campaign service: HTTP+JSON API, SQLite "
        "results index and dashboard (see docs/service.md)",
    )
    serve_parser.add_argument(
        "--listen",
        default="127.0.0.1:8780",
        metavar="HOST:PORT",
        help="listen address (port 0 binds an ephemeral port, printed on "
        "the startup line)",
    )
    serve_parser.add_argument(
        "--db",
        default=None,
        help="SQLite results database path (default: <store>/service.db)",
    )
    serve_parser.add_argument(
        "--queue-limit",
        type=int,
        default=64,
        help="max queued-but-unstarted campaigns before POST returns 503",
    )
    _add_runner_arguments(serve_parser)
    serve_parser.set_defaults(func=_cmd_serve)

    db_parser = commands.add_parser(
        "db", help="maintain the SQLite results database"
    )
    db_commands = db_parser.add_subparsers(dest="db_command", required=True)
    db_import_parser = db_commands.add_parser(
        "import",
        help="index every JSONL campaign store under --store into SQLite "
        "(lossless; skips campaigns already indexed)",
    )
    db_import_parser.add_argument(
        "--store",
        default=DEFAULT_STORE_ROOT,
        help=f"results-store root to import (default: {DEFAULT_STORE_ROOT}/)",
    )
    db_import_parser.add_argument(
        "--db",
        default=None,
        help="SQLite results database path (default: <store>/service.db)",
    )
    db_import_parser.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    db_import_parser.set_defaults(func=_cmd_db_import)
    db_info_parser = db_commands.add_parser(
        "info", help="schema version and row counts of the database"
    )
    db_info_parser.add_argument("--store", default=DEFAULT_STORE_ROOT)
    db_info_parser.add_argument("--db", default=None)
    db_info_parser.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    db_info_parser.set_defaults(func=_cmd_db_info)

    query_parser = commands.add_parser(
        "query",
        help="cross-campaign aggregates from the SQLite results database",
    )
    query_commands = query_parser.add_subparsers(
        dest="query_command", required=True
    )
    flops_parser = query_commands.add_parser(
        "flops",
        help="per-flop failure rate pooled across campaigns",
    )
    flops_parser.add_argument("--store", default=DEFAULT_STORE_ROOT)
    flops_parser.add_argument("--db", default=None)
    flops_parser.add_argument(
        "--circuit", default=None, help="restrict to one circuit"
    )
    flops_parser.add_argument(
        "--fault-model", default=None, help="restrict to one fault model"
    )
    flops_parser.add_argument(
        "--limit", type=int, default=20, help="rows to show (highest first)"
    )
    flops_parser.add_argument(
        "--mode",
        choices=("sampled", "exhaustive"),
        default=None,
        help="pool only sampled or only exhaustive campaigns (default: "
        "pool everything, flagging flops fed by both)",
    )
    flops_parser.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    flops_parser.set_defaults(func=_cmd_query_flops)
    classes_parser = query_commands.add_parser(
        "classes",
        help="failure/latent/silent totals grouped across campaigns",
    )
    classes_parser.add_argument("--store", default=DEFAULT_STORE_ROOT)
    classes_parser.add_argument("--db", default=None)
    classes_parser.add_argument(
        "--group",
        default="effective_circuit",
        choices=["effective_circuit", "circuit", "hardening", "fault_model",
                 "status", "sampling", "testbench"],
        help="campaigns column to group by (hardening = the hardened-vs-"
        "plain failure trend)",
    )
    classes_parser.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    classes_parser.set_defaults(func=_cmd_query_classes)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
