"""Run every paper experiment and render a single report.

``run_all_experiments`` is what ``python -m repro report`` and the
EXPERIMENTS.md generator call; it resolves one scenario (any registered
circuit — the paper's b14 by default), grades its complete single-fault
set once through the campaign runner (sharded and resumable when the
context asks for workers/a store), and shares that oracle across all
experiments so the whole reproduction runs in seconds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.emu.board import RC1000, BoardModel
from repro.eval.classification import (
    ClassificationResult,
    run_classification_experiment,
)
from repro.eval.context import grade_eval_scenario, resolve_scenario
from repro.eval.crossover import CrossoverResult, run_crossover_experiment
from repro.eval.figure1 import Figure1Census, run_figure1_census
from repro.eval.speedup import SpeedupResult, run_speedup_experiment
from repro.eval.table1 import Table1Result, run_table1_experiment
from repro.eval.table2 import Table2Result, run_table2_experiment
from repro.netlist.netlist import Netlist
from repro.run.runner import CampaignRunner
from repro.sim.parallel import DEFAULT_BACKEND
from repro.sim.vectors import Testbench


@dataclass
class ExperimentContext:
    """Shared configuration for a full reproduction run.

    ``circuit`` names any registered circuit (paper reference columns
    stay b14's — they are what the paper printed). Explicit ``netlist``/
    ``testbench`` objects override the name. ``engine`` selects the
    fault-grading backend used by every experiment; ``workers`` > 1
    shards the grading over in-process threads, and ``store_root`` persists
    completed shards so an interrupted reproduction resumes.
    """

    circuit: str = "b14"
    netlist: Optional[Netlist] = None
    testbench: Optional[Testbench] = None
    board: BoardModel = RC1000
    seed: int = 0
    include_crossover: bool = True
    engine: str = DEFAULT_BACKEND
    workers: int = 1
    shards: Optional[int] = None
    store_root: Optional[str] = None
    resume: bool = True
    progress: Optional[Callable[[str], None]] = None
    num_cycles: Optional[int] = None

    def runner(self) -> CampaignRunner:
        return CampaignRunner(
            workers=self.workers,
            shards=self.shards,
            store_root=self.store_root,
            resume=self.resume,
            progress=self.progress,
        )

    def resolve(self):
        """The (netlist, testbench) pair the experiments will use."""
        scenario = resolve_scenario(
            self.netlist,
            self.testbench,
            circuit=self.circuit,
            seed=self.seed,
            num_cycles=self.num_cycles,
            engine=self.engine,
        )
        return scenario.netlist, scenario.testbench


@dataclass
class FullReport:
    """All experiment results plus a rendered report."""

    table1: Table1Result
    table2: Table2Result
    classification: ClassificationResult
    speedup: SpeedupResult
    figure1: Figure1Census
    crossover: Optional[CrossoverResult] = None
    sections: list = field(default_factory=list)

    def render(self) -> str:
        parts = [
            self.table1.render(),
            self.table2.render(),
            self.classification.render(),
            self.speedup.render(),
            self.figure1.render(),
        ]
        if self.crossover is not None:
            parts.append(self.crossover.render())
        return "\n\n".join(parts)


def run_all_experiments(context: Optional[ExperimentContext] = None) -> FullReport:
    """Execute the complete reproduction (Tables 1-2, C1-C3, Figure 1)."""
    context = context or ExperimentContext()
    runner = context.runner()
    scenario = resolve_scenario(
        context.netlist,
        context.testbench,
        circuit=context.circuit,
        seed=context.seed,
        num_cycles=context.num_cycles,
        engine=context.engine,
    )

    # The oracle is experiment-independent: grade the complete fault set
    # once (sharded/resumed by the runner) and share it everywhere.
    oracle = grade_eval_scenario(scenario, runner, context.engine)

    shared = dict(
        netlist=context.netlist,
        testbench=context.testbench,
        circuit=context.circuit,
        num_cycles=context.num_cycles,
        seed=context.seed,
        engine=context.engine,
        runner=runner,
        oracle=oracle,
    )
    table1 = run_table1_experiment(
        scenario.netlist, num_cycles=scenario.testbench.num_cycles
    )
    table2 = run_table2_experiment(board=context.board, **shared)
    classification = run_classification_experiment(**shared)
    speedup = run_speedup_experiment(board=context.board, **shared)
    figure1 = run_figure1_census()
    crossover = (
        run_crossover_experiment(
            seed=context.seed, engine=context.engine, runner=runner
        )
        if context.include_crossover
        else None
    )
    return FullReport(
        table1=table1,
        table2=table2,
        classification=classification,
        speedup=speedup,
        figure1=figure1,
        crossover=crossover,
    )
