"""Sharded, resumable campaign execution.

:class:`CampaignRunner` turns a :class:`~repro.run.spec.CampaignSpec`
into a :class:`~repro.emu.campaign.CampaignResult` by

1. splitting the campaign's fault list into contiguous cycle-window
   shards (fault lists are cycle-major, so windows are contiguous
   slices),
2. grading shards through a pluggable
   :class:`~repro.run.transport.ShardTransport` — in-process
   (``serial``), on a persistent in-process thread pool (``local``), or
   fanned across remote ``repro worker`` daemons (``tcp``). Every
   transport consumes a *dynamic* shard queue: idle workers pull the
   next window, lost workers' windows are re-queued, and records stream
   back in completion order,
3. checkpointing every completed shard to a JSONL
   :class:`~repro.run.store.ResultsStore` (``<store_root>/<campaign-id>/``)
   so an interrupted campaign resumes without re-grading finished
   shards — on *any* transport: shard records are
   transport-independent, and
4. merging shard outcomes back into one
   :class:`~repro.sim.parallel.FaultGradingResult` in fault-list order
   and accounting cycles with the same vectorized functions the serial
   path uses — merged results are bit-exact with
   :func:`repro.emu.campaign.run_campaign`.

Grading dominates campaign cost and is technique-independent, so the
runner shards *grading*; accounting for any technique is a vectorized
reduction over the merged oracle.
"""

from __future__ import annotations

import os
from contextlib import closing
from dataclasses import dataclass, replace
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.emu.board import BoardModel
from repro.emu.campaign import CampaignResult, run_campaign
from repro.errors import CampaignError
from repro.faults.classify import FaultClass
from repro.faults.model import SeuFault
from repro.faults.sampling import (
    AdaptiveSampler,
    SampleEstimate,
    classification_estimates,
)
from repro.netlist.netlist import Netlist
from repro.run import worker
from repro.run.spec import CampaignSpec, Scenario
from repro.run.store import ResultsStore, ShardRecord
from repro.run.transport import ShardTransport, create_transport
from repro.sim.cache import compiled_for, golden_for
from repro.sim.parallel import (
    DEFAULT_BACKEND,
    FaultGradingResult,
    grade_faults,
)
from repro.sim.vectors import Testbench

#: shards per worker when the caller does not fix a shard count — enough
#: granularity that resume rarely repeats much work, coarse enough that
#: per-shard overhead stays negligible.
SHARDS_PER_WORKER = 4


@dataclass
class AdaptiveCampaign:
    """Outcome of an adaptive sampled campaign.

    ``spec`` is the final round's spec (its ``sample`` field holds the
    terminating sample size); ``estimates`` the per-class proportions
    with confidence intervals at that size; ``rounds`` every
    ``(sample_size, worst_half_width)`` pair the sampler visited; and
    ``exhausted`` whether termination came from sampling the entire
    population rather than reaching the target half-width.
    """

    spec: "CampaignSpec"
    oracle: FaultGradingResult
    estimates: Dict[FaultClass, SampleEstimate]
    rounds: List[Tuple[int, float]]
    target_half_width: float
    exhausted: bool


def default_pool_workers() -> int:
    """Default thread-pool size for sweeps and benchmarks: at least 2
    (otherwise it is not a pool), at most 4 (grading saturates memory
    bandwidth before core count on typical hosts)."""
    return max(2, min(4, os.cpu_count() or 2))


@dataclass(frozen=True)
class ShardWindow:
    """One contiguous cycle window of a campaign's fault list."""

    index: int
    start_cycle: int
    end_cycle: int


def plan_windows(num_cycles: int, num_shards: int) -> List[ShardWindow]:
    """Balanced contiguous cycle windows covering [0, num_cycles)."""
    if num_cycles <= 0:
        raise CampaignError("cannot shard a zero-cycle campaign")
    count = max(1, min(num_shards, num_cycles))
    base, extra = divmod(num_cycles, count)
    windows = []
    start = 0
    for index in range(count):
        size = base + (1 if index < extra else 0)
        windows.append(ShardWindow(index, start, start + size))
        start += size
    return windows


class CampaignRunner:
    """Executes campaign specs, sharded and resumable.

    Parameters:
        workers: grading threads for the ``local`` transport. ``<= 1``
            grades inline (the ``serial`` transport, same code path, no
            pool). Without the native kernel the grade holds the GIL,
            so the pool runs one thread whatever ``workers`` says.
        shards: shard count override; default ``SHARDS_PER_WORKER x
            effective transport workers``, capped at the testbench
            length.
        store_root: directory holding per-campaign stores; ``None``
            disables persistence (grading is kept in memory only).
        resume: reuse completed shards found in the store. ``False``
            drops them and regrades from scratch.
        progress: optional callback receiving one line per completed
            shard (the CLI passes ``print``).
        on_shard: optional *structured* progress callback, called as
            ``on_shard(record, done, total)`` after every newly graded
            shard (``done`` counts completed shards including resumed
            ones, ``total`` the plan size). Unlike ``progress`` — which
            is display text — this is the hook services build live
            status on. Raising from the callback aborts the grade
            between shards with every completed shard already
            checkpointed, which is how the campaign service cancels a
            running campaign without losing work.
        transport: shard transport name (``serial``/``local``/``tcp``);
            default picks ``tcp`` when ``hosts`` is given, else
            ``local`` when ``workers >= 2``, else ``serial``.
        hosts: remote worker addresses for the ``tcp`` transport —
            ``"host:port,host:port"`` or a sequence of such strings.
        shard_timeout: seconds a TCP worker may hold one shard before
            it is declared wedged and the shard re-queued elsewhere
            (``None`` trusts heartbeats alone).
    """

    def __init__(
        self,
        workers: int = 1,
        shards: Optional[int] = None,
        store_root: Optional[str] = None,
        resume: bool = True,
        progress: Optional[Callable[[str], None]] = None,
        transport: Optional[str] = None,
        hosts=None,
        shard_timeout: Optional[float] = None,
        on_shard: Optional[Callable[[ShardRecord, int, int], None]] = None,
    ):
        if shards is not None and shards < 1:
            raise CampaignError("shards must be at least 1")
        self.workers = max(0, int(workers))
        self.shards = shards
        self.store_root = store_root
        self.resume = resume
        self.progress = progress
        self.on_shard = on_shard
        self.hosts = hosts
        self.shard_timeout = shard_timeout
        self.transport_name = transport or (
            "tcp" if hosts else ("local" if self.workers >= 2 else "serial")
        )
        self._transport: Optional[ShardTransport] = None

    # ------------------------------------------------------------------
    # transport lifecycle
    # ------------------------------------------------------------------
    def _ensure_transport(self) -> ShardTransport:
        """The persistent shard transport, created on first grade.

        Keeping the transport alive across campaigns lets repeated
        ``grade`` calls (sweeps, bench repeats, adaptive rounds) reuse
        its shard threads — or warm remote daemons whose artifact caches
        already hold this campaign's netlist and stimulus — instead of
        paying startup + scenario warmup per call.
        """
        if self._transport is None:
            self._transport = create_transport(
                self.transport_name,
                workers=self.workers,
                hosts=self.hosts,
                shard_timeout=self.shard_timeout,
            )
        return self._transport

    def close(self) -> None:
        """Shut the transport (threads / remote connections) down (idempotent)."""
        if self._transport is not None:
            self._transport.close()
            self._transport = None

    def __enter__(self) -> "CampaignRunner":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):  # best-effort; close() is the supported path
        try:
            self.close()
        except Exception:
            pass

    # ------------------------------------------------------------------
    # planning
    # ------------------------------------------------------------------
    def plan(self, spec: CampaignSpec) -> List[ShardWindow]:
        """The shard plan this runner would use for ``spec``."""
        num_shards = self.shards
        if num_shards is None:
            effective = self._ensure_transport().effective_workers()
            num_shards = SHARDS_PER_WORKER * max(1, effective)
        return plan_windows(spec.resolved_cycles(), num_shards)

    # ------------------------------------------------------------------
    # grading
    # ------------------------------------------------------------------
    def grade(self, spec: CampaignSpec) -> FaultGradingResult:
        """Grade one spec's fault list, sharded (and resumed if stored)."""
        _, oracle = self._graded(spec)
        return oracle

    def _graded(self, spec: CampaignSpec) -> Tuple[Scenario, FaultGradingResult]:
        # Prewarm before fanning out: compiled plan, golden trace, fused
        # program and native kernel land in the session caches, which
        # every shard thread then shares.
        scenario = worker.prewarm(spec)
        windows = self.plan(spec)
        store = None
        done: Dict[int, ShardRecord] = {}
        if self.store_root is not None:
            store = ResultsStore.open(
                self.store_root,
                spec.oracle_key(),
                spec.campaign_id,
                [(w.start_cycle, w.end_cycle) for w in windows],
                fresh=not self.resume,
                fault_key=spec.fault_key(),
            )
            # A store graded under another plan (e.g. a different worker
            # count last time) keeps its plan; completed shards stay
            # mergeable instead of forcing a regrade.
            windows = [
                ShardWindow(index, start, end)
                for index, (start, end) in enumerate(store.windows)
            ]
            done = store.completed()

        pending = [window for window in windows if window.index not in done]
        if done and self.progress:
            self.progress(
                f"[{spec.campaign_id}] resuming: {len(done)}/{len(windows)} "
                "shards already graded"
            )
        spec_dict = spec.to_dict()
        if self.on_shard is not None and done:
            # Resumed shards count toward progress before grading starts,
            # so a service polling mid-resume never sees progress move
            # backwards. One call carries the whole resumed count.
            self.on_shard(next(iter(done.values())), len(done), len(windows))
        # closing(): a raising on_shard stops the transport at once, so
        # it drops the windows it has not started yet
        with closing(self._grade_shards(spec, spec_dict, pending)) as records:
            for record in records:
                done[record.index] = record
                if store is not None:
                    store.append(record)
                if self.progress:
                    self.progress(
                        f"[{spec.campaign_id}] shard {record.index + 1}/"
                        f"{len(windows)}: cycles [{record.start_cycle}, "
                        f"{record.end_cycle}) — {record.num_faults} faults "
                        f"in {record.elapsed_s:.3f}s"
                    )
                if self.on_shard is not None:
                    self.on_shard(record, len(done), len(windows))
        return scenario, self._merge(scenario, windows, done)

    def _grade_shards(
        self,
        spec: CampaignSpec,
        spec_dict: Dict,
        pending: Sequence[ShardWindow],
    ) -> Iterator[ShardRecord]:
        """Stream completed shard records from the configured transport."""
        if not pending:
            return
        yield from self._ensure_transport().grade_windows(
            spec, spec_dict, pending
        )

    def _merge(
        self,
        scenario: Scenario,
        windows: Sequence[ShardWindow],
        done: Dict[int, ShardRecord],
    ) -> FaultGradingResult:
        """Concatenate shard outcomes in fault-list order, verified."""
        fail, vanish = worker.merge_windows(
            scenario.faults, [(w.start_cycle, w.end_cycle) for w in windows], done
        )
        compiled = compiled_for(scenario.netlist)
        return FaultGradingResult(
            faults=scenario.faults,
            num_cycles=scenario.testbench.num_cycles,
            flop_names=[flop.name for flop in compiled.flops],
            golden=golden_for(compiled, scenario.testbench),
            fail_cycles=fail,
            vanish_cycles=vanish,
        )

    def grade_scenario(
        self,
        netlist: Netlist,
        testbench: Testbench,
        faults: Sequence[SeuFault],
        engine: str = DEFAULT_BACKEND,
    ) -> FaultGradingResult:
        """Grade an explicit (netlist, testbench, faults) scenario.

        Ad-hoc scenarios have no declarative description to ship to
        remote workers or key a store on, so they grade serially
        in-process — the reference path the sharded one is verified
        against.
        """
        return grade_faults(netlist, testbench, faults, backend=engine)

    # ------------------------------------------------------------------
    # campaigns
    # ------------------------------------------------------------------
    def run(
        self,
        spec: CampaignSpec,
        board: Optional[BoardModel] = None,
        oracle: Optional[FaultGradingResult] = None,
    ) -> CampaignResult:
        """Execute one campaign end to end.

        ``board`` overrides the spec's board model (eval experiments
        thread explicit :class:`BoardModel` instances through).
        ``oracle`` skips grading when the caller already holds this
        campaign's merged grading result.
        """
        if oracle is None:
            scenario, oracle = self._graded(spec)
        else:
            scenario = worker.scenario_for(spec)
        return run_campaign(
            scenario.netlist,
            scenario.testbench,
            spec.technique,
            board=board or spec.board_model(),
            faults=scenario.faults,
            oracle=oracle,
            scan_chains=spec.scan_chains,
            engine=spec.engine,
        )

    def run_adaptive(
        self,
        spec: CampaignSpec,
        target_half_width: float,
        confidence: float = 0.95,
        ci_method: str = "wilson",
        initial: int = 100,
        growth: float = 2.0,
        max_sample: Optional[int] = None,
    ) -> AdaptiveCampaign:
        """Sample until every class interval reaches ``target_half_width``.

        Each round grades ``replace(spec, sample=n)`` through the normal
        sharded (and store-backed) path — every round is an ordinary
        campaign with its own campaign id, so interrupted adaptive runs
        resume their current round's shards like any other campaign. The
        sample grows geometrically (see
        :class:`~repro.faults.sampling.AdaptiveSampler`) and is capped at
        the population, so the loop always terminates: with a tight
        target on a small circuit it simply becomes the exhaustive
        campaign, whose "estimate" is the true proportion.
        """
        netlist = spec.build_netlist()
        population = spec.population_size(netlist)
        sampler = AdaptiveSampler(
            population=population,
            target_half_width=target_half_width,
            initial=spec.sample or initial,
            growth=growth,
            max_count=max_sample,
        )
        while True:
            count = sampler.count
            # The exhaustive round is the plain unsampled campaign — it
            # shares its store with any existing exhaustive run.
            current = replace(
                spec, sample=None if count == population else count
            )
            oracle = self.grade(current)
            estimates = classification_estimates(
                oracle.verdicts(), confidence=confidence, method=ci_method
            )
            next_count = sampler.next_count(estimates)
            if self.progress:
                width = sampler.rounds[-1][1]
                self.progress(
                    f"[adaptive] n={count}: worst half-width "
                    f"{width:.4f} (target {target_half_width:.4f})"
                    + ("" if next_count is None else f" -> growing to {next_count}")
                )
            if next_count is None:
                return AdaptiveCampaign(
                    spec=current,
                    oracle=oracle,
                    estimates=estimates,
                    rounds=list(sampler.rounds),
                    target_half_width=target_half_width,
                    exhausted=sampler.exhausted,
                )

    def sweep(
        self,
        specs: Iterable[CampaignSpec],
        board: Optional[BoardModel] = None,
    ) -> List[CampaignResult]:
        """Run many specs, grading each distinct oracle exactly once.

        Specs sharing an oracle key (same circuit/testbench/faults —
        e.g. the three techniques of one Table-2 row, or several
        ``scan_chains`` settings) reuse one merged grading result, like
        the serial experiment harness shares its oracle.
        """
        graded: Dict[Tuple[str, str], Tuple[Scenario, FaultGradingResult]] = {}
        results = []
        for spec in specs:
            key = (spec.campaign_id, spec.engine)
            if key not in graded:
                graded[key] = self._graded(spec)
            scenario, oracle = graded[key]
            results.append(
                run_campaign(
                    scenario.netlist,
                    scenario.testbench,
                    spec.technique,
                    board=board or spec.board_model(),
                    faults=scenario.faults,
                    oracle=oracle,
                    scan_chains=spec.scan_chains,
                    engine=spec.engine,
                )
            )
        return results
