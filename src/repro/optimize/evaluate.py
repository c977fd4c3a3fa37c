"""Evaluating one hardening assignment: a real campaign plus real area.

The optimizer's inner loop. Every assignment is turned into an ordinary
:class:`~repro.run.spec.CampaignSpec` and graded through the caller's
:class:`~repro.run.runner.CampaignRunner` — sharded, store-backed and
resumable, bit-exact with serial grading — while its area cost is
measured by :func:`repro.synth.area.area_of` on the *actually built*
netlist (never estimated from flop counts). Evaluations are memoized by
canonical assignment, so the greedy ladder and the annealer share work.

**The metric is the unprotected failure rate.** Detection schemes (dwc,
parity) raise an error-flag primary output, so every upset they catch
grades as a FAILURE — by design (the hardness report reads that column
as detection coverage). For a design-space search that mixes masking
and detection that reading inverts the objective: a flagged failure is
a *handled* upset (the system can retry or reset), not silent data
corruption. A detection checker is a function of the protected storage
and the same next-state inputs the storage captures, so only an upset
on a covered flop — or on the checker's own storage bit — can raise
the flag (``HardeningScheme.detects``). That makes detection per-fault
attributable from the faulted flop's name alone: a FAILURE verdict
whose flop is covered by a detection layer is *detected*; the rest are
unprotected failures, and those are what the optimizer minimizes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, FrozenSet, List, Optional

import numpy as np

from repro.faults.sampling import SampleEstimate
from repro.hardening import get_hardening_scheme
from repro.optimize.assignment import HardeningAssignment
from repro.run.runner import CampaignRunner
from repro.run.spec import CampaignSpec
from repro.synth.area import AreaReport, area_of


@dataclass(frozen=True)
class PointEval:
    """One evaluated design point of the search space."""

    assignment: HardeningAssignment
    campaign_id: str
    #: unprotected failures (FAILURE verdicts not covered by a detection
    #: layer) as a percentage of graded faults — the search objective
    failure_rate_pct: float
    #: FAILURE verdicts a detection layer flagged, same denominator
    detected_rate_pct: float
    estimate: Optional[SampleEstimate]
    graded_faults: int
    population: int
    luts: int
    ffs: int
    lut_overhead_pct: Optional[float]
    ff_overhead_pct: Optional[float]

    @property
    def label(self) -> str:
        return self.assignment.label

    @property
    def ci_half_width_pct(self) -> Optional[float]:
        """Wilson half-width in percentage points (None = exhaustive)."""
        if self.estimate is None:
            return None
        return 100.0 * self.estimate.half_width

    def dominates(self, other: "PointEval") -> bool:
        """Pareto dominance on the (failure rate, FF, LUT) axes."""
        mine = (self.failure_rate_pct, self.ffs, self.luts)
        theirs = (other.failure_rate_pct, other.ffs, other.luts)
        return all(a <= b for a, b in zip(mine, theirs)) and mine != theirs


@dataclass(frozen=True)
class FlopRank:
    """One flop's failure statistics in the plain-circuit ranking."""

    flop: str
    faults: int
    failures: int

    @property
    def failure_rate(self) -> float:
        return self.failures / self.faults if self.faults else 0.0


class Evaluator:
    """Memoized assignment -> :class:`PointEval` evaluation.

    ``base`` must describe the *plain* circuit; every point reuses its
    stimulus, seed, fault model and sample size, so points differ in
    exactly the protection. With ``adaptive_half_width`` set, each point
    is graded through :meth:`CampaignRunner.run_adaptive` (the sample
    grows until the failure-rate interval reaches the target width);
    otherwise one campaign at the base spec's ``sample`` is graded.
    """

    def __init__(
        self,
        base: CampaignSpec,
        runner: Optional[CampaignRunner] = None,
        adaptive_half_width: Optional[float] = None,
    ):
        self.base = base
        self.runner = runner or CampaignRunner()
        self.adaptive_half_width = adaptive_half_width
        self._memo: Dict[HardeningAssignment, PointEval] = {}
        self._baseline_area: Optional[AreaReport] = None

    @property
    def evaluations(self) -> int:
        """Distinct campaigns graded so far."""
        return len(self._memo)

    def baseline_area(self) -> AreaReport:
        if self._baseline_area is None:
            self._baseline_area = area_of(self.base.build_netlist())
        return self._baseline_area

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def evaluate(self, assignment: HardeningAssignment) -> PointEval:
        if assignment in self._memo:
            return self._memo[assignment]
        spec = assignment.spec_for(self.base)
        netlist = spec.build_netlist()
        area = area_of(netlist)
        population = spec.population_size(netlist)
        sampled = True
        if self.adaptive_half_width is not None:
            adaptive = self.runner.run_adaptive(
                spec, target_half_width=self.adaptive_half_width
            )
            oracle = adaptive.oracle
            spec = adaptive.spec
            sampled = not adaptive.exhausted
        else:
            oracle = self.runner.grade(spec)
            sampled = oracle.num_faults < population
        detected_flops = self._detected_flops(assignment)
        per_flop = oracle.to_dictionary().per_flop_failures()
        detected = sum(per_flop[name] for name in detected_flops if name in per_flop)
        failures = sum(per_flop.values()) - detected
        estimate: Optional[SampleEstimate] = None
        if sampled:
            estimate = SampleEstimate(
                successes=failures, trials=oracle.num_faults
            )
        overhead = area.overhead_vs(self.baseline_area())
        point = PointEval(
            assignment=assignment,
            campaign_id=spec.campaign_id,
            failure_rate_pct=100.0 * failures / oracle.num_faults,
            detected_rate_pct=100.0 * detected / oracle.num_faults,
            estimate=estimate,
            graded_faults=oracle.num_faults,
            population=population,
            luts=area.luts,
            ffs=area.ffs,
            lut_overhead_pct=overhead.lut_overhead_pct,
            ff_overhead_pct=overhead.ff_overhead_pct,
        )
        self._memo[assignment] = point
        return point

    def _detected_flops(
        self, assignment: HardeningAssignment
    ) -> FrozenSet[str]:
        """Flop names whose upsets a detection layer flags.

        Replays the assignment's layers over the plain netlist: each
        detection layer covers its protected subset (every flop present
        at that stage when unrestricted) plus the storage bits it adds
        (parity register, dwc shadows) — an upset there raises the flag
        too, harmlessly. Masking layers applied on top never rename the
        flops they leave alone, so the covered names survive into the
        final netlist the campaign actually grades.
        """
        if not any(
            get_hardening_scheme(scheme).detects
            for scheme, _ in assignment.layers
        ):
            return frozenset()
        netlist = self.base.build_netlist()
        covered = set()
        for scheme_name, flops in assignment.layers:
            scheme = get_hardening_scheme(scheme_name)
            before = set(netlist.ff_names())
            netlist = scheme.apply(netlist, flops=flops)
            if scheme.detects:
                covered |= set(flops) if flops is not None else before
                covered |= set(netlist.ff_names()) - before
        return frozenset(covered)

    # ------------------------------------------------------------------
    # the seed ranking
    # ------------------------------------------------------------------
    def rank_flops(self) -> List[FlopRank]:
        """Per-flop failure rates of the plain circuit, worst first.

        This is the greedy search's seed ordering. The ranking campaign
        forces ``stratified`` sampling so every flop contributes faults
        even at small sample sizes (a uniformly-drawn 200-fault sample
        over a 10k population can miss flops entirely). Ties break by
        flop name, keeping the ranking deterministic.
        """
        spec = replace(self.base, sampling="stratified")
        dictionary = self.runner.grade(spec).to_dictionary()
        sampled = np.bincount(dictionary.flops, minlength=len(dictionary.flop_names))
        failures = dictionary.per_flop_failures()
        ranks = [
            FlopRank(flop=flop, faults=faults, failures=failures[flop])
            for flop, faults in zip(dictionary.flop_names, sampled.tolist())
            if faults
        ]
        ranks.sort(key=lambda rank: (-rank.failure_rate, rank.flop))
        return ranks
