"""Statistical fault sampling.

Exhaustive injection is the paper's regime, but modern campaigns on larger
circuits (and on the larger fault populations of the non-SEU models)
sample the fault space. This module provides

* reproducible samplers — seeded **uniform** sampling without replacement
  and **stratified-by-flop** sampling with largest-remainder allocation —
  both re-sorted cycle-major so the campaign engines keep their
  contiguous-window sharding;
* binomial confidence intervals — the **Wilson** score interval (default)
  and the exact **Clopper-Pearson** interval (dependency-free regularized
  incomplete beta), selected by name;
* per-fault-class estimates (:func:`classification_estimates`) so a
  sampled campaign reports FAILURE/LATENT/SILENT rates with error bars;
* an **adaptive** mode (:class:`AdaptiveSampler`) that grows the sample
  geometrically until every class interval reaches a target half-width —
  the "sample until the error bars are tight enough" loop DrSEUS-style
  statistical campaigns use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import CampaignError
from repro.faults.classify import FaultClass, classification_counts
from repro.faults.model import FaultArray, SeuFault, fault_columns
from repro.util.rng import DeterministicRng

SAMPLING_METHODS = ("uniform", "stratified")
CI_METHODS = ("wilson", "clopper_pearson")


# ----------------------------------------------------------------------
# samplers
# ----------------------------------------------------------------------
def sample_fault_list(
    faults: Sequence[SeuFault], count: int, seed: int = 0
) -> Sequence[SeuFault]:
    """Sample ``count`` faults uniformly without replacement,
    deterministically.

    The sample is re-sorted cycle-major so campaign engines (notably
    time-mux, which walks the golden state forward) process it efficiently.
    """
    _check_sample_size(faults, count)
    rng = DeterministicRng(seed).fork("fault-sample")
    return _take_sorted(faults, rng.sample(range(len(faults)), count))


def stratified_sample_fault_list(
    faults: Sequence[SeuFault], count: int, seed: int = 0
) -> Sequence[SeuFault]:
    """Sample ``count`` faults stratified by flip-flop.

    Uniform sampling can leave rarely-hit flops unrepresented in small
    samples; stratifying by flop guarantees proportional coverage of the
    register file. Quotas use largest-remainder (Hamilton) allocation over
    each flop's population share, fractional-remainder ties broken by flop
    index; within a stratum the draw is uniform without replacement, each
    stratum on an independently forked stream so adding flops does not
    perturb other strata. The result is re-sorted cycle-major like the
    uniform sampler.
    """
    _check_sample_size(faults, count)
    flops = fault_columns(faults)[1]
    # each stratum's population positions, in population order
    by_flop = np.argsort(flops, kind="stable")
    sizes = np.bincount(flops)
    bounds = np.concatenate(([0], np.cumsum(sizes)))
    strata = {
        int(flop): by_flop[bounds[flop] : bounds[flop + 1]]
        for flop in np.flatnonzero(sizes)
    }

    total = len(faults)
    quotas: Dict[int, int] = {}
    remainders: List[Tuple[float, int]] = []
    allocated = 0
    for flop_index in sorted(strata):
        exact = count * len(strata[flop_index]) / total
        quotas[flop_index] = int(exact)
        allocated += int(exact)
        remainders.append((exact - int(exact), flop_index))
    remainders.sort(key=lambda pair: (-pair[0], pair[1]))
    for _, flop_index in remainders[: count - allocated]:
        quotas[flop_index] += 1
    # Integer quotas can exceed a small stratum only if every member is
    # already taken; spill the excess to the largest strata.
    spill = 0
    for flop_index in sorted(strata):
        over = quotas[flop_index] - len(strata[flop_index])
        if over > 0:
            quotas[flop_index] -= over
            spill += over
    while spill:
        for flop_index in sorted(
            strata, key=lambda f: len(strata[f]) - quotas[f], reverse=True
        ):
            if not spill:
                break
            if quotas[flop_index] < len(strata[flop_index]):
                quotas[flop_index] += 1
                spill -= 1

    rng = DeterministicRng(seed)
    chosen: List[np.ndarray] = []
    for flop_index in sorted(strata):
        quota = quotas[flop_index]
        if not quota:
            continue
        stream = rng.fork(f"fault-stratum-{flop_index}")
        stratum = strata[flop_index]
        chosen.append(stratum[stream.sample(range(len(stratum)), quota)])
    return _take_sorted(faults, np.concatenate(chosen))


def _check_sample_size(faults: Sequence[SeuFault], count: int) -> None:
    if count <= 0:
        raise CampaignError("sample size must be positive")
    if count > len(faults):
        raise CampaignError(
            f"cannot sample {count} faults from a population of {len(faults)}"
        )


def _take_sorted(faults: Sequence[SeuFault], positions) -> Sequence[SeuFault]:
    """The faults at ``positions``, re-sorted cycle-major (then by flop).

    ``rng.sample(range(n), k)`` draws the positions ``rng.sample(faults,
    k)`` would, so samples match the object-list sampler exactly; for
    one model's faults the (cycle, flop) order is the dataclass order.
    """
    positions = np.asarray(positions, dtype=np.intp)
    cycles, flops = fault_columns(faults)
    order = positions[np.lexsort((flops[positions], cycles[positions]))]
    if isinstance(faults, FaultArray):
        return faults.take(order)
    return [faults[index] for index in order]


def draw_sample(
    faults: Sequence[SeuFault],
    count: int,
    seed: int = 0,
    method: str = "uniform",
) -> Sequence[SeuFault]:
    """Dispatch to a named sampling method."""
    if method == "uniform":
        return sample_fault_list(faults, count, seed=seed)
    if method == "stratified":
        return stratified_sample_fault_list(faults, count, seed=seed)
    raise CampaignError(
        f"unknown sampling method {method!r}; expected one of "
        f"{SAMPLING_METHODS}"
    )


# ----------------------------------------------------------------------
# confidence intervals
# ----------------------------------------------------------------------
def wilson_interval(
    successes: int, trials: int, confidence: float = 0.95
) -> tuple:
    """Wilson score interval for a binomial proportion.

    Returns ``(low, high)`` bounds on the true proportion. Preferred over
    the normal approximation because campaign failure rates near 0 or 1 are
    common (hardened circuits).
    """
    _check_counts(successes, trials)
    z = _z_score(confidence)
    phat = successes / trials
    denominator = 1 + z * z / trials
    centre = phat + z * z / (2 * trials)
    margin = z * math.sqrt(
        phat * (1 - phat) / trials + z * z / (4 * trials * trials)
    )
    low = (centre - margin) / denominator
    high = (centre + margin) / denominator
    return (max(0.0, low), min(1.0, high))


def clopper_pearson_interval(
    successes: int, trials: int, confidence: float = 0.95
) -> tuple:
    """Exact (Clopper-Pearson) binomial interval.

    Conservative by construction — coverage is *at least* the nominal
    confidence for every true proportion, which is what a hardened CI gate
    wants. Bounds are Beta-distribution quantiles, computed with the
    dependency-free regularized incomplete beta below.
    """
    _check_counts(successes, trials)
    if not 0 < confidence < 1:
        raise CampaignError("confidence must be in (0, 1)")
    alpha = 1 - confidence
    if successes == 0:
        low = 0.0
    else:
        low = _beta_quantile(alpha / 2, successes, trials - successes + 1)
    if successes == trials:
        high = 1.0
    else:
        high = _beta_quantile(1 - alpha / 2, successes + 1, trials - successes)
    return (low, high)


def confidence_interval(
    successes: int,
    trials: int,
    confidence: float = 0.95,
    method: str = "wilson",
) -> tuple:
    """Dispatch to a named interval method."""
    if method == "wilson":
        return wilson_interval(successes, trials, confidence)
    if method == "clopper_pearson":
        return clopper_pearson_interval(successes, trials, confidence)
    raise CampaignError(
        f"unknown confidence-interval method {method!r}; expected one of "
        f"{CI_METHODS}"
    )


def _check_counts(successes: int, trials: int) -> None:
    if trials <= 0:
        raise CampaignError("confidence interval needs at least one trial")
    if not 0 <= successes <= trials:
        raise CampaignError("successes must be between 0 and trials")


def _z_score(confidence: float) -> float:
    """Two-sided z score via inverse error function (no scipy needed)."""
    if not 0 < confidence < 1:
        raise CampaignError("confidence must be in (0, 1)")
    # Rational approximation of the probit function (Acklam's algorithm
    # would be overkill; bisection on erf is exact enough and dependency
    # free).
    target = 0.5 * (1 + confidence)
    low, high = 0.0, 10.0
    for _ in range(80):
        mid = (low + high) / 2
        if 0.5 * (1 + math.erf(mid / math.sqrt(2))) < target:
            low = mid
        else:
            high = mid
    return (low + high) / 2


def _log_beta(a: float, b: float) -> float:
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


def _betainc(x: float, a: float, b: float) -> float:
    """Regularized incomplete beta I_x(a, b) via Lentz's continued
    fraction (Numerical Recipes ``betacf``), accurate to ~1e-12 for the
    integer shape parameters Clopper-Pearson uses."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(
        a * math.log(x) + b * math.log(1 - x) - _log_beta(a, b)
    )
    # Use the symmetry relation to keep the continued fraction convergent.
    if x < (a + 1) / (a + b + 2):
        return front * _betacf(x, a, b) / a
    return 1.0 - math.exp(
        b * math.log(1 - x) + a * math.log(x) - _log_beta(b, a)
    ) * _betacf(1 - x, b, a) / b


def _betacf(x: float, a: float, b: float) -> float:
    tiny = 1e-30
    qab, qap, qam = a + b, a + 1, a - 1
    c = 1.0
    d = 1 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1 / d
    h = d
    for m in range(1, 200):
        m2 = 2 * m
        numerator = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1 + numerator * d
        if abs(d) < tiny:
            d = tiny
        c = 1 + numerator / c
        if abs(c) < tiny:
            c = tiny
        d = 1 / d
        h *= d * c
        numerator = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1 + numerator * d
        if abs(d) < tiny:
            d = tiny
        c = 1 + numerator / c
        if abs(c) < tiny:
            c = tiny
        d = 1 / d
        delta = d * c
        h *= delta
        if abs(delta - 1) < 1e-12:
            break
    return h


def _beta_quantile(p: float, a: float, b: float) -> float:
    """Inverse of I_x(a, b) by bisection (monotone, 90 halvings ≈ 1e-27)."""
    low, high = 0.0, 1.0
    for _ in range(90):
        mid = (low + high) / 2
        if _betainc(mid, a, b) < p:
            low = mid
        else:
            high = mid
    return (low + high) / 2


# ----------------------------------------------------------------------
# estimates
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SampleEstimate:
    """A sampled-campaign estimate of a fault-class proportion."""

    successes: int
    trials: int
    confidence: float = 0.95
    method: str = "wilson"

    @property
    def proportion(self) -> float:
        """Point estimate."""
        return self.successes / self.trials

    @property
    def interval(self) -> tuple:
        """Confidence interval by the estimate's method."""
        return confidence_interval(
            self.successes, self.trials, self.confidence, self.method
        )

    @property
    def half_width(self) -> float:
        """Half the interval width — the adaptive sampler's target metric."""
        low, high = self.interval
        return (high - low) / 2

    def covers(self, proportion: float) -> bool:
        """Whether the interval contains ``proportion``."""
        low, high = self.interval
        return low <= proportion <= high

    def describe(self) -> str:
        """e.g. ``49.3 % [47.1, 51.5] @95%``."""
        low, high = self.interval
        return (
            f"{100 * self.proportion:.1f} % "
            f"[{100 * low:.1f}, {100 * high:.1f}] @{int(self.confidence * 100)}%"
        )


def classification_estimates(
    verdicts: Iterable[FaultClass],
    confidence: float = 0.95,
    method: str = "wilson",
) -> Dict[FaultClass, SampleEstimate]:
    """Per-class proportion estimates for one sampled campaign."""
    counts = classification_counts(verdicts)
    trials = sum(counts.values())
    if trials == 0:
        raise CampaignError("cannot estimate rates from zero verdicts")
    return {
        fault_class: SampleEstimate(
            successes=count,
            trials=trials,
            confidence=confidence,
            method=method,
        )
        for fault_class, count in counts.items()
    }


# ----------------------------------------------------------------------
# adaptive sampling
# ----------------------------------------------------------------------
@dataclass
class AdaptiveSampler:
    """Grow a sample until every class interval is tight enough.

    The driver loop (``CampaignRunner.run_adaptive`` or the CLI's
    ``--ci-target``) grades a sample of :attr:`count` faults, reports the
    per-class estimates, and asks :meth:`next_count` for the next sample
    size; ``None`` means stop. Growth is geometric (``growth`` x per
    round) and capped at the population size, so termination is
    guaranteed: either the intervals reach ``target_half_width`` or the
    campaign becomes exhaustive — at which point the estimate is the true
    proportion and sampling error is moot.
    """

    population: int
    target_half_width: float
    initial: int = 100
    growth: float = 2.0
    max_count: Optional[int] = None
    rounds: List[Tuple[int, float]] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.population <= 0:
            raise CampaignError("population must be positive")
        if not 0 < self.target_half_width < 0.5:
            raise CampaignError(
                "target half-width must be in (0, 0.5); got "
                f"{self.target_half_width}"
            )
        if self.initial <= 0:
            raise CampaignError("initial sample size must be positive")
        if self.growth <= 1.0:
            raise CampaignError("growth factor must exceed 1")
        self.count = min(self.initial, self.cap)

    @property
    def cap(self) -> int:
        """Largest sample the sampler will ever request."""
        if self.max_count is None:
            return self.population
        return min(self.max_count, self.population)

    def next_count(
        self, estimates: Dict[FaultClass, SampleEstimate]
    ) -> Optional[int]:
        """Record this round and return the next sample size (None: done)."""
        width = max(estimate.half_width for estimate in estimates.values())
        self.rounds.append((self.count, width))
        if width <= self.target_half_width or self.count >= self.cap:
            return None
        self.count = min(self.cap, max(self.count + 1, int(self.count * self.growth)))
        return self.count

    @property
    def achieved_half_width(self) -> Optional[float]:
        """Worst-class half-width of the last completed round."""
        if not self.rounds:
            return None
        return self.rounds[-1][1]

    @property
    def exhausted(self) -> bool:
        """True when the last round sampled the whole population (the
        estimate is exact, even if wider than the target)."""
        return bool(self.rounds) and self.rounds[-1][0] >= self.population


__all__ = [
    "AdaptiveSampler",
    "CI_METHODS",
    "SAMPLING_METHODS",
    "SampleEstimate",
    "classification_estimates",
    "clopper_pearson_interval",
    "confidence_interval",
    "draw_sample",
    "sample_fault_list",
    "stratified_sample_fault_list",
    "wilson_interval",
]
