"""Statistical model checking by sequential Monte Carlo estimation.

Estimates the expected value of a [0, 1]-bounded run outcome of any
stochastic model to within +/-epsilon at confidence 1 - alpha. Estimates
are reported in quality units: the raw mean is multiplied by
``kappa_scale`` and the induced quality-unit error is kappa =
kappa_scale * epsilon (e.g. scale 100 turns a loss fraction into percent
with kappa = 100 * epsilon).

Stopping rule. An estimate draws its runs in chunks on a geometric grid
(first check at ``first_check(epsilon, alpha)``, each later one 1.5x
further) and stops at the first check where a betting confidence sequence
at level alpha/2 (Waudby-Smith & Ramdas, "Estimating means of bounded
random variables by betting", JRSS-B 2024: hedged capital, Theorem 3, with
predictable plug-in bets truncated at 1/2, eq. 26) lies inside
[mean - epsilon, mean + epsilon], where mean is the value the estimate
reports. Otherwise it stops at ``required_samples(epsilon, alpha / 2)``,
the Chernoff-Hoeffding size N = ceil(ln(2/a) / (2 epsilon^2)) at a =
alpha/2. The sequence covers the true mean at every run count at once with
probability 1 - alpha/2, so stopping on it is valid at any check; the
Hoeffding interval at the cap holds with probability 1 - alpha/2. By the
union bound the reported mean is within +/-epsilon of the true one with
probability at least 1 - alpha, whichever way the estimate stopped. Low-
variance outcomes stop after about a thousand runs at epsilon 0.01 where
the fixed Hoeffding size at alpha is 14 979; outcomes of variance near 1/4
run to the cap.

Determinism contract: per-run seeds are derived from (base_seed,
run_index) with :func:`adaptlab.seeds.mix64`, so each chunk continues the
same seed stream and outcomes are collected in run-index order. The
reported mean is an exactly rounded sum over all outcomes drawn. The stop
decision uses float ``cumsum`` and ``log1p`` over the same outcomes, so it
is deterministic on one machine and numpy build. An estimate is thus a
pure function of (model, config, base_seed), and a model that simulates
its runs one seed at a time gives the same estimate, run count included,
as one that simulates them in a single batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Protocol, runtime_checkable

import numpy as np

from .seeds import derive_seeds, mix64, stream_uint64


@runtime_checkable
class StochasticModel(Protocol):
    """One simulatable system: one run outcome in [0, 1] per seed, each
    deterministic per its seed alone (so any batching gives the same values)."""

    def simulate_batch(self, seeds: np.ndarray) -> np.ndarray: ...


@dataclass(frozen=True)
class SmcConfig:
    """Estimation accuracy epsilon, significance alpha, quality-unit scale."""

    epsilon: float = 0.01
    alpha: float = 0.1
    kappa_scale: float = 100.0

    def __post_init__(self) -> None:
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError("epsilon must lie in (0, 1)")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        if not 0.0 < self.kappa_scale < math.inf:
            raise ValueError("kappa_scale must be positive and finite")

    @property
    def kappa(self) -> float:
        """Estimation error in quality units: kappa_scale * epsilon."""
        return self.kappa_scale * self.epsilon


@dataclass(frozen=True)
class SmcEstimate:
    """Estimated quality value with its half-width and confidence."""

    mean: float
    kappa: float
    alpha: float
    samples_used: int


def required_samples(epsilon: float, alpha: float) -> int:
    """Hoeffding run count ceil(ln(2/alpha) / (2 epsilon^2)) for [0, 1] outcomes."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    return math.ceil(math.log(2.0 / alpha) / (2.0 * epsilon * epsilon))


# WSR's c: no bet stakes more than this fraction of the capital.
_BET_CAP = 0.5
# Each check comes this many times later than the one before it.
_GROWTH = 1.5


def first_check(epsilon: float, alpha: float) -> int:
    """Run count of an estimate's first stopping check: 1.5 times the
    fewest runs after which even a constant outcome could stop, where each
    of n runs multiplies the capital by at most 1 + epsilon/2, and half the
    capital must reach 2/(alpha/2): ceil(1.5 ln(4/alpha) / ln(1 + epsilon/2))."""
    return math.ceil(_GROWTH * math.log(4.0 / alpha) / math.log1p(epsilon / 2.0))


def _interval_fits(outcomes: np.ndarray, center: float, epsilon: float, level: float) -> bool:
    """Whether the hedged betting confidence sequence at ``level`` rules out
    every mean in [0, 1] more than epsilon away from center.

    The capital betting on the mean exceeding m, prod(1 + l+ (x - m)), is
    non-increasing in m, and the one betting on it falling short,
    prod(1 - l- (x - m)), is non-decreasing, so rejecting the two edge
    points center -/+ epsilon rejects both tails. A point is rejected when
    half its capital reaches 1/level; an edge outside (0, 1) has no tail
    left to reject.
    """
    t = np.arange(1, len(outcomes) + 1, dtype=np.float64)
    means = (0.5 + np.cumsum(outcomes)) / (t + 1.0)
    variances = (0.25 + np.cumsum((outcomes - means) ** 2)) / (t + 1.0)
    prior = np.concatenate(([0.25], variances[:-1]))  # each bet sees only earlier runs
    log_target = math.log(2.0 / level)  # the hedge: half the capital must reach 1/level
    bets = np.minimum(_BET_CAP, np.sqrt(2.0 * log_target / (prior * t * np.log1p(t))))
    low, high = center - epsilon, center + epsilon
    if low > 0.0:
        up = np.minimum(bets, _BET_CAP / low)
        if float(np.sum(np.log1p(up * (outcomes - low)))) < log_target:
            return False
    if high < 1.0:
        down = np.minimum(bets, _BET_CAP / (1.0 - high))
        if float(np.sum(np.log1p(down * (high - outcomes)))) < log_target:
            return False
    return True


def estimate(model: StochasticModel, config: SmcConfig, base_seed: int) -> SmcEstimate:
    """Estimate the model's expected outcome in quality units.

    Simulates runs with per-run seeds ``mix64(base_seed, run_index)``, one
    ``simulate_batch`` call per chunk, until the betting confidence
    sequence at alpha/2 fits within +/-epsilon of the running mean or the
    run count reaches ``required_samples(epsilon, alpha / 2)``. Returns
    ``kappa_scale * sum(outcomes) / n`` with half-width kappa and n as
    ``samples_used``. A run outcome outside [0, 1] is a model bug and raises.
    """
    epsilon, level = config.epsilon, config.alpha / 2.0
    cap = required_samples(epsilon, level)
    outcomes = np.empty(0)
    n = min(cap, first_check(epsilon, config.alpha))
    while True:
        chunk = np.asarray(model.simulate_batch(derive_seeds(base_seed, n, len(outcomes))), dtype=np.float64)
        if chunk.shape != (n - len(outcomes),):
            raise ValueError(f"model returned {chunk.shape} outcomes for {n - len(outcomes)} runs")
        low, high = float(chunk.min()), float(chunk.max())
        if not (math.isfinite(low) and math.isfinite(high)) or low < 0.0 or high > 1.0:
            bad = int(np.argmax((chunk < 0.0) | (chunk > 1.0) | ~np.isfinite(chunk)))
            raise ValueError(f"run {len(outcomes) + bad} produced outcome {chunk[bad]!r} outside [0, 1]")
        outcomes = np.concatenate([outcomes, chunk])
        center = math.fsum(outcomes.tolist()) / n
        if n == cap or _interval_fits(outcomes, center, epsilon, level):
            break
        n = min(cap, math.ceil(_GROWTH * n))
    return SmcEstimate(mean=config.kappa_scale * center, kappa=config.kappa, alpha=config.alpha, samples_used=n)


def verify_options(
    options: Iterable[tuple[int, StochasticModel]],
    config: SmcConfig,
    base_seed: int,
) -> list[tuple[int, SmcEstimate]]:
    """Estimate every (id, model) pair, seeding each option from its id.

    Per-option seeds depend only on (base_seed, id), so the estimates are
    identical however the input is ordered. Each model is released before
    the next pair is drawn, so a generator of pairs keeps one model alive.
    """
    verified = []
    for option_id, model in options:
        verified.append((option_id, estimate(model, config, mix64(base_seed, option_id))))
        del model
    return verified


class BernoulliModel:
    """Test model with known mean p: outcome 1.0 with probability p, else 0.0."""

    _SALT = 0x5E11AB1E

    def __init__(self, p: float):
        if not 0.0 <= p <= 1.0:
            raise ValueError("p must lie in [0, 1]")
        self.p = p

    def simulate_batch(self, seeds: np.ndarray) -> np.ndarray:
        draws = stream_uint64(np.asarray(seeds, dtype=np.uint64), np.uint64(self._SALT))
        if self.p == 1.0:  # exact; its threshold 2**64 does not fit a uint64
            return np.ones(draws.shape)
        return (draws < np.uint64(int(self.p * 2.0**64))).astype(np.float64)


def coverage_experiment(
    true_mean: float,
    config: SmcConfig,
    repetitions: int,
    base_seed: int,
) -> dict:
    """Measure how often the +/-kappa interval captures a known mean.

    Runs ``repetitions`` independent estimates of a Bernoulli model with
    the given mean and reports the fraction whose interval contains it,
    against the threshold (1 - alpha) minus three-sigma binomial slack,
    with the mean and largest run count of an estimate and their cap.
    """
    if repetitions < 1:
        raise ValueError("repetitions must be a positive integer")
    if not 0.0 <= true_mean <= 1.0:
        raise ValueError("true_mean must lie in [0, 1]")
    model = BernoulliModel(true_mean)
    target = config.kappa_scale * true_mean
    hits = 0
    samples = []
    for rep in range(repetitions):
        est = estimate(model, config, mix64(base_seed, rep))
        samples.append(est.samples_used)
        if abs(est.mean - target) <= est.kappa:
            hits += 1
    coverage = hits / repetitions
    nominal = 1.0 - config.alpha
    slack = 3.0 * math.sqrt(nominal * config.alpha / repetitions)
    threshold = nominal - slack
    return {
        "true_mean": true_mean,
        "epsilon": config.epsilon,
        "alpha": config.alpha,
        "kappa_scale": config.kappa_scale,
        "repetitions": repetitions,
        "mean_samples_used": sum(samples) / repetitions,
        "max_samples_used": max(samples),
        "samples_cap": required_samples(config.epsilon, config.alpha / 2.0),
        "hits": hits,
        "coverage": coverage,
        "nominal_coverage": nominal,
        "threshold": threshold,
        "passed": coverage >= threshold,
    }
