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

Lockstep. ``verify_options`` is the one estimator: it gives each option a
row of one model, and the rows of a group (at most ``RUN_BUDGET`` runs at
the first check) advance together, one ``simulate_batch`` call and one
row-wise stopping check per check for every row still running. The
engine's candidates and ``coverage_experiment``'s repetitions are its rows.

Determinism contract: option id's runs are seeded ``mix64(key, run_index)``
with key ``mix64(base_seed, id)`` (:func:`adaptlab.seeds.mix64`), so each
chunk continues the same seed stream and outcomes are collected in
run-index order. The reported mean is an exactly rounded sum over all
outcomes drawn. The stop decision uses float ``cumsum`` and ``log1p`` over
the same outcomes, row by row, so it is deterministic on one machine and
numpy build. An estimate is thus a pure function of (the option's outcomes,
config, base_seed, id): it does not depend on which rows share its group,
and a model that simulates its runs one seed at a time gives the same
estimate, run count included, as one that simulates them in a single batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Protocol, Sequence

import numpy as np

from .seeds import mix64, stream_uint64


class StochasticModel(Protocol):
    """Simulatable systems, one per row. ``simulate_batch(rows, seeds)``
    returns, for seeds of shape (len(rows), n), the outcome in [0, 1] of row
    rows[i] run with seed seeds[i, j] at [i, j]; each outcome is determined
    by its (row, seed) alone, so any batching gives the same values."""

    def simulate_batch(self, rows: np.ndarray, seeds: np.ndarray) -> np.ndarray: ...


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
    """Estimated quality value (+/-kappa of its config) and its run count."""

    mean: float
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


def _intervals_fit(outcomes: np.ndarray, centers: np.ndarray, epsilon: float, level: float) -> np.ndarray:
    """Per row of ``outcomes`` (one row per estimate, one column per run),
    whether the hedged betting confidence sequence at ``level`` rules out
    every mean in [0, 1] more than epsilon away from the row's center.

    The capital betting on the mean exceeding m, prod(1 + l+ (x - m)), is
    non-increasing in m, and the one betting on it falling short,
    prod(1 - l- (x - m)), is non-decreasing, so rejecting the two edge
    points center -/+ epsilon rejects both tails. A point is rejected when
    half its capital reaches 1/level; an edge outside (0, 1) has no tail
    left to reject. Every operation works along a row (``cumsum`` is
    sequential and each row's log-capital is summed on its own), so a row's
    answer does not depend on the rows beside it.
    """
    t = np.arange(1, outcomes.shape[1] + 1, dtype=np.float64)
    means = (0.5 + np.cumsum(outcomes, axis=1)) / (t + 1.0)
    variances = (0.25 + np.cumsum((outcomes - means) ** 2, axis=1)) / (t + 1.0)
    prior = np.empty_like(variances)  # each bet sees only earlier runs
    prior[:, 0], prior[:, 1:] = 0.25, variances[:, :-1]
    log_target = math.log(2.0 / level)  # the hedge: half the capital must reach 1/level
    bets = np.minimum(_BET_CAP, np.sqrt(2.0 * log_target / (prior * t * np.log1p(t))))
    fits = np.ones(len(outcomes), dtype=bool)
    low, high = centers - epsilon, centers + epsilon
    up = np.flatnonzero(low > 0.0)
    if len(up):
        edge = low[up, None]
        capital = np.log1p(np.minimum(bets[up], _BET_CAP / edge) * (outcomes[up] - edge)).sum(axis=1)
        fits[up] = capital >= log_target
    down = np.flatnonzero(high < 1.0)
    if len(down):
        edge = high[down, None]
        capital = np.log1p(np.minimum(bets[down], _BET_CAP / (1.0 - edge)) * (edge - outcomes[down])).sum(axis=1)
        fits[down] &= capital >= log_target
    return fits


# Runs simulated at most in one call at the first check: the estimates of
# RUN_BUDGET // first_check(epsilon, alpha) rows advance together.
RUN_BUDGET = 8192


def verify_options(
    model: StochasticModel,
    option_ids: Sequence[int],
    config: SmcConfig,
    base_seed: int,
) -> list[tuple[int, SmcEstimate]]:
    """Estimate every option's expected outcome in quality units, row i of
    the model being option_ids[i], as (id, estimate) pairs in the order of
    option_ids.

    Option id runs with seeds ``mix64(mix64(base_seed, id), run_index)``
    until the betting confidence sequence at alpha/2 fits within +/-epsilon
    of its running mean, or up to ``required_samples(epsilon, alpha / 2)``
    runs, and reports ``kappa_scale * sum(outcomes) / n`` with n as
    ``samples_used``. Rows advance in lockstep groups: at each check, the
    rows still running get their next runs from one ``simulate_batch`` call,
    and one row-wise stopping check retires those whose interval fits, or
    all of them at the cap. A run outcome outside [0, 1] is a model bug and
    raises.
    """
    ids = list(option_ids)
    epsilon, level = config.epsilon, config.alpha / 2.0
    cap = required_samples(epsilon, level)
    first = first_check(epsilon, config.alpha)
    group = max(1, RUN_BUDGET // first)
    keys = np.array([mix64(base_seed, oid) for oid in ids], dtype=np.uint64)
    centers, used = [0.0] * len(ids), [0] * len(ids)
    for start in range(0, len(ids), group):
        running = np.arange(start, min(start + group, len(ids)))  # rows whose estimate has not stopped
        outcomes = np.empty((len(running), 0))
        done, n = 0, min(cap, first)
        while len(running):
            seeds_now = stream_uint64(keys[running, None], np.arange(done, n, dtype=np.uint64))
            chunk = np.asarray(model.simulate_batch(running, seeds_now), dtype=np.float64)
            if chunk.shape != seeds_now.shape:
                raise ValueError(f"model returned {chunk.shape} outcomes for {seeds_now.shape} runs")
            bad = ~((chunk >= 0.0) & (chunk <= 1.0))
            if bad.any():
                r, j = np.unravel_index(np.argmax(bad), chunk.shape)
                raise ValueError(
                    f"run {done + j} of option {ids[running[r]]} produced outcome "
                    f"{float(chunk[r, j])!r} outside [0, 1]"
                )
            outcomes = np.concatenate([outcomes, chunk], axis=1)
            means = [math.fsum(row) / n for row in outcomes.tolist()]
            if n == cap:
                stop = np.ones(len(running), dtype=bool)
            else:
                stop = _intervals_fit(outcomes, np.array(means), epsilon, level)
            for position in np.flatnonzero(stop).tolist():
                centers[running[position]] = means[position]
                used[running[position]] = n
            running, outcomes = running[~stop], outcomes[~stop]
            done, n = n, min(cap, math.ceil(_GROWTH * n))
    return [
        (oid, SmcEstimate(mean=config.kappa_scale * center, samples_used=runs))
        for oid, center, runs in zip(ids, centers, used)
    ]


class BernoulliModel:
    """Test model with known mean p: outcome 1.0 with probability p, else 0.0."""

    _SALT = 0x5E11AB1E

    def __init__(self, p: float):
        if not 0.0 <= p <= 1.0:
            raise ValueError("p must lie in [0, 1]")
        self.p = p

    def simulate_batch(self, rows: np.ndarray, seeds: np.ndarray) -> np.ndarray:
        """Every row is the same model: the outcomes depend on the seeds alone."""
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
    the given mean, as options 0..repetitions-1 of one ``verify_options``
    call, and reports the fraction whose interval contains it, against the
    threshold (1 - alpha) minus three-sigma binomial slack,
    with the mean and largest run count of an estimate and their cap.
    """
    if repetitions < 1:
        raise ValueError("repetitions must be a positive integer")
    if not 0.0 <= true_mean <= 1.0:
        raise ValueError("true_mean must lie in [0, 1]")
    estimates = verify_options(BernoulliModel(true_mean), range(repetitions), config, base_seed)
    target = config.kappa_scale * true_mean
    hits = sum(1 for _, est in estimates if abs(est.mean - target) <= config.kappa)
    samples = [est.samples_used for _, est in estimates]
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
