"""Statistical model checking by sequential Monte Carlo estimation.

Estimates the expected value of a [0, 1]-bounded run outcome of any
stochastic model to within +/-epsilon at confidence 1 - alpha. Estimates
are fractions in [0, 1]; a caller that needs quality units scales them and
epsilon by its domain's width.

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
chunk continues the same seed stream in run-index order. Runs report integer
counts of the model's ``total``; the mean is their exact sum divided once by
n * total. The stop decision uses float ``cumsum`` and ``log1p`` over the
outcomes count / total, row by row, so it is deterministic on one machine
and numpy build. An estimate is thus a pure function of (the option's
counts, config, base_seed, id): it does not depend on which rows share its
group, and a model that simulates its runs one seed at a time gives the
same estimate, run count included, as one that simulates them in one batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Protocol, Sequence

import numpy as np

from .bounds import check_open_unit
from .seeds import stream_uint64


class StochasticModel(Protocol):
    """Simulatable systems, one per row. ``simulate_batch(rows, seeds)``
    returns, for seeds of shape (len(rows), n), the integer count in [0, total]
    of row rows[i] with seed seeds[i, j] at [i, j], its outcome count / total,
    determined by that (row, seed) alone: any batching gives the same values."""

    total: int
    def simulate_batch(self, rows: np.ndarray, seeds: np.ndarray) -> np.ndarray: ...


@dataclass(frozen=True)
class SmcConfig:
    """Estimation accuracy epsilon and significance alpha."""

    epsilon: float = 0.01
    alpha: float = 0.1

    def __post_init__(self) -> None:
        check_open_unit("epsilon", self.epsilon)
        check_open_unit("alpha", self.alpha)


@dataclass(frozen=True)
class SmcEstimate:
    """Estimated mean in [0, 1] (+/-epsilon of its config) and its run count."""

    mean: float
    samples_used: int


def required_samples(epsilon: float, alpha: float) -> int:
    """Hoeffding run count ceil(ln(2/alpha) / (2 epsilon^2)) for [0, 1] outcomes."""
    check_open_unit("epsilon", epsilon)
    check_open_unit("alpha", alpha)
    try:
        return math.ceil(math.log(2.0 / alpha) / (2.0 * epsilon * epsilon))
    except (ZeroDivisionError, OverflowError):  # epsilon squared underflows, or the count is not finite
        raise ValueError(f"epsilon {epsilon!r} is too small: the Hoeffding run count overflows") from None


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
    half its capital reaches 1/level. Both edges are evaluated on every row;
    one without room (at or beyond 0 or 1) has no tail left to reject and is
    masked out. Eq. 26's truncation at ``_BET_CAP`` over the edge's room is
    left out: bets are at most ``_BET_CAP`` and unmasked rooms lie in (0, 1).
    Every operation works along a row (``cumsum`` is sequential and each
    row's log-capital is summed on its own), so a row's answer does not
    depend on the rows beside it.
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
    # (edge, its distance from the bound beyond it, whether it bets on a higher mean)
    for edges, room, up in ((low, low, True), (high, 1.0 - high, False)):
        gains = outcomes - edges[:, None] if up else edges[:, None] - outcomes  # >= 0 where masked
        capital = np.log1p(bets * gains).sum(axis=1)
        fits &= (room <= 0.0) | (capital >= log_target)
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
    """Estimate every option's expected outcome, row i of the model being
    option_ids[i], as (id, estimate) pairs in the order of option_ids.

    Option id runs with seeds ``mix64(mix64(base_seed, id), run_index)``
    until the betting confidence sequence at alpha/2 fits within +/-epsilon
    of its running mean, or up to ``required_samples(epsilon, alpha / 2)``
    runs, and reports ``sum(counts) / (n * total)``, the exact sample mean
    rounded once, with n as ``samples_used``. Rows advance in
    lockstep groups: at each check, the rows still running get their next
    runs from one ``simulate_batch`` call, and one row-wise stopping check
    retires those whose interval fits, or all of them at the cap. A count
    that is not an integer in [0, total] is a model bug and raises.
    """
    ids = list(option_ids)
    if ids and np.asarray(ids).dtype.kind not in "iu":  # a cast would seed 1.7 as 1 and True as 1
        raise ValueError("option ids must have an integer type")
    epsilon, level, total = config.epsilon, config.alpha / 2.0, model.total
    if level == 0.0 or 2.0 / level == math.inf:  # alpha / 2 underflows, or the cap's ln(2 / level) is infinite
        raise ValueError(f"alpha {config.alpha!r} is too small: the Hoeffding run count at alpha / 2 overflows")
    cap = required_samples(epsilon, level)
    first = first_check(epsilon, config.alpha)
    group = max(1, RUN_BUDGET // first)
    keys = stream_uint64(np.uint64(base_seed), np.array(ids, dtype=np.uint64))
    centers, used = [0.0] * len(ids), [0] * len(ids)
    for start in range(0, len(ids), group):
        running = np.arange(start, min(start + group, len(ids)))  # rows whose estimate has not stopped
        outcomes, sums = np.empty((len(running), 0)), np.zeros(len(running), dtype=np.int64)
        done, n = 0, min(cap, first)
        while len(running):
            seeds_now = stream_uint64(keys[running, None], np.arange(done, n, dtype=np.uint64))
            chunk = np.asarray(model.simulate_batch(running, seeds_now))  # not cast: a cast would truncate fractions
            if chunk.shape != seeds_now.shape or not np.issubdtype(chunk.dtype, np.integer):
                raise ValueError(f"model returned {chunk.shape} {chunk.dtype} for {seeds_now.shape} integer counts")
            bad = (chunk < 0) | (chunk > total)
            if bad.any():
                r, j = np.unravel_index(np.argmax(bad), chunk.shape)
                raise ValueError(f"run {done + j} of option {ids[running[r]]} gave {chunk[r, j]} outside [0, {total}]")
            sums += chunk.sum(axis=1, dtype=np.int64)  # exact: integer addition does not round
            outcomes = np.concatenate([outcomes, chunk / total], axis=1)
            means = sums / (n * total)
            stop = np.ones(len(running), dtype=bool) if n == cap else _intervals_fit(outcomes, means, epsilon, level)
            for position in np.flatnonzero(stop).tolist():
                centers[running[position]] = float(means[position])
                used[running[position]] = n
            running, outcomes, sums = running[~stop], outcomes[~stop], sums[~stop]
            done, n = n, min(cap, math.ceil(_GROWTH * n))
    return [(oid, SmcEstimate(mean=center, samples_used=runs)) for oid, center, runs in zip(ids, centers, used)]


class BernoulliModel:
    """Test model with known mean p: it counts 1 of ``total`` 1 with probability p, else 0."""

    _SALT = 0x5E11AB1E
    total = 1

    def __init__(self, p: float):
        if not 0.0 <= p <= 1.0:
            raise ValueError("p must lie in [0, 1]")
        self.p = p

    def simulate_batch(self, rows: np.ndarray, seeds: np.ndarray) -> np.ndarray:
        """Every row is the same model: the outcomes depend on the seeds alone."""
        draws = stream_uint64(np.asarray(seeds, dtype=np.uint64), np.uint64(self._SALT))
        if self.p == 1.0:  # exact; its threshold 2**64 does not fit a uint64
            return np.ones(draws.shape, dtype=np.int64)
        return (draws < np.uint64(int(self.p * 2.0**64))).astype(np.int64)


def coverage_experiment(
    true_mean: float,
    config: SmcConfig,
    repetitions: int,
    base_seed: int,
) -> dict:
    """Measure how often the +/-epsilon interval captures a known mean.

    Runs ``repetitions`` independent estimates of a Bernoulli model with
    the given mean, as options 0..repetitions-1 of one ``verify_options``
    call, and reports the fraction whose interval contains it, against the
    threshold (1 - alpha) minus three-sigma binomial slack,
    with the mean and largest run count of an estimate and their cap. A
    threshold at or below 0, which a coverage of 0 would pass, is rejected
    before any estimate runs.
    """
    if repetitions < 1:
        raise ValueError("repetitions must be a positive integer")
    if not 0.0 <= true_mean <= 1.0:
        raise ValueError("true_mean must lie in [0, 1]")
    nominal = 1.0 - config.alpha
    threshold = nominal - 3.0 * math.sqrt(nominal * config.alpha / repetitions)
    if threshold <= 0.0:
        raise ValueError(f"repetitions {repetitions} are too few at alpha {config.alpha!r}: the coverage "
                         f"threshold {threshold:.4g} is not positive, so any coverage would pass")
    estimates = verify_options(BernoulliModel(true_mean), range(repetitions), config, base_seed)
    hits = sum(1 for _, est in estimates if abs(est.mean - true_mean) <= config.epsilon)
    samples = [est.samples_used for _, est in estimates]
    coverage = hits / repetitions
    return {
        "true_mean": true_mean,
        "epsilon": config.epsilon,
        "alpha": config.alpha,
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
