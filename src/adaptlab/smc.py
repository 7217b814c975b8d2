"""Statistical model checking by fixed-sample Monte Carlo estimation.

Estimates the expected value of a [0, 1]-bounded run outcome of any
stochastic model to within +/-epsilon at confidence 1 - alpha, using the
Chernoff-Hoeffding sample size N = ceil(ln(2/alpha) / (2 epsilon^2)).
Estimates are reported in quality units: the raw mean is multiplied by
``kappa_scale`` and the induced quality-unit error is kappa =
kappa_scale * epsilon (e.g. scale 100 turns a loss fraction into percent
with kappa = 100 * epsilon).

Determinism contract: per-run seeds are derived from (base_seed,
run_index) with :func:`adaptlab.seeds.mix64`, outcomes are collected in
run-index order, and the reduction is an exactly rounded sum - so an
estimate is a pure function of (model, config, base_seed), and a model that
simulates its runs one seed at a time gives the same estimate as one that
simulates them in a single batch.
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


def estimate(model: StochasticModel, config: SmcConfig, base_seed: int) -> SmcEstimate:
    """Estimate the model's expected outcome in quality units.

    Runs ``required_samples(epsilon, alpha)`` simulations with per-run
    seeds ``mix64(base_seed, run_index)`` and returns
    ``kappa_scale * sum(outcomes) / N`` with half-width kappa. A run
    outcome outside [0, 1] is a model bug and raises.
    """
    n = required_samples(config.epsilon, config.alpha)
    seeds = derive_seeds(base_seed, n)
    outcomes = np.asarray(model.simulate_batch(seeds), dtype=np.float64)
    if outcomes.shape != (n,):
        raise ValueError(f"model returned {outcomes.shape} outcomes for {n} runs")
    low, high = float(outcomes.min()), float(outcomes.max())
    if not (math.isfinite(low) and math.isfinite(high)) or low < 0.0 or high > 1.0:
        bad = int(np.argmax((outcomes < 0.0) | (outcomes > 1.0) | ~np.isfinite(outcomes)))
        raise ValueError(f"run {bad} produced outcome {outcomes[bad]!r} outside [0, 1]")
    mean = config.kappa_scale * (math.fsum(outcomes.tolist()) / n)
    return SmcEstimate(mean=mean, kappa=config.kappa, alpha=config.alpha, samples_used=n)


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
    against the threshold (1 - alpha) minus three-sigma binomial slack.
    """
    if repetitions < 1:
        raise ValueError("repetitions must be a positive integer")
    if not 0.0 <= true_mean <= 1.0:
        raise ValueError("true_mean must lie in [0, 1]")
    model = BernoulliModel(true_mean)
    target = config.kappa_scale * true_mean
    hits = 0
    for rep in range(repetitions):
        est = estimate(model, config, mix64(base_seed, rep))
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
        "samples_per_estimate": required_samples(config.epsilon, config.alpha),
        "hits": hits,
        "coverage": coverage,
        "nominal_coverage": nominal,
        "threshold": threshold,
        "passed": coverage >= threshold,
    }
