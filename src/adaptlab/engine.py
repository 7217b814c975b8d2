"""Adaptation engine: the monitor-analyse-plan-execute loop over the network.

Each cycle the engine observes the drifted environment, predicts every
option's quality with the linear model, keeps only options predicted at or
under a cutoff, verifies the survivors with statistical model checking,
switches to the best verified option, retrains on the newly labeled
samples, and computes the decision-error bound for the cycle. During the
warm-up phase there is no model yet, so every option is verified and the
model is trained on the full space's labels.

Every cycle also consults the simulator's analytic oracle for the true
quality of the selected option and of the true best option, giving a
measured decision error to hold against the bound.

Everything is deterministic per (topology, config, walk, base seed):
per-cycle seeds for the environment walk and for SMC verification are
derived independently, so a re-run reproduces records bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .bounds import (
    DecisionErrorBound,
    QualityDomain,
    RiskBoundInputs,
    check_eta,
    count_feasible,
    decision_error_bound,
    expected_risk_terms,
    vc_dimension_linear,
)
from .netsim import (
    Environment,
    EnvironmentWalk,
    NetworkModel,
    NetworkTopology,
    NetworkView,
    environment_step,
    features,
    initial_environment,
    true_expected_loss,
)
from .regression import LinearModel, TrainingWindow, empirical_risk, fit, predict_batch
from .seeds import mix64
from .smc import SmcConfig, verify_options

_ENV_SEED_SALT = 0x454E5649524F4E  # distinct per-purpose salts so the
_SMC_SEED_SALT = 0x534D432D52554E  # walk and verification streams never collide

# Quality is packet loss in percent, the oracle's scale. The verifier
# estimates loss fractions; the engine scales them, and epsilon into kappa,
# by this domain's width.
LOSS_DOMAIN = QualityDomain(lower=0.0, upper=100.0)


@dataclass(frozen=True)
class EngineConfig:
    """Knobs of one experiment run."""

    warmup_cycles: int = 30
    total_cycles: int = 200
    eta: float = 0.05
    smc: SmcConfig = field(default_factory=SmcConfig)
    window_factor: int = 10

    def __post_init__(self) -> None:
        if self.warmup_cycles < 1:
            raise ValueError("warmup_cycles must be at least 1 (the model needs labeled data)")
        if self.total_cycles < self.warmup_cycles:
            raise ValueError("total_cycles must be at least warmup_cycles")
        check_eta(self.eta)
        if self.window_factor < 1:
            raise ValueError("window_factor must be positive")


@dataclass(frozen=True)
class CycleRecord:
    """Everything one adaptation cycle decided and observed.

    bound and bound_holds are None exactly in warm-up. After it, the
    bound's cutoff and best_prediction are the cycle's reduction threshold
    and its minimum prediction over the full space.
    """

    cycle: int
    reduced_size: int
    selected_id: int
    b_r: float
    b_w: float
    b_worst: float
    measured_error: float
    bound: DecisionErrorBound | None
    empirical_risk: float
    bound_holds: bool | None


def cutoff(predictions: Sequence[float] | np.ndarray) -> float:
    """Reduction threshold: min + (median - min)/4.

    The median of an even-length list is its lower-middle order statistic,
    which keeps the threshold conservative and the rule exactly
    reproducible. The result is always >= the minimum prediction, so the
    best-predicted option always survives reduction.
    """
    ordered = np.sort(np.asarray(predictions, dtype=np.float64))
    if ordered.size == 0:
        raise ValueError("cutoff needs at least one prediction")
    low = ordered[0]
    median = ordered[(ordered.size - 1) // 2]
    return float(low + (median - low) / 4.0)


class AdaptationEngine:
    """Stateful cycle runner; create one per experiment."""

    def __init__(
        self,
        topology: NetworkTopology,
        config: EngineConfig,
        walk: EnvironmentWalk | None = None,
        base_seed: int = 0,
    ):
        self.topology = topology
        self.config = config
        self.walk = walk if walk is not None else EnvironmentWalk()
        self.base_seed = base_seed
        self.options = range(topology.option_count)
        self.env: Environment = initial_environment(topology)
        # training window: feature rows and verified estimates
        width = features(NetworkView(topology, self.env)).shape[1]
        self.window = TrainingWindow(width, config.window_factor * len(self.options))
        self.vc_dim = vc_dimension_linear(self.window.dim)
        # the window only grows, so after warm-up every cycle's bound has d < m
        rows = min(config.window_factor, config.warmup_cycles) * len(self.options)
        if rows <= self.vc_dim:
            raise ValueError(
                f"min(window_factor {config.window_factor}, warmup_cycles {config.warmup_cycles}) x {len(self.options)}"
                f" options = {rows} training rows after warm-up, not more than the VC dimension {self.vc_dim}"
            )
        self.model: LinearModel | None = None
        self.completed_cycles = 0

    # -- one cycle ---------------------------------------------------------

    def run_cycle(self) -> CycleRecord:
        t = self.completed_cycles + 1
        if t > 1:
            self.env = environment_step_for_cycle(self.env, self.walk, self.base_seed, t)
        env = self.env
        smc_seed = mix64(self.base_seed, _SMC_SEED_SALT, t)

        view = NetworkView(self.topology, env)
        design = features(view)
        warmup = t <= self.config.warmup_cycles
        if warmup:
            candidate_ids = list(self.options)
        else:
            assert self.model is not None
            predictions = predict_batch(self.model, design)
            best_prediction = float(predictions.min())
            cut = cutoff(predictions)
            candidate_ids = np.flatnonzero(predictions <= cut).tolist()

        verified = verify_options(NetworkModel(view, candidate_ids), candidate_ids, self.config.smc, smc_seed)
        means = [LOSS_DOMAIN.width * est.mean for _, est in verified]  # loss in percent
        _, selected_id = min(zip(means, candidate_ids))

        self.window.add(design[candidate_ids], means)
        self.model = fit(self.window)
        risk = empirical_risk(self.model, self.window)

        bound = None
        if not warmup:
            bound = self._cycle_bound(risk, predictions, best_prediction, cut)

        truths = LOSS_DOMAIN.width * true_expected_loss(view)  # loss in percent
        b_w = float(truths.min())
        b_worst = float(truths.max())
        b_r = float(truths[selected_id])
        measured = b_r - b_w
        holds = None if bound is None else measured <= bound.error_bound

        self.completed_cycles = t
        return CycleRecord(
            cycle=t,
            reduced_size=len(candidate_ids),
            selected_id=selected_id,
            b_r=b_r,
            b_w=b_w,
            b_worst=b_worst,
            measured_error=measured,
            bound=bound,
            empirical_risk=risk,
            bound_holds=holds,
        )

    def _cycle_bound(
        self,
        risk: float,
        predictions: np.ndarray,
        best_prediction: float,
        cut: float,
    ) -> DecisionErrorBound:
        """Compose the per-cycle decision-error bound. The constructor's check
        keeps d < m, and a fit with an intercept may set every weight to 0, so
        the window's risk is at most its targets' variance, width^2 / 4 < loss_upper."""
        inputs = RiskBoundInputs(
            m=len(self.window),
            vc_dim=self.vc_dim,
            eta=self.config.eta,
            empirical_risk=risk,
            kappa=LOSS_DOMAIN.width * self.config.smc.epsilon,
            alpha=self.config.smc.alpha,
        )
        *_, risk_upper = expected_risk_terms(inputs, LOSS_DOMAIN)
        n_feasible = count_feasible(predictions, best_prediction, math.sqrt(risk_upper))
        return decision_error_bound(inputs, LOSS_DOMAIN, cut, best_prediction, n_feasible)


def environment_step_for_cycle(
    env: Environment, walk: EnvironmentWalk, base_seed: int, cycle: int
) -> Environment:
    """The walk step taken before the given cycle, seeded independently of
    every other randomness consumer."""
    return environment_step(env, walk, mix64(base_seed, _ENV_SEED_SALT, cycle))


def run_experiment(
    topology: NetworkTopology,
    config: EngineConfig,
    walk: EnvironmentWalk | None = None,
    base_seed: int = 0,
) -> list[CycleRecord]:
    """Run the full loop for config.total_cycles cycles; deterministic per seed."""
    engine = AdaptationEngine(topology, config, walk, base_seed)
    return [engine.run_cycle() for _ in range(config.total_cycles)]
