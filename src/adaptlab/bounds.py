"""Closed-form error and confidence bounds for learning-assisted decisions.

This module computes, in pure float64, every quantity needed to bound the
error a regression-based adaptation-space reduction can add to a verified
decision:

- VC dimension of a linear hypothesis class: ``input_dim + 1``.
- The expected-risk margin around the empirical risk of a learner trained
  on m i.i.d. samples:

      margin        = (b - a) * sqrt(nu)
      nu            = (d*(ln(2m/d) + 1) - ln(eta/4)) / m

  where [a, b] bounds the squared loss and eta is a designer-chosen
  slack in (0, 1); valid only for d < m.
- The correction of that margin for training targets that were *estimated*
  by a statistical model checker with quality-unit error kappa:

      adjusted_margin = margin + 2*(upper - lower)*kappa

- The probability that an option whose true quality is within the expected
  prediction error of the global best (a "feasible" option) survives a
  reduction with cutoff C:

      survival_prob = clamp((C - best_prediction) / (2*sqrt(risk_upper)), 0, 1)

  and the probability that at least one of n such options survives,
  ``1 - (1 - survival_prob)**n``.
- The composition of all of the above into a :class:`DecisionErrorBound`:
  the best option selected from the reduced, SMC-verified space is within

      sqrt(empirical_risk + adjusted_margin) + kappa

  of the true best, with probability at least

      (1 - eta) * (1 - alpha)**2 * (1 - (1 - survival_prob)**n).

Everything here is a pure function of its arguments; there is no shared
state and all operations are safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class QualityDomain:
    """Range [lower, upper] of a quality value with a minimization goal.

    Induces the squared-loss bounds used by the risk margin: the loss lies
    in [0, (upper - lower)**2] and its derivative in the target is bounded
    by 2*(upper - lower). For a domain starting at 0 these reduce to
    upper**2 and 2*upper.
    """

    lower: float
    upper: float

    def __post_init__(self) -> None:
        if not (self.lower < self.upper and math.isfinite(self.width)):
            raise ValueError(f"quality domain needs lower < upper and a finite width, got [{self.lower}, {self.upper}]")

    @property
    def width(self) -> float:
        return self.upper - self.lower

    @property
    def loss_upper(self) -> float:
        """Maximum of the squared loss over the domain: (upper - lower)**2."""
        return self.width * self.width

    @property
    def loss_slope_bound(self) -> float:
        """Bound on |d loss / d target| over the domain: 2*(upper - lower)."""
        return 2.0 * self.width


def check_open_unit(name: str, value: float) -> None:
    """Reject a value outside (0, 1): the one range check of eta, alpha and epsilon."""
    if not 0.0 < value < 1.0:
        raise ValueError(f"{name} must lie in (0, 1)")


def check_eta(eta: float) -> None:
    """Reject an eta outside (0, 1), or one whose eta / 4 underflows to 0."""
    check_open_unit("eta", eta)
    if eta / 4.0 == 0.0:
        raise ValueError(f"eta {eta!r} is too small: eta / 4 underflows to 0, and ln(eta / 4) is not finite")


@dataclass(frozen=True)
class RiskBoundInputs:
    """Everything the decision-error bound needs about one trained model.

    m: training samples used for the fit (must exceed vc_dim).
    vc_dim: capacity of the learner's hypothesis class.
    eta: designer slack in (0, 1) trading bound width against confidence.
    empirical_risk: mean squared training error, in squared quality units.
    kappa: quality-unit half-width of the verifier's estimates.
    alpha: verifier significance level in (0, 1) (confidence 1 - alpha).
    """

    m: int
    vc_dim: int
    eta: float
    empirical_risk: float
    kappa: float
    alpha: float

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError("m must be a positive integer")
        if self.vc_dim < 1:
            raise ValueError("vc_dim must be a positive integer")
        if self.vc_dim >= self.m:
            raise ValueError(f"d >= m: risk bound needs more samples ({self.m}) than VC dimension ({self.vc_dim})")
        check_eta(self.eta)
        check_open_unit("alpha", self.alpha)
        if not 0.0 <= self.empirical_risk < math.inf:
            raise ValueError("empirical_risk must be finite and nonnegative")
        if not 0.0 <= self.kappa < math.inf:
            raise ValueError("kappa must be finite and nonnegative")


@dataclass(frozen=True)
class DecisionErrorBound:
    """All quantities of the composed error/confidence bound for one decision.

    error_bound and min_probability are the headline pair: the selected
    option's true quality is within ``error_bound`` of the true best with
    probability at least ``min_probability``. The remaining fields are the
    intermediate terms, kept so the composition can be audited cell by cell.
    """

    confidence_term: float       # nu: capacity/sample ratio inside the margin
    risk_margin: float           # (b - a) * sqrt(nu), squared quality units
    adjusted_risk_margin: float  # risk_margin + slope_bound * kappa
    expected_risk_upper: float   # empirical_risk + adjusted_risk_margin
    survival_prob: float         # feasible option survives reduction, in [0, 1]
    n_feasible: int
    best_prediction: float       # minimum predicted quality over the whole space
    cutoff: float                # reduction threshold actually applied
    error_bound: float           # sqrt(expected_risk_upper) + kappa, quality units
    min_probability: float       # (1-eta)(1-alpha)^2(1-(1-survival_prob)^n)


def vc_dimension_linear(input_dim: int) -> int:
    """VC dimension of linear functions on input_dim real features."""
    if input_dim < 1:
        raise ValueError("input_dim must be a positive integer")
    return input_dim + 1


def expected_risk_terms(inputs: RiskBoundInputs, domain: QualityDomain) -> tuple[float, float, float, float]:
    """The chain nu -> margin -> adjusted margin -> expected-risk upper.

    Returns ``(confidence_term, risk_margin, adjusted_risk_margin,
    expected_risk_upper)``, the last being empirical_risk + adjusted margin.
    ``RiskBoundInputs`` has already checked d < m, eta in (0, 1) and that
    eta / 4 does not underflow, so nu is finite and positive, and kappa >= 0.
    """
    if inputs.empirical_risk > domain.loss_upper:
        raise ValueError(f"empirical_risk {inputs.empirical_risk} exceeds the domain's loss bound {domain.loss_upper}")
    d = float(inputs.vc_dim)
    nu = (d * (math.log(2.0 * inputs.m / d) + 1.0) - math.log(inputs.eta / 4.0)) / inputs.m
    margin = domain.loss_upper * math.sqrt(nu)
    adjusted = margin + domain.loss_slope_bound * inputs.kappa
    return nu, margin, adjusted, inputs.empirical_risk + adjusted


def reduction_survival_prob(cutoff: float, best_prediction: float, expected_risk_upper: float) -> float:
    """Probability a feasible option's prediction lands inside the reduced space.

    (cutoff - best_prediction) / (2*sqrt(expected_risk_upper)), clamped to
    [0, 1]: the raw ratio can exceed 1 for generous cutoffs and must remain
    a probability.
    """
    if expected_risk_upper <= 0.0:
        raise ValueError("expected_risk_upper must be positive (zero risk makes the ratio undefined)")
    if not (math.isfinite(cutoff) and math.isfinite(best_prediction)):
        raise ValueError("cutoff and best_prediction must be finite")
    ratio = (cutoff - best_prediction) / (2.0 * math.sqrt(expected_risk_upper))
    return min(1.0, max(0.0, ratio))


def prob_any_feasible_retained(survival_prob: float, n_feasible: int) -> float:
    """Probability at least one of n feasible options survives: 1 - (1-p)**n.

    Monotone nondecreasing in both arguments. Evaluated as
    -expm1(n*log1p(-p)), which agrees with the direct power form but stays
    accurate when n*p is small.
    """
    if not 0.0 <= survival_prob <= 1.0:
        raise ValueError("survival_prob must lie in [0, 1]")
    if n_feasible < 0:
        raise ValueError("n_feasible must be nonnegative")
    if n_feasible == 0 or survival_prob == 0.0:
        return 0.0
    if survival_prob == 1.0:
        return 1.0
    return -math.expm1(n_feasible * math.log1p(-survival_prob))


def count_feasible(predictions: Sequence[float] | np.ndarray, best_prediction: float, radius: float) -> int:
    """Number of predictions within ``radius`` above ``best_prediction``.

    Stands in for the unknowable count of truly feasible options: true
    values are not available at decision time, so the predictions are
    scanned instead. With best_prediction = min(predictions) the count is
    always at least 1.
    """
    if radius < 0.0:
        raise ValueError("radius must be nonnegative")
    gaps = np.asarray(predictions, dtype=np.float64) - best_prediction
    if gaps.size == 0:
        raise ValueError("predictions must be nonempty")
    return int(np.count_nonzero(gaps <= radius))


def decision_error_bound(
    inputs: RiskBoundInputs,
    domain: QualityDomain,
    cutoff: float,
    best_prediction: float,
    n_feasible: int,
) -> DecisionErrorBound:
    """Compose the full error/confidence bound for one adaptation decision.

    Args:
        inputs: trained-model facts (sample count, capacity, risks, verifier
            accuracy); validated on construction.
        domain: quality-value range; supplies the loss bounds.
        cutoff: reduction threshold that was applied to the predictions.
        best_prediction: minimum prediction over the complete space. A
            cutoff below it keeps no option, so the bound then comes with
            survival_prob and min_probability 0 (any cutoff rule anchored at
            the minimum prediction stays at or above it).
        n_feasible: number of options considered feasible, e.g. from
            :func:`count_feasible`.

    Returns:
        A :class:`DecisionErrorBound` with every intermediate term filled in.
    """
    nu, margin, adjusted, risk_upper = expected_risk_terms(inputs, domain)
    survival = reduction_survival_prob(cutoff, best_prediction, risk_upper)
    return DecisionErrorBound(
        confidence_term=nu,
        risk_margin=margin,
        adjusted_risk_margin=adjusted,
        expected_risk_upper=risk_upper,
        survival_prob=survival,
        n_feasible=n_feasible,
        best_prediction=best_prediction,
        cutoff=cutoff,
        error_bound=math.sqrt(risk_upper) + inputs.kappa,
        min_probability=(1.0 - inputs.eta) * (1.0 - inputs.alpha) ** 2
        * prob_any_feasible_retained(survival, n_feasible),
    )
