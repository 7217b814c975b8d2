"""Decision laboratory for learning-based adaptation-space reduction.

A linear model predicts the quality of every configuration of a simulated
multi-hop sensor network; options predicted under a cutoff are verified by
statistical model checking; the best verified option is selected; and a
closed-form bound on the selection's decision error — with its confidence —
is computed and checked against the simulator's analytic ground truth.

The package root re-exports the entry points; everything else is imported
from its module (``adaptlab.bounds``, ``adaptlab.netsim``, ...).
"""

from .bounds import (
    QualityDomain,
    RiskBoundInputs,
    decision_error_bound,
    prob_any_feasible_retained,
    reduction_survival_prob,
    vc_dimension_linear,
)
from .engine import EngineConfig, cutoff, run_experiment
from .netsim import Environment, NetworkModel, NetworkView, desk_topology, true_expected_loss
from .regression import TrainingWindow, empirical_risk, fit
from .smc import SmcConfig, coverage_experiment, required_samples

__version__ = "0.1.0"

__all__ = [
    "EngineConfig",
    "Environment",
    "NetworkModel",
    "NetworkView",
    "QualityDomain",
    "RiskBoundInputs",
    "SmcConfig",
    "TrainingWindow",
    "coverage_experiment",
    "cutoff",
    "decision_error_bound",
    "desk_topology",
    "empirical_risk",
    "fit",
    "prob_any_feasible_retained",
    "reduction_survival_prob",
    "required_samples",
    "run_experiment",
    "true_expected_loss",
    "vc_dimension_linear",
]
