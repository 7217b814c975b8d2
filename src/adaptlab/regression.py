"""Least-squares linear regression over adaptation-option features.

The fit standardizes each feature to zero mean / unit variance over the
training window (conditioning only; capacity is unchanged), solves the
normal equations, and folds the standardization back into raw-space
weights, so a trained model predicts just ``weights @ x + intercept``.

When the Gram matrix is not positive definite (duplicate or constant
features, fewer samples than dimensions) a small ridge term scaled to the
Gram trace is added to the weight block, keeping the solve deterministic
with no tuning. Models are immutable; retraining is a fresh ``fit``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Ridge scale applied to the weight diagonal when the plain solve fails.
RIDGE_SCALE = 1e-8


@dataclass(frozen=True)
class LinearModel:
    """Immutable affine predictor ``weights @ x + intercept``."""

    weights: np.ndarray
    intercept: float

    @property
    def input_dim(self) -> int:
        return self.weights.shape[0]


def _training_window(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 2 or len(x) == 0 or y.shape != (len(x),):
        raise ValueError(f"need a nonempty (m, d) feature matrix and m targets, got shapes {x.shape} and {y.shape}")
    return x, y


def _solve_normal_equations(gram: np.ndarray, rhs: np.ndarray, n_features: int) -> np.ndarray:
    """Solve gram @ theta = rhs, adding trace-scaled ridge on failure."""
    try:
        np.linalg.cholesky(gram)
        theta = np.linalg.solve(gram, rhs)
        if np.all(np.isfinite(theta)):
            return theta
    except np.linalg.LinAlgError:
        pass
    trace_scale = float(np.trace(gram[:n_features, :n_features])) / max(n_features, 1)
    ridge = RIDGE_SCALE * max(trace_scale, 1.0)
    regularized = gram.copy()
    for _ in range(8):
        regularized[np.arange(n_features), np.arange(n_features)] += ridge
        try:
            theta = np.linalg.solve(regularized, rhs)
            if np.all(np.isfinite(theta)):
                return theta
        except np.linalg.LinAlgError:
            pass
        ridge *= 10.0
    raise np.linalg.LinAlgError("normal equations unsolvable even with ridge regularization")


def fit(x: np.ndarray, y: np.ndarray) -> LinearModel:
    """Least-squares fit of the targets y on the rows of the (m, d) matrix x.

    Deterministic for a fixed row order, and permutation of the rows moves
    the solution only at floating-point noise level (the minimizer itself
    is order-independent).
    """
    x, y = _training_window(x, y)
    m, n = x.shape

    mean = x.mean(axis=0)
    std = x.std(axis=0)
    std = np.where(std > 0.0, std, 1.0)
    xs = (x - mean) / std

    design = np.hstack([xs, np.ones((m, 1))])
    gram = design.T @ design
    rhs = design.T @ y
    theta = _solve_normal_equations(gram, rhs, n)

    scaled_w = theta[:n]
    scaled_b = theta[n]
    weights = scaled_w / std
    intercept = float(scaled_b - weights @ mean)
    return LinearModel(weights=weights, intercept=intercept)


def predict_batch(model: LinearModel, features: np.ndarray) -> np.ndarray:
    """Raw predictions weights @ x + intercept for a (count, input_dim)
    feature matrix; deliberately not clamped."""
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.input_dim:
        raise ValueError(f"feature matrix shape {x.shape} does not match model dimension {model.input_dim}")
    return x @ model.weights + model.intercept


def empirical_risk(model: LinearModel, x: np.ndarray, y: np.ndarray) -> float:
    """Mean squared residual of the targets y on the rows of x.

    Residuals are squared in float64 and accumulated with exact summation,
    so the result does not depend on how the sum might be chunked.
    """
    x, y = _training_window(x, y)
    if x.shape[1] != model.input_dim:
        raise ValueError(f"feature length {x.shape[1]} does not match model dimension {model.input_dim}")
    residuals = y - (x @ model.weights + model.intercept)
    squares = residuals * residuals
    return math.fsum(squares.tolist()) / len(y)
