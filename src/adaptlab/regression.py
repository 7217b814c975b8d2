"""Least-squares linear regression over adaptation-option features.

The fit centres the features and the targets over the training window
and solves the centred normal equations once with ``np.linalg.lstsq`` on
the unscaled columns; a model predicts ``weights @ x + intercept``.
``rcond=None`` drops singular values of the Gram matrix below its size
times machine epsilon times the largest, so a direction the window leaves
undetermined (duplicate or constant features, fewer samples than
dimensions) gets no weight: the weights are those of minimum norm. Models
are immutable; retraining is a fresh ``fit``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


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


def fit(x: np.ndarray, y: np.ndarray) -> LinearModel:
    """Least-squares fit of the targets y on the rows of the (m, d) matrix x.

    Deterministic for a fixed row order, and permutation of the rows moves
    the solution only at floating-point noise level (the minimizer itself
    is order-independent).
    """
    x, y = _training_window(x, y)
    mean = x.mean(axis=0)
    xc = x - mean
    target_mean = y.mean()
    weights = np.linalg.lstsq(xc.T @ xc, xc.T @ (y - target_mean), rcond=None)[0]
    if not np.all(np.isfinite(weights)):
        raise np.linalg.LinAlgError("least-squares weights are not finite")
    return LinearModel(weights=weights, intercept=float(target_mean - weights @ mean))


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
    residuals = y - predict_batch(model, x)
    squares = residuals * residuals
    return math.fsum(squares.tolist()) / len(y)
