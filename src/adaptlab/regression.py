"""Least-squares linear regression over adaptation-option features.

A ``TrainingWindow`` keeps the newest ``cap`` rows as per-cycle blocks of
``[x | y]`` with running moments: the row count, the column means and the
centred moment matrix ``M`` of ``[x | y]``. Rows enter and leave ``M`` by
Chan, Golub & LeVeque's pairwise rule (1979), so a cycle pays for the rows
it adds and drops, not for the whole window. ``fit`` solves the centred
normal equations ``M[:d, :d] w = M[:d, d]`` once with ``np.linalg.lstsq``;
``rcond=None`` drops singular values below the matrix size times machine
epsilon times the largest, so a direction the window leaves undetermined
(duplicate or constant features, fewer samples than dimensions) gets no
weight. ``empirical_risk`` reads any model's mean squared residual off the
same moments. Models are immutable: ``weights @ x + intercept``.
"""

from __future__ import annotations

from collections import deque
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


class TrainingWindow:
    """The newest ``cap`` training rows of ``dim`` features and a target.

    ``blocks`` holds the rows as ``[x | y]`` arrays, oldest first; ``mean``
    and ``moments`` are the column means and the centred moment matrix of
    all of them, and ``len`` is their count.
    """

    def __init__(self, dim: int, cap: int):
        if dim < 1 or cap < 1:
            raise ValueError(f"a training window needs a positive dimension and cap, got {dim} and {cap}")
        self.dim = dim
        self.cap = cap
        self.blocks: deque[np.ndarray] = deque()
        self.mean = np.zeros(dim + 1)
        self.moments = np.zeros((dim + 1, dim + 1))
        self._count = 0

    def __len__(self) -> int:
        return self._count

    def add(self, x: np.ndarray, y: np.ndarray) -> None:
        """Append the rows of the (n, dim) matrix x with targets y, then drop
        the oldest rows beyond ``cap``."""
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.dim or len(x) == 0 or y.shape != (len(x),):
            raise ValueError(
                f"need a nonempty (m, {self.dim}) feature matrix and m targets, got shapes {x.shape} and {y.shape}"
            )
        block = np.column_stack((x, y))
        if not np.isfinite(block).all():
            # a NaN merged into the moments would outlive its row (LinAlgError is a ValueError)
            raise np.linalg.LinAlgError("training rows must be finite")
        self._merge(block, 1)
        self.blocks.append(block)
        while self._count > self.cap:
            oldest = self.blocks[0]
            leaving = oldest[: self._count - self.cap]
            if len(leaving) == len(oldest):
                self.blocks.popleft()
            else:
                self.blocks[0] = oldest[len(leaving):]
            self._merge(leaving, -1)

    def _merge(self, rows: np.ndarray, sign: int) -> None:
        """``M ±= M_rows + δδᵀ·m·n/m'`` for sign ±1, for n rows in a window of
        m rows before and m' after; δ is the rows' mean less the window's."""
        n = len(rows)
        mean = rows.mean(axis=0)
        centred = rows - mean
        total = self._count + sign * n
        delta = mean - self.mean
        self.mean += (sign * n / total) * delta
        self.moments += sign * (centred.T @ centred + np.outer(delta, delta) * (self._count * n / total))
        self._count = total


def fit(window: TrainingWindow) -> LinearModel:
    """Least-squares fit of the window's targets on its feature rows.

    The moments do not depend on the order of the rows, so a permutation
    moves the solution only at floating-point noise level.
    """
    if not len(window):
        raise ValueError("cannot fit an empty training window")
    d = window.dim
    weights = np.linalg.lstsq(window.moments[:d, :d], window.moments[:d, d], rcond=None)[0]
    if not np.all(np.isfinite(weights)):
        raise np.linalg.LinAlgError("least-squares weights are not finite")
    return LinearModel(weights=weights, intercept=float(window.mean[d] - weights @ window.mean[:d]))


def predict_batch(model: LinearModel, features: np.ndarray) -> np.ndarray:
    """Raw predictions weights @ x + intercept for a (count, input_dim)
    feature matrix; deliberately not clamped."""
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.input_dim:
        raise ValueError(f"feature matrix shape {x.shape} does not match model dimension {model.input_dim}")
    return x @ model.weights + model.intercept


def empirical_risk(model: LinearModel, window: TrainingWindow) -> float:
    """Mean squared residual of the window's targets under the model.

    With ``v = [-w, 1]`` it is ``vᵀMv/m + (ȳ − w·x̄ − b)²``. Cancellation can
    leave a noiseless fit just below zero, so the result is floored at 0.
    """
    if model.input_dim != window.dim:
        raise ValueError(f"window dimension {window.dim} does not match model dimension {model.input_dim}")
    if not len(window):
        raise ValueError("cannot measure risk on an empty training window")
    v = np.append(-model.weights, 1.0)
    offset = window.mean[-1] - model.weights @ window.mean[:-1] - model.intercept
    return max(float(v @ window.moments @ v) / len(window) + float(offset * offset), 0.0)
