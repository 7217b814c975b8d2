"""Helpers shared by the test modules."""

import numpy as np

from adaptlab.regression import TrainingWindow
from adaptlab.seeds import stream_uint64


def seed_stream(base: int, n: int) -> np.ndarray:
    """uint64 array of ``mix64(base, i)`` for i in 0..n-1: n distinct run seeds."""
    return stream_uint64(np.uint64(base), np.arange(n, dtype=np.uint64))


def one_block_window(x, y) -> TrainingWindow:
    """A training window that holds the rows of x, with targets y, as one block."""
    x = np.asarray(x, dtype=np.float64)
    # a cap of at least 1 leaves rejecting an empty or ragged block to add
    window = TrainingWindow(x.shape[-1], max(len(x), 1))
    window.add(x, y)
    return window
