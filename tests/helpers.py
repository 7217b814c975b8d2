"""Helpers shared by the test modules."""

import numpy as np

from adaptlab.seeds import stream_uint64


def seed_stream(base: int, n: int) -> np.ndarray:
    """uint64 array of ``mix64(base, i)`` for i in 0..n-1: n distinct run seeds."""
    return stream_uint64(np.uint64(base), np.arange(n, dtype=np.uint64))
