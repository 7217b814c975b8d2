"""Deterministic seed derivation and counter-based uniform streams.

All randomness in this package is a pure function of integer seeds: a run,
a cycle, or one mote's draw in one run is addressed by (seed, index) and hashed
through a splitmix64-style avalanche. There is no stateful generator, so
results are independent of execution order and batching, and portable
across platforms.

Scalar helpers operate on Python ints (exact, no overflow warnings); the
``*_array`` variants are elementwise-identical numpy implementations used
on hot paths. ``test_seeds.py`` pins the scalar/vector equivalence.
"""

from __future__ import annotations

import numpy as np

MASK64 = (1 << 64) - 1

_PHI = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_FOLD_INIT = 0x243F6A8885A308D3


def splitmix64(value: int) -> int:
    """One splitmix64 avalanche step on a 64-bit integer."""
    z = (value + _PHI) & MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & MASK64
    return z ^ (z >> 31)


def mix64(*parts: int) -> int:
    """Fold any number of integers into one well-mixed 64-bit seed.

    Used to derive child seeds: per-cycle, per-option, and per-run seeds
    are all ``mix64(parent_seed, label...)``. Negative ints are folded by
    their two's-complement bits.
    """
    h = _FOLD_INIT
    for p in parts:
        h = splitmix64(h ^ (p & MASK64))
    return h


def hash01(*parts: int) -> float:
    """Uniform float in [0, 1] addressed by the given integers. The top is
    reachable: a ``mix64`` value within 2**10 of 2**64 rounds to 1.0."""
    return mix64(*parts) / 2.0**64


def splitmix64_array(values: np.ndarray) -> np.ndarray:
    """Vectorized :func:`splitmix64`; input must be a uint64 ndarray."""
    with np.errstate(over="ignore"):
        z = values + np.uint64(_PHI)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
        return z ^ (z >> np.uint64(31))


def stream_uint64(seeds: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Raw 64-bit draws for every (seed, index) pair, broadcasting.

    Elementwise-identical to ``mix64(seed, index)`` by construction:
    both fold the same two values through the same avalanche chain.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    indices = np.asarray(indices, dtype=np.uint64)
    with np.errstate(over="ignore"):
        h = splitmix64_array(np.uint64(_FOLD_INIT) ^ seeds)
        return splitmix64_array(h ^ indices)


def derive_seeds(base_seed: int, n: int) -> np.ndarray:
    """uint64 array of ``mix64(base_seed, i)`` for i in 0..n-1."""
    return stream_uint64(np.uint64(base_seed & MASK64), np.arange(n, dtype=np.uint64))

