"""Deterministic seed derivation and counter-based uniform streams.

All randomness in this package is a pure function of integer seeds: a run,
a cycle, or one mote's draw in one run is addressed by (seed, index) and hashed
through a splitmix64-style avalanche. There is no stateful generator, so
results are independent of execution order and batching, and portable
across platforms.

Scalar helpers operate on Python ints (exact, no overflow warnings);
``stream_uint64`` is the elementwise-identical numpy form of ``mix64(seed,
index)`` used on hot paths. ``test_seeds.py`` pins the scalar/vector
equivalence.
"""

from __future__ import annotations

import numpy as np

MASK64 = (1 << 64) - 1

_PHI = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_FOLD_INIT = 0x243F6A8885A308D3
_PHI_U64, _MIX1_U64, _MIX2_U64, _FOLD_INIT_U64, _S27, _S30, _S31 = map(np.uint64, (_PHI, _MIX1, _MIX2, _FOLD_INIT, 27, 30, 31))


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


def _mix_in_place(z: np.ndarray) -> np.ndarray:
    """:func:`splitmix64` of every element of the uint64 array ``z``,
    written back into ``z`` with one scratch array of its shape. ufuncs on
    arrays, 0-d ones included, wrap silently, as uint64 arithmetic must."""
    scratch = np.empty_like(z)
    np.add(z, _PHI_U64, out=z)
    for shift, factor in ((_S30, _MIX1_U64), (_S27, _MIX2_U64)):
        np.right_shift(z, shift, out=scratch)
        np.bitwise_xor(z, scratch, out=z)
        np.multiply(z, factor, out=z)
    np.right_shift(z, _S31, out=scratch)
    return np.bitwise_xor(z, scratch, out=z)


def stream_uint64(seeds: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Raw 64-bit draws for every (seed, index) pair, broadcasting.

    Elementwise-identical to ``mix64(seed, index)`` by construction:
    both fold the same two values through the same avalanche chain. Each
    seed is folded once, however many indices it is paired with, and both
    rounds mix fresh arrays in place, so neither input is written.
    """
    # a ufunc returns a fresh array, or a scalar for 0-d inputs, which
    # asarray turns into a fresh 0-d array
    folded = _mix_in_place(np.asarray(np.asarray(seeds, dtype=np.uint64) ^ _FOLD_INIT_U64))
    return _mix_in_place(np.asarray(folded ^ np.asarray(indices, dtype=np.uint64)))
