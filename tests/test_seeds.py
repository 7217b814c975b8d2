"""Deterministic seed derivation: scalar/vector equivalence and stream quality."""

import warnings

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from adaptlab.seeds import MASK64, hash01, mix64, splitmix64, stream_uint64
from adaptlab.smc import BernoulliModel
from helpers import seed_stream

uint64s = st.integers(min_value=0, max_value=MASK64)


class TestSplitmix64:
    def test_matches_reference_sequence(self):
        # First outputs of the published splitmix64 generator seeded at
        # 1234567; the generator's i-th state is seed + i*increment.
        increment = 0x9E3779B97F4A7C15
        outputs = [splitmix64((1234567 + i * increment) & MASK64) for i in range(3)]
        assert outputs == [6457827717110365317, 3203168211198807973, 9817491932198370423]

    def test_stays_in_64_bits(self):
        for v in (0, 1, MASK64, 2**63, 999999999999):
            assert 0 <= splitmix64(v) <= MASK64

    @given(uint64s)
    def test_deterministic(self, v):
        assert splitmix64(v) == splitmix64(v)

    def test_avalanche_flips_many_bits(self):
        rng = np.random.default_rng(7)
        flips = []
        for _ in range(200):
            v = int(rng.integers(0, 2**63))
            bit = int(rng.integers(0, 64))
            diff = splitmix64(v) ^ splitmix64(v ^ (1 << bit))
            flips.append(bin(diff).count("1"))
        assert 24 <= np.mean(flips) <= 40  # ~32 expected for a good mixer


class TestMix64:
    def test_order_sensitive(self):
        assert mix64(1, 2) != mix64(2, 1)

    def test_arity_sensitive(self):
        assert mix64(5) != mix64(5, 0)

    def test_negative_parts_fold_to_their_bits(self):
        assert mix64(-1) == mix64(MASK64)
        assert mix64(7, -3) == mix64(7, (-3) & MASK64)

    @given(uint64s, uint64s)
    def test_stream_uint64_agrees_elementwise(self, seed, index):
        got = stream_uint64(np.uint64(seed), np.uint64(index))
        assert int(got) == mix64(seed, index)

    def test_scalar_and_0d_seeds_match_mix64_without_warnings(self):
        boundary = (0, 1, 7, 42, 123456789, 2**63, 2**63 + 5, MASK64)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # uint64 wrap-around must not warn
            for seed in boundary:
                for index in boundary:
                    assert int(stream_uint64(np.uint64(seed), np.uint64(index))) == mix64(seed, index)
                    assert int(stream_uint64(np.array(seed, dtype=np.uint64), index)) == mix64(seed, index)
            values = np.array(boundary, dtype=np.uint64)
            grid = stream_uint64(values[:, None], values)
            assert grid.tolist() == [[mix64(seed, index) for index in boundary] for seed in boundary]

    def test_inputs_are_never_written(self):
        seeds = seed_stream(11, 50).reshape(5, 10)
        indices = np.arange(10, dtype=np.uint64)
        before = seeds.copy(), indices.copy()
        stream_uint64(seeds, indices)
        stream_uint64(seeds[:, :1], indices)
        assert np.array_equal(seeds, before[0]) and np.array_equal(indices, before[1])

    def test_one_call_over_stacked_ids_equals_one_call_per_id(self):
        seeds = seed_stream(12, 24).reshape(3, 8)
        ids = np.array([6, 1, 4, 2**63], dtype=np.uint64)
        stacked = stream_uint64(seeds, ids.reshape(-1, 1, 1))
        assert stacked.shape == (len(ids),) + seeds.shape
        for row, index in zip(stacked, ids):
            assert np.array_equal(row, stream_uint64(seeds, index))

    def test_stream_broadcasts(self):
        seeds = np.array([3, 9], dtype=np.uint64)
        indices = np.arange(5, dtype=np.uint64)
        grid = stream_uint64(seeds[:, None], indices[None, :])
        assert grid.shape == (2, 5)
        for i, s in enumerate(seeds):
            for j, ix in enumerate(indices):
                assert int(grid[i, j]) == mix64(int(s), int(ix))


class TestDerivedSeeds:
    def test_matches_mix64(self):
        seeds = seed_stream(99, 10)
        assert [int(s) for s in seeds] == [mix64(99, i) for i in range(10)]

    def test_distinct_within_stream(self):
        seeds = seed_stream(0, 100_000)
        assert len(np.unique(seeds)) == 100_000

    def test_hash01_range(self):
        values = [hash01(i, 17) for i in range(1000)]
        assert all(0.0 <= v < 1.0 for v in values)
        assert 0.45 < np.mean(values) < 0.55


class TestBernoulli:
    """Bernoulli hits drawn by thresholding the seed stream (smc.BernoulliModel)."""

    def test_threshold_monotone(self):
        # The hit count grows with p, from no hits at p 0 to every run at p 1.
        seeds = seed_stream(7, 5000)
        counts = [BernoulliModel(p).simulate_batch([0], seeds[None, :]).sum() for p in (0.0, 0.1, 0.25, 0.5, 0.9, 1.0)]
        assert counts == sorted(counts)
        assert counts[0] == 0
        assert counts[-1] == 5000

    def test_same_draws_nested_probabilities(self):
        # A run that hits at p hits at every larger p on the same seed.
        seeds = seed_stream(9, 10_000)
        ladder = [BernoulliModel(p).simulate_batch([0], seeds[None, :]) for p in (0.0, 0.1, 0.3, 0.6, 0.9, 1.0)]
        for low, high in zip(ladder, ladder[1:]):
            assert not ((low == 1.0) & (high == 0.0)).any()
