"""Model checker: sample sizing, determinism, scaling, coverage."""

import numpy as np
import pytest

from adaptlab.seeds import derive_seeds, mix64
from adaptlab.smc import (
    BernoulliModel,
    SmcConfig,
    StochasticModel,
    coverage_experiment,
    estimate,
    required_samples,
    verify_options,
)


class ConstantModel:
    """Every run returns the same outcome."""

    def __init__(self, value: float):
        self.value = value

    def simulate_batch(self, seeds: np.ndarray) -> np.ndarray:
        return np.full(len(seeds), self.value)


class OneSeedAtATimeBernoulli:
    """BernoulliModel run as batches of one seed, for equivalence checks."""

    def __init__(self, p: float):
        self._inner = BernoulliModel(p)

    def simulate_batch(self, seeds: np.ndarray) -> np.ndarray:
        return np.concatenate([self._inner.simulate_batch(seeds[i:i + 1]) for i in range(len(seeds))])


class TestBernoulliModel:
    def test_endpoints_exact(self):
        seeds = derive_seeds(5, 1000)
        np.testing.assert_array_equal(BernoulliModel(0.0).simulate_batch(seeds), np.zeros(1000))
        np.testing.assert_array_equal(BernoulliModel(1.0).simulate_batch(seeds), np.ones(1000))
        for p in (-0.1, 1.1, float("nan")):
            with pytest.raises(ValueError):
                BernoulliModel(p)

    def test_empirical_rate_close(self):
        seeds = derive_seeds(123, 200_000)
        for p in (0.05, 0.5, 0.87):
            assert abs(BernoulliModel(p).simulate_batch(seeds).mean() - p) < 0.005


class TestRequiredSamples:
    def test_reference_values(self):
        assert required_samples(0.01, 0.1) == 14979
        assert required_samples(0.1, 0.1) == 150

    def test_halving_epsilon_quadruples_count(self):
        for eps, alpha in ((0.1, 0.1), (0.04, 0.05), (0.02, 0.3)):
            n = required_samples(eps, alpha)
            n_half = required_samples(eps / 2, alpha)
            assert 4 * n - 3 <= n_half <= 4 * n

    def test_rejects_out_of_range(self):
        for eps, alpha in ((0.0, 0.1), (1.0, 0.1), (0.1, 0.0), (0.1, 1.0)):
            with pytest.raises(ValueError):
                required_samples(eps, alpha)


class TestEstimate:
    def test_constant_model_is_exact(self):
        config = SmcConfig(epsilon=0.1, alpha=0.1, kappa_scale=100.0)
        est = estimate(ConstantModel(0.25), config, base_seed=0)
        assert est.mean == 25.0
        assert est.kappa == 10.0
        assert est.alpha == 0.1
        assert est.samples_used == 150

    def test_pure_function_of_seed(self):
        config = SmcConfig(epsilon=0.05, alpha=0.1)
        model = BernoulliModel(0.37)
        a = estimate(model, config, base_seed=99)
        b = estimate(model, config, base_seed=99)
        assert a == b
        # distinct seeds give distinct sample paths (individual means may
        # coincide by chance, but not across a handful of seeds)
        means = {estimate(model, config, base_seed=s).mean for s in range(100, 105)}
        assert len(means) > 1

    def test_scalar_path_equals_batch_path_bitwise(self):
        config = SmcConfig(epsilon=0.05, alpha=0.1)
        batched = estimate(BernoulliModel(0.37), config, base_seed=21)
        scalar = estimate(OneSeedAtATimeBernoulli(0.37), config, base_seed=21)
        assert batched.mean == scalar.mean

    def test_kappa_scale_is_linear(self):
        model = BernoulliModel(0.5)
        small = estimate(model, SmcConfig(epsilon=0.05, alpha=0.1, kappa_scale=100.0), 5)
        large = estimate(model, SmcConfig(epsilon=0.05, alpha=0.1, kappa_scale=200.0), 5)
        assert large.mean == 2.0 * small.mean
        assert large.kappa == 2.0 * small.kappa

    def test_estimate_lands_near_truth(self):
        est = estimate(BernoulliModel(0.3), SmcConfig(epsilon=0.02, alpha=0.05), 11)
        assert abs(est.mean - 30.0) <= est.kappa

    def test_rejects_outcomes_outside_unit_interval(self):
        with pytest.raises(ValueError, match="outside"):
            estimate(ConstantModel(1.5), SmcConfig(epsilon=0.1, alpha=0.1), 0)
        with pytest.raises(ValueError, match="outside"):
            estimate(ConstantModel(float("nan")), SmcConfig(epsilon=0.1, alpha=0.1), 0)


class TestVerifyOptions:
    def test_empty_and_singleton(self):
        config = SmcConfig(epsilon=0.1, alpha=0.1)
        assert verify_options([], config, 0) == []
        [(oid, est)] = verify_options([(4, BernoulliModel(0.2))], config, 12)
        assert oid == 4
        assert est == estimate(BernoulliModel(0.2), config, mix64(12, 4))

    def test_order_independent(self):
        config = SmcConfig(epsilon=0.1, alpha=0.1)
        options = [(i, BernoulliModel(0.1 + 0.05 * i)) for i in range(16)]
        rng = np.random.default_rng(2)
        shuffled = list(options)
        rng.shuffle(shuffled)
        by_id_sorted = dict(verify_options(options, config, 77))
        by_id_shuffled = dict(verify_options(shuffled, config, 77))
        assert by_id_sorted == by_id_shuffled


class TestConfig:
    def test_kappa_property(self):
        assert SmcConfig(epsilon=0.01, alpha=0.1, kappa_scale=100.0).kappa == 1.0

    def test_rejects_bad_values(self):
        for kwargs in (
            dict(epsilon=0.0, alpha=0.1),
            dict(epsilon=1.0, alpha=0.1),
            dict(epsilon=0.1, alpha=0.0),
            dict(epsilon=0.1, alpha=1.0),
            dict(epsilon=0.1, alpha=0.1, kappa_scale=0.0),
            dict(epsilon=0.1, alpha=0.1, kappa_scale=float("inf")),
            dict(epsilon=0.1, alpha=0.1, kappa_scale=float("nan")),
        ):
            with pytest.raises(ValueError):
                SmcConfig(**kwargs)

    def test_protocol_recognizes_models(self):
        assert isinstance(BernoulliModel(0.5), StochasticModel)
        assert isinstance(ConstantModel(0.5), StochasticModel)


class TestCoverage:
    def test_quick_coverage_run_passes(self):
        report = coverage_experiment(0.5, SmcConfig(epsilon=0.05, alpha=0.05), repetitions=80, base_seed=1)
        assert report["samples_per_estimate"] == required_samples(0.05, 0.05)
        assert report["hits"] <= 80
        assert report["passed"]
        assert report["coverage"] >= report["threshold"]

    def test_rejects_bad_repetitions_and_mean(self):
        config = SmcConfig(epsilon=0.1, alpha=0.1)
        with pytest.raises(ValueError):
            coverage_experiment(0.5, config, repetitions=0, base_seed=0)
        with pytest.raises(ValueError):
            coverage_experiment(1.5, config, repetitions=10, base_seed=0)
