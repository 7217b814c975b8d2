"""Model checker: sample sizing, sequential stopping, determinism, coverage."""

import math
from fractions import Fraction

import numpy as np
import pytest

from adaptlab import smc
from adaptlab.netsim import EnvironmentWalk, NetworkModel, NetworkView, desk_topology, environment_step, initial_environment
from adaptlab.seeds import mix64
from adaptlab.smc import (
    BernoulliModel,
    SmcConfig,
    coverage_experiment,
    first_check,
    required_samples,
    verify_options,
)
from helpers import seed_stream


class ConstantModel:
    """Every run returns the same count out of ``total``, of the count's dtype."""

    def __init__(self, count, total: int):
        self.count, self.total = count, total

    def simulate_batch(self, rows: np.ndarray, seeds: np.ndarray) -> np.ndarray:
        return np.full(np.shape(seeds), self.count)


class OneSeedAtATimeBernoulli:
    """BernoulliModel run as batches of one seed, for equivalence checks."""

    total = 1

    def __init__(self, p: float):
        self._inner = BernoulliModel(p)

    def simulate_batch(self, rows: np.ndarray, seeds: np.ndarray) -> np.ndarray:
        return np.array([
            [self._inner.simulate_batch(rows[i:i + 1], seeds[i:i + 1, j:j + 1])[0, 0] for j in range(seeds.shape[1])]
            for i in range(len(rows))
        ])


def simulate(model, seeds):
    """Counts of the model's row 0 over a 1-D array of seeds."""
    return model.simulate_batch(np.array([0]), np.asarray(seeds)[None, :])[0]


class RowMeansModel:
    """Row r is a Bernoulli model of mean means[r]."""

    total = 1

    def __init__(self, means):
        self.means = list(means)

    def reordered(self, order):
        return RowMeansModel([self.means[i] for i in order])

    def simulate_batch(self, rows: np.ndarray, seeds: np.ndarray) -> np.ndarray:
        return np.array([simulate(BernoulliModel(self.means[r]), s) for r, s in zip(rows, seeds)]).reshape(seeds.shape)


def one_estimate(model, config, base_seed):
    """The estimate of the model's row 0 as option 0 of ``verify_options``,
    whose runs are seeded from ``mix64(base_seed, 0)``."""
    [(_, est)] = verify_options(model, [0], config, base_seed)
    return est


def reference_estimate(model, config, base_seed):
    """(raw mean, runs) of the sequential rule as a plain loop: checks at
    ceil(1.5 ln(4/alpha) / ln(1 + eps/2)), then 1.5x further each time, up to
    the Hoeffding size at alpha/2; stop once the hedged betting capital (bets
    sqrt(2 ln(2/a) / (var_{t-1} t ln(1+t))) truncated at 1/2 and at 1/2 over
    the distance to the bound) reaches 2/a at both center -/+ eps, a = alpha/2.
    The outcomes are the counts over the model's total, and the center is
    the counts' sum over n * total, one correctly rounded division."""
    eps, level = config.epsilon, config.alpha / 2
    cap = math.ceil(math.log(2 / level) / (2 * eps * eps))
    n = min(cap, math.ceil(1.5 * math.log(4 / config.alpha) / math.log1p(eps / 2)))
    target = math.log(2 / level)
    while True:
        counts = simulate(model, seed_stream(base_seed, n)).tolist()
        center = sum(counts) / (n * model.total)
        xs = [count / model.total for count in counts]
        if n == cap:
            return center, n
        low, high = center - eps, center + eps
        up = down = 0.0
        total, squares, var = 0.0, 0.0, 0.25
        for t, x in enumerate(xs, start=1):
            bet = min(0.5, math.sqrt(2 * target / (var * t * math.log1p(t))))
            if low > 0:
                up += math.log1p(min(bet, 0.5 / low) * (x - low))
            if high < 1:
                down += math.log1p(min(bet, 0.5 / (1 - high)) * (high - x))
            total += x
            squares += (x - (0.5 + total) / (t + 1)) ** 2
            var = (0.25 + squares) / (t + 1)
        if (low <= 0 or up >= target) and (high >= 1 or down >= target):
            return center, n
        n = min(cap, math.ceil(1.5 * n))


class TestBernoulliModel:
    def test_endpoints_exact(self):
        seeds = seed_stream(5, 1000)
        np.testing.assert_array_equal(simulate(BernoulliModel(0.0), seeds), np.zeros(1000))
        np.testing.assert_array_equal(simulate(BernoulliModel(1.0), seeds), np.ones(1000))
        for p in (-0.1, 1.1, float("nan")):
            with pytest.raises(ValueError):
                BernoulliModel(p)

    def test_empirical_rate_close(self):
        seeds = seed_stream(123, 200_000)
        for p in (0.05, 0.5, 0.87):
            assert abs(simulate(BernoulliModel(p), seeds).mean() - p) < 0.005


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
        config = SmcConfig(epsilon=0.1, alpha=0.1)
        est = one_estimate(ConstantModel(1, total=4), config, base_seed=0)
        assert est.mean == 0.25
        # a constant stops at the first check, short of the fixed Hoeffding size
        assert est.samples_used == first_check(0.1, 0.1) == 114
        assert est.samples_used < required_samples(0.1, 0.1)

    def test_pure_function_of_seed(self):
        config = SmcConfig(epsilon=0.05, alpha=0.1)
        model = BernoulliModel(0.37)
        a = one_estimate(model, config, base_seed=99)
        b = one_estimate(model, config, base_seed=99)
        assert a == b
        # distinct seeds give distinct sample paths (individual means may
        # coincide by chance, but not across a handful of seeds)
        means = {one_estimate(model, config, base_seed=s).mean for s in range(100, 105)}
        assert len(means) > 1

    def test_scalar_path_equals_batch_path_bitwise(self):
        config = SmcConfig(epsilon=0.05, alpha=0.1)
        batched = one_estimate(BernoulliModel(0.37), config, base_seed=21)
        scalar = one_estimate(OneSeedAtATimeBernoulli(0.37), config, base_seed=21)
        assert batched == scalar

    def test_estimate_lands_near_truth(self):
        config = SmcConfig(epsilon=0.02, alpha=0.05)
        est = one_estimate(BernoulliModel(0.3), config, 11)
        assert abs(est.mean - 0.3) <= config.epsilon

    def test_rejects_outcomes_outside_unit_interval(self):
        for count in (3, -1):  # outcomes 1.5 and -0.5
            with pytest.raises(ValueError, match=r"outside \[0, 2\]"):
                one_estimate(ConstantModel(count, total=2), SmcConfig(epsilon=0.1, alpha=0.1), 0)

    def test_rejects_outcomes_that_are_not_integer_counts(self):
        # Casting 0.5 to an integer would count 0 without a word.
        for outcome in (0.5, 1.0, float("nan"), True):
            with pytest.raises(ValueError, match="integer counts"):
                one_estimate(ConstantModel(outcome, total=1), SmcConfig(epsilon=0.1, alpha=0.1), 0)

    def test_mean_is_the_exact_sample_mean_rounded_once(self):
        # Counts out of 3 have inexact outcomes c / 3: summing those rounds at
        # every step, summing the counts does not, so the two means differ here.
        class SeedModFour:
            total = 3

            def simulate_batch(self, rows, seeds):
                return (seeds % np.uint64(4)).astype(np.int64)

        config, base_seed = SmcConfig(epsilon=0.1, alpha=0.1), 4
        est = one_estimate(SeedModFour(), config, base_seed)
        counts = [int(seed) % 4 for seed in seed_stream(mix64(base_seed, 0), est.samples_used)]
        exact = float(Fraction(sum(counts), est.samples_used * 3))
        assert est.mean == exact
        assert math.fsum(count / 3 for count in counts) / est.samples_used != exact

    def test_counts_beyond_a_byte_keep_their_exact_mean(self):
        # The history's dtype is the narrowest that holds total: a count of
        # 256 or 70 000 must neither wrap nor be cut.
        class NearlyAll:  # total, or one less on odd seeds
            def __init__(self, total):
                self.total = total

            def simulate_batch(self, rows, seeds):
                return self.total - (seeds % np.uint64(2)).astype(np.int64)

        config, base_seed = SmcConfig(epsilon=0.1, alpha=0.1), 9
        for total in (255, 256, 70_000):
            est = one_estimate(NearlyAll(total), config, base_seed)
            counts = [total - int(seed) % 2 for seed in seed_stream(mix64(base_seed, 0), est.samples_used)]
            assert est.mean == float(Fraction(sum(counts), est.samples_used * total)), total


class TestSequentialStopping:
    def test_first_check_and_cap(self):
        assert first_check(0.01, 0.1) == 1110
        assert first_check(0.05, 0.1) == 225
        assert required_samples(0.01, 0.05) == 18445

    def test_first_check_follows_the_bet_cap(self, monkeypatch):
        # each run multiplies the capital by at most 1 + c epsilon, c the cap
        monkeypatch.setattr(smc, "_BET_CAP", 0.75)
        assert first_check(0.01, 0.1) == math.ceil(1.5 * math.log(40.0) / math.log1p(0.0075)) == 741

    def test_max_variance_runs_to_the_half_alpha_cap(self):
        config = SmcConfig(epsilon=0.05, alpha=0.1)
        report = coverage_experiment(0.5, config, repetitions=300, base_seed=5)
        cap = required_samples(0.05, 0.05)
        assert report["samples_cap"] == report["max_samples_used"] == report["mean_samples_used"] == cap
        assert report["passed"]

    def test_near_constant_means_stop_at_the_first_check(self):
        config = SmcConfig(epsilon=0.05, alpha=0.1)
        for mean in (0.0, 0.01):
            report = coverage_experiment(mean, config, repetitions=300, base_seed=6)
            assert report["max_samples_used"] == first_check(0.05, 0.1) == 225, mean
            assert report["max_samples_used"] < required_samples(0.05, 0.1)
            assert report["passed"], mean

    def test_matches_reference_loop(self):
        config = SmcConfig(epsilon=0.02, alpha=0.1)
        stops = set()
        for p in (0.0, 0.02, 0.1, 0.3, 0.98, 1.0):
            for seed in range(6):
                est = one_estimate(BernoulliModel(p), config, seed)
                center, runs = reference_estimate(BernoulliModel(p), config, mix64(seed, 0))
                assert (est.mean, est.samples_used) == (center, runs), (p, seed)
                stops.add(runs)
        assert len(stops) >= 3  # first check, a later one and the cap

    def test_one_seed_at_a_time_gives_the_same_estimate(self):
        config = SmcConfig(epsilon=0.02, alpha=0.1)
        used = set()
        for seed in range(4):
            batched = one_estimate(BernoulliModel(0.03), config, seed)
            assert one_estimate(OneSeedAtATimeBernoulli(0.03), config, seed) == batched
            used.add(batched.samples_used)
        assert max(used) > first_check(0.02, 0.1)  # some estimates take several chunks

    def test_an_edge_without_room_has_no_tail_to_reject(self):
        # Centers epsilon and 1 - epsilon put one edge exactly on 0 or 1, where
        # constant outcomes give its bets no gain: only the room mask (room <= 0)
        # lets these rows fit, as the other edge is rejected. The estimator never
        # passes such a center, since its centers are the sample means.
        epsilon, level = 0.1, 0.05
        outcomes = np.array([[0.0] * 200, [1.0] * 200])
        assert smc._intervals_fit(outcomes, np.array([epsilon, 1.0 - epsilon]), epsilon, level).tolist() == [True, True]


class TestVerifyOptions:
    def test_empty_and_singleton(self):
        config = SmcConfig(epsilon=0.1, alpha=0.1)
        assert verify_options(BernoulliModel(0.2), [], config, 0) == []
        [(oid, est)] = verify_options(BernoulliModel(0.2), [4], config, 12)
        assert oid == 4
        center, runs = reference_estimate(BernoulliModel(0.2), config, mix64(12, 4))
        assert (est.mean, est.samples_used) == (center, runs)

    def test_rejects_ids_of_a_non_integer_type(self):
        # a cast would seed 1.7 as option 1 and label its estimate 1.7
        config = SmcConfig(epsilon=0.1, alpha=0.1)
        for ids in ([1.7, 2.2], [True, False], np.array([1.0]), ["1"]):
            with pytest.raises(ValueError, match=r"^option ids must have an integer type$"):
                verify_options(BernoulliModel(0.2), ids, config, 12)
        [(oid, est)] = verify_options(BernoulliModel(0.2), np.array([4], dtype=np.uint16), config, 12)
        assert (oid, est) == verify_options(BernoulliModel(0.2), [4], config, 12)[0]

    def test_order_independent(self):
        config = SmcConfig(epsilon=0.1, alpha=0.1)
        model = RowMeansModel([0.1 + 0.05 * i for i in range(16)])
        ids = list(range(16))
        rng = np.random.default_rng(2)
        shuffled = list(ids)
        rng.shuffle(shuffled)
        by_id_sorted = dict(verify_options(model, ids, config, 77))
        by_id_shuffled = dict(verify_options(model.reordered(shuffled), shuffled, config, 77))
        assert by_id_sorted == by_id_shuffled

    def test_rows_match_one_estimate_each(self):
        # Rows of very different variance stop at different checks of one
        # lockstep group; each matches the plain loop over its row alone.
        config = SmcConfig(epsilon=0.02, alpha=0.1)
        means = [0.0, 0.5, 0.02, 0.3, 0.1, 1.0, 0.03]
        model = RowMeansModel(means)
        verified = verify_options(model, range(len(means)), config, 5)
        assert [oid for oid, _ in verified] == list(range(len(means)))
        for oid, est in verified:
            center, runs = reference_estimate(BernoulliModel(means[oid]), config, mix64(5, oid))
            assert (est.mean, est.samples_used) == (center, runs), oid
        assert len({est.samples_used for _, est in verified}) >= 3

    def test_outcome_outside_unit_interval_names_option_and_run(self):
        config = SmcConfig(epsilon=0.1, alpha=0.1)
        bad_seed = int(seed_stream(mix64(8, 42), 4)[3])

        class OneBadRun:
            total = 4

            def simulate_batch(self, rows, seeds):
                return np.where(seeds == np.uint64(bad_seed), 6, 1)

        with pytest.raises(ValueError, match=r"run 3 of option 42 gave 6 outside \[0, 4\]"):
            verify_options(OneBadRun(), [7, 42, 9], config, 8)


class TestLockstep:
    """verify_options on one model of every desk option at a walked
    environment, against the plain per-option loop of the stopping rule."""

    DESK = desk_topology()

    @classmethod
    def view(cls):
        env = initial_environment(cls.DESK)
        for step in range(4):
            env = environment_step(env, EnvironmentWalk(), 5300 + step)
        return NetworkView(cls.DESK, env)

    def verify(self, ids, epsilon):
        return verify_options(NetworkModel(self.view(), ids), ids, SmcConfig(epsilon=epsilon, alpha=0.1), 61)

    @pytest.mark.parametrize("epsilon", [0.05, 0.01])
    def test_every_desk_option_matches_the_per_option_reference(self, epsilon):
        view, config = self.view(), SmcConfig(epsilon=epsilon, alpha=0.1)
        ids = list(range(self.DESK.option_count))
        verified = self.verify(ids, epsilon)
        assert [oid for oid, _ in verified] == ids
        for oid, est in verified:
            center, runs = reference_estimate(NetworkModel(view, [oid]), config, mix64(61, oid))
            assert (est.mean, est.samples_used) == (center, runs), oid
        if epsilon == 0.01:  # some options take a second check
            assert len({est.samples_used for _, est in verified}) > 1

    def test_run_budget_and_order_do_not_move_estimates(self, monkeypatch):
        ids = list(range(self.DESK.option_count))
        expected = self.verify(ids, 0.05)
        assert self.verify(ids[::-1], 0.05) == expected[::-1]
        for budget in (1, 10**9):
            monkeypatch.setattr(smc, "RUN_BUDGET", budget)
            assert self.verify(ids, 0.05) == expected, budget

    def test_no_candidates(self):
        assert self.verify([], 0.05) == []


class TestConfig:
    def test_rejects_bad_values(self):
        for kwargs in (
            dict(epsilon=0.0, alpha=0.1),
            dict(epsilon=1.0, alpha=0.1),
            dict(epsilon=0.1, alpha=0.0),
            dict(epsilon=0.1, alpha=1.0),
        ):
            with pytest.raises(ValueError):
                SmcConfig(**kwargs)


class TestCoverage:
    def test_quick_coverage_run_passes(self):
        report = coverage_experiment(0.5, SmcConfig(epsilon=0.05, alpha=0.05), repetitions=80, base_seed=1)
        assert report["samples_cap"] == required_samples(0.05, 0.025)
        assert report["mean_samples_used"] <= report["max_samples_used"] <= report["samples_cap"]
        assert report["hits"] <= 80
        assert report["passed"]
        assert report["coverage"] >= report["threshold"]

    def test_rejects_bad_repetitions_and_mean(self):
        config = SmcConfig(epsilon=0.1, alpha=0.1)
        with pytest.raises(ValueError):
            coverage_experiment(0.5, config, repetitions=0, base_seed=0)
        with pytest.raises(ValueError):
            coverage_experiment(1.5, config, repetitions=10, base_seed=0)

    def test_rejects_a_threshold_that_any_coverage_passes(self, monkeypatch):
        # (1 - alpha) - 3 sqrt((1 - alpha) alpha / r) is at most 0 for r <= 9 alpha / (1 - alpha)
        # = 81 at alpha 0.9, where a coverage of 0 would pass: rejected before any estimate runs.
        config = SmcConfig(epsilon=0.02, alpha=0.9)
        with monkeypatch.context() as patch:
            patch.setattr(smc, "verify_options", None)
            for repetitions in (1, 50, 80):
                with pytest.raises(ValueError, match=rf"^repetitions {repetitions} are too few at alpha 0.9"):
                    coverage_experiment(0.5, config, repetitions=repetitions, base_seed=0)
        report = coverage_experiment(0.5, config, repetitions=100, base_seed=0)
        assert 0.0 < report["threshold"] < 0.02
