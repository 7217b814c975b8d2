"""Linear least squares: the training window, recovery, optimality, prediction, risk measurement."""

import math
from fractions import Fraction

import numpy as np
import pytest

from adaptlab.regression import LinearModel, TrainingWindow, empirical_risk, fit, predict_batch
from helpers import one_block_window


def make_dataset(weights, intercept, count, rng, noise=0.0):
    dim = len(weights)
    x = rng.normal(0.0, 3.0, size=(count, dim))
    y = x @ np.asarray(weights) + intercept + (rng.normal(0.0, noise, size=count) if noise else 0.0)
    return x, y


class TestFit:
    def test_recovers_line(self):
        xs = np.arange(10, dtype=np.float64)
        model = fit(one_block_window(xs[:, None], 3.0 * xs + 1.0))
        np.testing.assert_allclose(model.weights, [3.0], atol=1e-9)
        assert model.intercept == pytest.approx(1.0, abs=1e-9)
        assert predict_batch(model, np.array([[10.0]]))[0] == pytest.approx(31.0, abs=1e-8)

    def test_recovers_plane(self):
        rng = np.random.default_rng(5)
        model = fit(one_block_window(*make_dataset([2.0, -1.0], 5.0, 20, rng)))
        np.testing.assert_allclose(model.weights, [2.0, -1.0], atol=1e-9)
        assert model.intercept == pytest.approx(5.0, abs=1e-9)

    def test_recovers_five_dims(self):
        rng = np.random.default_rng(17)
        true_w = [1.5, -2.0, 0.25, 4.0, -0.75]
        x, y = make_dataset(true_w, -3.0, 60, rng)
        model = fit(one_block_window(x, y))
        np.testing.assert_allclose(model.weights, true_w, atol=1e-9)
        assert model.intercept == pytest.approx(-3.0, abs=1e-9)
        assert empirical_risk(model, one_block_window(x, y)) < 1e-12

    def test_permutation_invariant(self):
        rng = np.random.default_rng(29)
        x, y = make_dataset([0.5, 2.0, -1.0], 1.0, 40, rng, noise=0.3)
        order = rng.permutation(len(y))
        a, b = fit(one_block_window(x, y)), fit(one_block_window(x[order], y[order]))
        np.testing.assert_allclose(a.weights, b.weights, atol=1e-9)
        assert a.intercept == pytest.approx(b.intercept, abs=1e-9)

    def test_beats_random_probes(self):
        """The fit's MSE is a minimum over 1000 perturbed coefficient vectors."""
        rng = np.random.default_rng(41)
        x, y = make_dataset([1.0, -2.0, 3.0], 0.5, 50, rng, noise=1.0)
        window = one_block_window(x, y)
        model = fit(window)
        best_risk = empirical_risk(model, window)
        for _ in range(1000):
            probe = LinearModel(
                weights=model.weights + rng.normal(0.0, 0.05, size=3),
                intercept=model.intercept + float(rng.normal(0.0, 0.05)),
            )
            assert best_risk <= empirical_risk(probe, window) + 1e-9

    def test_agrees_with_lstsq_on_well_conditioned_data(self):
        rng = np.random.default_rng(57)
        x, y = make_dataset([4.0, 1.0, -2.5, 0.0], 2.0, 200, rng, noise=2.0)
        model = fit(one_block_window(x, y))
        design = np.hstack([x, np.ones((len(y), 1))])
        theta, *_ = np.linalg.lstsq(design, y, rcond=None)
        np.testing.assert_allclose(model.weights, theta[:4], atol=1e-8)
        assert model.intercept == pytest.approx(theta[4], abs=1e-8)

    @pytest.mark.parametrize("rows, value", [(30, 7.0), (30, 0.1), (100, 0.3)])
    def test_constant_feature_column_is_handled(self, rows, value):
        """A constant column gets no weight, also when its float mean is
        inexact (30 rows of 0.1, 100 of 0.3) and it centres to roundoff."""
        rng = np.random.default_rng(3)
        x = rng.normal(size=(rows, 2))
        x[:, 1] = value  # zero variance
        model = fit(one_block_window(x, 2 * x[:, 0]))
        assert np.all(np.isfinite(model.weights))
        assert empirical_risk(model, one_block_window(x, 2 * x[:, 0])) < 1e-9
        assert abs(model.weights[1]) < 1e-9
        shifted = x[:1] + [0.0, 1.0]
        assert abs(predict_batch(model, shifted)[0] - predict_batch(model, x[:1])[0]) < 1e-9

    def test_underdetermined_fit_interpolates_its_samples(self):
        rng = np.random.default_rng(13)
        x, y = make_dataset([1.0, 2.0, 3.0, 4.0, 5.0], 0.0, 3, rng)  # 3 samples, 5 dims
        model = fit(one_block_window(x, y))
        assert np.all(np.isfinite(model.weights))
        assert math.isfinite(model.intercept)
        assert empirical_risk(model, one_block_window(x, y)) < 1e-12

    def test_duplicated_feature_column_shares_its_weight(self):
        rng = np.random.default_rng(19)
        x, y = make_dataset([1.5, -0.5], 2.0, 30, rng, noise=0.5)
        doubled = fit(one_block_window(np.column_stack([x, x[:, 1]]), y))
        single = fit(one_block_window(x, y))
        assert doubled.weights[1] == pytest.approx(doubled.weights[2], rel=1e-9)
        probes = rng.normal(size=(10, 2))
        np.testing.assert_allclose(
            predict_batch(doubled, np.column_stack([probes, probes[:, 1]])),
            predict_batch(single, probes),
            atol=1e-9,
        )

    def test_nan_target_raises(self):
        x = np.random.default_rng(7).normal(size=(4, 2))
        y = np.array([1.0, 2.0, np.nan, 4.0])
        with pytest.raises(np.linalg.LinAlgError):
            fit(one_block_window(x, y))

    def test_rejects_empty_and_ragged(self):
        model = LinearModel(weights=np.array([1.0]), intercept=0.0)
        bad_windows = [
            (np.array([1.0, 2.0]), np.array([1.0, 2.0])),  # 1-D x
            (np.ones((3, 1)), np.ones(2)),  # y of the wrong length
            (np.ones((3, 1)), np.ones((3, 1))),  # 2-D y
            (np.empty((0, 1)), np.empty(0)),  # empty window
        ]
        for x, y in bad_windows:
            with pytest.raises(ValueError, match="feature matrix"):
                fit(one_block_window(x, y))
            with pytest.raises(ValueError, match="feature matrix"):
                empirical_risk(model, one_block_window(x, y))


class TestPredict:
    def test_affine_evaluation(self):
        model = LinearModel(weights=np.array([3.0]), intercept=1.0)
        assert predict_batch(model, np.array([[2.0], [-1.0]])).tolist() == [7.0, -2.0]

    def test_constant_model(self):
        model = LinearModel(weights=np.zeros(4), intercept=2.5)
        assert predict_batch(model, np.array([[9.0, -1.0, 0.0, 3.0]])).tolist() == [2.5]

    def test_linearity(self):
        rng = np.random.default_rng(23)
        model = LinearModel(weights=rng.normal(size=6), intercept=0.0)
        for _ in range(50):
            x1, x2 = rng.normal(size=6), rng.normal(size=6)
            a = float(rng.uniform())
            mixed, p1, p2 = predict_batch(model, np.stack([a * x1 + (1 - a) * x2, x1, x2]))
            assert mixed == pytest.approx(a * p1 + (1 - a) * p2, abs=1e-9)

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(31)
        model = LinearModel(weights=rng.normal(size=3), intercept=1.5)
        x = rng.normal(size=(25, 3))
        batch = predict_batch(model, x)
        single_rows = [predict_batch(model, x[i:i + 1])[0] for i in range(25)]
        dot_products = [float(model.weights @ x[i] + model.intercept) for i in range(25)]
        # matrix-vector and dot products may round differently in the last bit
        np.testing.assert_allclose(batch, single_rows, rtol=1e-13)
        np.testing.assert_allclose(batch, dot_products, rtol=1e-13)

    def test_rejects_length_mismatch(self):
        model = LinearModel(weights=np.array([1.0, 2.0]), intercept=0.0)
        with pytest.raises(ValueError):
            predict_batch(model, np.zeros((1, 1)))
        with pytest.raises(ValueError):
            predict_batch(model, np.zeros((4, 3)))
        with pytest.raises(ValueError):
            predict_batch(model, np.zeros(2))


class TestEmpiricalRisk:
    def test_perfect_fit_is_zero(self):
        xs = np.arange(5, dtype=np.float64)
        window = one_block_window(xs[:, None], 2.0 * xs)
        assert empirical_risk(fit(window), window) == pytest.approx(0.0, abs=1e-20)

    def test_unit_residuals(self):
        model = LinearModel(weights=np.array([0.0]), intercept=0.0)
        assert empirical_risk(model, one_block_window(np.array([[1.0], [2.0]]), np.array([1.0, -1.0]))) == 1.0

    def test_matches_exact_summation_oracle(self):
        """Mean of squares agrees with exact rational accumulation to <=4 ulps."""
        rng = np.random.default_rng(47)
        model = LinearModel(weights=rng.normal(size=4), intercept=0.3)
        x = rng.normal(size=(3000, 4))
        y = rng.normal(0, 5, size=3000)
        got = empirical_risk(model, one_block_window(x, y))
        exact = Fraction(0)
        for row, target in zip(x, y.tolist()):
            r = target - (float(model.weights @ row) + model.intercept)
            exact += Fraction(r * r)  # residual squares are the shared floats
        expected = float(exact / len(y))
        assert abs(got - expected) <= 4 * math.ulp(expected)

    def test_rejects_empty(self):
        model = LinearModel(weights=np.array([1.0]), intercept=0.0)
        with pytest.raises(ValueError):
            empirical_risk(model, one_block_window(np.empty((0, 1)), np.empty(0)))

    def test_rejects_dimension_mismatch(self):
        model = LinearModel(weights=np.array([1.0]), intercept=0.0)
        with pytest.raises(ValueError, match="model dimension"):
            empirical_risk(model, one_block_window(np.ones((3, 2)), np.ones(3)))



def block_rows(rng, count, dim):
    """A cycle's block: per-row features, two features shared by the block (the
    cycle's readings) and targets around 30, as the engine's loss in percent."""
    x = np.column_stack([rng.normal(0.0, 3.0, size=(count, dim - 2)), np.tile(rng.uniform(0.0, 6.0, 2), (count, 1))])
    return x, 30.0 + x @ np.linspace(-1.0, 1.0, dim) + rng.normal(0.0, 2.0, size=count)


def exact_risk(model, window):
    """Mean squared residual over the window's rows, summed exactly."""
    rows = np.concatenate(window.blocks)
    residuals = rows[:, -1] - predict_batch(model, rows[:, :-1])
    return math.fsum((residuals * residuals).tolist()) / len(rows)


def assert_moments_match_the_rows(window, rtol):
    rows = np.concatenate(window.blocks)
    fresh = one_block_window(rows[:, :-1], rows[:, -1])
    assert len(window) == len(rows) == len(fresh)
    for got, want in ((window.mean, fresh.mean), (window.moments, fresh.moments)):
        assert np.abs(got - want).max() <= rtol * np.abs(want).max()


class TestTrainingWindow:
    @pytest.mark.parametrize("cap, sizes", [
        (8, [8, 8, 3, 5, 8, 2]),                # every sweep fills the cap, as window_factor 1 does
        (12, [5, 7, 3, 12, 1, 4, 2, 6, 9, 1]),  # whole-block drops and partial cuts
        (6, [4, 15, 2, 6, 1]),                  # a block larger than the cap
    ])
    def test_blocks_hold_the_newest_rows_in_order(self, cap, sizes):
        rng = np.random.default_rng(cap)
        window = TrainingWindow(4, cap)
        kept_x, kept_y = np.empty((0, 4)), np.empty(0)
        for size in sizes:
            x, y = block_rows(rng, size, 4)
            window.add(x, y)
            kept_x = np.concatenate([kept_x, x])[-cap:]
            kept_y = np.concatenate([kept_y, y])[-cap:]
            rows = np.concatenate(window.blocks)
            np.testing.assert_array_equal(rows, np.column_stack([kept_x, kept_y]))
            assert len(window) == len(kept_y)
            assert_moments_match_the_rows(window, 1e-12)

    def test_moments_do_not_drift_over_many_cuts(self):
        rng = np.random.default_rng(61)
        window = TrainingWindow(5, 200)
        for _ in range(500):
            window.add(*block_rows(rng, int(rng.integers(1, 60)), 5))
        assert_moments_match_the_rows(window, 1e-12)

    @pytest.mark.parametrize("bad", [(0, 1, math.nan), (3, 4, math.inf), (5, 3, -math.inf)])
    def test_non_finite_block_is_rejected_before_it_merges(self, bad):
        rng = np.random.default_rng(67)
        window = TrainingWindow(4, 20)
        for size in (8, 9):
            window.add(*block_rows(rng, size, 4))
        before = (len(window), window.mean.copy(), window.moments.copy(), [b.copy() for b in window.blocks])
        x, y = block_rows(rng, 6, 4)
        row, column, value = bad
        if column == 4:
            y[row] = value
        else:
            x[row, column] = value
        with pytest.raises(ValueError, match="finite"):
            window.add(x, y)
        assert len(window) == before[0]
        np.testing.assert_array_equal(window.mean, before[1])
        np.testing.assert_array_equal(window.moments, before[2])
        assert len(window.blocks) == len(before[3])
        for block, kept in zip(window.blocks, before[3]):
            np.testing.assert_array_equal(block, kept)

    def test_rejects_bad_sizes_and_an_empty_window(self):
        for dim, cap in ((0, 5), (3, 0)):
            with pytest.raises(ValueError, match="positive dimension and cap"):
                TrainingWindow(dim, cap)
        with pytest.raises(ValueError, match="empty"):
            fit(TrainingWindow(2, 5))
        with pytest.raises(ValueError, match="empty"):
            empirical_risk(LinearModel(weights=np.zeros(2), intercept=0.0), TrainingWindow(2, 5))

    def test_risk_agrees_with_exact_summation_for_any_model(self):
        rng = np.random.default_rng(71)
        for cap in (40, 300):
            window = TrainingWindow(6, cap)
            for _ in range(30):
                window.add(*block_rows(rng, int(rng.integers(1, 25)), 6))
            model = fit(window)
            probes = [model] + [
                LinearModel(weights=model.weights + rng.normal(0.0, scale, size=6), intercept=model.intercept + scale)
                for scale in (1e-3, 0.1, 10.0)
            ]
            for probe in probes:
                assert empirical_risk(probe, window) == pytest.approx(exact_risk(probe, window), rel=1e-9)

    def test_noiseless_risk_is_never_negative(self):
        rng = np.random.default_rng(73)
        true_w = [1.5, -2.0, 0.25, 4.0, -0.75]
        for trial in range(40):
            window = TrainingWindow(5, 150)
            for _ in range(1 + trial % 8):
                x, y = make_dataset(true_w, 30.0, int(rng.integers(10, 60)), rng)
                window.add(x, y)
            risk = empirical_risk(fit(window), window)
            assert 0.0 <= risk < 1e-12
