"""Linear least squares: recovery, optimality, prediction, risk measurement."""

import math
from fractions import Fraction

import numpy as np
import pytest

from adaptlab.regression import LinearModel, empirical_risk, fit, predict_batch


def make_dataset(weights, intercept, count, rng, noise=0.0):
    dim = len(weights)
    x = rng.normal(0.0, 3.0, size=(count, dim))
    y = x @ np.asarray(weights) + intercept + (rng.normal(0.0, noise, size=count) if noise else 0.0)
    return x, y


class TestFit:
    def test_recovers_line(self):
        xs = np.arange(10, dtype=np.float64)
        model = fit(xs[:, None], 3.0 * xs + 1.0)
        np.testing.assert_allclose(model.weights, [3.0], atol=1e-9)
        assert model.intercept == pytest.approx(1.0, abs=1e-9)
        assert predict_batch(model, np.array([[10.0]]))[0] == pytest.approx(31.0, abs=1e-8)

    def test_recovers_plane(self):
        rng = np.random.default_rng(5)
        model = fit(*make_dataset([2.0, -1.0], 5.0, 20, rng))
        np.testing.assert_allclose(model.weights, [2.0, -1.0], atol=1e-9)
        assert model.intercept == pytest.approx(5.0, abs=1e-9)

    def test_recovers_five_dims(self):
        rng = np.random.default_rng(17)
        true_w = [1.5, -2.0, 0.25, 4.0, -0.75]
        x, y = make_dataset(true_w, -3.0, 60, rng)
        model = fit(x, y)
        np.testing.assert_allclose(model.weights, true_w, atol=1e-9)
        assert model.intercept == pytest.approx(-3.0, abs=1e-9)
        assert empirical_risk(model, x, y) < 1e-12

    def test_permutation_invariant(self):
        rng = np.random.default_rng(29)
        x, y = make_dataset([0.5, 2.0, -1.0], 1.0, 40, rng, noise=0.3)
        order = rng.permutation(len(y))
        a, b = fit(x, y), fit(x[order], y[order])
        np.testing.assert_allclose(a.weights, b.weights, atol=1e-9)
        assert a.intercept == pytest.approx(b.intercept, abs=1e-9)

    def test_beats_random_probes(self):
        """The fit's MSE is a minimum over 1000 perturbed coefficient vectors."""
        rng = np.random.default_rng(41)
        x, y = make_dataset([1.0, -2.0, 3.0], 0.5, 50, rng, noise=1.0)
        model = fit(x, y)
        best_risk = empirical_risk(model, x, y)
        for _ in range(1000):
            probe = LinearModel(
                weights=model.weights + rng.normal(0.0, 0.05, size=3),
                intercept=model.intercept + float(rng.normal(0.0, 0.05)),
            )
            assert best_risk <= empirical_risk(probe, x, y) + 1e-9

    def test_agrees_with_lstsq_on_well_conditioned_data(self):
        rng = np.random.default_rng(57)
        x, y = make_dataset([4.0, 1.0, -2.5, 0.0], 2.0, 200, rng, noise=2.0)
        model = fit(x, y)
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
        model = fit(x, 2 * x[:, 0])
        assert np.all(np.isfinite(model.weights))
        assert empirical_risk(model, x, 2 * x[:, 0]) < 1e-9
        assert abs(model.weights[1]) < 1e-9
        shifted = x[:1] + [0.0, 1.0]
        assert abs(predict_batch(model, shifted)[0] - predict_batch(model, x[:1])[0]) < 1e-9

    def test_underdetermined_fit_interpolates_its_samples(self):
        rng = np.random.default_rng(13)
        x, y = make_dataset([1.0, 2.0, 3.0, 4.0, 5.0], 0.0, 3, rng)  # 3 samples, 5 dims
        model = fit(x, y)
        assert np.all(np.isfinite(model.weights))
        assert math.isfinite(model.intercept)
        assert empirical_risk(model, x, y) < 1e-12

    def test_duplicated_feature_column_shares_its_weight(self):
        rng = np.random.default_rng(19)
        x, y = make_dataset([1.5, -0.5], 2.0, 30, rng, noise=0.5)
        doubled = fit(np.column_stack([x, x[:, 1]]), y)
        single = fit(x, y)
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
            fit(x, y)

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
                fit(x, y)
            with pytest.raises(ValueError, match="feature matrix"):
                empirical_risk(model, x, y)


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
        assert empirical_risk(fit(xs[:, None], 2.0 * xs), xs[:, None], 2.0 * xs) == pytest.approx(0.0, abs=1e-20)

    def test_unit_residuals(self):
        model = LinearModel(weights=np.array([0.0]), intercept=0.0)
        assert empirical_risk(model, np.array([[1.0], [2.0]]), np.array([1.0, -1.0])) == 1.0

    def test_matches_exact_summation_oracle(self):
        """Mean of squares agrees with exact rational accumulation to <=4 ulps."""
        rng = np.random.default_rng(47)
        model = LinearModel(weights=rng.normal(size=4), intercept=0.3)
        x = rng.normal(size=(3000, 4))
        y = rng.normal(0, 5, size=3000)
        got = empirical_risk(model, x, y)
        exact = Fraction(0)
        for row, target in zip(x, y.tolist()):
            r = target - (float(model.weights @ row) + model.intercept)
            exact += Fraction(r * r)  # residual squares are the shared floats
        expected = float(exact / len(y))
        assert abs(got - expected) <= 4 * math.ulp(expected)

    def test_rejects_empty(self):
        model = LinearModel(weights=np.array([1.0]), intercept=0.0)
        with pytest.raises(ValueError):
            empirical_risk(model, np.empty((0, 1)), np.empty(0))

    def test_rejects_dimension_mismatch(self):
        model = LinearModel(weights=np.array([1.0]), intercept=0.0)
        with pytest.raises(ValueError, match="model dimension"):
            empirical_risk(model, np.ones((3, 2)), np.ones(3))

