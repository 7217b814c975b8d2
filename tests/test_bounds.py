"""Closed-form bound arithmetic: spec'd values, clamps, and monotonicity."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from adaptlab.bounds import (
    QualityDomain,
    RiskBoundInputs,
    count_feasible,
    decision_error_bound,
    expected_risk_terms,
    prob_any_feasible_retained,
    reduction_survival_prob,
    vc_dimension_linear,
)

PERCENT = QualityDomain(lower=0.0, upper=100.0)
UNIT = QualityDomain(lower=0.0, upper=1.0)


class TestVcDimension:
    def test_values(self):
        assert vc_dimension_linear(85) == 86
        assert vc_dimension_linear(1) == 2
        assert vc_dimension_linear(12) == 13

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            vc_dimension_linear(0)


def make_inputs(**overrides):
    base = dict(m=2560, vc_dim=23, eta=0.05, empirical_risk=6.0, kappa=1.0, alpha=0.1)
    return RiskBoundInputs(**{**base, **overrides})


def terms(domain=PERCENT, **overrides):
    """``expected_risk_terms`` of one trained model: (nu, margin, adjusted, upper)."""
    return expected_risk_terms(make_inputs(**{"empirical_risk": 0.0, **overrides}), domain)


def nu(m, d, eta):
    return terms(m=m, vc_dim=d, eta=eta)[0]


class TestConfidenceTerm:
    def test_matches_direct_formula(self):
        m, d, eta = 6000, 86, 0.05
        expected = (d * (math.log(2 * m / d) + 1) - math.log(eta / 4)) / m
        assert nu(m, d, eta) == pytest.approx(expected, rel=1e-15)
        assert nu(m, d, eta) > 0

    def test_shrinks_with_more_samples(self):
        assert nu(200, 86, 0.05) > nu(2000, 86, 0.05)

    def test_grows_with_smaller_eta(self):
        assert nu(1000, 86, 0.05) > nu(1000, 86, 0.5)

    def test_rejects_capacity_at_or_above_samples(self):
        with pytest.raises(ValueError, match="d >= m"):
            nu(86, 86, 0.05)
        with pytest.raises(ValueError, match="d >= m"):
            nu(50, 86, 0.05)

    def test_rejects_bad_eta(self):
        for eta in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                nu(100, 10, eta)

    @given(st.integers(min_value=2, max_value=400))
    def test_strictly_increasing_in_capacity(self, d):
        m = 1000
        assert nu(m, d, 0.05) < nu(m, d + 1, 0.05)


class TestRiskMargin:
    def test_zero_confidence_term(self):
        # nu -> 0 as m grows, and the margin with it
        confidence, margin, *_ = terms(UNIT, m=10**15, vc_dim=1)
        assert confidence < 1e-12
        assert margin == math.sqrt(confidence) < 1e-6

    def test_percent_domain(self):
        confidence, margin, *_ = terms(PERCENT)
        assert margin == 10_000.0 * math.sqrt(confidence)

    def test_unit_domain(self):
        confidence, margin, *_ = terms(UNIT)
        assert margin == math.sqrt(confidence)

    def test_offset_domain_uses_width(self):
        shifted = QualityDomain(lower=50.0, upper=150.0)
        assert terms(shifted) == terms(PERCENT)

    def test_rejects_negative(self):
        # nu is positive wherever RiskBoundInputs admits its inputs, even at
        # the smallest window and the largest eta; below them it raises.
        assert terms(m=24, eta=1.0 - 1e-12)[1] > 0.0
        for overrides in (dict(m=23), dict(m=0), dict(vc_dim=0), dict(eta=1.0)):
            with pytest.raises(ValueError):
                terms(**overrides)


class TestAdjustedMargin:
    def test_verifier_correction(self):
        _, margin, adjusted, _ = terms(PERCENT, kappa=1.0)
        assert adjusted == margin + 200.0

    def test_no_correction_at_zero_kappa(self):
        _, margin, adjusted, _ = terms(PERCENT, kappa=0.0)
        assert adjusted == margin

    def test_zero_margin(self):
        # a vanishing margin leaves only the correction 2 * width * kappa
        _, margin, adjusted, _ = terms(UNIT, m=10**15, vc_dim=1, kappa=0.5)
        assert adjusted == pytest.approx(1.0, abs=1e-6)
        assert adjusted == margin + 1.0

    def test_rejects_negative_inputs(self):
        for overrides in (dict(kappa=-0.5), dict(empirical_risk=-1.0)):
            with pytest.raises(ValueError):
                terms(**overrides)


class TestSurvivalProb:
    def test_worked_ratio(self):
        # cutoff 3 above the best prediction, sqrt(risk) = 5 -> 3/10
        assert reduction_survival_prob(10.0, 7.0, 25.0) == pytest.approx(0.3, rel=1e-15)

    def test_cutoff_at_best_prediction(self):
        assert reduction_survival_prob(7.0, 7.0, 4.0) == 0.0

    def test_clamped_to_one(self):
        assert reduction_survival_prob(1000.0, 0.0, 1.0) == 1.0

    def test_clamped_to_zero_below_best(self):
        assert reduction_survival_prob(5.0, 7.0, 4.0) == 0.0

    def test_rejects_zero_risk(self):
        with pytest.raises(ValueError):
            reduction_survival_prob(10.0, 7.0, 0.0)

    def test_rejects_non_finite_cutoff_and_best_prediction(self):
        for cutoff, best in ((math.nan, 7.0), (math.inf, 7.0), (10.0, math.nan), (10.0, -math.inf)):
            with pytest.raises(ValueError, match="finite"):
                reduction_survival_prob(cutoff, best, 4.0)


class TestRetainedProb:
    def test_matches_direct_power_form(self):
        got = prob_any_feasible_retained(0.3, 25)
        assert got == pytest.approx(1.0 - 0.7**25, abs=1e-15)
        assert got >= 0.99

    def test_small_probability_case(self):
        assert prob_any_feasible_retained(0.1, 25) == pytest.approx(1.0 - 0.9**25, abs=1e-12)

    def test_edges(self):
        assert prob_any_feasible_retained(0.0, 100) == 0.0
        assert prob_any_feasible_retained(0.5, 0) == 0.0
        assert prob_any_feasible_retained(1.0, 3) == 1.0

    def test_tiny_arguments_stay_accurate(self):
        # n*p ~ 1e-12: the answer is ~n*p, far below where the naive
        # 1 - (1-p)^n form loses every significant digit.
        p, n = 1e-15, 1000
        got = prob_any_feasible_retained(p, n)
        assert got == pytest.approx(n * p, rel=1e-9)

    @given(st.floats(min_value=0.0, max_value=1.0), st.integers(min_value=0, max_value=10_000))
    def test_always_a_probability(self, p, n):
        assert 0.0 <= prob_any_feasible_retained(p, n) <= 1.0

    @given(st.floats(min_value=1e-6, max_value=1.0 - 1e-6), st.integers(min_value=0, max_value=500))
    def test_monotone_in_count(self, p, n):
        assert prob_any_feasible_retained(p, n) <= prob_any_feasible_retained(p, n + 1)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            prob_any_feasible_retained(-0.1, 5)
        with pytest.raises(ValueError):
            prob_any_feasible_retained(1.1, 5)
        with pytest.raises(ValueError):
            prob_any_feasible_retained(0.5, -1)


def bound_at(survival, n, **overrides):
    """decision_error_bound on PERCENT with the cutoff placed at ``survival``."""
    inputs = make_inputs(**overrides)
    width = 2.0 * math.sqrt(expected_risk_terms(inputs, PERCENT)[3])
    return decision_error_bound(inputs, PERCENT, 8.9 + survival * width, 8.9, n)


class TestBoundConfidence:
    def test_product_form(self):
        eta, alpha, n = 0.05, 0.1, 25
        bound = bound_at(0.3, n, eta=eta, alpha=alpha)
        p = bound.survival_prob
        assert p == pytest.approx(0.3, rel=1e-12)
        expected = (1 - eta) * (1 - alpha) ** 2 * (1 - (1 - p) ** n)
        assert bound.min_probability == pytest.approx(expected, rel=1e-14)

    def test_negligible_alpha_reduces_to_single_factor(self):
        # With kappa = 0 the margin correction vanishes (see TestAdjustedMargin)
        # and as alpha -> 0 the confidence tends to (1-eta)*(1-(1-p)^n).
        eta, n = 0.2, 10
        bound = bound_at(0.4, n, eta=eta, alpha=1e-300, kappa=0.0)
        p = bound.survival_prob
        assert bound.min_probability == pytest.approx((1 - eta) * (1 - (1 - p) ** n), rel=1e-12)

    def test_empty_feasible_set_gives_zero(self):
        assert bound_at(0.9, 0).min_probability == 0.0


class TestCountFeasible:
    def test_singleton(self):
        assert count_feasible([7.0], 7.0, 5.0) == 1

    def test_direct_count(self):
        assert count_feasible([7.0, 9.0, 11.0, 13.0], 7.0, 5.0) == 3

    def test_matches_linear_scan(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            predictions = rng.normal(20.0, 8.0, size=500).tolist()
            best = min(predictions)
            radius = float(rng.uniform(0.0, 20.0))
            expected = sum(1 for p in predictions if p - best <= radius)
            assert count_feasible(predictions, best, radius) == expected

    def test_rejects_empty_and_negative_radius(self):
        with pytest.raises(ValueError):
            count_feasible([], 0.0, 1.0)
        with pytest.raises(ValueError):
            count_feasible([1.0], 1.0, -0.1)


class TestRiskBoundInputs:
    def test_rejects_capacity_at_or_above_samples(self):
        with pytest.raises(ValueError, match="d >= m"):
            RiskBoundInputs(m=86, vc_dim=86, eta=0.05, empirical_risk=1.0, kappa=1.0, alpha=0.1)

    def test_rejects_bad_ranges(self):
        good = dict(m=100, vc_dim=10, eta=0.05, empirical_risk=1.0, kappa=1.0, alpha=0.1)
        for overrides in (
            dict(eta=0.0),
            dict(eta=1.0),
            dict(alpha=0.0),
            dict(alpha=1.0),
            dict(empirical_risk=-0.1),
            dict(empirical_risk=math.nan),
            dict(empirical_risk=math.inf),
            dict(kappa=-0.1),
            dict(kappa=math.nan),
            dict(kappa=math.inf),
            dict(m=0),
            dict(vc_dim=0),
        ):
            with pytest.raises(ValueError):
                RiskBoundInputs(**{**good, **overrides})


class TestDomain:
    def test_loss_bounds(self):
        assert PERCENT.loss_upper == 10_000.0
        assert PERCENT.loss_slope_bound == 200.0
        assert PERCENT.width == 100.0

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            QualityDomain(lower=5.0, upper=5.0)
        with pytest.raises(ValueError):
            QualityDomain(lower=5.0, upper=1.0)
        with pytest.raises(ValueError):
            QualityDomain(lower=0.0, upper=math.inf)
        with pytest.raises(ValueError, match="finite width"):
            QualityDomain(lower=-1e308, upper=1e308)  # finite bounds, but the width overflows


class TestComposition:
    def test_fields_satisfy_their_defining_equations(self):
        nu = (23 * (math.log(2 * 2560 / 23) + 1) - math.log(0.05 / 4)) / 2560
        for domain in (PERCENT, UNIT, QualityDomain(lower=50.0, upper=150.0)):
            # the PERCENT example's risk and predictions, scaled to the domain
            scale = domain.width / 100.0
            risk, best, cut = 6.0 * scale**2, domain.lower + 8.9 * scale, domain.lower + 9.4 * scale
            inputs = make_inputs(empirical_risk=risk)
            bound = decision_error_bound(inputs, domain, cut, best, 256)
            assert expected_risk_terms(inputs, domain) == (
                bound.confidence_term, bound.risk_margin, bound.adjusted_risk_margin, bound.expected_risk_upper
            )
            assert bound.confidence_term == pytest.approx(nu, rel=1e-15)
            assert bound.risk_margin == domain.loss_upper * math.sqrt(bound.confidence_term)
            assert bound.adjusted_risk_margin == bound.risk_margin + domain.loss_slope_bound * 1.0
            assert bound.expected_risk_upper == risk + bound.adjusted_risk_margin
            assert bound.survival_prob == reduction_survival_prob(cut, best, bound.expected_risk_upper)
            assert bound.error_bound == math.sqrt(bound.expected_risk_upper) + 1.0
            assert bound.min_probability == (1 - 0.05) * (1 - 0.1) ** 2 * prob_any_feasible_retained(
                bound.survival_prob, 256
            )
            assert 0.0 <= bound.survival_prob <= 1.0
            assert 0.0 <= bound.min_probability <= 1.0

    def test_error_bound_grows_with_kappa_and_risk(self):
        base = decision_error_bound(make_inputs(), PERCENT, 9.4, 8.9, 256)
        more_kappa = decision_error_bound(make_inputs(kappa=2.0), PERCENT, 9.4, 8.9, 256)
        more_risk = decision_error_bound(make_inputs(empirical_risk=60.0), PERCENT, 9.4, 8.9, 256)
        assert more_kappa.error_bound > base.error_bound
        assert more_risk.error_bound > base.error_bound

    def test_confidence_falls_with_eta_and_alpha(self):
        base = decision_error_bound(make_inputs(), PERCENT, 9.4, 8.9, 256)
        more_eta = decision_error_bound(make_inputs(eta=0.2), PERCENT, 9.4, 8.9, 256)
        more_alpha = decision_error_bound(make_inputs(alpha=0.3), PERCENT, 9.4, 8.9, 256)
        assert more_eta.min_probability < base.min_probability
        assert more_alpha.min_probability < base.min_probability

    def test_confidence_grows_with_feasible_count(self):
        small = decision_error_bound(make_inputs(), PERCENT, 9.4, 8.9, 10)
        large = decision_error_bound(make_inputs(), PERCENT, 9.4, 8.9, 100)
        assert small.min_probability < large.min_probability

    def test_zero_feasible_options_zero_confidence(self):
        bound = decision_error_bound(make_inputs(), PERCENT, 9.4, 8.9, 0)
        assert bound.min_probability == 0.0

    def test_near_degenerate_limits(self):
        # kappa = 0, eta and alpha negligible, generous cutoff: the bound
        # tends to sqrt(risk + margin) and the confidence to 1.
        inputs = make_inputs(kappa=0.0, eta=1e-12, alpha=1e-12)
        bound = decision_error_bound(inputs, PERCENT, 1e9, 0.0, 50)
        assert bound.survival_prob == 1.0
        assert bound.error_bound == math.sqrt(6.0 + bound.risk_margin)
        assert bound.min_probability == pytest.approx(1.0, abs=1e-10)

    def test_rejects_risk_above_loss_bound(self):
        with pytest.raises(ValueError, match="loss bound"):
            decision_error_bound(make_inputs(empirical_risk=10_001.0), PERCENT, 9.4, 8.9, 256)

    def test_float_recomputation_agrees(self):
        # Independent (differently ordered) float evaluation of the whole
        # pipeline; the arbitrary-precision check lives in the acceptance suite.
        rng = np.random.default_rng(3)
        for _ in range(200):
            d = int(rng.integers(2, 200))
            m = d + 1 + int(rng.integers(1, 100_000))
            eta = float(rng.uniform(0.01, 0.99))
            alpha = float(rng.uniform(0.01, 0.99))
            lower = float(rng.uniform(-50.0, 50.0))
            width = float(rng.uniform(0.5, 150.0))
            domain = QualityDomain(lower=lower, upper=lower + width)
            risk = float(rng.uniform(0.0, domain.loss_upper))
            kappa = float(rng.uniform(0.0, 5.0))
            best = float(rng.uniform(lower, lower + width))
            cut = best + float(rng.uniform(-2.0, 30.0))
            n = int(rng.integers(0, 2000))
            inputs = RiskBoundInputs(m=m, vc_dim=d, eta=eta, empirical_risk=risk, kappa=kappa, alpha=alpha)
            bound = decision_error_bound(inputs, domain, cut, best, n)

            nu = (d * (np.log(2 * m / d) + 1) - np.log(eta / 4)) / m
            delta = width**2 * np.sqrt(nu)
            delta_adj = delta + 2 * width * kappa
            upper = risk + delta_adj
            p = float(np.clip((cut - best) / (2 * np.sqrt(upper)), 0.0, 1.0))
            np.testing.assert_allclose(bound.confidence_term, nu, rtol=1e-12)
            np.testing.assert_allclose(bound.expected_risk_upper, upper, rtol=1e-12)
            np.testing.assert_allclose(bound.survival_prob, p, rtol=1e-9, atol=1e-12)
            np.testing.assert_allclose(bound.error_bound, np.sqrt(upper) + kappa, rtol=1e-12)
            np.testing.assert_allclose(
                bound.min_probability,
                (1 - eta) * (1 - alpha) ** 2 * (1 - (1 - p) ** n),
                rtol=1e-9,
                atol=1e-12,
            )
