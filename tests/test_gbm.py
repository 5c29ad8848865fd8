import numpy as np
import pytest
from scipy.stats import shapiro

from cesnet.errors import DegenerateSample, NonPositiveValue, SeriesTooShort
from cesnet.gbm import (
    estimate_gbm_dlm,
    estimate_gbm_moments,
    shapiro_wilk,
)


class TestMomentsEstimator:
    def test_exponential_series(self):
        # Deterministic exponential growth: zero volatility, drift equal to
        # the log growth rate.
        x = np.exp(0.05 * np.arange(20))
        est = estimate_gbm_moments(x)
        assert est.sigma_hat == pytest.approx(0.0, abs=1e-12)
        assert est.mu_hat == pytest.approx(0.05, abs=1e-12)
        assert est.n_obs == 20

    def test_hand_computed_three_points(self):
        # d ln x = (ln 2, ln 8 - ln 2), divisor l - 2 = 1.
        x = np.array([1.0, 2.0, 8.0])
        est = estimate_gbm_moments(x)
        d = np.diff(np.log(x))
        sd = np.sqrt(np.sum((d - d.mean()) ** 2) / 1.0)
        assert est.sigma_hat == pytest.approx(sd)
        assert est.mu_hat == pytest.approx(d.mean() + sd**2 / 2)

    def test_recovers_simulated_path(self):
        rng = np.random.default_rng(0)
        mu, sigma = 0.03, 0.15
        steps = rng.normal(mu - sigma**2 / 2, sigma, 20000)
        x = np.exp(np.concatenate(([0.0], steps)).cumsum())
        est = estimate_gbm_moments(x)
        assert est.mu_hat == pytest.approx(mu, abs=0.005)
        assert est.sigma_hat == pytest.approx(sigma, abs=0.005)

    def test_scale_invariance(self):
        rng = np.random.default_rng(1)
        x = np.exp(rng.normal(0.01, 0.1, 100).cumsum())
        a = estimate_gbm_moments(x)
        b = estimate_gbm_moments(1000.0 * x)
        assert b.mu_hat == pytest.approx(a.mu_hat, rel=1e-12)
        assert b.sigma_hat == pytest.approx(a.sigma_hat, rel=1e-12)

    def test_errors(self):
        with pytest.raises(SeriesTooShort):
            estimate_gbm_moments(np.array([1.0, 2.0]))
        with pytest.raises(NonPositiveValue):
            estimate_gbm_moments(np.array([1.0, -2.0, 3.0]))


class TestRatioEstimator:
    def test_constant_growth(self):
        x = 1.02 ** np.arange(10)
        est = estimate_gbm_dlm(x)
        assert est.sigma_hat == pytest.approx(0.0, abs=1e-12)
        assert est.mu_hat == pytest.approx(0.02)

    def test_hand_computed_pair(self):
        # One ratio = 3, divisor l - 1 = 1, deviation is zero.
        est = estimate_gbm_dlm(np.array([1.0, 3.0]))
        assert est.mu_hat == pytest.approx(2.0)
        assert est.sigma_hat == pytest.approx(0.0, abs=1e-15)

    def test_recovers_simulated_path(self):
        rng = np.random.default_rng(2)
        mu, sigma = 0.02, 0.05
        ratios = 1.0 + rng.normal(mu, sigma, 20000)
        x = np.concatenate(([1.0], np.cumprod(ratios)))
        est = estimate_gbm_dlm(x)
        assert est.mu_hat == pytest.approx(mu, abs=0.003)
        assert est.sigma_hat == pytest.approx(sigma, abs=0.003)

    def test_divisor_differs_from_moments(self):
        x = np.exp(np.random.default_rng(3).normal(0.0, 0.2, 30).cumsum())
        assert estimate_gbm_dlm(x).sigma_hat != pytest.approx(
            estimate_gbm_moments(x).sigma_hat, rel=1e-6
        )

    def test_errors(self):
        with pytest.raises(SeriesTooShort):
            estimate_gbm_dlm(np.array([1.0]))
        with pytest.raises(NonPositiveValue):
            estimate_gbm_dlm(np.array([1.0, 0.0]))


class TestShapiroWilk:
    @pytest.mark.parametrize("n", [4, 5, 8, 11, 12, 25, 50, 200, 1000])
    def test_matches_reference_implementation(self, n):
        rng = np.random.default_rng(n)
        x = rng.standard_normal(n) + 0.4 * rng.standard_normal(n) ** 2
        W, p = shapiro_wilk(x)
        ref = shapiro(x)
        assert W == pytest.approx(ref.statistic, abs=1e-6)
        assert p == pytest.approx(ref.pvalue, abs=1e-6)

    def test_three_point_sample(self):
        W, p = shapiro_wilk(np.array([1.0, 2.0, 3.0]))
        ref = shapiro([1.0, 2.0, 3.0])
        assert W == pytest.approx(ref.statistic, abs=1e-6)
        assert p == pytest.approx(ref.pvalue, abs=1e-6)

    def test_affine_invariance(self):
        x = np.random.default_rng(4).standard_normal(60)
        W1, p1 = shapiro_wilk(x)
        W2, p2 = shapiro_wilk(-5.0 * x + 100.0)
        assert W1 == pytest.approx(W2, abs=1e-12)
        assert p1 == pytest.approx(p2, abs=1e-12)

    def test_normal_sample_accepted(self):
        x = np.random.default_rng(5).standard_normal(200)
        _, p = shapiro_wilk(x)
        assert p > 0.05

    def test_bimodal_sample_rejected(self):
        x = np.concatenate([np.full(25, -1.0), np.full(25, 1.0)])
        x += 0.01 * np.random.default_rng(6).standard_normal(50)
        _, p = shapiro_wilk(x)
        assert p < 0.01

    def test_errors(self):
        with pytest.raises(SeriesTooShort):
            shapiro_wilk(np.array([1.0, 2.0]))
        with pytest.raises(DegenerateSample):
            shapiro_wilk(np.ones(10))
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(DegenerateSample, match="non-finite"):
                shapiro_wilk(np.array([1.0, 2.0, bad, 4.0, 5.0]))


class TestSpotChecks:
    def test_constant_series_both_estimators(self):
        x = np.full(12, 7.0)
        m = estimate_gbm_moments(x)
        d = estimate_gbm_dlm(x)
        assert m.mu_hat == 0.0 and m.sigma_hat == 0.0
        assert d.mu_hat == 0.0 and d.sigma_hat == 0.0

    def test_normal_scores_near_perfect_w(self):
        from scipy.stats import norm

        scores = norm.ppf((np.arange(1, 101) - 0.375) / 100.25)
        W, _ = shapiro_wilk(scores)
        assert W > 0.99

    def test_estimators_agree_at_small_volatility(self):
        rng = np.random.default_rng(7)
        sigma = 0.01
        steps = rng.normal(0.005 - sigma**2 / 2, sigma, 2000)
        x = np.exp(np.concatenate(([0.0], steps)).cumsum())
        m = estimate_gbm_moments(x)
        d = estimate_gbm_dlm(x)
        assert abs(m.mu_hat - d.mu_hat) < 5 * sigma**2
        assert abs(m.sigma_hat - d.sigma_hat) < 5 * sigma**2
