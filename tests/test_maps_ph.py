"""Unit tests for phase-type distributions."""

from __future__ import annotations

import numpy as np
import pytest

from repro.maps.ph import PHDistribution, hyperexp_rates_from_moments, hyperexponential_ph


class TestExponential:
    def test_mean(self):
        assert PHDistribution([1.0], [[-2.0]]).mean() == pytest.approx(0.5)

    def test_scv_is_one(self):
        assert PHDistribution([1.0], [[-3.0]]).scv() == pytest.approx(1.0)

    def test_cdf_matches_closed_form(self):
        ph = PHDistribution([1.0], [[-1.5]])
        xs = np.array([0.1, 0.5, 1.0, 2.0])
        assert np.allclose(ph.cdf(xs), 1.0 - np.exp(-1.5 * xs))

    def test_percentile_matches_closed_form(self):
        ph = PHDistribution([1.0], [[-2.0]])
        assert ph.percentile(0.95) == pytest.approx(-np.log(0.05) / 2.0, rel=1e-6)



class TestErlang:
    def test_mean_and_scv(self):
        ph = PHDistribution(np.eye(4)[0], -2.0 * np.eye(4) + 2.0 * np.eye(4, k=1))
        assert ph.mean() == pytest.approx(2.0)
        assert ph.scv() == pytest.approx(0.25)

    def test_variance_positive(self):
        assert PHDistribution(np.eye(3)[0], np.eye(3, k=1) - np.eye(3)).variance() > 0

    def test_order_one_is_exponential(self):
        assert PHDistribution([1.0], [[-2.0]]).scv() == pytest.approx(1.0)

    def test_cdf_monotone(self):
        ph = PHDistribution(np.eye(3)[0], np.eye(3, k=1) - np.eye(3))
        xs = np.linspace(0.1, 10, 25)
        values = ph.cdf(xs)
        assert np.all(np.diff(values) >= -1e-12)


class TestHyperexponential:
    def test_matches_requested_moments(self):
        ph = hyperexponential_ph(2.0, 5.0)
        assert ph.mean() == pytest.approx(2.0, rel=1e-9)
        assert ph.scv() == pytest.approx(5.0, rel=1e-9)

    def test_scv_one_collapses_to_exponential(self):
        ph = hyperexponential_ph(1.0, 1.0)
        assert ph.scv() == pytest.approx(1.0, rel=1e-6)

    def test_requires_scv_at_least_one(self):
        with pytest.raises(ValueError):
            hyperexponential_ph(1.0, 0.5)

    def test_custom_branch_probability_preserves_moments(self):
        ph = hyperexponential_ph(1.0, 3.0, p1=0.7)
        assert ph.mean() == pytest.approx(1.0, rel=1e-9)
        assert ph.scv() == pytest.approx(3.0, rel=1e-9)

    def test_different_branch_probability_changes_skewness(self):
        balanced = hyperexponential_ph(1.0, 3.0)
        skewed = hyperexponential_ph(1.0, 3.0, p1=0.97)
        assert balanced.skewness() != pytest.approx(skewed.skewness(), rel=1e-3)

    def test_rates_helper_validates_p1(self):
        with pytest.raises(ValueError):
            hyperexp_rates_from_moments(1.0, 3.0, p1=1.5)

    def test_rates_helper_balanced_means(self):
        p1, rate1, rate2 = hyperexp_rates_from_moments(1.0, 4.0)
        # Balanced means: p1 / rate1 == p2 / rate2.
        assert p1 / rate1 == pytest.approx((1 - p1) / rate2, rel=1e-9)

    def test_percentile_bracket(self):
        ph = hyperexponential_ph(1.0, 10.0)
        p95 = ph.percentile(0.95)
        assert ph.cdf(p95) == pytest.approx(0.95, abs=1e-6)

    def test_sampling_moments(self, rng):
        ph = hyperexponential_ph(1.0, 3.0)
        samples = ph.sample(20000, rng=rng)
        assert samples.mean() == pytest.approx(1.0, rel=0.05)
        assert samples.var() / samples.mean() ** 2 == pytest.approx(3.0, rel=0.2)


class TestValidation:
    def test_alpha_must_sum_to_one(self):
        with pytest.raises(ValueError):
            PHDistribution(np.array([0.5, 0.2]), np.array([[-1.0, 0.0], [0.0, -1.0]]))

    def test_negative_alpha_rejected(self):
        with pytest.raises(ValueError):
            PHDistribution(np.array([1.5, -0.5]), np.array([[-1.0, 0.0], [0.0, -1.0]]))

    def test_positive_diagonal_rejected(self):
        with pytest.raises(ValueError):
            PHDistribution(np.array([1.0]), np.array([[1.0]]))

    def test_negative_offdiagonal_rejected(self):
        with pytest.raises(ValueError):
            PHDistribution(np.array([0.5, 0.5]), np.array([[-1.0, -0.5], [0.0, -1.0]]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            PHDistribution(np.array([1.0]), np.array([[-1.0, 0.0], [0.0, -1.0]]))

    def test_single_phase_without_exit_rejected(self):
        with pytest.raises(ValueError, match="singular"):
            PHDistribution([1.0], [[0.0]])

    def test_closed_phase_class_rejected(self):
        # Both phases only feed each other: no phase reaches absorption.
        with pytest.raises(ValueError, match="singular"):
            PHDistribution([1.0, 0.0], [[-1.0, 1.0], [1.0, -1.0]])

    def test_moment_requires_positive_order(self):
        with pytest.raises(ValueError):
            PHDistribution([1.0], [[-1.0]]).moment(0)

    def test_percentile_requires_open_interval(self):
        with pytest.raises(ValueError):
            PHDistribution([1.0], [[-1.0]]).percentile(1.0)

    def test_exit_rates_non_negative(self):
        ph = hyperexponential_ph(1.0, 3.0)
        assert np.all(ph.exit_rates >= 0)

    def test_pdf_integrates_to_cdf(self):
        ph = PHDistribution([1.0, 0.0], [[-1.0, 1.0], [0.0, -1.0]])
        xs = np.linspace(0, 10, 2001)
        pdf = ph.pdf(xs)
        integral = np.trapezoid(pdf, xs) if hasattr(np, "trapezoid") else np.trapz(pdf, xs)
        assert integral == pytest.approx(ph.cdf(10.0), rel=1e-3)
