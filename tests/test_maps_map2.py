"""Unit tests for MAP(2) constructors."""

from __future__ import annotations

import numpy as np
import pytest

from repro.maps import (
    MAP,
    hyperexponential_ph,
    map2_correlated_hyperexp,
    map2_exponential,
    map2_from_moments_and_decay,
    map2_hyperexponential_renewal,
)


class TestExponentialConstructor:
    def test_mean(self):
        assert map2_exponential(0.25).mean() == pytest.approx(0.25)

    def test_rejects_nonpositive_mean(self):
        with pytest.raises(ValueError):
            map2_exponential(-1.0)


class TestRenewalConstructors:
    def test_from_ph_preserves_marginal(self):
        ph = hyperexponential_ph(2.0, 4.0)
        renewal = MAP(ph.T, np.outer(ph.exit_rates, ph.alpha))
        assert renewal.mean() == pytest.approx(ph.mean(), rel=1e-9)
        assert renewal.scv() == pytest.approx(ph.scv(), rel=1e-9)

    def test_from_ph_has_no_correlation(self):
        ph = hyperexponential_ph(1.0, 6.0)
        renewal = MAP(ph.T, np.outer(ph.exit_rates, ph.alpha))
        assert renewal.autocorrelation(1) == pytest.approx(0.0, abs=1e-9)

    def test_hyperexp_renewal_matches_moments(self):
        renewal = map2_hyperexponential_renewal(3.0, 2.5)
        assert renewal.mean() == pytest.approx(3.0, rel=1e-9)
        assert renewal.scv() == pytest.approx(2.5, rel=1e-9)


class TestCorrelatedHyperexp:
    def test_rejects_bad_rates(self):
        with pytest.raises(ValueError):
            map2_correlated_hyperexp(-1.0, 1.0, 0.5, 0.5)

    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            map2_correlated_hyperexp(1.0, 2.0, 1.5, 0.5)

    def test_rejects_bad_decay(self):
        with pytest.raises(ValueError):
            map2_correlated_hyperexp(1.0, 2.0, 0.5, 1.0)

    def test_decay_zero_is_renewal(self):
        process = map2_correlated_hyperexp(2.0, 0.5, 0.7, 0.0)
        assert process.autocorrelation(1) == pytest.approx(0.0, abs=1e-9)

    def test_embedded_decay_matches_parameter(self):
        process = map2_correlated_hyperexp(2.0, 0.5, 0.7, 0.85)
        assert process.autocorrelation_decay() == pytest.approx(0.85, rel=1e-9)


class TestMomentsAndDecayFamily:
    @pytest.mark.parametrize("decay", [0.0, 0.5, 0.9, 0.99, 0.999])
    def test_marginal_invariant_in_decay(self, decay):
        process = map2_from_moments_and_decay(1.0, 3.0, decay)
        assert process.mean() == pytest.approx(1.0, rel=1e-9)
        assert process.scv() == pytest.approx(3.0, rel=1e-9)

    @pytest.mark.parametrize("decay", [0.0, 0.5, 0.9, 0.99])
    def test_percentile_invariant_in_decay(self, decay):
        baseline = map2_from_moments_and_decay(1.0, 3.0, 0.0)
        process = map2_from_moments_and_decay(1.0, 3.0, decay)
        assert process.interarrival_percentile(0.95) == pytest.approx(
            baseline.interarrival_percentile(0.95), rel=1e-6
        )

    def test_dispersion_monotone_in_decay(self):
        dispersions = [
            map2_from_moments_and_decay(1.0, 3.0, decay).index_of_dispersion()
            for decay in (0.0, 0.5, 0.9, 0.99, 0.999)
        ]
        assert all(a < b for a, b in zip(dispersions, dispersions[1:]))

    def test_dispersion_with_zero_decay_is_scv(self):
        process = map2_from_moments_and_decay(2.0, 5.0, 0.0)
        assert process.index_of_dispersion() == pytest.approx(5.0, rel=1e-6)

    def test_custom_branch_probability(self):
        process = map2_from_moments_and_decay(1.0, 3.0, 0.9, p1=0.9)
        assert process.mean() == pytest.approx(1.0, rel=1e-9)
        assert process.scv() == pytest.approx(3.0, rel=1e-9)

    def test_closed_form_dispersion_formula(self):
        # I = SCV * (1 + 2 * rho1 / (1 - gamma)) for the correlated-H2 family.
        process = map2_from_moments_and_decay(1.0, 4.0, 0.9)
        rho1 = process.autocorrelation(1)
        expected = 4.0 * (1.0 + 2.0 * rho1 / (1.0 - 0.9))
        assert process.index_of_dispersion() == pytest.approx(expected, rel=1e-6)

    def test_generator_rows_sum_to_zero(self):
        process = map2_from_moments_and_decay(1.0, 8.0, 0.95)
        assert np.allclose(process.generator.sum(axis=1), 0.0, atol=1e-10)
