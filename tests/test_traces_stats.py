"""Unit tests for the trace-level statistical estimators."""

from __future__ import annotations

import numpy as np
import pytest

from repro.traces.stats import (
    autocorrelation,
    autocorrelation_function,
    index_of_dispersion_acf,
    index_of_dispersion_counts,
    scv,
)


@pytest.fixture
def exponential_trace(rng):
    return rng.exponential(1.0, 20000)


@pytest.fixture
def ar1_trace(rng):
    """A positively autocorrelated positive-valued trace (shifted AR(1))."""
    noise = rng.normal(0, 1, 20000)
    values = np.empty_like(noise)
    values[0] = noise[0]
    for i in range(1, len(noise)):
        values[i] = 0.8 * values[i - 1] + noise[i]
    return values - values.min() + 0.1


class TestScv:
    def test_exponential_scv_close_to_one(self, exponential_trace):
        assert scv(exponential_trace) == pytest.approx(1.0, rel=0.05)

    def test_constant_trace_zero_scv(self):
        assert scv(np.full(100, 3.0)) == pytest.approx(0.0)

    def test_requires_two_samples(self):
        with pytest.raises(ValueError):
            scv([1.0])

    def test_zero_mean_rejected(self):
        with pytest.raises(ValueError):
            scv(np.zeros(10))


class TestAutocorrelation:
    def test_iid_trace_uncorrelated(self, exponential_trace):
        assert abs(autocorrelation(exponential_trace, 1)) < 0.03

    def test_ar1_trace_positive_lag1(self, ar1_trace):
        assert autocorrelation(ar1_trace, 1) > 0.7

    def test_acf_function_matches_single_lag(self, ar1_trace):
        acf = autocorrelation_function(ar1_trace, 5)
        for lag in range(1, 6):
            assert acf[lag - 1] == pytest.approx(autocorrelation(ar1_trace, lag), abs=1e-8)

    def test_constant_trace_zero_acf(self):
        assert autocorrelation(np.full(100, 2.0), 1) == 0.0

    def test_invalid_lag_rejected(self, exponential_trace):
        with pytest.raises(ValueError):
            autocorrelation(exponential_trace, 0)

    def test_acf_max_lag_bounds(self, exponential_trace):
        with pytest.raises(ValueError):
            autocorrelation_function(exponential_trace, len(exponential_trace))


class TestDispersionAcf:
    def test_iid_equals_scv(self, exponential_trace):
        estimate = index_of_dispersion_acf(exponential_trace, max_lag=50)
        assert estimate == pytest.approx(1.0, abs=0.3)

    def test_ar1_exceeds_scv(self, ar1_trace):
        # With AR(1) correlation at 0.8 the autocorrelation sum is ~4, so the
        # index of dispersion is ~9x the SCV; a short lag cutoff keeps the
        # estimator noise small.
        assert index_of_dispersion_acf(ar1_trace, max_lag=50) > 2.0 * scv(ar1_trace)


class TestDispersionCounts:
    def test_poisson_like_trace(self, exponential_trace):
        assert index_of_dispersion_counts(exponential_trace) == pytest.approx(1.0, abs=0.3)

    def test_low_variability_below_one(self, rng):
        trace = np.abs(rng.normal(1.0, 0.05, 20000))
        assert index_of_dispersion_counts(trace) < 0.3

    def test_explicit_window(self, exponential_trace):
        value = index_of_dispersion_counts(exponential_trace, window=50.0)
        assert 0.5 < value < 2.0

    def test_window_too_large_rejected(self, exponential_trace):
        with pytest.raises(ValueError):
            index_of_dispersion_counts(exponential_trace[:100], window=1e9)

    def test_negative_durations_rejected(self):
        with pytest.raises(ValueError):
            index_of_dispersion_counts(np.array([1.0, -1.0, 2.0]))

    def test_invalid_growth_rejected(self, exponential_trace):
        with pytest.raises(ValueError):
            index_of_dispersion_counts(exponential_trace, growth=0.9)

    def test_bursty_trace_much_larger_than_iid(self, rng):
        base = rng.exponential(1.0, 20000)
        # Aggregate all large samples into one burst.
        large = base[base > np.quantile(base, 0.85)]
        small = base[base <= np.quantile(base, 0.85)]
        bursty = np.concatenate([small[: len(small) // 2], large, small[len(small) // 2 :]])
        assert index_of_dispersion_counts(bursty) > 10 * index_of_dispersion_counts(
            rng.permutation(base)
        )
