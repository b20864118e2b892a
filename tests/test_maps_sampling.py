"""Tests for exact sampling from MAPs (empirical vs analytical descriptors)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.maps import sample_interarrival_times
from repro.traces.stats import autocorrelation


class TestInterarrivalSampling:
    def test_sample_mean_matches(self, bursty_map, rng):
        samples = sample_interarrival_times(bursty_map, 20000, rng=rng)
        assert samples.mean() == pytest.approx(bursty_map.mean(), rel=0.1)

    def test_sample_scv_matches(self, bursty_map, rng):
        samples = sample_interarrival_times(bursty_map, 20000, rng=rng)
        scv = samples.var() / samples.mean() ** 2
        assert scv == pytest.approx(bursty_map.scv(), rel=0.25)

    def test_sample_lag1_autocorrelation_matches(self, bursty_map, rng):
        samples = sample_interarrival_times(bursty_map, 30000, rng=rng)
        assert autocorrelation(samples, 1) == pytest.approx(
            bursty_map.autocorrelation(1), abs=0.06
        )

    def test_renewal_samples_uncorrelated(self, renewal_h2_map, rng):
        samples = sample_interarrival_times(renewal_h2_map, 20000, rng=rng)
        assert abs(autocorrelation(samples, 1)) < 0.05

    def test_samples_positive(self, poisson_map, rng):
        samples = sample_interarrival_times(poisson_map, 500, rng=rng)
        assert np.all(samples > 0)

    def test_requires_positive_size(self, poisson_map):
        with pytest.raises(ValueError):
            sample_interarrival_times(poisson_map, 0)

    def test_initial_phase_respected(self, bursty_map, rng):
        samples = sample_interarrival_times(bursty_map, 10, rng=rng, initial_phase=1)
        assert samples.shape == (10,)

    def test_deterministic_given_seed(self, bursty_map):
        first = sample_interarrival_times(bursty_map, 100, rng=np.random.default_rng(7))
        second = sample_interarrival_times(bursty_map, 100, rng=np.random.default_rng(7))
        assert np.allclose(first, second)
