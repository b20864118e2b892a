"""Tests for busy-period based service-time percentile estimation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.percentiles import estimate_service_percentile


class TestPercentileEstimation:
    def test_constant_rate_recovers_service_time(self):
        """If every busy window serves the same number of equal jobs the
        estimate equals the per-job service time."""
        utilizations = np.full(200, 0.5)
        completions = np.full(200, 10.0)
        # busy time = 0.5 * 2 s = 1 s per window, 10 jobs -> 0.1 s each
        estimate = estimate_service_percentile(utilizations, completions, 2.0)
        assert estimate == pytest.approx(0.1, rel=1e-9)

    def test_bursty_windows_raise_p95(self, rng):
        # Normal windows: service 10 ms (50 jobs in 0.5 busy-seconds);
        # burst windows: service 100 ms (5 jobs in 0.5 busy-seconds).
        normal_util = np.full(190, 0.5)
        normal_jobs = np.full(190, 50.0)
        burst_util = np.full(10, 0.5)
        burst_jobs = np.full(10, 5.0)
        utilizations = np.concatenate([normal_util, burst_util])
        completions = np.concatenate([normal_jobs, burst_jobs])
        estimate = estimate_service_percentile(utilizations, completions, 1.0)
        baseline = estimate_service_percentile(normal_util, normal_jobs, 1.0)
        assert estimate >= baseline

    def test_quantile_parameter_monotone(self):
        rng = np.random.default_rng(0)
        utilizations = rng.uniform(0.2, 0.9, 300)
        completions = rng.integers(5, 50, 300).astype(float)
        p50 = estimate_service_percentile(utilizations, completions, 5.0, quantile=0.5)
        p95 = estimate_service_percentile(utilizations, completions, 5.0, quantile=0.95)
        assert p95 >= p50

    def test_idle_windows_ignored(self):
        utilizations = np.array([0.0, 0.5, 0.0, 0.5] * 50)
        completions = np.array([0.0, 10.0, 0.0, 10.0] * 50)
        estimate = estimate_service_percentile(utilizations, completions, 2.0)
        assert estimate == pytest.approx(0.1, rel=1e-9)

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            estimate_service_percentile([0.5], [1.0, 2.0], 1.0)
        with pytest.raises(ValueError):
            estimate_service_percentile([0.5, 0.5], [1.0, 2.0], -1.0)
        with pytest.raises(ValueError):
            estimate_service_percentile([0.5, 0.5], [1.0, 2.0], 1.0, quantile=1.2)
        with pytest.raises(ValueError):
            estimate_service_percentile([0.0, 0.0], [0.0, 0.0], 1.0)
