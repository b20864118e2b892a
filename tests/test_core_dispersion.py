"""Tests for the Figure-2 index of dispersion estimator on monitoring data."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.dispersion import (
    DispersionEstimate,
    InsufficientDataError,
    estimate_index_of_dispersion,
)
from repro.maps import map2_from_moments_and_decay
from repro.maps.sampling import sample_interarrival_times


def monitoring_windows_from_service_trace(service_times, period):
    """Bin a back-to-back service trace into (utilization, completions) windows."""
    event_times = np.cumsum(service_times)
    num_windows = int(event_times[-1] // period)
    edges = np.arange(1, num_windows + 1) * period
    cumulative = np.searchsorted(event_times, edges, side="right")
    completions = np.diff(np.concatenate([[0], cumulative]))
    utilizations = np.ones(num_windows)
    return utilizations, completions


class TestOnSyntheticMonitoringData:
    def test_poisson_service_gives_dispersion_near_one(self, rng):
        service = rng.exponential(0.01, 100_000)
        utilizations, completions = monitoring_windows_from_service_trace(service, 1.0)
        estimate = estimate_index_of_dispersion(utilizations, completions, 1.0)
        assert estimate.index_of_dispersion == pytest.approx(1.0, abs=0.5)

    def test_bursty_service_gives_large_dispersion(self, rng):
        process = map2_from_moments_and_decay(0.01, 4.0, 0.995)
        service = sample_interarrival_times(process, 80_000, rng=rng)
        utilizations, completions = monitoring_windows_from_service_trace(service, 1.0)
        estimate = estimate_index_of_dispersion(utilizations, completions, 1.0)
        assert estimate.index_of_dispersion > 20.0

    def test_bursty_larger_than_poisson(self, rng):
        poisson = rng.exponential(0.01, 60_000)
        process = map2_from_moments_and_decay(0.01, 4.0, 0.99)
        bursty = sample_interarrival_times(process, 60_000, rng=rng)
        estimates = []
        for service in (poisson, bursty):
            utilizations, completions = monitoring_windows_from_service_trace(service, 1.0)
            estimates.append(
                estimate_index_of_dispersion(utilizations, completions, 1.0).index_of_dispersion
            )
        assert estimates[1] > 3 * estimates[0]

    def test_mean_service_time_recovered(self, rng):
        service = rng.exponential(0.02, 50_000)
        utilizations, completions = monitoring_windows_from_service_trace(service, 1.0)
        estimate = estimate_index_of_dispersion(utilizations, completions, 1.0)
        assert estimate.mean_service_time == pytest.approx(0.02, rel=0.05)

    def test_profile_is_recorded(self, rng):
        service = rng.exponential(0.01, 50_000)
        utilizations, completions = monitoring_windows_from_service_trace(service, 1.0)
        estimate = estimate_index_of_dispersion(utilizations, completions, 1.0)
        assert len(estimate.profile) >= 1
        assert estimate.window >= 1.0

    def test_result_is_dataclass_with_convergence_flag(self, rng):
        service = rng.exponential(0.01, 50_000)
        utilizations, completions = monitoring_windows_from_service_trace(service, 1.0)
        estimate = estimate_index_of_dispersion(utilizations, completions, 1.0)
        assert isinstance(estimate, DispersionEstimate)
        assert isinstance(estimate.converged, bool)


class TestIdleTimeMasking:
    def test_idle_windows_do_not_inflate_dispersion(self, rng):
        """Idle time must be masked out: only busy time matters."""
        service = rng.exponential(0.01, 50_000)
        utilizations, completions = monitoring_windows_from_service_trace(service, 1.0)
        # Interleave idle windows (zero utilization, zero completions).
        idle = np.zeros_like(utilizations)
        utilizations_interleaved = np.ravel(np.column_stack([utilizations, idle]))
        completions_interleaved = np.ravel(np.column_stack([completions, idle]))
        base = estimate_index_of_dispersion(utilizations, completions, 1.0)
        interleaved = estimate_index_of_dispersion(
            utilizations_interleaved, completions_interleaved, 1.0
        )
        assert interleaved.index_of_dispersion == pytest.approx(
            base.index_of_dispersion, rel=0.35
        )


class TestValidation:
    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            estimate_index_of_dispersion([0.5, 0.5], [10.0], 1.0)

    def test_negative_period(self):
        with pytest.raises(ValueError):
            estimate_index_of_dispersion([0.5, 0.5], [10.0, 10.0], -1.0)

    def test_utilization_out_of_range(self):
        with pytest.raises(ValueError):
            estimate_index_of_dispersion([0.5, 1.5], [10.0, 10.0], 1.0)

    def test_negative_completions(self):
        with pytest.raises(ValueError):
            estimate_index_of_dispersion([0.5, 0.5], [10.0, -1.0], 1.0)

    def test_too_short_trace_raises(self):
        with pytest.raises(InsufficientDataError):
            estimate_index_of_dispersion([0.5] * 10, [5.0] * 10, 1.0)

    def test_never_busy_raises(self):
        with pytest.raises(InsufficientDataError):
            estimate_index_of_dispersion([0.0] * 200, [0.0] * 200, 1.0)
