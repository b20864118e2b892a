"""Tests for the monitoring substrate (windows and collectors)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.monitoring import CountWindows, ServerMonitor, TimeWeightedWindows


class TestCountWindows:
    def test_counts_fall_in_right_window(self):
        windows = CountWindows(5.0)
        windows.record(1.0)
        windows.record(4.9)
        windows.record(5.0)
        series = windows.series(horizon=10.0)
        assert np.allclose(series, [2.0, 1.0])

    def test_horizon_pads_with_zeros(self):
        windows = CountWindows(1.0)
        windows.record(0.5)
        assert windows.series(horizon=5.0).shape == (5,)

    def test_horizon_never_discards_events(self):
        # The horizon pads with zeros but never truncates recorded data:
        # the historical truncation silently dropped events past the horizon.
        windows = CountWindows(1.0)
        windows.record(7.5)
        series = windows.series(horizon=2.0)
        assert series.shape == (8,)
        assert series.sum() == pytest.approx(1.0)

    def test_event_at_horizon_boundary_kept(self):
        # Regression: an event landing exactly at the horizon lives in the
        # half-open window [5, 6) and used to be truncated away by
        # series(horizon=5.0) while a horizon-less call kept it.
        windows = CountWindows(1.0)
        windows.record(5.0)
        with_horizon = windows.series(horizon=5.0)
        without_horizon = windows.series()
        assert with_horizon.sum() == pytest.approx(1.0)
        assert np.allclose(with_horizon, without_horizon)
        assert with_horizon.shape == (6,)
        assert with_horizon[5] == pytest.approx(1.0)

    def test_amount_parameter(self):
        windows = CountWindows(1.0)
        windows.record(0.5, amount=3.0)
        assert windows.series(horizon=1.0)[0] == pytest.approx(3.0)

    def test_invalid_window_rejected(self):
        with pytest.raises(ValueError):
            CountWindows(0.0)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            CountWindows(1.0).record(-1.0)


class TestTimeWeightedWindows:
    def test_interval_within_single_window(self):
        windows = TimeWeightedWindows(1.0)
        windows.record(0.2, 0.7, 2.0)
        assert windows.series(horizon=1.0)[0] == pytest.approx(1.0)  # 0.5s * 2 / 1s

    def test_interval_spanning_windows(self):
        windows = TimeWeightedWindows(1.0)
        windows.record(0.5, 2.5, 1.0)
        series = windows.series(horizon=3.0)
        assert np.allclose(series, [0.5, 1.0, 0.5])

    def test_total_mass_conserved(self, rng):
        windows = TimeWeightedWindows(1.0)
        total = 0.0
        clock = 0.0
        for _ in range(200):
            duration = rng.uniform(0.01, 2.0)
            value = rng.uniform(0.0, 3.0)
            windows.record(clock, clock + duration, value)
            total += duration * value
            clock += duration
        series = windows.series(horizon=clock, normalize=False)
        assert series.sum() == pytest.approx(total, rel=1e-9)

    def test_unnormalized_series(self):
        windows = TimeWeightedWindows(2.0)
        windows.record(0.0, 2.0, 1.0)
        assert windows.series(horizon=2.0, normalize=False)[0] == pytest.approx(2.0)

    def test_backwards_interval_rejected(self):
        with pytest.raises(ValueError):
            TimeWeightedWindows(1.0).record(2.0, 1.0, 1.0)

    def test_interval_ending_on_boundary_has_no_trailing_window(self):
        # Regression: an interval ending exactly on a window boundary used to
        # append a spurious zero window (6 entries for [0, 5) with W = 1).
        windows = TimeWeightedWindows(1.0)
        windows.record(0.0, 5.0, 1.0)
        series = windows.series()
        assert series.shape == (5,)
        assert np.allclose(series, np.ones(5))

    def test_segment_ending_on_boundary(self):
        # An interval fully inside earlier windows whose end hits a boundary:
        # the final window gets exactly value * W, nothing spills over.
        windows = TimeWeightedWindows(2.0)
        windows.record(1.0, 4.0, 3.0)
        series = windows.series(normalize=False)
        assert series.shape == (2,)
        assert series[0] == pytest.approx(3.0)  # [1, 2) at value 3
        assert series[1] == pytest.approx(6.0)  # [2, 4) at value 3

    def test_horizon_never_discards_mass(self):
        windows = TimeWeightedWindows(1.0)
        windows.record(0.0, 3.0, 2.0)
        series = windows.series(horizon=1.0, normalize=False)
        assert series.shape == (3,)
        assert series.sum() == pytest.approx(6.0)

    def test_array_records_apply_the_per_record_rules(self):
        windows = TimeWeightedWindows(1.0)
        with pytest.raises(ValueError, match="precede"):
            windows.record([0.0, 2.0], [1.0, 1.5], 1.0)
        with pytest.raises(ValueError, match="non-negative"):
            windows.record([0.0, -1.0], [0.5, 0.5], [1.0, 1.0])
        with pytest.raises(ValueError, match="finite"):
            windows.record([0.0], [np.inf], [1.0])
        # Zero-length and zero-value intervals are dropped before the checks.
        windows.record([-1.0, 0.0, 1.0], [-1.0, 0.5, 1.5], [1.0, 0.0, 2.0])
        assert np.array_equal(windows.series(normalize=False), [0.0, 1.0])
        with pytest.raises(ValueError):
            windows.record([0.0, 1.0], [1.0, 2.0, 3.0], 1.0)  # unequal lengths


class TestServerMonitor:
    def test_utilization_series(self):
        monitor = ServerMonitor("srv", utilization_window=1.0, completion_window=5.0)
        monitor.record_busy(0.0, 0.5)
        monitor.record_busy(1.0, 2.0)
        series = monitor.series(horizon=5.0)
        assert np.allclose(series.utilization, [0.5, 1.0, 0.0, 0.0, 0.0])

    def test_array_records_equal_scalar_records(self):
        starts, ends = [0.0, 0.5, 2.25, 3.0], [0.5, 2.25, 3.0, 4.75]
        jobs, completions = [1.0, 3.0, 0.0, 2.0], [0.5, 2.25, 4.0, 4.75]
        scalar = ServerMonitor("srv", 1.0, 2.0)
        for start, end, count in zip(starts, ends, jobs):
            if count:
                scalar.record_busy(start, end)
            scalar.record_queue_length(start, end, count)
        for time in completions:
            scalar.record_completion(time)
        batched = ServerMonitor("srv", 1.0, 2.0)
        busy = np.array(jobs) > 0
        batched.record_busy(np.array(starts)[busy], np.array(ends)[busy])
        batched.record_queue_length(starts, ends, jobs)
        batched.record_completion(completions)
        expected, got = scalar.series(5.0), batched.series(5.0)
        for name in ("utilization", "queue_length", "completions"):
            assert np.array_equal(getattr(got, name), getattr(expected, name))

    def test_completion_series_and_throughput(self):
        monitor = ServerMonitor("srv", 1.0, 5.0)
        for t in (0.5, 1.5, 2.5, 7.0):
            monitor.record_completion(t)
        series = monitor.series(horizon=10.0)
        assert np.allclose(series.completions, [3.0, 1.0])
        assert series.throughput == pytest.approx(0.4)

    def test_mean_service_time_utilization_law(self):
        monitor = ServerMonitor("srv", 1.0, 5.0)
        monitor.record_busy(0.0, 2.0)
        for t in np.linspace(0.1, 1.9, 10):
            monitor.record_completion(float(t))
        series = monitor.series(horizon=5.0)
        assert series.mean_service_time == pytest.approx(0.2, rel=1e-9)

    def test_completion_utilization_alignment(self):
        monitor = ServerMonitor("srv", 1.0, 5.0)
        monitor.record_busy(0.0, 5.0)
        monitor.record_completion(2.0)
        series = monitor.series(horizon=10.0)
        aggregated = series.completion_utilization()
        assert aggregated.shape == (2,)
        assert aggregated[0] == pytest.approx(1.0)
        assert series.aligned_completions().shape == (2,)

    def test_queue_length_series(self):
        monitor = ServerMonitor("srv", 1.0, 5.0)
        monitor.record_queue_length(0.0, 1.0, 4.0)
        series = monitor.series(horizon=2.0)
        assert series.queue_length[0] == pytest.approx(4.0)
        assert series.queue_length[1] == pytest.approx(0.0)

    def test_window_constraint(self):
        with pytest.raises(ValueError):
            ServerMonitor("srv", utilization_window=5.0, completion_window=1.0)

    def test_misaligned_windows_rejected(self):
        monitor = ServerMonitor("srv", 1.0, 2.5)
        series = monitor.series(horizon=5.0)
        with pytest.raises(ValueError):
            series.completion_utilization()


class TestEmptySeriesHardening:
    """Degenerate series raise instead of returning 0.0 / NaN / inf.

    The live service reads these properties from freshly-started monitors;
    a silent 0.0 ("the server was idle") or NaN ("quietly poison the model
    fit") for a horizon that was never observed must be an error instead.
    """

    def _empty_series(self):
        from repro.monitoring.collector import MonitoringSeries

        return MonitoringSeries(
            name="empty",
            utilization_window=1.0,
            utilization=np.empty(0),
            completion_window=5.0,
            completions=np.empty(0),
            queue_length=np.empty(0),
        )

    def test_mean_utilization_raises_on_empty(self):
        with pytest.raises(ValueError, match="no utilization windows"):
            self._empty_series().mean_utilization

    def test_throughput_raises_on_empty(self):
        with pytest.raises(ValueError, match="no completion windows"):
            self._empty_series().throughput

    def test_mean_service_time_raises_without_completions(self):
        monitor = ServerMonitor("idle", utilization_window=1.0, completion_window=1.0)
        monitor.record_busy(0.0, 3.0)  # busy but nothing ever completed
        series = monitor.series(horizon=5.0)
        with pytest.raises(ValueError, match="no completions"):
            series.mean_service_time

    def test_series_rejects_nonpositive_horizon(self):
        monitor = ServerMonitor("m")
        for horizon in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="horizon"):
                monitor.series(horizon)

    def test_populated_series_unaffected(self):
        monitor = ServerMonitor("ok", utilization_window=1.0, completion_window=1.0)
        monitor.record_busy(0.0, 2.0)
        monitor.record_completion(1.5)
        series = monitor.series(horizon=4.0)
        assert series.mean_utilization == pytest.approx(0.5)
        assert series.throughput == pytest.approx(0.25)
        assert series.mean_service_time == pytest.approx(2.0)
