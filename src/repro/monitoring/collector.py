"""Per-server monitors.

A :class:`ServerMonitor` mimics the combination of monitoring tools used in
the paper's testbed:

* utilisation samples at a fine granularity (`sar`, 1 second by default),
* completed-request counts at a coarser granularity (HP Diagnostics,
  5 seconds by default),
* time-averaged queue length at the fine granularity (used for the
  bottleneck-switch analysis of Figures 6–8).

Simulators call :meth:`ServerMonitor.record_busy`, :meth:`record_completion`
and :meth:`record_queue_length` with one record or with equal-length arrays
of them; the TPC-W testbed keeps an interval log and hands it over in blocks
of :data:`~repro.monitoring.windows.FLUSH_RECORDS` rows.  At the end,
:meth:`ServerMonitor.series` snapshots everything into an immutable
:class:`MonitoringSeries` that feeds the model-building pipeline of
:mod:`repro.core`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.monitoring.windows import CountWindows, TimeWeightedWindows

__all__ = ["MonitoringSeries", "ServerMonitor"]


@dataclass(frozen=True)
class MonitoringSeries:
    """Immutable snapshot of the monitoring data of one server."""

    name: str
    utilization_window: float
    utilization: np.ndarray
    completion_window: float
    completions: np.ndarray
    queue_length: np.ndarray

    @property
    def mean_utilization(self) -> float:
        """Average utilisation over the monitoring horizon.

        Raises :class:`ValueError` on an empty series: a silent ``0.0`` (the
        historical behaviour) reads as "the server was idle" when it really
        means "nothing was monitored", which poisons a live estimator window.
        """
        if self.utilization.size == 0:
            raise ValueError(
                f"monitor {self.name!r} holds no utilization windows; "
                "snapshot a positive horizon before reading mean_utilization"
            )
        return float(self.utilization.mean())

    @property
    def throughput(self) -> float:
        """Average completion rate (requests per second).

        Raises :class:`ValueError` on an empty series instead of reporting a
        throughput of zero for a horizon that was never observed.
        """
        if self.completions.size == 0:
            raise ValueError(
                f"monitor {self.name!r} holds no completion windows; "
                "snapshot a positive horizon before reading throughput"
            )
        return float(self.completions.sum() / (self.completions.size * self.completion_window))

    @property
    def mean_service_time(self) -> float:
        """Utilisation-law estimate of the mean service time.

        Raises :class:`ValueError` when no completions were recorded — the
        historical ``NaN`` return silently propagated through model fitting
        and produced NaN forecasts instead of an actionable error.
        """
        total_busy = float(self.utilization.sum()) * self.utilization_window
        total_completed = float(self.completions.sum())
        if total_completed <= 0:
            raise ValueError(
                f"monitor {self.name!r} recorded no completions; the "
                "utilisation-law mean service time is undefined"
            )
        return total_busy / total_completed

    def completion_utilization(self) -> np.ndarray:
        """Utilisation aggregated onto the (coarser) completion windows.

        Used when the model-building pipeline needs utilisation and
        completion counts on the same time base.
        """
        ratio = self.completion_window / self.utilization_window
        factor = int(round(ratio))
        if abs(ratio - factor) > 1e-9 or factor < 1:
            raise ValueError("completion window must be an integer multiple of the utilization window")
        usable = (self.utilization.size // factor) * factor
        if usable == 0:
            return np.empty(0)
        reshaped = self.utilization[:usable].reshape(-1, factor)
        return reshaped.mean(axis=1)

    def aligned_completions(self) -> np.ndarray:
        """Completion counts truncated to the same length as :meth:`completion_utilization`."""
        aligned_length = self.completion_utilization().size
        return self.completions[:aligned_length]


class ServerMonitor:
    """Collects busy time, completions and queue length for one server."""

    def __init__(
        self,
        name: str,
        utilization_window: float = 1.0,
        completion_window: float = 5.0,
    ) -> None:
        if completion_window < utilization_window:
            raise ValueError("the completion window must not be finer than the utilization window")
        self.name = name
        self.utilization_window = float(utilization_window)
        self.completion_window = float(completion_window)
        self._busy = TimeWeightedWindows(utilization_window)
        self._queue = TimeWeightedWindows(utilization_window)
        self._completions = CountWindows(completion_window)

    def record_busy(self, start, end) -> None:
        """Record that the server was busy over ``[start, end)`` (scalars or arrays)."""
        self._busy.record(start, end, 1.0)

    def record_queue_length(self, start, end, queue_length) -> None:
        """Record that ``queue_length`` jobs were present over ``[start, end)``."""
        self._queue.record(start, end, queue_length)

    def record_completion(self, time, count=1.0) -> None:
        """Record ``count`` request completions at each given time."""
        self._completions.record(time, count)

    def series(self, horizon: float) -> MonitoringSeries:
        """Snapshot the collected data over ``[0, horizon)``.

        ``horizon`` must be positive and finite: a zero, negative or
        non-finite horizon would produce empty (or nonsensical) series whose
        derived statistics divide by zero downstream.
        """
        horizon = float(horizon)
        if not np.isfinite(horizon) or horizon <= 0:
            raise ValueError(
                f"monitoring horizon must be a positive finite number of "
                f"seconds, got {horizon!r}"
            )
        utilization = np.clip(self._busy.series(horizon, normalize=True), 0.0, 1.0)
        queue_length = self._queue.series(horizon, normalize=True)
        completions = self._completions.series(horizon)
        return MonitoringSeries(
            name=self.name,
            utilization_window=self.utilization_window,
            utilization=utilization,
            completion_window=self.completion_window,
            completions=completions,
            queue_length=queue_length,
        )
