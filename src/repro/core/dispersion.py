"""Estimation of the index of dispersion from coarse monitoring data.

This module implements the pseudo-code of Figure 2 of the paper.  The input
is the output of any commodity monitoring tool: for each sampling window of
length ``T`` seconds the CPU utilisation ``U_k`` of the server and the number
``n_k`` of requests it completed.  The estimator

1. converts utilisations to busy times ``B_k = U_k * T``,
2. concatenates the busy periods (thereby masking out idle time and queueing,
   so that what remains is a property of the *service process* alone),
3. slides a window of ``t`` busy-seconds over every starting position ``k``
   and records the number of completions ``N_t^k`` inside it,
4. computes ``Y(t) = Var(N_t) / E(N_t)`` and grows ``t`` until ``Y`` converges
   (relative change below ``tol``), returning the converged value as the
   estimate of the index of dispersion ``I``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["DispersionEstimate", "estimate_index_of_dispersion"]


class InsufficientDataError(ValueError):
    """Raised when the monitoring trace is too short for a reliable estimate."""


@dataclass(frozen=True)
class DispersionEstimate:
    """Result of the Figure-2 estimation procedure.

    Attributes
    ----------
    index_of_dispersion:
        The converged value of ``Y(t)`` (the estimate of ``I``).
    converged:
        Whether the convergence criterion was met before the window grew too
        large for the trace; when ``False`` the last computed value is
        returned, mirroring the behaviour of practical implementations.
    window:
        The aggregation window (in busy-seconds) at which the procedure
        stopped.
    profile:
        The sequence of ``(t, Y(t))`` pairs explored, useful for diagnostics
        and for studying the effect of measurement granularity (Section 4.2).
    mean_busy_rate:
        Average number of completions per busy-second, i.e. the reciprocal of
        the estimated mean service time.
    """

    index_of_dispersion: float
    converged: bool
    window: float
    profile: tuple[tuple[float, float], ...] = field(repr=False)
    mean_busy_rate: float

    @property
    def mean_service_time(self) -> float:
        """Estimated mean service time (busy time per completion)."""
        if self.mean_busy_rate <= 0:
            return float("nan")
        return 1.0 / self.mean_busy_rate


def _validate_inputs(utilizations, completions, period: float) -> tuple[np.ndarray, np.ndarray]:
    utilizations = np.asarray(utilizations, dtype=float).reshape(-1)
    completions = np.asarray(completions, dtype=float).reshape(-1)
    if utilizations.shape != completions.shape:
        raise ValueError("utilizations and completions must have the same length")
    if utilizations.size < 2:
        raise InsufficientDataError("at least two monitoring windows are required")
    if period <= 0:
        raise ValueError("the sampling period must be positive")
    if np.any(utilizations < 0) or np.any(utilizations > 1.0 + 1e-9):
        raise ValueError("utilizations must lie in [0, 1]")
    if np.any(completions < 0):
        raise ValueError("completion counts must be non-negative")
    return utilizations, completions


def _window_counts(
    busy_times: np.ndarray, completions: np.ndarray, window: float
) -> np.ndarray:
    """Completion counts in busy-time windows of length ``window``.

    For every starting sample ``k`` the algorithm accumulates consecutive
    busy periods ``B_k, B_{k+1}, ...`` until their sum reaches ``window`` and
    records the total number of completions.  Implemented with cumulative
    sums and a vectorised search so that the whole profile can be computed
    quickly even for long monitoring traces.
    """
    cumulative_busy = np.concatenate([[0.0], np.cumsum(busy_times)])
    cumulative_completions = np.concatenate([[0.0], np.cumsum(completions)])
    total_busy = cumulative_busy[-1]
    starts = cumulative_busy[:-1]
    valid = starts + window <= total_busy
    if not np.any(valid):
        return np.empty(0)
    start_idx = np.nonzero(valid)[0]
    # End index: the first sample whose cumulative busy time reaches the
    # window target.  searchsorted on the cumulative busy array achieves the
    # "approximately equal to t" accumulation of the pseudo-code.
    targets = starts[valid] + window
    end_idx = np.searchsorted(cumulative_busy, targets, side="left")
    end_idx = np.clip(end_idx, start_idx + 1, len(busy_times))
    counts = cumulative_completions[end_idx] - cumulative_completions[start_idx]
    return counts


def estimate_index_of_dispersion(
    utilizations,
    completions,
    period: float,
    tol: float = 0.20,
    min_windows: int = 100,
    max_steps: int = 10_000,
) -> DispersionEstimate:
    """Estimate the index of dispersion of a service process (Figure 2).

    Parameters
    ----------
    utilizations:
        Per-window utilisation samples ``U_k`` in ``[0, 1]``.
    completions:
        Per-window completed-request counts ``n_k``.
    period:
        Sampling window length ``T`` in seconds.
    tol:
        Convergence tolerance on the relative change of ``Y(t)`` (the paper
        uses 0.20).
    min_windows:
        Minimum number of ``N_t`` observations required at each aggregation
        level; when fewer are available the procedure stops (the paper
        requires 100 and asks for new measurements otherwise).
    max_steps:
        Safety cap on the number of aggregation levels explored.

    Returns
    -------
    DispersionEstimate
        The estimate together with its convergence diagnostics.

    Raises
    ------
    InsufficientDataError
        If even the very first aggregation level has fewer than
        ``min_windows`` observations.
    """
    utilizations, completions = _validate_inputs(utilizations, completions, period)
    busy_times = utilizations * period
    total_busy = float(busy_times.sum())
    total_completions = float(completions.sum())
    if total_busy <= 0 or total_completions <= 0:
        raise InsufficientDataError("the server was never busy in the monitoring trace")
    mean_busy_rate = total_completions / total_busy

    profile: list[tuple[float, float]] = []
    window = period
    previous_y: float | None = None
    converged = False
    for _ in range(max_steps):
        counts = _window_counts(busy_times, completions, window)
        if counts.size < min_windows:
            if not profile:
                raise InsufficientDataError(
                    "monitoring trace too short: only %d windows of %g busy-seconds"
                    % (counts.size, window)
                )
            break
        mean_count = counts.mean()
        y_value = float(counts.var() / mean_count) if mean_count > 0 else 0.0
        profile.append((window, y_value))
        if previous_y is not None and previous_y > 0:
            if abs(1.0 - y_value / previous_y) <= tol:
                converged = True
                break
        previous_y = y_value
        window += period
    final_window, final_y = profile[-1]
    return DispersionEstimate(
        index_of_dispersion=final_y,
        converged=converged,
        window=final_window,
        profile=tuple(profile),
        mean_busy_rate=mean_busy_rate,
    )
