"""Statistical descriptors of sample sequences (service-time traces).

The estimators here operate on raw sequences of service times (or
inter-arrival times).  They implement the two definitions of the index of
dispersion given in the paper:

* eq. (1): ``I = SCV * (1 + 2 * sum_k rho_k)`` — estimated by truncating the
  autocorrelation sum at a finite maximum lag,
* eq. (2): ``I = lim_t Var(N_t) / E(N_t)`` — estimated by counting samples in
  growing time windows laid over the concatenated trace.

The busy-period based estimator that works on coarse monitoring data (the
pseudo-code of Figure 2) lives in :mod:`repro.core.dispersion`; the functions
below are its "full information" counterparts used for validation and for the
synthetic studies of Section 2.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "scv",
    "autocorrelation",
    "autocorrelation_function",
    "index_of_dispersion_acf",
    "index_of_dispersion_counts",
]


def _validate_samples(samples) -> np.ndarray:
    array = np.asarray(samples, dtype=float).reshape(-1)
    if array.size < 2:
        raise ValueError("at least two samples are required")
    return array


def scv(samples) -> float:
    """Squared coefficient of variation of a sample sequence."""
    array = _validate_samples(samples)
    mean = array.mean()
    if mean == 0:
        raise ValueError("samples have zero mean")
    return float(array.var() / mean ** 2)


def autocorrelation(samples, lag: int) -> float:
    """Biased (denominator ``n``) lag-``lag`` autocorrelation coefficient."""
    array = _validate_samples(samples)
    if lag < 1 or lag >= array.size:
        raise ValueError("lag must satisfy 1 <= lag < len(samples)")
    mean = array.mean()
    variance = array.var()
    if variance == 0:
        return 0.0
    centered = array - mean
    covariance = np.dot(centered[:-lag], centered[lag:]) / array.size
    return float(covariance / variance)


def autocorrelation_function(samples, max_lag: int) -> np.ndarray:
    """Autocorrelation coefficients for lags ``1..max_lag`` (FFT-based)."""
    array = _validate_samples(samples)
    if max_lag < 1 or max_lag >= array.size:
        raise ValueError("max_lag must satisfy 1 <= max_lag < len(samples)")
    centered = array - array.mean()
    n = array.size
    # Use the FFT to compute all autocovariances at once.
    size = 1
    while size < 2 * n:
        size *= 2
    transform = np.fft.rfft(centered, size)
    autocovariance = np.fft.irfft(transform * np.conj(transform), size)[: max_lag + 1]
    autocovariance /= n
    variance = autocovariance[0]
    if variance == 0:
        return np.zeros(max_lag)
    return (autocovariance[1 : max_lag + 1] / variance).astype(float)


def index_of_dispersion_acf(samples, max_lag: int | None = None) -> float:
    """Index of dispersion via eq. (1) with a truncated autocorrelation sum.

    ``I = SCV * (1 + 2 * sum_{k=1}^{max_lag} rho_k)``.  The default maximum
    lag is ``min(n // 4, 2000)`` which is large enough for the geometrically
    decaying correlation structures considered in the paper while keeping the
    estimator variance bounded.
    """
    array = _validate_samples(samples)
    if max_lag is None:
        max_lag = min(array.size // 4, 2000)
    max_lag = max(1, min(max_lag, array.size - 1))
    rho = autocorrelation_function(array, max_lag)
    return float(scv(array) * (1.0 + 2.0 * rho.sum()))


def _count_ratio(event_times: np.ndarray, total_time: float, window: float) -> float | None:
    """Variance-to-mean ratio of counts in overlapping windows of length ``window``.

    A window is started at every event epoch (the paper slides the window over
    all positions of the concatenated busy time); windows that would exceed
    the end of the trace are discarded.  Returns ``None`` when fewer than two
    windows fit.
    """
    starts = np.concatenate([[0.0], event_times[:-1]])
    valid = starts + window <= total_time
    if valid.sum() < 2:
        return None
    start_times = starts[valid]
    start_index = np.arange(event_times.size)[valid]
    end_index = np.searchsorted(event_times, start_times + window, side="right")
    counts = end_index - start_index
    mean_count = counts.mean()
    if mean_count == 0:
        return 0.0
    return float(counts.var() / mean_count)


def index_of_dispersion_counts(
    samples,
    window: float | None = None,
    min_windows: int = 100,
    tolerance: float = 0.2,
    growth: float = 1.5,
) -> float:
    """Index of dispersion via eq. (2): variance-to-mean ratio of counts.

    The sample sequence is interpreted as consecutive service (or
    inter-event) times; events are laid on a time line at the cumulative sums
    and counted in overlapping windows (one starting at every event epoch,
    exactly like the busy-period algorithm of Figure 2 slides its window over
    the concatenated busy periods).

    Parameters
    ----------
    samples:
        Sequence of non-negative durations.
    window:
        Fixed window length.  When omitted the window grows geometrically
        (factor ``growth``) until the variance-to-mean ratio stabilises
        within ``tolerance`` or until fewer than ``min_windows`` windows fit
        in the trace, which approximates the ``t -> infinity`` limit of
        eq. (2) as well as the trace length allows.
    min_windows:
        Minimum number of windows required for a meaningful variance
        estimate (the paper uses 100).
    tolerance:
        Relative-change convergence threshold for the adaptive window.
    growth:
        Geometric growth factor of the adaptive window.
    """
    array = _validate_samples(samples)
    if np.any(array < 0):
        raise ValueError("durations must be non-negative")
    total_time = float(array.sum())
    if total_time <= 0:
        raise ValueError("total duration must be positive")
    event_times = np.cumsum(array)
    if window is not None:
        if window <= 0:
            raise ValueError("window must be positive")
        ratio = _count_ratio(event_times, total_time, window)
        if ratio is None:
            raise ValueError("window too large: fewer than two windows fit in the trace")
        return ratio
    if growth <= 1.0:
        raise ValueError("growth must be > 1")
    mean_duration = total_time / array.size
    current = 10.0 * mean_duration
    # Never let the window exceed 10% of the trace: beyond that the windows
    # overlap so heavily that the variance estimate is dominated by a handful
    # of effectively independent observations.
    largest_allowed = total_time / 10.0
    if current >= largest_allowed:
        current = largest_allowed / 2.0
    ratio = _count_ratio(event_times, total_time, current)
    stable_steps = 0
    while current * growth <= largest_allowed:
        current *= growth
        new_ratio = _count_ratio(event_times, total_time, current)
        if new_ratio is None:
            break
        if ratio is not None and ratio > 0 and abs(1.0 - new_ratio / ratio) <= tolerance:
            stable_steps += 1
        else:
            stable_steps = 0
        ratio = new_ratio
        # Require two consecutive quiet steps before declaring convergence so
        # that slowly growing (very bursty) profiles are not cut off early.
        if stable_steps >= 2:
            return float(ratio)
    return float(ratio if ratio is not None else 0.0)
