"""Estimation of service-time percentiles from busy-period measurements.

The paper (Section 4.1) estimates the 95th percentile of the service times —
one of the three parameters of the fitted MAP(2) — without ever observing
individual service times.  The idea: within a monitoring window of a bursty
server, the ``n_k`` jobs completed during the busy time ``B_k`` receive
similar service, so ``B_k ≈ n_k * S_k``.  Approximating ``n_k`` with its
median, the 95th percentile of ``S_k`` is the 95th percentile of ``B_k``
divided by the median of ``n_k``.  For low-dispersion workloads the estimate
is biased, but there the queueing behaviour is dominated by the mean and the
SCV, so the bias is harmless (the paper makes the same argument).
"""

from __future__ import annotations

import numpy as np

__all__ = ["estimate_service_percentile"]


def estimate_service_percentile(
    utilizations,
    completions,
    period: float,
    quantile: float = 0.95,
    busy_threshold: float = 0.0,
) -> float:
    """Estimate a service-time quantile from coarse monitoring data.

    Parameters
    ----------
    utilizations:
        Per-window utilisation samples ``U_k`` in ``[0, 1]``.
    completions:
        Per-window completed-request counts ``n_k``.
    period:
        Sampling window length ``T`` in seconds.
    quantile:
        The quantile to estimate (default 0.95).
    busy_threshold:
        Windows whose utilisation is not above this threshold are ignored
        (idle windows carry no information about the service process).

    Returns
    -------
    float
        The estimated quantile of the per-request service time.
    """
    utilizations = np.asarray(utilizations, dtype=float).reshape(-1)
    completions = np.asarray(completions, dtype=float).reshape(-1)
    if utilizations.shape != completions.shape:
        raise ValueError("utilizations and completions must have the same length")
    if period <= 0:
        raise ValueError("the sampling period must be positive")
    if not 0.0 < quantile < 1.0:
        raise ValueError("quantile must be in (0, 1)")
    active = (utilizations > busy_threshold) & (completions > 0)
    if active.sum() < 2:
        raise ValueError("not enough busy monitoring windows to estimate a percentile")
    busy_times = utilizations[active] * period
    counts = completions[active]
    busy_quantile = float(np.quantile(busy_times, quantile))
    median_count = float(np.median(counts))
    if median_count <= 0:
        raise ValueError("median completion count is zero")
    return busy_quantile / median_count
