"""Constructors for two-phase MAPs (MAP(2)).

The paper parameterises each server of the multi-tier model with a MAP(2)
fitted from three measured quantities: the mean service time, the index of
dispersion ``I`` and the 95th percentile of the service times.  The fitting
procedure itself lives in :mod:`repro.core.map_fitting`; this module provides
the underlying parametric families:

* the renewal MAP(2) with a hyper-exponential marginal (no correlation),
* the *correlated hyper-exponential* family used as the candidate set of the
  fitting procedure: exponential service in one of two states (a "fast" and a
  "slow" state) with a sticky embedded phase chain, which yields geometrically
  decaying autocorrelations and an index of dispersion that can be made
  arbitrarily large while preserving the marginal distribution.
"""

from __future__ import annotations

import numpy as np

from repro.maps.map_process import MAP
from repro.maps.ph import hyperexp_rates_from_moments

__all__ = [
    "map2_exponential",
    "map2_hyperexponential_renewal",
    "map2_correlated_hyperexp",
    "map2_from_moments_and_decay",
]


def map2_exponential(mean: float) -> MAP:
    """Poisson (exponential) process with the given mean inter-event time."""
    if mean <= 0:
        raise ValueError("mean must be positive")
    rate = 1.0 / mean
    return MAP(np.array([[-rate]]), np.array([[rate]]))


def map2_hyperexponential_renewal(
    mean: float, scv: float, p1: float | None = None
) -> MAP:
    """Renewal MAP(2) with a two-phase hyper-exponential marginal."""
    p1, rate1, rate2 = hyperexp_rates_from_moments(mean, scv, p1)
    D0 = np.array([[-rate1, 0.0], [0.0, -rate2]])
    exit_rates = np.array([rate1, rate2])
    alpha = np.array([p1, 1.0 - p1])
    D1 = np.outer(exit_rates, alpha)
    return MAP(D0, D1)


def map2_correlated_hyperexp(
    rate1: float, rate2: float, p1: float, decay: float
) -> MAP:
    """Correlated hyper-exponential MAP(2).

    Service in phase ``i`` is exponential with rate ``rate_i``.  After every
    completion the phase jumps according to the stochastic matrix

        P = (1 - decay) * [p1 p2; p1 p2] + decay * I

    whose stationary distribution is ``(p1, p2)`` and whose sub-dominant
    eigenvalue is exactly ``decay``.  Consequences:

    * the stationary marginal of the inter-event times is the two-phase
      hyper-exponential ``(p1, rate1, rate2)`` irrespective of ``decay``, so
      mean, SCV and every percentile are preserved while correlation varies;
    * the lag-k autocorrelation decays geometrically with rate ``decay``;
    * the index of dispersion grows without bound as ``decay -> 1``.

    Parameters
    ----------
    rate1, rate2:
        Service rates of the two phases (positive).
    p1:
        Stationary probability of phase 1 (in the open interval (0, 1)).
    decay:
        Autocorrelation decay rate ``gamma`` in ``[0, 1)``.  ``decay == 0``
        gives the renewal (uncorrelated) hyper-exponential.
    """
    if rate1 <= 0 or rate2 <= 0:
        raise ValueError("rates must be positive")
    if not 0.0 < p1 < 1.0:
        raise ValueError("p1 must be in the open interval (0, 1)")
    if not 0.0 <= decay < 1.0:
        raise ValueError("decay must be in [0, 1)")
    p2 = 1.0 - p1
    P = (1.0 - decay) * np.array([[p1, p2], [p1, p2]]) + decay * np.eye(2)
    D0 = np.array([[-rate1, 0.0], [0.0, -rate2]])
    rates = np.array([rate1, rate2])
    D1 = rates[:, None] * P
    return MAP(D0, D1)


def map2_from_moments_and_decay(
    mean: float, scv: float, decay: float, p1: float | None = None
) -> MAP:
    """Correlated hyper-exponential MAP(2) from (mean, SCV, decay[, p1]).

    The marginal inter-event time distribution is the hyper-exponential
    matching ``mean`` and ``scv`` (balanced means unless ``p1`` is supplied);
    ``decay`` controls how sticky the phase process is and therefore the
    index of dispersion.  This is the workhorse family of the paper's fitting
    procedure.

    ``scv`` close to one collapses both phases to (nearly) the same rate, in
    which case correlation has no effect and the result is close to a Poisson
    process, exactly as expected.
    """
    phase_prob, rate1, rate2 = hyperexp_rates_from_moments(mean, scv, p1)
    return map2_correlated_hyperexp(rate1, rate2, phase_prob, decay)
