"""Phase-type distributions and Markovian Arrival Processes (MAPs).

This subpackage is the stochastic-process substrate of the library.  It
provides:

* :class:`~repro.maps.ph.PHDistribution` — continuous phase-type
  distributions with a hyper-exponential constructor and
  moment/percentile machinery,
* :class:`~repro.maps.map_process.MAP` — Markovian Arrival Processes defined
  by the matrix pair ``(D0, D1)`` with moments, lag-k autocorrelations and the
  asymptotic index of dispersion in closed form,
* :mod:`~repro.maps.map2` — two-phase MAP constructors and fitting helpers
  used by the paper's parameterisation methodology,
* :mod:`~repro.maps.sampling` — exact trace generation from a MAP.
"""

from repro.maps.ph import (
    PHDistribution,
    hyperexponential_ph,
    hyperexp_rates_from_moments,
)
from repro.maps.failures import expand_map_with_failures, frozen_map
from repro.maps.map_process import MAP, validate_map
from repro.maps.map2 import (
    map2_exponential,
    map2_hyperexponential_renewal,
    map2_correlated_hyperexp,
    map2_from_moments_and_decay,
)
from repro.maps.sampling import sample_interarrival_times

__all__ = [
    "PHDistribution",
    "hyperexponential_ph",
    "hyperexp_rates_from_moments",
    "MAP",
    "validate_map",
    "expand_map_with_failures",
    "frozen_map",
    "map2_exponential",
    "map2_hyperexponential_renewal",
    "map2_correlated_hyperexp",
    "map2_from_moments_and_decay",
    "sample_interarrival_times",
]
