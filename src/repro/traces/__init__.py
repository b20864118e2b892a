"""Workload traces: generation, burstiness shaping and characterisation.

This subpackage provides everything needed to reproduce the synthetic
workloads of Section 2 of the paper (Figure 1 and Table 1):

* :mod:`~repro.traces.generators` — the i.i.d. hyper-exponential sample
  generator and the four Figure-1 traces built from it,
* :mod:`~repro.traces.burstiness` — reordering of a sample sequence into
  bursty profiles with a controllable index of dispersion, preserving the
  marginal distribution exactly,
* :mod:`~repro.traces.stats` — estimators of SCV, autocorrelation and the
  index of dispersion from raw sample sequences,
* :mod:`~repro.traces.trace` — a :class:`Trace` container that bundles a
  sample sequence with its descriptors.
"""

from repro.traces.trace import Trace
from repro.traces.stats import (
    autocorrelation,
    autocorrelation_function,
    index_of_dispersion_acf,
    index_of_dispersion_counts,
    scv,
)
from repro.traces.generators import hyperexponential_samples, figure1_traces
from repro.traces.burstiness import (
    impose_burstiness,
    shuffle_trace,
    calibrate_bursts_to_dispersion,
)

__all__ = [
    "Trace",
    "autocorrelation",
    "autocorrelation_function",
    "index_of_dispersion_acf",
    "index_of_dispersion_counts",
    "scv",
    "hyperexponential_samples",
    "figure1_traces",
    "impose_burstiness",
    "shuffle_trace",
    "calibrate_bursts_to_dispersion",
]
