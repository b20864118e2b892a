"""Generators of the synthetic sample sequences of Section 2.

These are the workload sources of Section 2: all four traces of Figure 1 are
drawn from the *same* two-phase hyper-exponential distribution (mean 1,
SCV 3); only their ordering differs.  The :func:`figure1_traces` convenience
reproduces that construction end to end.
"""

from __future__ import annotations

import numpy as np

from repro.maps.ph import hyperexp_rates_from_moments
from repro.traces.burstiness import calibrate_bursts_to_dispersion, shuffle_trace
from repro.traces.trace import Trace

__all__ = ["hyperexponential_samples", "figure1_traces"]


def _default_rng(rng: np.random.Generator | None) -> np.random.Generator:
    return np.random.default_rng() if rng is None else rng


def hyperexponential_samples(
    size: int,
    mean: float,
    scv: float,
    p1: float | None = None,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """I.i.d. two-phase hyper-exponential samples matching mean and SCV."""
    rng = _default_rng(rng)
    p1, rate1, rate2 = hyperexp_rates_from_moments(mean, scv, p1)
    choices = rng.random(size) < p1
    fast = rng.exponential(1.0 / rate1, size)
    slow = rng.exponential(1.0 / rate2, size)
    return np.where(choices, fast, slow)


def figure1_traces(
    size: int = 20_000,
    mean: float = 1.0,
    scv: float = 3.0,
    target_dispersion: tuple[float, ...] = (22.3, 92.6),
    rng: np.random.Generator | None = None,
) -> dict[str, Trace]:
    """Reproduce the four workloads of Figure 1 of the paper.

    All four traces share exactly the same multiset of hyper-exponential
    samples (mean 1, SCV 3 by default); they differ only in their ordering:

    * ``"a"`` — random order (index of dispersion close to the SCV),
    * ``"b"``, ``"c"`` — large samples aggregated into progressively fewer
      bursts, calibrated so that the measured index of dispersion approaches
      the intermediate targets reported in the paper (22.3 and 92.6),
    * ``"d"`` — all large samples concentrated in a single burst (maximum
      burstiness for the given marginal distribution).

    Returns a mapping from the panel label to a :class:`~repro.traces.Trace`.
    """
    rng = _default_rng(rng)
    base = hyperexponential_samples(size, mean, scv, rng=rng)
    traces: dict[str, Trace] = {}
    traces["a"] = Trace(shuffle_trace(base, rng=rng), label="fig1a-random")
    labels = ["b", "c"]
    for label, target in zip(labels, target_dispersion):
        reordered, bursts = calibrate_bursts_to_dispersion(base, target, rng=rng)
        traces[label] = Trace(reordered, label=f"fig1{label}-bursts{bursts}")
    single_burst, _ = calibrate_bursts_to_dispersion(base, None, num_bursts=1, rng=rng)
    traces["d"] = Trace(single_burst, label="fig1d-single-burst")
    return traces
