"""Exact sampling of event traces from a MAP.

:func:`sample_interarrival_times` draws a sequence of inter-event times from
the stationary version of the MAP.  It generates synthetic service-time
traces whose burstiness matches a fitted MAP(2) and cross-validates the
analytical descriptors (moments, SCV, autocorrelations, index of dispersion)
against empirical estimates.
"""

from __future__ import annotations

import numpy as np

from repro.maps.map_process import MAP

__all__ = ["sample_interarrival_times"]


def _jump_tables(map_process: MAP) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Return (total exit rates, jump probabilities, marked flags).

    For phase ``i`` the jump probability row concatenates the hidden
    transitions (``D0`` off-diagonal) and the marked transitions (``D1`` full
    row); ``marked`` is a boolean mask aligned with the concatenated columns.
    """
    order = map_process.order
    D0, D1 = map_process.D0, map_process.D1
    total_rates = -np.diag(D0)
    prob_rows = np.zeros((order, 2 * order))
    marked = np.zeros(2 * order, dtype=bool)
    marked[order:] = True
    for i in range(order):
        hidden = np.maximum(D0[i].copy(), 0.0)
        hidden[i] = 0.0
        row = np.concatenate([hidden, np.maximum(D1[i], 0.0)])
        total = total_rates[i]
        if total <= 0:
            raise ValueError("phase %d has zero total rate; MAP is degenerate" % i)
        prob_rows[i] = row / total
    return total_rates, prob_rows, marked


def sample_interarrival_times(
    map_process: MAP,
    size: int,
    rng: np.random.Generator | None = None,
    initial_phase: int | None = None,
) -> np.ndarray:
    """Draw ``size`` consecutive inter-event times from the MAP.

    The phase process is started from the stationary distribution embedded at
    event epochs unless ``initial_phase`` is given, so the returned sequence
    is (asymptotically) stationary and its sample statistics converge to the
    analytical descriptors of the MAP.
    """
    if size < 1:
        raise ValueError("size must be >= 1")
    if rng is None:
        rng = np.random.default_rng()
    order = map_process.order
    total_rates, prob_rows, marked = _jump_tables(map_process)
    if initial_phase is None:
        phase = int(rng.choice(order, p=map_process.embedded_stationary))
    else:
        phase = int(initial_phase)
    samples = np.empty(size)
    for n in range(size):
        elapsed = 0.0
        while True:
            elapsed += rng.exponential(1.0 / total_rates[phase])
            jump = int(rng.choice(2 * order, p=prob_rows[phase]))
            next_phase = jump % order
            if marked[jump]:
                phase = next_phase
                break
            phase = next_phase
        samples[n] = elapsed
    return samples
