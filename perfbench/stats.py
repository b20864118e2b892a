"""The benchmark's own arithmetic: percentiles, spreads and computed costs."""

from __future__ import annotations

import math
import statistics

#: Percentiles the tail report chooses from, lowest first.
TAIL_PERCENTILES = (50, 75, 90, 95, 99)
#: A percentile is reported only with at least this many samples beyond it.
MIN_SAMPLES_BEYOND = 10


def percentile(samples, q: float) -> float:
    """The ``q``-th percentile by linear interpolation between order statistics."""
    ordered = sorted(float(x) for x in samples)
    if not ordered:
        raise ValueError("percentile of no samples")
    if not 0 <= q <= 100:
        raise ValueError("q must be within [0, 100]")
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def tail_percentile(samples) -> int | None:
    """The highest percentile with at least ten samples beyond it.

    ``None`` when even the median has fewer than ten samples beyond it.
    """
    n = len(samples)
    chosen = None
    for q in TAIL_PERCENTILES:
        if math.floor(n * (100 - q) / 100.0 + 1e-9) >= MIN_SAMPLES_BEYOND:
            chosen = q
    return chosen


def quartile_spread(values) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def write_amplification(bytes_written: int, final_size: int) -> float:
    """Bytes written to a file over its lifetime, per byte of its final size."""
    if final_size <= 0:
        raise ValueError("the final size must be positive")
    return bytes_written / final_size


def matvec_cost_computed(
    population: int, k_front: int, k_db: int,
    front_hidden: bool, db_hidden: bool,
) -> tuple[int, int]:
    """Floating-point operations and bytes moved by one generator matvec.

    A model of the matrix-free ``Q^T x`` of the closed MAP network, computed
    from the state count and phase orders, not measured.  The state vector is
    ``B`` lattice blocks of ``K = k_front * k_db`` phases.  The diagonal term
    costs ``K`` multiplies per block and moves three ``K``-vectors (exit
    rates, x, y).  Each of the ``E = B - (N + 1)`` blocks that has a think,
    a front or a database transition adds one scaled copy (think: ``2K``
    flops) or one ``K x K`` product with accumulation (``2K^2 + K`` flops)
    per transition family, moving a source and a destination ``K``-vector
    read plus a destination write and two 8-byte block indices.  The
    hidden-phase families exist only when the MAP's ``D0`` has off-diagonal
    rates.  Returns ``(flops, bytes)`` of 8-byte floats.
    """
    n = population
    k = k_front * k_db
    blocks = (n + 1) * (n + 2) // 2
    edge_blocks = blocks - (n + 1)
    gemm_families = 2 + int(front_hidden) + int(db_hidden)
    flops = blocks * k + edge_blocks * (2 * k + gemm_families * (2 * k * k + k))
    family_bytes = 3 * k * 8 + 2 * 8
    moved = blocks * 3 * k * 8 + edge_blocks * (family_bytes + 8 + gemm_families * family_bytes)
    return flops, moved
