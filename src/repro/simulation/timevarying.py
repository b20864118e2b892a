"""Simulation of the closed MAP network under a time-varying timeline.

A *timeline* is a sequence of :class:`~repro.queueing.transient.
NetworkSegment` entries — diurnal load curves, flash-crowd population ramps,
regime-switching service MAPs, server slowdown and recovery.  This module
holds the two timeline entry points, one per seed and one per replication
set; both run the kernel
(:func:`repro.simulation.closed_network.simulate_segments`), of which a
static network is the one-segment case.  They follow the trajectory
semantics of the transient solver layer (:mod:`repro.queueing.transient`):

* service-MAP regime switches carry the current phase over (all segments
  must use MAPs of equal orders),
* population increases add customers to the think station; decreases drop
  the excess from the front queue first, then the database queue,
* hard outages (``front_up`` / ``db_up`` false) freeze the down station: its
  service rate is zero, its phase does not move, and jobs queue at it until
  a later segment brings the station back.

When a sampled holding time would carry a replication past its current
segment's end, the step is *clamped*: the clock moves exactly to the
boundary and **no state transition fires**.  This is exact by
memorylessness — the process restarted at the boundary with the new
segment's rates is the correct continuation; the clamped draw is discarded.
A segment in which every job is queued at a down station (and the other
station is empty) is a deadlock with total rate zero: the clock advances
deterministically to the segment boundary (or the horizon).  A clamped or
deadlocked step still consumes its draws and fires nothing.

The kernel reads its generators under the seed policy documented in
:mod:`repro.simulation.closed_network`, so each seed of a replication set
gives the result the per-seed entry gives on ``default_rng(seed)``.
Statistics are collected **per segment** (time-weighted
over each segment's overlap with the post-warmup measurement window) and
aggregated over the whole timeline, so simulated segment estimates compare
directly with the per-segment metrics of the piecewise solvers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.queueing.transient import NetworkSegment, _require_equal_orders
from repro.simulation.closed_network import (
    SegmentIntegrals,
    simulate_replications,
    simulate_segments,
)

__all__ = [
    "SegmentSimStats",
    "TimeVaryingSimResult",
    "simulate_timevarying_closed_map_network",
    "simulate_timevarying_closed_map_network_batch",
]


@dataclass(frozen=True)
class SegmentSimStats:
    """Time-weighted estimates over one segment's measured interval.

    ``measured_time`` is the overlap of the segment with the post-warmup
    measurement window; a segment entirely inside the warmup has zero
    measured time and reports zero rates.
    """

    label: str
    start: float
    end: float
    population: int
    throughput: float
    front_utilization: float
    db_utilization: float
    front_queue_length: float
    db_queue_length: float
    completed: int
    measured_time: float


@dataclass(frozen=True)
class TimeVaryingSimResult:
    """Estimates of one replication over a whole time-varying timeline."""

    horizon: float
    warmup: float
    throughput: float
    front_utilization: float
    db_utilization: float
    front_queue_length: float
    db_queue_length: float
    completed: int
    measured_time: float
    events: int
    segments: tuple[SegmentSimStats, ...]

    def summary(self) -> dict:
        """Headline metrics (same keys as the static kernels and solvers)."""
        return {
            "throughput": self.throughput,
            "front_utilization": self.front_utilization,
            "db_utilization": self.db_utilization,
            "front_queue_length": self.front_queue_length,
            "db_queue_length": self.db_queue_length,
        }


def _validate_timeline(segments: Sequence[NetworkSegment], warmup: float) -> float:
    _require_equal_orders(segments)
    horizon = float(sum(segment.duration for segment in segments))
    if warmup < 0:
        raise ValueError("warmup must be non-negative")
    if horizon <= warmup:
        raise ValueError("timeline horizon must exceed warmup")
    return horizon


def _segment_stats(
    segments: Sequence[NetworkSegment],
    boundaries: np.ndarray,
    completed: np.ndarray,
    busy_front: np.ndarray,
    busy_db: np.ndarray,
    area_front: np.ndarray,
    area_db: np.ndarray,
    measured: np.ndarray,
) -> tuple[SegmentSimStats, ...]:
    stats = []
    start = 0.0
    for s, segment in enumerate(segments):
        m = float(measured[s])
        scale = 1.0 / m if m > 0 else 0.0
        stats.append(
            SegmentSimStats(
                label=segment.label,
                start=start,
                end=float(boundaries[s]),
                population=segment.population,
                throughput=float(completed[s]) * scale,
                front_utilization=float(busy_front[s]) * scale,
                db_utilization=float(busy_db[s]) * scale,
                front_queue_length=float(area_front[s]) * scale,
                db_queue_length=float(area_db[s]) * scale,
                completed=int(completed[s]),
                measured_time=m,
            )
        )
        start = float(boundaries[s])
    return tuple(stats)


def _overall_result(
    horizon: float,
    warmup: float,
    events: int,
    segment_stats: tuple[SegmentSimStats, ...],
) -> TimeVaryingSimResult:
    measured = sum(s.measured_time for s in segment_stats)
    completed = sum(s.completed for s in segment_stats)
    scale = 1.0 / measured if measured > 0 else 0.0
    return TimeVaryingSimResult(
        horizon=horizon,
        warmup=warmup,
        throughput=completed * scale,
        front_utilization=sum(s.front_utilization * s.measured_time for s in segment_stats) * scale,
        db_utilization=sum(s.db_utilization * s.measured_time for s in segment_stats) * scale,
        front_queue_length=sum(s.front_queue_length * s.measured_time for s in segment_stats) * scale,
        db_queue_length=sum(s.db_queue_length * s.measured_time for s in segment_stats) * scale,
        completed=completed,
        measured_time=measured,
        events=events,
        segments=segment_stats,
    )


def _timeline_result(
    segments: Sequence[NetworkSegment],
    horizon: float,
    warmup: float,
    sums: SegmentIntegrals,
) -> TimeVaryingSimResult:
    """The :class:`TimeVaryingSimResult` of one kernel run."""
    boundaries = np.cumsum([segment.duration for segment in segments])
    return _overall_result(
        horizon,
        warmup,
        int(sums.events),
        _segment_stats(
            segments, boundaries, sums.completed, sums.busy_front, sums.busy_db,
            sums.area_front, sums.area_db, sums.measured,
        ),
    )


def simulate_timevarying_closed_map_network(
    segments: Sequence[NetworkSegment],
    warmup: float = 0.0,
    rng: np.random.Generator | None = None,
) -> TimeVaryingSimResult:
    """Simulate one replication over a timeline.

    ``default_rng(seed)`` gives the result the replication-set entry returns
    for ``seed``.
    """
    segments = list(segments)
    horizon = _validate_timeline(segments, warmup)
    if rng is None:
        rng = np.random.default_rng()
    sums = simulate_segments(segments, horizon, warmup, rng)
    return _timeline_result(segments, horizon, warmup, sums)


def simulate_timevarying_closed_map_network_batch(
    segments: Sequence[NetworkSegment],
    warmup: float = 0.0,
    seeds: Sequence[int] = (),
) -> list[TimeVaryingSimResult]:
    """Simulate ``len(seeds)`` replications over a timeline, one per seed.

    Each seed runs the kernel on ``default_rng(seed)``, so a seed's result
    does not depend on the other seeds of the set, and cached replication
    sets resume bit-identically.
    """
    segments = list(segments)
    horizon = _validate_timeline(segments, warmup)
    return [
        _timeline_result(segments, horizon, warmup, sums)
        for sums in simulate_replications(segments, horizon, warmup, seeds)
    ]
