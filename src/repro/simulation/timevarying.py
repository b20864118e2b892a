"""Simulation of the closed MAP network under a time-varying timeline.

A *timeline* is a sequence of :class:`~repro.queueing.transient.
NetworkSegment` entries — diurnal load curves, flash-crowd population ramps,
regime-switching service MAPs, server slowdown and recovery.  This module
holds the scalar timeline kernel and the batched entry point, which runs the
lockstep kernel of :mod:`repro.simulation.batched` (a static network is the
one-segment case of that kernel).  Both follow the trajectory semantics of
the transient solver layer (:mod:`repro.queueing.transient`):

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
deterministically to the segment boundary (or the horizon).  The scalar
kernel consumes no draws for it; the batched kernel keeps its lockstep
per-step consumption, so a clamped or deadlocked step discards its draws.

Seed policy: the batched kernel's is documented in
:mod:`repro.simulation.batched`.  The scalar kernel draws from the chunked
streams of :class:`~repro.simulation.closed_network._ChunkedDraws` (two
initial-phase uniforms, then per step one exponential and two uniforms);
the two backends give different (equally valid) trajectories for the same
seed.  Statistics are collected **per segment** (time-weighted over each
segment's overlap with the post-warmup measurement window) and aggregated
over the whole timeline, so simulated segment estimates compare directly
with the per-segment metrics of the piecewise solvers.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.queueing.transient import NetworkSegment, _require_equal_orders
from repro.simulation.batched import _initial_phase, simulate_segments_batch
from repro.simulation.closed_network import _ChunkedDraws

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


def simulate_timevarying_closed_map_network(
    segments: Sequence[NetworkSegment],
    warmup: float = 0.0,
    rng: np.random.Generator | None = None,
) -> TimeVaryingSimResult:
    """Scalar jump-chain simulation of one replication over a timeline."""
    segments = list(segments)
    horizon = _validate_timeline(segments, warmup)
    if rng is None:
        rng = np.random.default_rng()
    draws = _ChunkedDraws(rng)
    num_segments = len(segments)
    boundaries = np.cumsum([segment.duration for segment in segments])

    # Per-segment parameter tables (plain lists for the scalar hot loop).
    K1 = segments[0].front.order
    K2 = segments[0].db.order
    params = []
    for segment in segments:
        # A down station's exit rates are zero: it never wins the event race,
        # so its (healthy-MAP) jump CDF is never consulted and its phase
        # stays frozen through the outage.
        front_exit = (
            (-np.diag(segment.front.D0)).tolist() if segment.front_up else [0.0] * K1
        )
        db_exit = (
            (-np.diag(segment.db.D0)).tolist() if segment.db_up else [0.0] * K2
        )
        front_cdf = _scalar_jump_cdf(segment.front)
        db_cdf = _scalar_jump_cdf(segment.db)
        params.append(
            (
                segment.population,
                1.0 / segment.think_time,
                front_exit,
                db_exit,
                front_cdf,
                db_cdf,
            )
        )

    # Initial state: everyone thinking, phases ~ the first segment's MAPs'
    # embedded stationary distributions (front drawn first, then database —
    # the shared initial-draw order of all kernels).
    front_cum = np.cumsum(segments[0].front.embedded_stationary)
    db_cum = np.cumsum(segments[0].db.embedded_stationary)
    fp = _initial_phase(front_cum, draws.uniform())
    dp = _initial_phase(db_cum, draws.uniform())

    nf = 0
    ndb = 0
    clock = 0.0
    s = 0
    events = 0
    completed = np.zeros(num_segments, dtype=np.int64)
    busy_front = np.zeros(num_segments)
    busy_db = np.zeros(num_segments)
    area_front = np.zeros(num_segments)
    area_db = np.zeros(num_segments)
    measured = np.zeros(num_segments)

    def _measure(start: float, end: float) -> None:
        span = min(end, horizon) - max(start, warmup)
        if span <= 0:
            return
        measured[s] += span
        if nf > 0:
            busy_front[s] += span
            area_front[s] += span * nf
        if ndb > 0:
            busy_db[s] += span
            area_db[s] += span * ndb

    while clock < horizon:
        population, inv_think, front_exit, db_exit, front_cdf, db_cdf = params[s]
        think_rate = (population - nf - ndb) * inv_think
        front_rate = front_exit[fp] if nf > 0 else 0.0
        db_rate = db_exit[dp] if ndb > 0 else 0.0
        total_rate = think_rate + front_rate + db_rate
        if total_rate <= 0.0:
            # Deadlock: every job is queued at a down station and the other
            # station is empty.  No jump can fire, so the clock advances
            # deterministically to the segment boundary, consuming no draws
            # (there is no holding time to sample).
            segment_end = float(boundaries[s])
            _measure(clock, segment_end)
            clock = segment_end
            if s == num_segments - 1:
                break
            s += 1
            excess = nf + ndb - params[s][0]
            if excess > 0:
                drop_front = min(nf, excess)
                nf -= drop_front
                ndb -= excess - drop_front
            continue
        # A clamped step consumes exactly the draws of a regular step.
        dt = draws.exponential() / total_rate
        u = draws.uniform()
        v = draws.uniform()
        new_clock = clock + dt
        segment_end = float(boundaries[s])
        if new_clock >= segment_end and s < num_segments - 1:
            # Clamp to the boundary: no transition fires (see module
            # docstring); the next segment's parameters take over and a
            # population decrease truncates front first, then database.
            _measure(clock, segment_end)
            clock = segment_end
            s += 1
            excess = nf + ndb - params[s][0]
            if excess > 0:
                drop_front = min(nf, excess)
                nf -= drop_front
                ndb -= excess - drop_front
            continue
        _measure(clock, new_clock)
        clock = new_clock
        if clock >= horizon:
            break
        events += 1
        x = u * total_rate
        if x < think_rate:
            nf += 1
        elif x < think_rate + front_rate:
            jump = min(bisect_right(front_cdf[fp], v), 2 * K1 - 1)
            if jump >= K1:
                fp = jump - K1
                nf -= 1
                ndb += 1
            else:
                fp = jump
        else:
            jump = min(bisect_right(db_cdf[dp], v), 2 * K2 - 1)
            if jump >= K2:
                dp = jump - K2
                ndb -= 1
                if warmup <= clock < horizon:
                    completed[s] += 1
            else:
                dp = jump

    stats = _segment_stats(
        segments, boundaries, completed, busy_front, busy_db, area_front, area_db, measured
    )
    return _overall_result(horizon, warmup, events, stats)


def _scalar_jump_cdf(map_process) -> list[list[float]]:
    """Per-phase cumulative jump distribution over the 2K outcomes."""
    rates = -np.diag(map_process.D0)
    hidden = np.maximum(map_process.D0, 0.0)
    np.fill_diagonal(hidden, 0.0)
    marked = np.maximum(map_process.D1, 0.0)
    return np.cumsum(np.hstack([hidden, marked]) / rates[:, None], axis=1).tolist()


def simulate_timevarying_closed_map_network_batch(
    segments: Sequence[NetworkSegment],
    warmup: float = 0.0,
    seeds: Sequence[int] = (),
) -> list[TimeVaryingSimResult]:
    """Lockstep batched simulation of ``len(seeds)`` timeline replications.

    Runs the batched kernel of :mod:`repro.simulation.batched` (its seed
    policy: per-replication deterministic and batch-composition
    independent, so cached replication sets resume bit-identically) and
    turns its per-segment sums into :class:`TimeVaryingSimResult` objects.
    """
    segments = list(segments)
    horizon = _validate_timeline(segments, warmup)
    sums = simulate_segments_batch(segments, horizon, warmup, seeds)
    boundaries = np.cumsum([segment.duration for segment in segments])
    per_segment = (
        sums.completed, sums.busy_front, sums.busy_db, sums.area_front, sums.area_db, sums.measured
    )
    return [
        _overall_result(
            horizon,
            warmup,
            int(sums.events[r]),
            _segment_stats(segments, boundaries, *(field[:, r] for field in per_segment)),
        )
        for r in range(len(seeds))
    ]
