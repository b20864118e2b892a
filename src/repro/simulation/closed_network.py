"""Simulation of the closed MAP queueing network of Figure 9.

This simulator reproduces, jump by jump, the stochastic process whose
stationary distribution the analytical solver
(:class:`repro.queueing.map_network.MapClosedNetworkSolver`) computes:

* ``N`` customers cycle think → front server → database server → think,
* think times are exponential with mean ``Z`` (infinite-server delay),
* each server completes work according to its service MAP: while the server
  is busy the MAP generates completion events (the phase is frozen while the
  server is idle), and each completion releases one queued customer.

Its purpose is validation: for any pair of service MAPs the simulated
throughput and utilisations must agree with the exact CTMC solution within
statistical error, which is one of the strongest integration tests in the
repository.

:func:`simulate_segments` is the scalar kernel: one replication's embedded
jump chain over a timeline of
:class:`~repro.queueing.transient.NetworkSegment` entries, the same chain
the batched kernel (:mod:`repro.simulation.batched`) advances in lockstep.
A static network runs as a one-segment timeline.  The kernel reads its
generator under the one seed policy, documented in
:mod:`repro.simulation.batched`, so a seed gives the same trajectory on both
backends.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Sequence

import numpy as np

from repro.maps.map_process import MAP
from repro.queueing.transient import NetworkSegment
from repro.simulation.batched import (
    BATCH_RNG_CHUNK,
    ClosedNetworkSimResult,
    SegmentIntegrals,
    _destination_table,
    _initial_phase,
    _network_results,
    _validate_network,
)

__all__ = ["ClosedNetworkSimResult", "simulate_closed_map_network", "simulate_segments"]


def simulate_segments(
    segments: Sequence[NetworkSegment],
    horizon: float,
    warmup: float,
    rng: np.random.Generator,
) -> SegmentIntegrals:
    """Run one replication over a validated timeline on the scalar kernel.

    Takes the arguments of
    :func:`~repro.simulation.batched.simulate_segments_batch`, with one
    generator in place of the seeds, and returns its sums with ``R = 1``.
    Per-segment sums are plain floats, flushed when the segment changes.
    """
    num_segments = len(segments)
    last = num_segments - 1
    K1 = segments[0].front.order
    KG = K1 + segments[0].db.order
    inf = float("inf")
    ends = np.cumsum([segment.duration for segment in segments]).tolist()[:-1] + [inf]
    # Per segment: (population, 1/Z, exit rate and destination row per
    # global phase).  A down station has zero exit rates: it never wins the
    # event race, so its destination rows are never read and its phase
    # freezes through the outage.
    params = [
        (
            segment.population,
            1.0 / segment.think_time,
            np.concatenate([
                -np.diag(segment.front.D0) if segment.front_up else np.zeros(K1),
                -np.diag(segment.db.D0) if segment.db_up else np.zeros(KG - K1),
            ]).tolist(),
            _destination_table(segment.front, segment.db).tolist(),
        )
        for segment in segments
    ]
    completions = np.zeros(num_segments, dtype=np.int64)
    # busy_front, busy_db, area_front, area_db, measured: SegmentIntegrals order
    sums = np.zeros((5, num_segments))

    fp = _initial_phase(np.cumsum(segments[0].front.embedded_stationary), rng.random())
    dp = K1 + _initial_phase(np.cumsum(segments[0].db.embedded_stationary), rng.random())
    nf = ndb = 0
    clock = 0.0
    s = 0
    population, inv_think, exit_rate, rows = params[0]
    seg_end = ends[0]
    events = completed = 0
    measured = busy_front = busy_db = area_front = area_db = 0.0
    chunk = BATCH_RNG_CHUNK
    position = chunk
    while clock < horizon:
        if position == chunk:
            exps = rng.standard_exponential(chunk).tolist()
            event_draws = rng.random(chunk).tolist()
            dest_draws = rng.random(chunk).tolist()
            position = 0
        think_rate = (population - (nf + ndb)) * inv_think
        through_front = think_rate + (exit_rate[fp] if nf else 0.0)
        total_rate = through_front + (exit_rate[dp] if ndb else 0.0)
        start = clock
        # a deadlocked step (every job queued at a down station, the other
        # station empty) has rate zero: its holding time is infinite
        fire = total_rate > 0.0
        clock = clock + exps[position] / total_rate if fire else inf
        clamp = clock >= seg_end and s != last
        if clamp:
            clock = seg_end
            fire = False
        span = (clock if clock < horizon else horizon) - (start if start > warmup else warmup)
        if span > 0.0:
            measured += span
            if nf:
                busy_front += span
                area_front += span * nf
            if ndb:
                busy_db += span
                area_db += span * ndb
        if fire:
            events += 1
            x = event_draws[position] * total_rate
            if x < think_rate:
                nf += 1
            elif x < through_front:
                jump = bisect_right(rows[fp], dest_draws[position])
                if jump >= KG:
                    fp = jump - KG
                    nf -= 1
                    ndb += 1
                else:
                    fp = jump
            else:
                jump = bisect_right(rows[dp], dest_draws[position])
                if jump >= KG:
                    dp = jump - KG
                    ndb -= 1
                    if warmup <= clock < horizon:
                        completed += 1
                else:
                    dp = jump
        position += 1
        if clamp:
            # Enter the next segment: phases carry over; a population
            # decrease drops the excess from the front queue, then the
            # database.
            completions[s] = completed
            sums[:, s] = (busy_front, busy_db, area_front, area_db, measured)
            completed = 0
            measured = busy_front = busy_db = area_front = area_db = 0.0
            s += 1
            population, inv_think, exit_rate, rows = params[s]
            seg_end = ends[s]
            excess = nf + ndb - population
            if excess > 0:
                drop_front = min(nf, excess)
                nf -= drop_front
                ndb -= excess - drop_front
    completions[s] = completed
    sums[:, s] = (busy_front, busy_db, area_front, area_db, measured)
    return SegmentIntegrals(
        completions[:, None], *sums[:, :, None], np.array([events], dtype=np.int64)
    )


def simulate_closed_map_network(
    front_service: MAP,
    db_service: MAP,
    think_time: float,
    population: int,
    horizon: float,
    warmup: float = 0.0,
    rng: np.random.Generator | None = None,
) -> ClosedNetworkSimResult:
    """Simulate the closed network for ``horizon`` simulated seconds.

    Parameters
    ----------
    front_service, db_service:
        Service MAPs of the two queues.
    think_time:
        Mean exponential think time (must be positive; an infinite-server
        station with zero delay would make the jump chain degenerate).
    population:
        Number of circulating customers.
    horizon:
        Total simulated time.
    warmup:
        Initial interval excluded from all estimates.
    rng:
        Random generator (a fresh default generator when omitted).  The same
        seed gives the same trajectory as
        :func:`~repro.simulation.batched.simulate_closed_map_network_batch`.
    """
    _validate_network(think_time, population, horizon, warmup)
    segment = NetworkSegment(horizon, front_service, db_service, think_time, population)
    sums = simulate_segments(
        [segment], horizon, warmup, np.random.default_rng() if rng is None else rng
    )
    return _network_results(sums, think_time, population, horizon, warmup)[0]
