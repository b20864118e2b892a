"""The closed MAP network of Figure 9, its one simulation kernel, and the
seed policy.

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

:func:`simulate_segments` is the kernel: one replication's embedded jump
chain over a timeline of :class:`~repro.queueing.transient.NetworkSegment`
entries (segment semantics — regime switches, population changes, outages —
are documented in :mod:`repro.simulation.timevarying`).  A static network
runs as a one-segment timeline.  Every entry point runs this kernel: the
per-seed entries here and in :mod:`~repro.simulation.timevarying` on the
generator they are given, the replication-set entries
(:func:`~repro.simulation.batched.simulate_closed_map_network_batch`,
:func:`~repro.simulation.timevarying.simulate_timevarying_closed_map_network_batch`)
once per seed through :func:`simulate_replications`.

Why the jump chain, not uniformization
--------------------------------------
A fitted bursty MAP(2) spends most of its time in a slow phase whose exit
rate is an order of magnitude below the fast phase's, so a uniformized clock
with a global rate ``Λ = N/Z + max exit rates`` would spend 70–85 % of its
steps on self-loops.  The kernel advances the *embedded jump chain*
directly (a Gillespie/SSA step): per step it computes the total exit rate
``r = n_think/Z + busy_front·exit(front_phase) + busy_db·exit(db_phase)``,
draws the holding time as ``Exp(1)/r``, picks the event category from one
uniform, and resolves the MAP jump destination from a second uniform.  A
step whose holding time would cross the segment boundary is clamped to the
boundary and fires no transition (exact by memorylessness).

Seed policy
-----------
This is the one seed policy of the simulation package.  A replication owns
one generator: the ``rng`` a per-seed entry is given, or
``numpy.random.default_rng(seed)`` for each seed of a replication set.  It
consumes only its own stream, so a replication's result depends on its seed
and the timeline alone — not on which other seeds share the set.  Each seed
of a replication set therefore gives a result ``==`` the per-seed entry's on
``default_rng(seed)``, which is what lets the experiment runner resume a
partially-cached replication set bit-identically.  A stream is consumed as:

1. one uniform for the initial front phase, then one for the initial
   database phase (inverse CDF of the first segment's MAPs' embedded
   stationary distributions),
2. then blocks of ``BATCH_RNG_CHUNK`` draws per refill: that many unit
   exponentials (holding times), then that many uniforms (event category),
   then that many uniforms (jump destination).  Every step — regular,
   clamped at a boundary or deadlocked in an outage — consumes exactly one
   variate from each of the three buffers.

A step counts towards ``events`` when it starts before the horizon and is
neither clamped nor deadlocked; a completion counts when its time ``t``
satisfies ``warmup <= t < horizon``.  The last segment never clamps: the
horizon, not a boundary, ends it.  Time-weighted sums accumulate step by
step in time order.  ``BATCH_RNG_CHUNK`` is part of the seed policy:
changing it changes seeded trajectories.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from repro.maps.map_process import MAP
from repro.queueing.transient import NetworkSegment

__all__ = [
    "BATCH_RNG_CHUNK",
    "ClosedNetworkSimResult",
    "simulate_closed_map_network",
    "simulate_replications",
    "simulate_segments",
]

#: Draws per stream per refill of a replication's RNG buffers.  Part of the
#: seed policy (see module docstring).
BATCH_RNG_CHUNK = 4096


def _jump_probabilities(map_process: MAP) -> tuple[np.ndarray, np.ndarray]:
    """Per-phase hidden / marked jump probabilities of one MAP."""
    rates = -np.diag(map_process.D0)[:, None]
    hidden = np.maximum(map_process.D0, 0.0)
    np.fill_diagonal(hidden, 0.0)
    return hidden / rates, np.maximum(map_process.D1, 0.0) / rates


def _destination_table(front: MAP, db: MAP) -> np.ndarray:
    """Globally-encoded jump CDF table.

    Global phases: front ``0..K1-1``, database ``K1..K1+K2-1`` (``KG`` in
    total).  Row ``g`` is laid out over ``2*KG`` outcome columns so that for
    a destination uniform ``v``, ``jump = bisect_right(row, v)`` directly
    encodes the outcome:

    * ``jump < KG``: hidden transition to global phase ``jump``,
    * ``jump >= KG``: marked transition (a completion) to global phase
      ``jump - KG``.

    Leading columns repeat the previous cumulative value (zero probability
    mass) so database rows land in the database index range, and the last
    real outcome column is set to ``2.0`` — always selectable, which clamps
    cumulative rounding (a uniform above the last cumulative sum still
    resolves to the last outcome).
    """
    K1, K2 = front.order, db.order
    KG = K1 + K2
    table = np.full((KG, 2 * KG), 2.0)
    for map_process, offset, order in ((front, 0, K1), (db, K1, K2)):
        hidden_p, marked_p = _jump_probabilities(map_process)
        for phase in range(order):
            hidden_cum = np.cumsum(hidden_p[phase])
            marked_cum = hidden_cum[-1] + np.cumsum(marked_p[phase])
            row = np.full(2 * KG, 2.0)
            row[:offset] = 0.0
            row[offset:offset + order] = hidden_cum
            row[offset + order:KG] = hidden_cum[-1]
            row[KG:KG + offset] = hidden_cum[-1]
            row[KG + offset:KG + offset + order] = marked_cum
            row[KG + offset + order - 1] = 2.0
            table[offset + phase] = row
    return table


def _initial_phase(cumulative: np.ndarray, u: float) -> int:
    phase = int(np.searchsorted(cumulative, u, side="right"))
    return min(phase, len(cumulative) - 1)


class SegmentIntegrals(NamedTuple):
    """Raw sums of one replication: per segment, time integrals over the
    post-warmup window and completions, plus the run's ``events``."""

    completed: np.ndarray
    busy_front: np.ndarray
    busy_db: np.ndarray
    area_front: np.ndarray
    area_db: np.ndarray
    measured: np.ndarray
    events: int


@dataclass(frozen=True)
class ClosedNetworkSimResult:
    """Estimates from one simulation run of the closed MAP network."""

    population: int
    think_time: float
    horizon: float
    throughput: float
    front_utilization: float
    db_utilization: float
    front_queue_length: float
    db_queue_length: float
    completed: int
    warmup: float = 0.0
    measured_time: float = 0.0
    #: Jump-chain steps that start before the horizon and fire a transition
    #: (think completions plus MAP jumps, hidden and marked, of busy
    #: servers); clamped and deadlocked steps do not count (see the seed
    #: policy).  The ``sim_loop`` benchmark reports them as events/second.
    events: int = 0

    def summary(self) -> dict:
        """Headline metrics (same keys as the analytical solver)."""
        return {
            "population": self.population,
            "throughput": self.throughput,
            "front_utilization": self.front_utilization,
            "db_utilization": self.db_utilization,
            "front_queue_length": self.front_queue_length,
            "db_queue_length": self.db_queue_length,
        }


def _validate_network(
    think_time: float, population: int, horizon: float, warmup: float
) -> None:
    """Input checks shared by the static per-seed and replication-set entries."""
    if think_time <= 0:
        raise ValueError("think_time must be positive for the simulator")
    if population < 1:
        raise ValueError("population must be >= 1")
    if warmup < 0:
        raise ValueError("warmup must be non-negative")
    if horizon <= warmup:
        raise ValueError("horizon must exceed warmup")


def _network_result(
    sums: SegmentIntegrals,
    think_time: float,
    population: int,
    horizon: float,
    warmup: float,
) -> ClosedNetworkSimResult:
    """The :class:`ClosedNetworkSimResult` of a one-segment run."""
    completed, measured = sums.completed[0], sums.measured[0]
    return ClosedNetworkSimResult(
        population=population, think_time=think_time, horizon=horizon,
        throughput=float(completed / measured),
        front_utilization=float(sums.busy_front[0] / measured),
        db_utilization=float(sums.busy_db[0] / measured),
        front_queue_length=float(sums.area_front[0] / measured),
        db_queue_length=float(sums.area_db[0] / measured),
        completed=int(completed), warmup=warmup,
        measured_time=float(measured), events=int(sums.events),
    )


def simulate_segments(
    segments: Sequence[NetworkSegment],
    horizon: float,
    warmup: float,
    rng: np.random.Generator,
) -> SegmentIntegrals:
    """Run one replication over a validated timeline on the kernel.

    ``segments`` must be non-empty with equal MAP orders, ``horizon`` their
    total duration and ``warmup`` in ``[0, horizon)``; the public entry
    points check this.  ``rng`` is read under the seed policy (see the module
    docstring).  Per-segment sums are plain floats, flushed when the segment
    changes.
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
    return SegmentIntegrals(completions, *sums, events)


def simulate_replications(
    segments: Sequence[NetworkSegment],
    horizon: float,
    warmup: float,
    seeds: Sequence[int],
) -> list[SegmentIntegrals]:
    """Run the kernel once per seed, each on ``default_rng(seed)``."""
    if not seeds:
        raise ValueError("seeds must contain at least one replication seed")
    return [
        simulate_segments(segments, horizon, warmup, np.random.default_rng(seed))
        for seed in seeds
    ]


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
        Random generator (a fresh default generator when omitted).
        ``default_rng(seed)`` gives the result the replication-set entry
        :func:`~repro.simulation.batched.simulate_closed_map_network_batch`
        returns for ``seed``.
    """
    _validate_network(think_time, population, horizon, warmup)
    segment = NetworkSegment(horizon, front_service, db_service, think_time, population)
    sums = simulate_segments(
        [segment], horizon, warmup, np.random.default_rng() if rng is None else rng
    )
    return _network_result(sums, think_time, population, horizon, warmup)
