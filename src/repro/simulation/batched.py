"""The batched lockstep simulator of the closed MAP network, and the seed
stream both simulation kernels read.

One numpy kernel, :func:`simulate_segments_batch`, advances **all R
replications in lockstep** over a timeline of
:class:`~repro.queueing.transient.NetworkSegment` entries.  The
per-replication state is a few small integers — ``(n_front, n_db,
front_phase, db_phase)`` plus the current segment — so the batch lives in
length-R arrays and every step is a fixed sequence of array operations
instead of per-event Python dispatch.  :func:`simulate_closed_map_network_batch`
runs a static network as a one-segment timeline;
:func:`~repro.simulation.timevarying.simulate_timevarying_closed_map_network_batch`
runs a timeline (segment semantics — regime switches, population changes,
outages — are documented in :mod:`repro.simulation.timevarying`).  The
scalar kernel, :func:`~repro.simulation.closed_network.simulate_segments`,
runs the same jump chain one replication at a time and reads its generator
exactly as this kernel reads a replication's (see *Seed policy*), so the two
backends follow the same trajectory draw for draw; estimates agree with the
exact CTMC solution within statistical error (asserted by the
cross-validation suite).

Why the jump chain, not uniformization
--------------------------------------
A fitted bursty MAP(2) spends most of its time in a slow phase whose exit
rate is an order of magnitude below the fast phase's, so a uniformized clock
with a global rate ``Λ = N/Z + max exit rates`` would spend 70–85 % of its
steps on self-loops.  The kernel advances the *embedded jump chain*
directly (a vectorized Gillespie/SSA step): per step it computes each
replication's total exit rate ``r = n_think/Z + busy_front·exit(front_phase)
+ busy_db·exit(db_phase)``, draws the holding time as ``Exp(1)/r``, picks the
event category from one uniform, and resolves the MAP jump destination from
a second uniform.  A step whose holding time would cross the replication's
segment boundary is clamped to the boundary and fires no transition (exact
by memorylessness).

Seed policy
-----------
This is the one seed policy of the simulation package.  Replication ``i``
of the batched kernel owns ``numpy.random.default_rng(seeds[i])``; the
scalar kernel owns the ``rng`` it is given.  Each consumes only its own
stream, so a batched replication's result depends on ``seeds[i]`` and the
timeline alone — not on ``R`` or on which replications share the batch.
This is what lets the experiment runner resume a partially-cached
replication set bit-identically under any re-batching.  A stream is
consumed as:

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
horizon, not a boundary, ends it.

``BATCH_RNG_CHUNK`` is therefore part of the seed policy: changing it
changes seeded trajectories.  ``BATCH_WINDOW`` (the statistics-reduction
window) does not affect the trajectory, but it partitions the time-weighted
sums and so pins their last-ulp rounding; with the batch-width-independent
pairwise fold (:func:`_fold_columns`) it makes a replication's result
bit-equal whether it runs alone or inside any batch.  The scalar kernel
sums sequentially, so for the same seed the two backends give equal
integer counts and float sums equal to within a few ulps.

Performance
-----------
Per step the kernel pays a fixed number of allocation-free numpy calls on
length-R arrays, so the aggregate event rate grows almost linearly with
``R`` (measured in ``BENCH_solver.json`` → ``sim_loop``).  Timelines cost a
one-segment run almost nothing: the current segment is folded into the
phase indices (row ``segment * KG + phase`` of stacked exit and destination
tables), boundary clamping runs only on steps where a scalar
``next_boundary`` test fires, and deadlock masking only when some segment
has an outage.  MAPs of order <= 2 resolve jump destinations with
branch-free threshold comparisons (:func:`_destination_scalars`); higher
orders gather rows of a CDF table (:func:`_destination_table`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from repro.maps.map_process import MAP
from repro.queueing.transient import NetworkSegment

__all__ = [
    "ClosedNetworkSimResult",
    "simulate_closed_map_network_batch",
    "BATCH_RNG_CHUNK",
    "SIM_BACKENDS",
]

#: Recognised simulation backends of the experiment engine: the scalar
#: kernel (``event``) and this kernel (``batched``).  Both read the same seed
#: stream, so the choice changes speed, not trajectories.
SIM_BACKENDS = ("event", "batched")

#: Draws per stream per refill of a replication's RNG buffers.  Part of the
#: seed policy (see module docstring).
BATCH_RNG_CHUNK = 4096

#: Steps per statistics-reduction window.  Small enough that the ``(window,
#: R)`` buffers stay cache-resident at any R, and **fixed** — the window
#: partitions the time-weighted sums, so (like ``BATCH_RNG_CHUNK``) changing
#: it perturbs the last-ulp rounding of seeded results.  Must divide
#: ``BATCH_RNG_CHUNK`` and be a power of two.
BATCH_WINDOW = 64


def _fold_columns(block: np.ndarray) -> np.ndarray:
    """Deterministic pairwise tree-sum along axis 0 of a 2-D block.

    Every fold level is an elementwise add across the full batch width, so
    the floating-point rounding of each column's sum is *identical for any
    R* — which is what makes a replication's statistics independent of the
    batch it ran in.  (numpy's own axis sums switch between pairwise and
    sequential accumulation depending on memory layout, and a single-column
    array takes the contiguous code path — the sums would differ between a
    batch of one and a batch of many.)  Requires a power-of-two row count.
    """
    while block.shape[0] > 1:
        block = block[0::2] + block[1::2]
    return block[0]


def _jump_probabilities(map_process: MAP) -> tuple[np.ndarray, np.ndarray]:
    """Per-phase hidden / marked jump probabilities of one MAP."""
    rates = -np.diag(map_process.D0)[:, None]
    hidden = np.maximum(map_process.D0, 0.0)
    np.fill_diagonal(hidden, 0.0)
    return hidden / rates, np.maximum(map_process.D1, 0.0) / rates


def _destination_table(front: MAP, db: MAP) -> np.ndarray:
    """Globally-encoded jump CDF table (general MAP orders).

    Global phases: front ``0..K1-1``, database ``K1..K1+K2-1`` (``KG`` in
    total).  Row ``g`` is laid out over ``2*KG`` outcome columns so that for
    a destination uniform ``v``, ``jump = count(row <= v)`` directly encodes
    the outcome:

    * ``jump < KG``: hidden transition to global phase ``jump``,
    * ``jump >= KG``: marked transition (a completion) to global phase
      ``jump - KG``.

    Leading columns repeat the previous cumulative value (zero probability
    mass) so database rows land in the database index range, and the last
    real outcome column is set to ``2.0`` — always selectable, which clamps
    cumulative rounding (a uniform above the last cumulative sum still
    resolves to the last outcome).  The row is non-decreasing, so the scalar
    kernel resolves the same outcome with one ``bisect_right``.
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


def _destination_scalars(front: MAP, db: MAP):
    """Branch-free per-phase jump scalars for MAPs of order <= 2.

    For order 2 a hidden jump has exactly one possible destination (the
    other phase; ``D0``'s diagonal is excluded) and a marked jump picks
    between two, so the whole destination draw reduces to two threshold
    comparisons — no per-row table gather.  Produces outcomes identical to
    :func:`_destination_table` (asserted by a regression test).

    Returns ``(hidden_prob, marked_threshold, marked_base, hidden_dest)``,
    each indexed by global phase.
    """
    K1, K2 = front.order, db.order
    KG = K1 + K2
    hidden_prob = np.zeros(KG)
    marked_threshold = np.full(KG, 2.0)
    marked_base = np.zeros(KG, dtype=np.intp)
    hidden_dest = np.zeros(KG, dtype=np.intp)
    for map_process, offset, order in ((front, 0, K1), (db, K1, K2)):
        if order > 2:
            raise ValueError("scalar destination tables require MAP order <= 2")
        hidden_p, marked_p = _jump_probabilities(map_process)
        for phase in range(order):
            g = offset + phase
            hidden_prob[g] = hidden_p[phase].sum()
            marked_base[g] = offset
            hidden_dest[g] = offset + (1 - phase) if order == 2 else offset
            if order == 2:
                # v in [hidden, threshold) -> first marked destination,
                # v >= threshold -> second; 2.0 == "never" (single dest).
                marked_threshold[g] = hidden_prob[g] + marked_p[phase][0]
    return hidden_prob, marked_threshold, marked_base, hidden_dest


def _initial_phase(cumulative: np.ndarray, u: float) -> int:
    phase = int(np.searchsorted(cumulative, u, side="right"))
    return min(phase, len(cumulative) - 1)


class SegmentIntegrals(NamedTuple):
    """Raw sums of one batch: per segment ``(segments, R)`` time integrals
    over the post-warmup window and completions, plus ``events`` ``(R,)``."""

    completed: np.ndarray
    busy_front: np.ndarray
    busy_db: np.ndarray
    area_front: np.ndarray
    area_db: np.ndarray
    measured: np.ndarray
    events: np.ndarray


@dataclass(frozen=True)
class ClosedNetworkSimResult:
    """Estimates from one simulation run of the closed MAP network.

    Returned by both static entry points (this module's and
    :func:`~repro.simulation.closed_network.simulate_closed_map_network`,
    which re-exports it).
    """

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
    #: servers); clamped and deadlocked steps do not count.  Both kernels
    #: count the same steps (see the seed policy), and the ``sim_loop``
    #: benchmark reports them as events/second.
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
    """Input checks shared by the scalar and batched static entry points."""
    if think_time <= 0:
        raise ValueError("think_time must be positive for the simulator")
    if population < 1:
        raise ValueError("population must be >= 1")
    if warmup < 0:
        raise ValueError("warmup must be non-negative")
    if horizon <= warmup:
        raise ValueError("horizon must exceed warmup")


def _network_results(
    sums: SegmentIntegrals,
    think_time: float,
    population: int,
    horizon: float,
    warmup: float,
) -> list[ClosedNetworkSimResult]:
    """One :class:`ClosedNetworkSimResult` per replication of a one-segment run."""
    completed, measured = sums.completed[0], sums.measured[0]
    return [
        ClosedNetworkSimResult(
            population=population, think_time=think_time, horizon=horizon,
            throughput=float(completed[r] / measured[r]),
            front_utilization=float(sums.busy_front[0, r] / measured[r]),
            db_utilization=float(sums.busy_db[0, r] / measured[r]),
            front_queue_length=float(sums.area_front[0, r] / measured[r]),
            db_queue_length=float(sums.area_db[0, r] / measured[r]),
            completed=int(completed[r]), warmup=warmup,
            measured_time=float(measured[r]), events=int(sums.events[r]),
        )
        for r in range(len(measured))
    ]


def simulate_segments_batch(
    segments: Sequence[NetworkSegment],
    horizon: float,
    warmup: float,
    seeds: Sequence[int],
) -> SegmentIntegrals:
    """Run the lockstep kernel over a validated timeline.

    ``segments`` must be non-empty with equal MAP orders, ``horizon`` their
    total duration and ``warmup`` in ``[0, horizon)``; the public entry
    points check this.  Every replication needs a seed.
    """
    if not seeds:
        raise ValueError("seeds must contain at least one replication seed")
    num_segments = len(segments)
    multi = num_segments > 1
    last = num_segments - 1
    K1 = segments[0].front.order
    K2 = segments[0].db.order
    KG = K1 + K2
    boundaries = np.cumsum([segment.duration for segment in segments])

    # -- stacked per-segment tables, indexed by the segment-offset phase
    # ``segment * KG + global_phase`` that fp / dp carry.  A down station
    # has zero exit rates: it never wins the event race, so its (healthy-MAP)
    # destination entries are never consulted and its phase freezes. -----
    exit_rate = np.concatenate([
        np.concatenate([
            -np.diag(segment.front.D0) if segment.front_up else np.zeros(K1),
            -np.diag(segment.db.D0) if segment.db_up else np.zeros(K2),
        ])
        for segment in segments
    ])
    use_scalars = K1 <= 2 and K2 <= 2
    if use_scalars:
        parts = [_destination_scalars(s.front, s.db) for s in segments]
        hid_prob = np.concatenate([p[0] for p in parts])
        mark_thresh = np.concatenate([p[1] for p in parts])
        mark_base = np.concatenate([p[2] + g * KG for g, p in enumerate(parts)])
        hid_dest = np.concatenate([p[3] + g * KG for g, p in enumerate(parts)])
    else:
        table = np.vstack([_destination_table(s.front, s.db) for s in segments])
        seg_base = np.repeat(np.arange(num_segments) * KG, KG)

    R = len(seeds)
    rngs = [np.random.default_rng(seed) for seed in seeds]
    # -- initial state: everyone thinking, phases ~ embedded stationary ----
    front_cum = np.cumsum(segments[0].front.embedded_stationary)
    db_cum = np.cumsum(segments[0].db.embedded_stationary)
    fp, dp = np.empty((2, R), dtype=np.intp)
    for r, rng in enumerate(rngs):
        fp[r] = _initial_phase(front_cum, rng.random())
        dp[r] = K1 + _initial_phase(db_cum, rng.random())
    nf, ndb, events = np.zeros((3, R), dtype=np.int64)
    clock = np.zeros(R)
    completed = np.zeros((num_segments, R), dtype=np.int64)
    busy_front, busy_db, area_front, area_db, measured = np.zeros((5, num_segments, R))

    # -- current-segment parameters, gathered per replication on boundary
    # crossings only.  The last segment's end is +inf: the horizon, not a
    # boundary, ends it. ---------------------------------------------------
    population_int = np.array([s.population for s in segments], dtype=np.int64)
    population_table = population_int.astype(float)
    inv_think_table = np.array([1.0 / s.think_time for s in segments])
    end_table = np.append(boundaries[:-1], np.inf)
    seg_idx = np.zeros(R, dtype=np.intp)
    population = np.full(R, population_table[0])
    inv_think = np.full(R, inv_think_table[0])
    seg_end = np.full(R, end_table[0])
    next_boundary = end_table[0]
    # every job may queue at a down station with the other one empty: such a
    # deadlocked replication has total rate 0 and fires nothing
    outage = any(segment.has_outage for segment in segments)

    # -- RNG stores: (BATCH_RNG_CHUNK, R) consumed row-per-step; the +1
    # column pad breaks the power-of-two stride that would otherwise alias
    # every refill column onto the same cache sets ----------------------
    chunk = BATCH_RNG_CHUNK
    exp_store, event_store, dest_store = np.empty((3, chunk, R + 1))
    refill_block = min(16, R)
    refill_scratch = np.empty((refill_block, chunk))

    def _refill() -> None:
        # Per replication and per refill: `chunk` exponentials, then `chunk`
        # event uniforms, then `chunk` destination uniforms (the seed
        # policy).  Replications are drawn in blocks through a contiguous
        # scratch so the transposed store write stays cache-friendly.
        for store, draw in (
            (exp_store, lambda rng, out: rng.standard_exponential(chunk, out=out)),
            (event_store, lambda rng, out: rng.random(out=out)),
            (dest_store, lambda rng, out: rng.random(out=out)),
        ):
            for r0 in range(0, R, refill_block):
                block = min(refill_block, R - r0)
                for i in range(block):
                    draw(rngs[r0 + i], refill_scratch[i])
                store[:, r0:r0 + block] = refill_scratch[:block].T

    # -- per-window statistics buffers ----------------------------------
    S = BATCH_WINDOW
    nf_buf, ndb_buf = np.empty((2, S, R), dtype=np.int32)
    clock_buf, before, span, span_start = np.empty((4, S, R))
    md_buf, skip_buf = np.zeros((2, S, R), dtype=bool)
    seg_buf = np.zeros((S, R), dtype=np.intp)

    # -- length-R scratch (the hot loop allocates nothing) -----------------
    (think_rate, front_rate, db_rate, through_front, total_rate, dt, u,
     scratch_f, scratch_f2, start_clock) = np.empty((10, R))
    (past_think, past_front, front_busy, db_busy, front_event, think_event,
     marked, marked_front, marked_db, apply, clamp) = np.empty((11, R), dtype=bool)
    occupancy = np.empty(R, dtype=np.int64)
    act, dest, dest_alt, jump, jump_sub = np.empty((5, R), dtype=np.intp)
    if not use_scalars:
        rows = np.empty((R, table.shape[1]))
        rows_le = np.empty(rows.shape, dtype=bool)

    position = chunk  # forces a refill on the first window
    while True:
        if position >= chunk:
            _refill()
            position = 0
        np.copyto(start_clock, clock)
        for s in range(S):
            column = position + s
            nf_buf[s] = nf
            ndb_buf[s] = ndb
            if multi:
                seg_buf[s] = seg_idx
            # total exit rate of every replication's current state
            np.add(nf, ndb, out=occupancy)
            np.subtract(population, occupancy, out=think_rate)
            think_rate *= inv_think
            np.take(exit_rate, fp, out=front_rate)
            np.greater(nf, 0, out=front_busy)
            front_rate *= front_busy
            np.take(exit_rate, dp, out=db_rate)
            np.greater(ndb, 0, out=db_busy)
            db_rate *= db_busy
            np.add(think_rate, front_rate, out=through_front)
            np.add(through_front, db_rate, out=total_rate)
            # holding time + clock; a deadlocked replication (total rate 0)
            # gets dt = inf, which clamps it to its segment boundary or — on
            # the last segment — carries it past the horizon
            masked = outage
            if outage:
                np.greater(total_rate, 0.0, out=apply)
                with np.errstate(divide="ignore", invalid="ignore"):
                    np.divide(exp_store[column, :R], total_rate, out=dt)
                np.logical_not(apply, out=clamp)
                np.copyto(dt, np.inf, where=clamp)
            else:
                np.divide(exp_store[column, :R], total_rate, out=dt)
            clock += dt
            crossed = multi and clock.max() >= next_boundary
            if crossed:
                # clamp replications past their segment end to the boundary;
                # they fire no transition (but consumed their draws)
                np.greater_equal(clock, seg_end, out=clamp)
                clamp &= seg_idx < last
                np.copyto(clock, seg_end, where=clamp)
                if masked:
                    apply &= ~clamp
                else:
                    np.logical_not(clamp, out=apply)
                    masked = True
            clock_buf[s] = clock
            # event category: [0, think) -> think completion,
            # [think, think+front) -> front MAP jump, rest -> db MAP jump
            np.multiply(event_store[column, :R], total_rate, out=u)
            np.greater_equal(u, think_rate, out=past_think)
            np.greater_equal(u, through_front, out=past_front)
            np.copyto(act, fp)
            np.copyto(act, dp, where=past_front)
            # jump destination of the active server's MAP
            v = dest_store[column, :R]
            if use_scalars:
                np.take(hid_prob, act, out=scratch_f)
                np.less(v, scratch_f, out=marked)  # temporarily "hidden"
                np.take(mark_thresh, act, out=scratch_f2)
                np.greater_equal(v, scratch_f2, out=marked_front)  # 2nd dest
                np.take(mark_base, act, out=dest)
                dest += marked_front
                np.take(hid_dest, act, out=dest_alt)
                np.copyto(dest, dest_alt, where=marked)
                np.logical_not(marked, out=marked)
            else:
                np.take(table, act, axis=0, out=rows)
                np.less_equal(rows, v[:, None], out=rows_le)
                np.sum(rows_le, axis=1, out=jump)
                np.greater_equal(jump, KG, out=marked)
                np.multiply(marked, KG, out=jump_sub)
                np.subtract(jump, jump_sub, out=dest)
                np.take(seg_base, act, out=jump_sub)
                dest += jump_sub
            # state updates (clamped and deadlocked replications keep theirs)
            np.not_equal(past_think, past_front, out=front_event)
            np.logical_not(past_think, out=think_event)
            if masked:
                front_event &= apply
                think_event &= apply
                past_front &= apply  # from here on: "database event"
                np.logical_not(apply, out=skip_buf[s])
            elif multi:
                skip_buf[s] = False
            np.copyto(fp, dest, where=front_event)
            np.copyto(dp, dest, where=past_front)
            np.logical_and(front_event, marked, out=marked_front)
            np.logical_and(past_front, marked, out=marked_db)
            md_buf[s] = marked_db
            nf += think_event
            nf -= marked_front
            ndb += marked_front
            ndb -= marked_db
            if crossed and clamp.any():
                # Enter the next segment: phases carry over (shifted by one
                # segment's offset); a population decrease drops the excess
                # from the front queue, then the database (no-op if unclamped).
                seg_idx += clamp
                fp += clamp * KG
                dp += clamp * KG
                np.take(population_table, seg_idx, out=population)
                np.take(inv_think_table, seg_idx, out=inv_think)
                np.take(end_table, seg_idx, out=seg_end)
                next_boundary = seg_end.min()
                excess = np.clip(nf + ndb - np.take(population_int, seg_idx), 0, None)
                drop_front = np.minimum(nf, excess)
                nf -= drop_front
                ndb -= excess - drop_front
        position += S
        # -- window reductions: time-weighted statistics over [0, horizon],
        # warmup excluded, per step-start segment (boundary crossings are
        # clamped, so every step lies inside one segment).  Float sums go
        # through the batch-width-independent pairwise fold; the integer
        # counts (events, completions) are exact in any order.
        before[0] = start_clock
        before[1:] = clock_buf[:-1]
        np.minimum(clock_buf, horizon, out=span)
        np.maximum(before, warmup, out=span_start)
        span -= span_start
        np.clip(span, 0.0, None, out=span)
        front_held = nf_buf > 0
        db_held = ndb_buf > 0
        done = md_buf & (clock_buf >= warmup) & (clock_buf < horizon)
        events += ((before < horizon) & ~skip_buf).sum(axis=0)
        first, final = int(seg_buf[0].min()), int(seg_buf[-1].max())
        for g in range(first, final + 1):
            # only segments visited in this window: the others add exact zeros
            mask = seg_buf == g
            part, part_done = span * mask, done & mask
            measured[g] += _fold_columns(part)
            busy_front[g] += _fold_columns(part * front_held)
            busy_db[g] += _fold_columns(part * db_held)
            area_front[g] += _fold_columns(part * nf_buf)
            area_db[g] += _fold_columns(part * ndb_buf)
            completed[g] += part_done.sum(axis=0)
        if clock.min() >= horizon:
            break

    return SegmentIntegrals(completed, busy_front, busy_db, area_front, area_db, measured, events)


def simulate_closed_map_network_batch(
    front_service: MAP,
    db_service: MAP,
    think_time: float,
    population: int,
    horizon: float,
    warmup: float = 0.0,
    seeds: Sequence[int] = (),
) -> list[ClosedNetworkSimResult]:
    """Simulate ``len(seeds)`` replications of the closed network at once.

    Parameters mirror :func:`~repro.simulation.closed_network.
    simulate_closed_map_network`; instead of one ``rng`` the caller passes
    one integer seed per replication (see the module docstring for the seed
    policy).  Returns one :class:`ClosedNetworkSimResult` per seed, in seed
    order.  The network runs as a one-segment timeline.
    """
    _validate_network(think_time, population, horizon, warmup)
    segment = NetworkSegment(horizon, front_service, db_service, think_time, population)
    sums = simulate_segments_batch([segment], horizon, warmup, seeds)
    return _network_results(sums, think_time, population, horizon, warmup)
