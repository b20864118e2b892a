"""Server-outage timelines: overlay, solvers and simulators must agree.

Covers the failure-aware modeling layer end to end:

* **overlay** — ``TimeVaryingWorkload.outages`` splits resolved segments at
  window edges, marks the covered spans down, and is the identity when no
  outages are declared,
* **cross-validation** — on an outage timeline the simulation kernel, run
  through its per-seed and its replication-set entry, and the uniformized
  transient CTMC agree within CLT tolerances (the queue at a down station
  is real physics, not an artifact of one implementation),
* **deadlock handling** — when the whole population is stuck at a down
  station the total event rate is zero; both entries must advance the clock
  to the next boundary (never divide by zero, never draw bogus events) and
  stay batch-composition independent,
* **guard rails** — ``solve_piecewise_stationary`` refuses outage segments
  (a down station has no steady state).
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.experiments.spec import (
    MapSpec,
    OutageWindow,
    ScenarioSpec,
    SolverSpec,
    TimeVaryingSegment,
    TimeVaryingWorkload,
)
from repro.maps import map2_exponential, map2_from_moments_and_decay
from repro.queueing import NetworkSegment
from repro.queueing.transient import (
    solve_piecewise_stationary,
    solve_piecewise_transient,
)
from repro.simulation import (
    simulate_timevarying_closed_map_network,
    simulate_timevarying_closed_map_network_batch,
)

THINK = 0.5


def _front():
    return map2_exponential(0.05)


def _db(mean=0.04, scv=4.0, decay=0.5):
    return map2_from_moments_and_decay(mean, scv, decay)


def _outage_timeline(population=6, outage=10.0, healthy=45.0, tail=65.0):
    """healthy -> db down for ``outage`` seconds -> recovery tail."""
    front, db = _front(), _db()
    common = dict(front=front, db=db, think_time=THINK, population=population)
    return [
        NetworkSegment(duration=healthy, label="healthy", **common),
        NetworkSegment(duration=outage, label="down", db_up=False, **common),
        NetworkSegment(duration=tail, label="tail", **common),
    ]


def _workload(**overrides):
    fields = dict(
        front=MapSpec(family="exponential", mean=0.05),
        db_mean=0.04,
        db_scv=4.0,
        db_decay=0.5,
        think_time=THINK,
        population=6,
        segments=(
            TimeVaryingSegment(duration=30.0, label="calm"),
            TimeVaryingSegment(duration=40.0, label="tail"),
        ),
    )
    fields.update(overrides)
    return TimeVaryingWorkload(**fields)


class TestOutageOverlay:
    def test_no_outages_is_identity(self):
        plain = _workload()
        assert plain.outages == ()
        segments = plain.resolved_segments()
        assert [s.label for s in segments] == ["calm", "tail"]
        assert all(s.front_up and s.db_up for s in segments)

    def test_window_splits_segments_and_marks_down(self):
        workload = _workload(
            outages=(OutageWindow(station="db", start=20.0, duration=20.0),)
        )
        segments = workload.resolved_segments()
        labels = [(s.label, s.db_up, s.duration) for s in segments]
        assert labels == [
            ("calm", True, pytest.approx(20.0)),
            ("calm/down:db", False, pytest.approx(10.0)),
            ("tail/down:db", False, pytest.approx(10.0)),
            ("tail", True, pytest.approx(30.0)),
        ]
        # Healthy service MAPs stay attached to down spans (phase bookkeeping).
        assert segments[1].front_up

    def test_rejects_overlapping_windows(self):
        with pytest.raises(ValueError, match="overlap"):
            _workload(outages=(
                OutageWindow(station="db", start=5.0, duration=10.0),
                OutageWindow(station="db", start=10.0, duration=10.0),
            ))

    def test_rejects_window_past_horizon(self):
        with pytest.raises(ValueError, match="horizon"):
            _workload(outages=(OutageWindow(station="db", start=60.0, duration=20.0),))

    def test_rejects_unknown_station(self):
        with pytest.raises(ValueError, match="station"):
            OutageWindow(station="cache", start=0.0, duration=5.0)

    def test_spec_round_trip_preserves_outages(self):
        workload = _workload(
            outages=(OutageWindow(station="front", start=5.0, duration=2.0),)
        )
        spec = ScenarioSpec(
            name="outage-roundtrip",
            description="",
            workload=workload,
            solvers=(SolverSpec(kind="transient_ctmc"),),
        )
        clone = ScenarioSpec.from_dict(spec.to_dict())
        assert clone.workload == workload
        assert clone.hash() == spec.hash()


class TestOutageCrossValidation:
    def test_scalar_batched_and_transient_agree(self):
        segments = _outage_timeline()
        seeds = list(range(48))
        batched = simulate_timevarying_closed_map_network_batch(
            segments, warmup=0.0, seeds=seeds
        )
        scalar = [
            simulate_timevarying_closed_map_network(
                segments, warmup=0.0, rng=np.random.default_rng(seed)
            )
            for seed in seeds[:16]
        ]
        exact = solve_piecewise_transient(segments).overall()

        for name, getter in (
            ("throughput", lambda r: r.throughput),
            ("db_queue_length", lambda r: r.db_queue_length),
        ):
            sims = np.array([getter(r) for r in batched])
            stderr = sims.std(ddof=1) / np.sqrt(len(sims))
            assert abs(sims.mean() - exact[name]) < 5.0 * max(stderr, 1e-9), name
            scal = np.array([getter(r) for r in scalar])
            scal_err = scal.std(ddof=1) / np.sqrt(len(scal))
            assert abs(scal.mean() - exact[name]) < 5.0 * max(scal_err, 1e-9), name

    def test_outage_starves_throughput_during_window(self):
        segments = _outage_timeline()
        solution = solve_piecewise_transient(segments)
        down = next(s for s in solution.segments if s.label == "down").average.summary()
        healthy = next(
            s for s in solution.segments if s.label == "healthy"
        ).average.summary()
        # A down db completes nothing, so system throughput is exactly zero;
        # jobs pile up behind it (the station is "busy" holding its queue)
        # and the front drains as its output has nowhere to go.
        assert down["throughput"] == pytest.approx(0.0, abs=1e-9)
        assert down["db_queue_length"] > 4.0 * healthy["db_queue_length"]
        assert down["front_utilization"] < healthy["front_utilization"]

    def test_batch_composition_independence_with_outage(self):
        segments = _outage_timeline()
        seeds = [11, 22, 33, 44]
        together = simulate_timevarying_closed_map_network_batch(
            segments, warmup=0.0, seeds=seeds
        )
        split = simulate_timevarying_closed_map_network_batch(
            segments, warmup=0.0, seeds=seeds[:1]
        ) + simulate_timevarying_closed_map_network_batch(
            segments, warmup=0.0, seeds=seeds[1:]
        )
        assert together == split

    def test_deterministic_across_runs(self):
        segments = _outage_timeline()
        a = simulate_timevarying_closed_map_network_batch(segments, warmup=0.0, seeds=[5, 6])
        b = simulate_timevarying_closed_map_network_batch(segments, warmup=0.0, seeds=[5, 6])
        assert a == b


class TestDeadlock:
    """Tiny think time + long outage: every job ends up queued at the down db."""

    def _deadlocked_timeline(self):
        front, db = _front(), _db()
        common = dict(front=front, db=db, think_time=0.05, population=3)
        return [
            NetworkSegment(duration=5.0, label="warm", **common),
            # Long enough that all jobs pile up and the event rate hits zero.
            NetworkSegment(duration=50.0, label="dead", db_up=False, **common),
            NetworkSegment(duration=20.0, label="drain", **common),
        ]

    def test_scalar_survives_total_deadlock(self):
        result = simulate_timevarying_closed_map_network(
            self._deadlocked_timeline(), warmup=0.0, rng=np.random.default_rng(7)
        )
        dead = next(s for s in result.segments if s.label == "dead")
        # No completions while the db is down; every job ends up parked there
        # well before the 50 s window runs out.
        assert dead.throughput == pytest.approx(0.0, abs=1e-12)
        assert dead.db_queue_length > 2.5
        drain = next(s for s in result.segments if s.label == "drain")
        assert drain.throughput > 0.0

    def test_batched_survives_total_deadlock(self):
        timeline = self._deadlocked_timeline()
        seeds = list(range(12))
        batched = simulate_timevarying_closed_map_network_batch(
            timeline, warmup=0.0, seeds=seeds
        )
        assert len(batched) == len(seeds)
        for rep in batched:
            dead = next(s for s in rep.segments if s.label == "dead")
            assert dead.throughput == pytest.approx(0.0, abs=1e-12)
            assert dead.db_queue_length > 2.5
            drain = next(s for s in rep.segments if s.label == "drain")
            assert drain.throughput > 0.0

    def test_outage_ending_exactly_at_horizon(self):
        # The timeline ends while the network is fully deadlocked: both
        # entries must advance the clock to the horizon (zero total event
        # rate, nothing left to draw) and terminate deterministically.
        front, db = _front(), _db()
        common = dict(front=front, db=db, think_time=0.05, population=3)
        timeline = [
            NetworkSegment(duration=5.0, label="warm", **common),
            NetworkSegment(duration=30.0, label="dead-to-end", db_up=False, **common),
        ]
        batched = simulate_timevarying_closed_map_network_batch(
            timeline, warmup=0.0, seeds=[1, 2, 3]
        )
        again = simulate_timevarying_closed_map_network_batch(
            timeline, warmup=0.0, seeds=[1, 2, 3]
        )
        assert batched == again
        scalar = simulate_timevarying_closed_map_network(
            timeline, warmup=0.0, rng=np.random.default_rng(1)
        )
        for rep in (*batched, scalar):
            dead = next(s for s in rep.segments if s.label == "dead-to-end")
            assert dead.throughput == pytest.approx(0.0, abs=1e-12)


class TestGuardRails:
    def test_piecewise_stationary_refuses_outages(self):
        with pytest.raises(ValueError, match="no steady state"):
            solve_piecewise_stationary(_outage_timeline())

    def test_segment_effective_maps(self):
        segment = dataclasses.replace(_outage_timeline()[1])
        assert segment.has_outage
        assert not segment.effective_db().D0.any()
        assert segment.effective_front() is segment.front
