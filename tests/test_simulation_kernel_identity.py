"""The scalar and batched simulation kernels agree draw for draw.

Both kernels read a replication's generator under the one seed policy of
:mod:`repro.simulation.batched`, so for the same seed they follow the same
jump-chain trajectory.  These property tests draw random networks — MAP
orders 1 to 3 (order 3 takes the batched kernel's CDF-table destination
path), populations 1 to 40, warmups anywhere below the horizon — and random
timelines with population drops, regime switches and outages, and check:

* integer fields (completions, events) are equal,
* float fields, overall and per segment, agree within ``rel 1e-12`` (the
  batched kernel sums pairwise, the scalar one sequentially).

Drawn examples tend to be short runs; fixed long runs cross several
``BATCH_RNG_CHUNK`` refills for every mix of MAP orders.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.maps import MAP, map2_exponential, map2_from_moments_and_decay
from repro.queueing.transient import NetworkSegment
from repro.simulation import (
    BATCH_RNG_CHUNK,
    simulate_closed_map_network,
    simulate_closed_map_network_batch,
    simulate_timevarying_closed_map_network,
    simulate_timevarying_closed_map_network_batch,
)

REL = 1e-12

orders = st.integers(min_value=1, max_value=3)
seeds = st.integers(min_value=0, max_value=2**32 - 1)
populations = st.integers(min_value=1, max_value=40)
think_times = st.floats(min_value=0.05, max_value=2.0)
#: mostly up: an outage in every other segment would deadlock most runs early
station_up = st.sampled_from([True, True, True, False])
warmup_fractions = st.floats(min_value=0.0, max_value=0.99)


@st.composite
def service_maps(draw, order: int) -> MAP:
    """A random irreducible MAP of ``order`` phases, mean rate order 1-100."""
    scale = draw(st.floats(min_value=0.2, max_value=2.0))
    rate = st.floats(min_value=0.0, max_value=4.0)
    hidden = np.array(draw(st.lists(rate, min_size=order * order, max_size=order * order)))
    marked = np.array(
        draw(st.lists(st.floats(min_value=0.1, max_value=4.0),
                      min_size=order * order, max_size=order * order))
    )
    D0 = hidden.reshape(order, order) / scale
    D1 = marked.reshape(order, order) / scale
    np.fill_diagonal(D0, 0.0)
    np.fill_diagonal(D0, -(D0.sum(axis=1) + D1.sum(axis=1)))
    return MAP(D0, D1)


@st.composite
def timelines(draw) -> list[NetworkSegment]:
    """1-4 segments: regime switches, population changes, outages."""
    front_order, db_order = draw(orders), draw(orders)
    front, db = draw(service_maps(front_order)), draw(service_maps(db_order))
    segments = []
    for index in range(draw(st.integers(min_value=1, max_value=4))):
        if draw(st.booleans()):
            front = draw(service_maps(front_order))
        if draw(st.booleans()):
            db = draw(service_maps(db_order))
        segments.append(NetworkSegment(
            duration=draw(st.floats(min_value=0.5, max_value=20.0)),
            front=front,
            db=db,
            think_time=draw(think_times),
            population=draw(populations),
            label=f"s{index}",
            front_up=draw(station_up),
            db_up=draw(station_up),
        ))
    return segments


def assert_agree(scalar, batched) -> None:
    """Integer fields equal, float fields within ``REL``, recursively."""
    assert type(scalar) is type(batched)
    for field in dataclasses.fields(scalar):
        a, b = getattr(scalar, field.name), getattr(batched, field.name)
        if isinstance(a, float):
            assert a == pytest.approx(b, rel=REL, abs=0.0), field.name
        elif isinstance(a, tuple):
            assert len(a) == len(b)
            for x, y in zip(a, b):
                assert_agree(x, y)
        else:
            assert a == b, field.name


def random_map(rng: np.random.Generator, order: int, scale: float) -> MAP:
    """A random irreducible MAP of ``order`` phases (fixed-example helper)."""
    D0 = rng.uniform(0.0, 4.0, (order, order)) / scale
    D1 = rng.uniform(0.1, 4.0, (order, order)) / scale
    np.fill_diagonal(D0, 0.0)
    np.fill_diagonal(D0, -(D0.sum(axis=1) + D1.sum(axis=1)))
    return MAP(D0, D1)


def run_both_timeline(segments, warmup, seed):
    scalar = simulate_timevarying_closed_map_network(
        segments, warmup=warmup, rng=np.random.default_rng(seed)
    )
    (batched,) = simulate_timevarying_closed_map_network_batch(
        segments, warmup=warmup, seeds=[seed]
    )
    return scalar, batched


class TestStaticNetworks:
    @given(
        front_order=orders, db_order=orders, data=st.data(), think_time=think_times,
        population=populations, horizon=st.floats(min_value=1.0, max_value=40.0),
        warmup_fraction=warmup_fractions, seed=seeds,
    )
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_scalar_equals_batched(
        self, front_order, db_order, data, think_time, population, horizon,
        warmup_fraction, seed,
    ):
        front = data.draw(service_maps(front_order))
        db = data.draw(service_maps(db_order))
        warmup = warmup_fraction * horizon
        scalar = simulate_closed_map_network(
            front, db, think_time, population, horizon=horizon, warmup=warmup,
            rng=np.random.default_rng(seed),
        )
        (batched,) = simulate_closed_map_network_batch(
            front, db, think_time, population, horizon=horizon, warmup=warmup,
            seeds=[seed],
        )
        assert_agree(scalar, batched)


class TestTimelines:
    @given(segments=timelines(), warmup_fraction=warmup_fractions, seed=seeds)
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_scalar_equals_batched(self, segments, warmup_fraction, seed):
        horizon = sum(segment.duration for segment in segments)
        scalar, batched = run_both_timeline(segments, warmup_fraction * horizon, seed)
        assert_agree(scalar, batched)

    @pytest.mark.parametrize("front_order,db_order", [(1, 3), (2, 2), (3, 2), (3, 3)])
    def test_long_timeline_crosses_refills(self, front_order, db_order):
        """Regime switches and a population drop over many refills."""
        rng = np.random.default_rng(10 * front_order + db_order)
        segments = []
        for index, (duration, population) in enumerate([(30.0, 30), (30.0, 12), (30.0, 25)]):
            segments.append(NetworkSegment(
                duration,
                random_map(rng, front_order, 0.05),
                random_map(rng, db_order, 0.06),
                0.2,
                population,
                label=f"regime{index}",
            ))
        scalar, batched = run_both_timeline(segments, 10.0, front_order + db_order)
        assert scalar.events > 3 * BATCH_RNG_CHUNK
        assert_agree(scalar, batched)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_deadlock_up_to_the_horizon(self, seed):
        """The database goes down for good: every job ends up queued at it,
        the front is empty, and the run is deadlocked up to the horizon."""
        front = map2_exponential(0.05)
        db = map2_from_moments_and_decay(0.04, 4.0, 0.9)
        segments = [
            NetworkSegment(5.0, front, db, 0.5, 8, label="healthy"),
            NetworkSegment(3.0, front, db, 0.5, 4, label="drop/down:db", db_up=False),
            NetworkSegment(4.0, front, db, 0.5, 6, label="recover"),
            NetworkSegment(60.0, front, db, 0.5, 6, label="down:db", db_up=False),
        ]
        scalar, batched = run_both_timeline(segments, 1.0, seed)
        assert_agree(scalar, batched)
        final = scalar.segments[-1]
        assert final.completed == 0
        assert final.db_queue_length == pytest.approx(6.0, rel=0.05)
