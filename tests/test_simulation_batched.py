"""Cross-validation and seed-policy regressions of the replication-set
entries of the closed-network simulator.

The replication-set entries (:mod:`repro.simulation.batched`,
:func:`~repro.simulation.timevarying.simulate_timevarying_closed_map_network_batch`)
run the one simulation kernel once per seed.  This suite checks them on
qualitatively different MAP pairs (Poisson, high-variability renewal,
strongly autocorrelated) and on random networks and timelines:

* **statistically** — replication means agree with the exact CTMC solution
  within CLT confidence bounds,
* **deterministically** — fixed seeds give bit-identical results across
  runs (pinned trajectories), and each seed's result ``==`` the per-seed
  entry's on ``default_rng(seed)``, whatever other seeds share the set (the
  property the runner's resume-from-partial depends on),
* **structurally** — the jump CDF table resolves each outcome with exactly
  the MAP's jump probability.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.maps import (
    MAP,
    map2_exponential,
    map2_from_moments_and_decay,
    map2_hyperexponential_renewal,
)
from repro.experiments.packs import load_pack
from repro.experiments.registry import get_scenario
from repro.queueing import solve_map_closed_network
from repro.queueing.transient import NetworkSegment
from repro.simulation import (
    BATCH_RNG_CHUNK,
    ClosedNetworkSimResult,
    simulate_closed_map_network,
    simulate_closed_map_network_batch,
    simulate_timevarying_closed_map_network,
    simulate_timevarying_closed_map_network_batch,
)
from repro.simulation.closed_network import _destination_table, _jump_probabilities

REPO_ROOT = Path(__file__).resolve().parent.parent

THINK_TIME = 0.5
POPULATION = 3
HORIZON = 1200.0
WARMUP = 150.0
REPLICATIONS = 24

#: Three qualitatively different service-MAP pairs (>= 3 per the issue).
MAP_PAIRS = {
    "poisson": (map2_exponential(0.1), map2_exponential(0.15)),
    "high_scv_renewal": (map2_hyperexponential_renewal(0.1, 4.0), map2_exponential(0.15)),
    "both_bursty": (
        map2_from_moments_and_decay(0.1, 3.0, 0.8),
        map2_from_moments_and_decay(0.15, 6.0, 0.9),
    ),
}

METRICS = ("throughput", "front_utilization", "db_utilization", "db_queue_length")


def batch(front, db, seeds, **kwargs):
    return simulate_closed_map_network_batch(
        front, db, THINK_TIME, kwargs.pop("population", POPULATION),
        horizon=kwargs.pop("horizon", HORIZON),
        warmup=kwargs.pop("warmup", WARMUP),
        seeds=seeds,
        **kwargs,
    )


def replication_mean_and_stderr(results, metric):
    values = np.array([getattr(result, metric) for result in results])
    return float(values.mean()), float(values.std(ddof=1) / np.sqrt(len(values)))


@pytest.mark.parametrize("pair_name", sorted(MAP_PAIRS))
class TestStatisticalCrossValidation:
    def test_batched_matches_exact_ctmc(self, pair_name):
        """Batched replication means sit within CLT bounds of the CTMC.

        Tolerance is ``5 x`` the replication standard error plus a small
        absolute floor — loose enough that a correct kernel fails with
        probability ~1e-6 per metric, tight enough that a biased estimator
        (wrong warmup accounting, mis-weighted areas) fails immediately.
        """
        front, db = MAP_PAIRS[pair_name]
        exact = solve_map_closed_network(front, db, THINK_TIME, POPULATION)
        seeds = [sum(pair_name.encode()) + index for index in range(REPLICATIONS)]
        results = batch(front, db, seeds)
        for metric in METRICS:
            mean, stderr = replication_mean_and_stderr(results, metric)
            tolerance = 5.0 * stderr + 1e-3
            assert mean == pytest.approx(getattr(exact, metric), abs=tolerance), (
                f"{pair_name}.{metric}: batched {mean:.5f} +- {stderr:.5f} vs "
                f"exact {getattr(exact, metric):.5f}"
            )


class TestSeedPolicy:
    FRONT = map2_exponential(0.02)
    DB = map2_from_moments_and_decay(0.015, 4.0, 0.95)

    def run(self, seeds, **kwargs):
        return simulate_closed_map_network_batch(
            self.FRONT, self.DB, 0.5, 20,
            horizon=kwargs.pop("horizon", 200.0),
            warmup=kwargs.pop("warmup", 20.0),
            seeds=seeds,
            **kwargs,
        )

    @pytest.mark.parametrize("pair_name", sorted(MAP_PAIRS))
    def test_batch_equals_per_seed_runs(self, pair_name):
        """Each seed of a long set gives the per-seed entry's result, bit for bit."""
        front, db = MAP_PAIRS[pair_name]
        seeds = [900 + index for index in range(REPLICATIONS)]
        per_seed = [
            simulate_closed_map_network(
                front, db, THINK_TIME, POPULATION, horizon=HORIZON, warmup=WARMUP,
                rng=np.random.default_rng(seed),
            )
            for seed in seeds
        ]
        assert batch(front, db, seeds) == per_seed

    def test_backends_agree_for_same_seed(self):
        """The per-seed entry on ``default_rng(seed)`` and the set entry read
        the seed's stream the same way: same seed, same result, bit for bit."""
        single = simulate_closed_map_network(
            self.FRONT, self.DB, 0.5, 20, horizon=200.0, warmup=20.0,
            rng=np.random.default_rng(11),
        )
        assert self.run([11]) == [single]

    def test_fixed_seeds_bit_identical_across_runs(self):
        assert self.run([3, 4, 5]) == self.run([3, 4, 5])

    def test_different_seeds_differ(self):
        first, second = self.run([3, 4])
        assert first != second

    def test_batch_composition_independence(self):
        """A replication's result depends on its seed alone, not the batch.

        This is the property that makes runner resume-from-partial
        bit-identical: the unfinished replications of a killed run are
        re-batched in whatever combination remains.
        """
        full = self.run([11, 12, 13, 14])
        assert self.run([12]) == [full[1]]
        assert self.run([14, 12]) == [full[3], full[1]]

    def test_pinned_trajectory(self):
        """Pin one seeded batch bit for bit; fails on any ulp drift.

        The floats are a property of (PCG64, ``BATCH_RNG_CHUNK``, the
        initial-phase draws, the per-step E/U/V consumption order and the
        time-ordered sums).  Update them only for a deliberate, documented
        seed-policy change.
        """
        result = self.run([11, 12, 13, 14])
        assert [r.completed for r in result] == [5792, 5622, 5461, 5707]
        assert [r.events for r in result] == [19122, 18311, 18312, 18898]
        assert result[:2] == [
            ClosedNetworkSimResult(
                population=20, think_time=0.5, horizon=200.0,
                throughput=32.17777777777778,
                front_utilization=0.642184603795076,
                db_utilization=0.43217917815073853,
                front_queue_length=1.718535522077216,
                db_queue_length=2.2172262097956312,
                completed=5792, warmup=20.0, measured_time=180.0, events=19122,
            ),
            ClosedNetworkSimResult(
                population=20, think_time=0.5, horizon=200.0,
                throughput=31.233333333333334,
                front_utilization=0.6206235866050244,
                db_utilization=0.4702394496323113,
                front_queue_length=1.6619717543318353,
                db_queue_length=2.7946304843193825,
                completed=5622, warmup=20.0, measured_time=180.0, events=18311,
            ),
        ]

    #: (overall completed, events, throughput, db_utilization,
    #: front_queue_length) and per-segment (label, completed, throughput,
    #: db_queue_length, measured_time) of seed 3 — bit for bit.
    PINNED_TIMELINES = {
        "smoke_tv": (
            lambda: get_scenario("smoke_tv"),
            (583, 1844, 6.136842105263158, 0.2127115121744279, 0.42371536595450565),
            [
                ("base", 224, 6.3999999999999995, 0.2543955362280415, 35.0),
                ("surge", 224, 11.200000000000001, 1.1557497522910676, 20.0),
                ("cooldown", 135, 3.375, 0.14562589520205, 40.0),
            ],
        ),
        # an outage pack: the database is down while every job queues at it
        # (the deadlock path of the kernel)
        "server_outage": (
            lambda: load_pack(REPO_ROOT / "scenarios" / "server_outage.json"),
            (1717, 5157, 9.53888888888889, 0.5720326594546205, 0.8244958103269286),
            [
                ("healthy", 514, 11.422222222222222, 0.8669917565192896, 45.0),
                ("healthy/down:db", 0, 0.0, 7.697818436611999, 15.0),
                ("drain/down:db", 0, 0.0, 8.0, 15.0),
                ("drain", 1203, 11.457142857142857, 1.472503615397269, 105.0),
            ],
        ),
    }

    @pytest.mark.parametrize("name", sorted(PINNED_TIMELINES))
    def test_pinned_timeline_trajectory(self, name):
        """Timelines run through the same kernel; pin them bit for bit too."""
        load, overall, segments = self.PINNED_TIMELINES[name]
        spec = load()
        (solver,) = [s for s in spec.solvers if s.kind == "simulation"]
        result = simulate_timevarying_closed_map_network_batch(
            spec.workload.resolved_segments(),
            warmup=float(solver.options.get("warmup", 0.0)),
            seeds=[3, 4],
        )[0]
        assert (
            result.completed, result.events, result.throughput,
            result.db_utilization, result.front_queue_length,
        ) == overall
        assert [
            (s.label, s.completed, s.throughput, s.db_queue_length, s.measured_time)
            for s in result.segments
        ] == segments

    def test_chunk_size_unchanged(self):
        from repro.simulation.batched import BATCH_RNG_CHUNK

        assert BATCH_RNG_CHUNK == 4096

    @pytest.mark.parametrize("pair_name", sorted(MAP_PAIRS))
    def test_destination_table_widths(self, pair_name):
        """Each outcome's uniform interval is as wide as its jump probability.

        A destination uniform ``v`` resolves to ``bisect_right(row, v)``, so
        outcome ``j`` owns ``[row[j-1], row[j])``.  Hidden outcomes encode
        ``D0``'s off-diagonal jumps, marked outcomes ``D1``'s, each into the
        owning server's phase range; the last real outcome is open-ended.
        """
        front, db = MAP_PAIRS[pair_name]
        table = _destination_table(front, db)
        KG = table.shape[0]
        for map_process, offset in ((front, 0), (db, front.order)):
            hidden_p, marked_p = _jump_probabilities(map_process)
            order = map_process.order
            for phase in range(order):
                expected = np.zeros(2 * KG)
                expected[offset:offset + order] = hidden_p[phase]
                expected[KG + offset:KG + offset + order] = marked_p[phase]
                row = np.minimum(table[offset + phase], 1.0)
                widths = np.diff(row, prepend=0.0)
                np.testing.assert_allclose(widths, expected, rtol=0, atol=1e-12)


#: Strategies of the replication-set property tests.
orders = st.integers(min_value=1, max_value=3)
seed_sets = st.lists(st.integers(min_value=0, max_value=2**32 - 1), min_size=1, max_size=3)
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


def random_map(rng: np.random.Generator, order: int, scale: float) -> MAP:
    """A random irreducible MAP of ``order`` phases (fixed-example helper)."""
    D0 = rng.uniform(0.0, 4.0, (order, order)) / scale
    D1 = rng.uniform(0.1, 4.0, (order, order)) / scale
    np.fill_diagonal(D0, 0.0)
    np.fill_diagonal(D0, -(D0.sum(axis=1) + D1.sum(axis=1)))
    return MAP(D0, D1)


def assert_timeline_set_equals_per_seed(segments, warmup, seeds):
    """The timeline set entry gives, per seed, the per-seed entry's result."""
    per_seed = [
        simulate_timevarying_closed_map_network(
            segments, warmup=warmup, rng=np.random.default_rng(seed)
        )
        for seed in seeds
    ]
    results = simulate_timevarying_closed_map_network_batch(
        segments, warmup=warmup, seeds=seeds
    )
    assert results == per_seed
    return results


class TestReplicationSets:
    """Both replication-set entries equal the per-seed entries, seed by seed.

    Random networks draw MAP orders 1 to 3, populations 1 to 40 and warmups
    anywhere below the horizon; random timelines add population drops,
    regime switches and outages.  Drawn examples tend to be short runs; the
    fixed long runs cross several ``BATCH_RNG_CHUNK`` refills for every mix
    of MAP orders.
    """

    @given(
        front_order=orders, db_order=orders, data=st.data(), think_time=think_times,
        population=populations, horizon=st.floats(min_value=1.0, max_value=40.0),
        warmup_fraction=warmup_fractions, seeds=seed_sets,
    )
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_static_network(
        self, front_order, db_order, data, think_time, population, horizon,
        warmup_fraction, seeds,
    ):
        front = data.draw(service_maps(front_order))
        db = data.draw(service_maps(db_order))
        warmup = warmup_fraction * horizon
        per_seed = [
            simulate_closed_map_network(
                front, db, think_time, population, horizon=horizon, warmup=warmup,
                rng=np.random.default_rng(seed),
            )
            for seed in seeds
        ]
        assert simulate_closed_map_network_batch(
            front, db, think_time, population, horizon=horizon, warmup=warmup,
            seeds=seeds,
        ) == per_seed

    @given(segments=timelines(), warmup_fraction=warmup_fractions, seeds=seed_sets)
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_timeline(self, segments, warmup_fraction, seeds):
        horizon = sum(segment.duration for segment in segments)
        assert_timeline_set_equals_per_seed(segments, warmup_fraction * horizon, seeds)

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
        seed = front_order + db_order
        (result,) = assert_timeline_set_equals_per_seed(segments, 10.0, [seed])
        assert result.events > 3 * BATCH_RNG_CHUNK

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
        (result,) = assert_timeline_set_equals_per_seed(segments, 1.0, [seed])
        final = result.segments[-1]
        assert final.completed == 0
        assert final.db_queue_length == pytest.approx(6.0, rel=0.05)


class TestValidation:
    FRONT = map2_exponential(0.1)
    DB = map2_exponential(0.15)

    def test_rejects_empty_seeds(self):
        with pytest.raises(ValueError, match="seeds"):
            simulate_closed_map_network_batch(
                self.FRONT, self.DB, 0.5, 1, horizon=10.0, seeds=[]
            )

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError, match="think_time"):
            simulate_closed_map_network_batch(
                self.FRONT, self.DB, 0.0, 1, horizon=10.0, seeds=[1]
            )
        with pytest.raises(ValueError, match="population"):
            simulate_closed_map_network_batch(
                self.FRONT, self.DB, 0.5, 0, horizon=10.0, seeds=[1]
            )
        with pytest.raises(ValueError, match="horizon"):
            simulate_closed_map_network_batch(
                self.FRONT, self.DB, 0.5, 1, horizon=5.0, warmup=5.0, seeds=[1]
            )

    def test_measurement_window_tiles_exactly(self):
        results = simulate_closed_map_network_batch(
            self.FRONT, self.DB, 0.5, 2, horizon=100.0, warmup=25.0, seeds=[1, 2]
        )
        for result in results:
            assert result.measured_time == pytest.approx(75.0, abs=1e-9)
            assert result.front_utilization <= 1.0 + 1e-12
            assert 0 <= result.front_queue_length <= 2.0 + 1e-12
