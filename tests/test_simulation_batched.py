"""Cross-validation and seed-policy regressions of the batched simulator.

The batched kernel (:mod:`repro.simulation.batched`) claims to simulate the
same CTMC as the scalar event loop.  This suite asserts that claim three
ways on qualitatively different MAP pairs (Poisson, high-variability
renewal, strongly autocorrelated):

* **statistically** — batched and scalar replication means agree with the
  exact CTMC solution within CLT confidence bounds (the batched mean within
  a few standard errors of its own replication spread),
* **deterministically** — fixed seeds give bit-identical results across
  runs (pinned trajectory), and a replication's result is independent of
  which other replications share the batch (the property the runner's
  resume-from-partial depends on),
* **structurally** — the general CDF-table destination path and the
  branch-free order-<=2 path resolve every jump to the same outcome.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.maps import (
    map2_exponential,
    map2_from_moments_and_decay,
    map2_hyperexponential_renewal,
)
from repro.experiments.packs import load_pack
from repro.experiments.registry import get_scenario
from repro.queueing import solve_map_closed_network
from repro.simulation import (
    ClosedNetworkSimResult,
    simulate_closed_map_network,
    simulate_closed_map_network_batch,
    simulate_timevarying_closed_map_network_batch,
)
from repro.simulation.batched import _destination_scalars, _destination_table

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

    def test_batched_matches_scalar_kernel(self, pair_name):
        """The two kernels' replication means agree within joint CLT bounds."""
        front, db = MAP_PAIRS[pair_name]
        seeds = [900 + index for index in range(REPLICATIONS)]
        batched = batch(front, db, seeds)
        scalar = [
            simulate_closed_map_network(
                front, db, THINK_TIME, POPULATION, horizon=HORIZON, warmup=WARMUP,
                rng=np.random.default_rng(seed),
            )
            for seed in seeds
        ]
        for metric in METRICS:
            batched_mean, batched_err = replication_mean_and_stderr(batched, metric)
            scalar_mean, scalar_err = replication_mean_and_stderr(scalar, metric)
            tolerance = 5.0 * float(np.hypot(batched_err, scalar_err)) + 1e-3
            assert batched_mean == pytest.approx(scalar_mean, abs=tolerance), (
                f"{pair_name}.{metric}"
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

        The floats are a property of (PCG64, ``BATCH_RNG_CHUNK``,
        ``BATCH_WINDOW``, the initial-phase draws, the per-step E/U/V
        consumption order and the pairwise fold).  Update them only for a
        deliberate, documented seed-policy change.
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
                front_queue_length=1.7185355220772156,
                db_queue_length=2.2172262097956303,
                completed=5792, warmup=20.0, measured_time=180.0, events=19122,
            ),
            ClosedNetworkSimResult(
                population=20, think_time=0.5, horizon=200.0,
                throughput=31.233333333333334,
                front_utilization=0.6206235866050244,
                db_utilization=0.4702394496323113,
                front_queue_length=1.6619717543318353,
                db_queue_length=2.7946304843193785,
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
            (1717, 5157, 9.53888888888889, 0.5720326594546205, 0.8244958103269289),
            [
                ("healthy", 514, 11.422222222222222, 0.8669917565192896, 45.0),
                ("healthy/down:db", 0, 0.0, 7.697818436611999, 15.0),
                ("drain/down:db", 0, 0.0, 8.0, 15.0),
                ("drain", 1203, 11.457142857142857, 1.4725036153972688, 105.0),
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
    def test_destination_paths_identical(self, pair_name):
        """Table and branch-free destination sampling are outcome-identical.

        The kernel picks the branch-free scalars for MAP orders <= 2 and the
        CDF table otherwise; for every phase and every destination uniform
        on a fine grid (plus the exact thresholds) both resolve the jump to
        the same (marked, destination) outcome.
        """
        front, db = MAP_PAIRS[pair_name]
        table = _destination_table(front, db)
        hid_prob, mark_thresh, mark_base, hid_dest = _destination_scalars(front, db)
        KG = table.shape[0]
        grid = np.concatenate([
            np.linspace(0.0, 1.0, 20001),
            np.nextafter(1.0, 0.0),
            hid_prob, np.nextafter(hid_prob, 0.0),
            mark_thresh, np.nextafter(mark_thresh, 0.0),
        ], axis=None)
        grid = grid[grid < 1.0]
        for phase in range(KG):
            jump = (table[phase][None, :] <= grid[:, None]).sum(axis=1)
            table_marked = jump >= KG
            table_dest = jump - KG * table_marked
            hidden = grid < hid_prob[phase]
            scalar_dest = np.where(
                hidden, hid_dest[phase], mark_base[phase] + (grid >= mark_thresh[phase])
            )
            np.testing.assert_array_equal(table_marked, ~hidden)
            np.testing.assert_array_equal(table_dest, scalar_dest)

    def test_backends_agree_for_same_seed(self):
        """Batched and scalar kernels read a seed's stream the same way —
        same seed, same trajectory: equal counts, floats within a few ulps
        (the batched kernel sums pairwise, the scalar one sequentially)."""
        scalar = simulate_closed_map_network(
            self.FRONT, self.DB, 0.5, 20, horizon=200.0, warmup=20.0,
            rng=np.random.default_rng(11),
        )
        (batched,) = self.run([11])
        assert (scalar.completed, scalar.events) == (batched.completed, batched.events)
        for metric in METRICS + ("front_queue_length", "measured_time"):
            assert getattr(scalar, metric) == pytest.approx(getattr(batched, metric), rel=1e-12)


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
