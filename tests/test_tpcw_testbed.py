"""Tests for the simulated three-tier TPC-W testbed and experiment drivers."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core import ServerMeasurement
from repro.tpcw import (
    BROWSING_MIX,
    ORDERING_MIX,
    SHOPPING_MIX,
    ContentionConfig,
    TestbedConfig,
    TPCWTestbed,
    build_model_from_testbed,
    collect_monitoring_dataset,
    run_eb_sweep,
)
from repro.tpcw.experiment import measurement_from_series


@pytest.fixture(scope="module")
def browsing_run():
    config = TestbedConfig(
        mix=BROWSING_MIX, num_ebs=60, think_time=0.5, duration=150.0, warmup=20.0, seed=42
    )
    return TPCWTestbed(config).run()


@pytest.fixture(scope="module")
def ordering_run():
    config = TestbedConfig(
        mix=ORDERING_MIX, num_ebs=60, think_time=0.5, duration=150.0, warmup=20.0, seed=42
    )
    return TPCWTestbed(config).run()


class TestTestbedBasics:
    def test_throughput_positive_and_bounded(self, browsing_run):
        # 60 EBs with 0.5 s think time can generate at most 120 requests/s.
        assert 0 < browsing_run.throughput <= 121.0

    def test_utilizations_in_range(self, browsing_run):
        assert 0.0 <= browsing_run.front_utilization <= 1.0
        assert 0.0 <= browsing_run.db_utilization <= 1.0
        assert np.all(browsing_run.front.utilization <= 1.0 + 1e-9)
        assert np.all(browsing_run.database.utilization <= 1.0 + 1e-9)

    def test_utilization_law_front(self, browsing_run):
        # U = X * D with D the mix front demand (within stochastic error).
        expected = browsing_run.throughput * BROWSING_MIX.mean_front_demand()
        assert browsing_run.front_utilization == pytest.approx(expected, rel=0.15)

    def test_monitoring_series_lengths(self, browsing_run):
        config = browsing_run.config
        assert browsing_run.front.utilization.shape[0] == int(config.duration)
        assert browsing_run.database.completions.shape[0] == int(config.duration / 5.0)

    def test_completed_transactions_consistent_with_throughput(self, browsing_run):
        expected = browsing_run.throughput * browsing_run.config.duration
        assert browsing_run.completed_transactions == pytest.approx(expected, rel=1e-6)

    def test_transaction_counts_roughly_match_mix(self, browsing_run):
        counts = browsing_run.transaction_counts
        total = sum(counts.values())
        assert counts["Home"] / total == pytest.approx(0.29, abs=0.04)
        assert counts["Best Sellers"] / total == pytest.approx(0.11, abs=0.03)

    def test_tracked_in_system_series(self, browsing_run):
        assert "Best Sellers" in browsing_run.tracked_in_system
        series = browsing_run.tracked_in_system["Best Sellers"]
        assert np.all(series >= 0)
        assert series.max() <= browsing_run.config.num_ebs

    def test_queue_lengths_bounded_by_population(self, browsing_run):
        assert browsing_run.database.queue_length.max() <= browsing_run.config.num_ebs + 1e-9
        assert browsing_run.front.queue_length.max() <= browsing_run.config.num_ebs + 1e-9

    def test_mean_response_time_positive(self, browsing_run):
        assert browsing_run.mean_response_time > 0

    def test_summary_keys(self, browsing_run):
        summary = browsing_run.summary()
        for key in ("mix", "num_ebs", "throughput", "front_utilization", "db_utilization"):
            assert key in summary

    def test_deterministic_given_seed(self):
        config = TestbedConfig(
            mix=ORDERING_MIX, num_ebs=20, think_time=0.5, duration=40.0, warmup=5.0, seed=9
        )
        first = TPCWTestbed(config).run()
        second = TPCWTestbed(config).run()
        assert first.throughput == pytest.approx(second.throughput, rel=1e-12)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TestbedConfig(mix=BROWSING_MIX, num_ebs=0)
        with pytest.raises(ValueError):
            TestbedConfig(mix=BROWSING_MIX, num_ebs=10, think_time=0.0)
        with pytest.raises(ValueError):
            TestbedConfig(mix=BROWSING_MIX, num_ebs=10, tracked_transactions=("Nope",))


    @pytest.mark.parametrize(
        "seed, expected",
        [
            (1, "95c5fb150a796f80cc074e43a133e36c301550ff1c37e2e4b8af7c8087c46a71"),
            (2, "3ce1264629b3534380f998e5b8e3ee6f28ca0cb594a2f9ec89d6c9c01203e2fa"),
        ],
    )
    def test_monitoring_series_are_pinned_bit_for_bit(self, seed, expected):
        # SHA-256 of every monitoring array of a short run, recorded from the
        # per-record window loop: the buffered binner must reproduce it.
        config = TestbedConfig(
            mix=BROWSING_MIX, num_ebs=50, duration=120.0, warmup=20.0, seed=seed
        )
        result = TPCWTestbed(config).run()
        digest = hashlib.sha256()
        for series in (result.front, result.database):
            for array in (series.utilization, series.queue_length, series.completions):
                digest.update(np.ascontiguousarray(array, dtype="<f8").tobytes())
        for name in sorted(result.tracked_in_system):
            digest.update(name.encode())
            digest.update(
                np.ascontiguousarray(result.tracked_in_system[name], dtype="<f8").tobytes()
            )
        assert digest.hexdigest() == expected


class TestMixDifferences:
    def test_ordering_mix_lighter_on_database(self, browsing_run, ordering_run):
        assert ordering_run.db_utilization < browsing_run.db_utilization

    def test_browsing_db_queue_spikier(self, browsing_run, ordering_run):
        assert (
            browsing_run.database.queue_length.max()
            > ordering_run.database.queue_length.max()
        )

    def test_disabling_contention_removes_db_bursts(self):
        quiet_config = TestbedConfig(
            mix=BROWSING_MIX,
            num_ebs=60,
            duration=150.0,
            warmup=20.0,
            seed=42,
            contention=ContentionConfig(enabled=False),
        )
        quiet = TPCWTestbed(quiet_config).run()
        assert quiet.database.queue_length.max() < 20.0
        assert quiet.contention_episodes == ()


class TestExperimentDrivers:
    def test_run_eb_sweep_shapes(self):
        points = run_eb_sweep(ORDERING_MIX, [10, 20], duration=40.0, warmup=5.0, seed=3)
        assert [p.num_ebs for p in points] == [10, 20]
        assert points[1].throughput > points[0].throughput
        assert set(points[0].summary()) >= {"num_ebs", "throughput", "front_utilization"}

    def test_measurement_from_series(self, browsing_run):
        measurement = measurement_from_series(browsing_run.database)
        assert isinstance(measurement, ServerMeasurement)
        assert measurement.period == pytest.approx(5.0)
        assert measurement.utilizations.shape == measurement.completions.shape

    def test_collect_and_build_model(self):
        # The Figure-2 estimator needs at least ~100 monitoring windows of
        # 5 s, hence the 700 s estimation run.
        dataset = collect_monitoring_dataset(
            SHOPPING_MIX, num_ebs=40, think_time=0.5, duration=700.0, warmup=25.0, seed=5
        )
        model = build_model_from_testbed(dataset, model_think_time=0.5)
        assert model.front.mean_service_time == pytest.approx(
            SHOPPING_MIX.mean_front_demand(), rel=0.25
        )
        prediction = model.predict(20)
        assert 0 < prediction.throughput <= 40.0 / 0.5
