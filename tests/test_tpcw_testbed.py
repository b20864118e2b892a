"""Tests for the simulated three-tier TPC-W testbed and experiment drivers."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core import ServerMeasurement
from repro.queueing import mva_closed_network
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

    @pytest.mark.parametrize(
        "config, expected",
        [
            (
                TestbedConfig(mix=BROWSING_MIX, num_ebs=50, duration=120.0, warmup=20.0, seed=1),
                "da91846505215fc0fffe20477fd638594162e4396db533c2a7b86b72eab59eb8",
            ),
            (
                TestbedConfig(mix=BROWSING_MIX, num_ebs=50, duration=120.0, warmup=20.0, seed=2),
                "5009ed26074e09a9581c01f333bfdcc681b6dcafce37fe892341a23cc0173292",
            ),
            (
                TestbedConfig(
                    mix=SHOPPING_MIX,
                    num_ebs=50,
                    duration=120.0,
                    warmup=20.0,
                    cbmg_stickiness=0.3,
                    seed=3,
                ),
                "0f61186f12bfb44c11026a2fb3be99bb53127c90fcab6b1b0d2eda9ea92b808a",
            ),
            (
                TestbedConfig(
                    mix=BROWSING_MIX,
                    num_ebs=50,
                    duration=120.0,
                    warmup=13.0,
                    utilization_window=0.5,
                    completion_window=2.5,
                    seed=4,
                ),
                "6d2653010d90fed878264984f1699d2870409fc81b9113e97b57167bc3e10052",
            ),
            (
                TestbedConfig(
                    mix=ORDERING_MIX,
                    num_ebs=50,
                    duration=120.0,
                    warmup=20.0,
                    contention=ContentionConfig(enabled=False),
                    seed=5,
                ),
                "120d888fa38a6ced24bc5f7fbb4f5513d341a05a5dbedfe654dc457991b41376",
            ),
        ],
        ids=["browsing-1", "browsing-2", "shopping-sticky", "browsing-windows", "ordering-quiet"],
    )
    def test_every_result_field_is_pinned_bit_for_bit(self, config, expected):
        # SHA-256 over every TestbedResult field of a short run, recorded from
        # the event loop built on a PS-server class and per-event record calls.
        assert _result_digest(TPCWTestbed(config).run()) == expected


def _result_digest(result) -> str:
    digest = hashlib.sha256()

    def scalar(value) -> None:
        digest.update(float(value).hex().encode() + b";")

    def vector(values) -> None:
        values = np.ascontiguousarray(values, dtype="<f8")
        digest.update(str(values.size).encode() + b":" + values.tobytes())

    for value in (result.throughput, result.completed_transactions, result.mean_response_time):
        scalar(value)
    for name in sorted(result.transaction_counts):
        digest.update(f"{name}={result.transaction_counts[name]};".encode())
    digest.update(str(len(result.contention_episodes)).encode() + b":")
    for start, end in result.contention_episodes:
        scalar(start)
        scalar(end)
    for series in (result.front, result.database):
        digest.update(series.name.encode() + b";")
        scalar(series.utilization_window)
        scalar(series.completion_window)
        for values in (series.utilization, series.queue_length, series.completions):
            vector(values)
    for name in sorted(result.tracked_in_system):
        digest.update(name.encode() + b";")
        vector(result.tracked_in_system[name])
    return digest.hexdigest()


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


class TestClosedNetworkInvariant:
    """With contention off the testbed is a closed BCMP network.

    Two processor-sharing stations and a delay station, with the transaction
    type drawn afresh at every think end: one chain with class switching, so
    its throughput is exact MVA on the mix-average demands.
    """

    @pytest.mark.parametrize("num_ebs", [10, 50, 120])
    @pytest.mark.parametrize("mix", [BROWSING_MIX, ORDERING_MIX], ids=["browsing", "ordering"])
    def test_throughput_and_utilization_match_mva(self, mix, num_ebs):
        demands = (mix.mean_front_demand(), mix.mean_db_demand())
        runs = [
            TPCWTestbed(
                TestbedConfig(
                    mix=mix,
                    num_ebs=num_ebs,
                    think_time=0.5,
                    duration=1000.0,
                    warmup=20.0,
                    contention=ContentionConfig(enabled=False),
                    tracked_transactions=(),
                    seed=seed,
                )
            ).run()
            for seed in range(4)
        ]
        throughput = np.mean([run.throughput for run in runs])
        exact = mva_closed_network(demands, 0.5, num_ebs).throughput_at(num_ebs)
        assert throughput == pytest.approx(exact, rel=0.02)
        front = np.mean([run.front_utilization for run in runs])
        database = np.mean([run.db_utilization for run in runs])
        assert front == pytest.approx(throughput * demands[0], rel=0.02)
        assert database == pytest.approx(throughput * demands[1], rel=0.02)


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
