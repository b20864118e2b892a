"""Tests for the trace-driven FCFS queue and the closed MAP network simulator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.maps import map2_exponential, map2_from_moments_and_decay
from repro.queueing import solve_map_closed_network
from repro.simulation import simulate_closed_map_network, simulate_mtrace1
from repro.simulation.trace_queue import simulate_gtrace1


class TestTraceQueue:
    def test_mm1_mean_response_time(self, rng):
        service = rng.exponential(1.0, 100_000)
        result = simulate_mtrace1(service, utilization=0.5, rng=rng)
        # M/M/1 with rho = 0.5 and mu = 1: E[R] = 1 / (1 - rho) = 2.
        assert result.mean_response_time == pytest.approx(2.0, rel=0.1)

    def test_md1_mean_response_time(self, rng):
        service = np.ones(100_000)
        result = simulate_mtrace1(service, utilization=0.5, rng=rng)
        # Pollaczek-Khinchin with lambda = 0.5, E[S] = 1, SCV = 0:
        # E[R] = E[S] + rho * E[S] * (1 + SCV) / (2 * (1 - rho)) = 1 + 0.5 = 1.5.
        assert result.mean_response_time == pytest.approx(1.5, rel=0.1)

    def test_utilization_estimate(self, rng):
        service = rng.exponential(1.0, 50_000)
        result = simulate_mtrace1(service, utilization=0.8, rng=rng)
        assert result.utilization == pytest.approx(0.8, rel=0.1)

    def test_higher_utilization_slower(self, rng):
        service = rng.exponential(1.0, 50_000)
        low = simulate_mtrace1(service, 0.5, np.random.default_rng(1))
        high = simulate_mtrace1(service, 0.8, np.random.default_rng(1))
        assert high.mean_response_time > low.mean_response_time

    def test_bursty_order_slower_than_shuffled(self, rng):
        """The core message of Table 1: same marginal distribution, different
        ordering, very different response times."""
        base = rng.exponential(1.0, 30_000)
        large = base > np.quantile(base, 0.85)
        bursty = np.concatenate([base[~large][:10_000], base[large], base[~large][10_000:]])
        shuffled = rng.permutation(base)
        bursty_result = simulate_mtrace1(bursty, 0.5, np.random.default_rng(2))
        shuffled_result = simulate_mtrace1(shuffled, 0.5, np.random.default_rng(2))
        assert bursty_result.mean_response_time > 3 * shuffled_result.mean_response_time
        assert bursty_result.response_time_percentile(0.95) > 3 * shuffled_result.response_time_percentile(0.95)

    def test_response_at_least_service(self, rng):
        service = rng.exponential(1.0, 1000)
        result = simulate_mtrace1(service, 0.5, rng=rng)
        assert np.all(result.response_times >= service - 1e-12)

    def test_waiting_plus_service_is_response(self, rng):
        service = rng.exponential(1.0, 1000)
        result = simulate_mtrace1(service, 0.5, rng=rng)
        assert np.allclose(result.response_times, result.waiting_times + service)

    def test_summary_keys(self, rng):
        result = simulate_mtrace1(rng.exponential(1.0, 1000), 0.5, rng=rng)
        assert set(result.summary()) == {"mean_response_time", "p95_response_time", "utilization"}

    def test_gtrace_deterministic(self):
        result = simulate_gtrace1([1.0, 1.0, 1.0], [0.0, 0.5, 0.5])
        # Job 2 waits 0.5, job 3 waits 1.0.
        assert np.allclose(result.waiting_times, [0.0, 0.5, 1.0])

    def test_invalid_utilization_rejected(self, rng):
        with pytest.raises(ValueError):
            simulate_mtrace1(rng.exponential(1.0, 100), 1.2)

    def test_percentile_bounds(self, rng):
        result = simulate_mtrace1(rng.exponential(1.0, 100), 0.5, rng=rng)
        with pytest.raises(ValueError):
            result.response_time_percentile(0.0)

    def test_negative_times_rejected(self):
        with pytest.raises(ValueError):
            simulate_gtrace1([-1.0, 1.0], [1.0, 1.0])


class TestClosedNetworkSimulator:
    def test_matches_analytic_solver_exponential(self):
        front = map2_exponential(0.02)
        database = map2_exponential(0.01)
        sim = simulate_closed_map_network(
            front, database, 0.5, 20, horizon=3000.0, warmup=200.0,
            rng=np.random.default_rng(4),
        )
        exact = solve_map_closed_network(front, database, 0.5, 20)
        assert sim.throughput == pytest.approx(exact.throughput, rel=0.05)
        assert sim.front_utilization == pytest.approx(exact.front_utilization, rel=0.1)

    def test_matches_analytic_solver_bursty(self):
        front = map2_exponential(0.02)
        database = map2_from_moments_and_decay(0.015, 8.0, 0.98)
        sim = simulate_closed_map_network(
            front, database, 0.5, 30, horizon=4000.0, warmup=300.0,
            rng=np.random.default_rng(5),
        )
        exact = solve_map_closed_network(front, database, 0.5, 30)
        assert sim.throughput == pytest.approx(exact.throughput, rel=0.07)
        assert sim.db_queue_length == pytest.approx(exact.db_queue_length, rel=0.3)

    def test_summary_keys(self):
        sim = simulate_closed_map_network(
            map2_exponential(0.05), map2_exponential(0.02), 0.5, 5,
            horizon=200.0, rng=np.random.default_rng(6),
        )
        assert "throughput" in sim.summary()
        assert sim.completed > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            simulate_closed_map_network(
                map2_exponential(1.0), map2_exponential(1.0), 0.0, 5, horizon=10.0
            )
        with pytest.raises(ValueError):
            simulate_closed_map_network(
                map2_exponential(1.0), map2_exponential(1.0), 0.5, 0, horizon=10.0
            )
        with pytest.raises(ValueError):
            simulate_closed_map_network(
                map2_exponential(1.0), map2_exponential(1.0), 0.5, 5, horizon=10.0, warmup=20.0
            )
