"""Solver-tier selection, the ``tier=`` override, fallbacks and agreement.

Pins which steady-state tier is chosen at representative state-space sizes,
covers the ``tier=`` override the README documents for debugging, asserts
that strategy and tier fallbacks are logged at WARNING, that a power
iteration which fails validation raises instead of being accepted, that the
solver's entry points return equal metrics, and cross-validates the
matrix-free tier against the materialized ones on real networks.
"""

from __future__ import annotations

import logging

import numpy as np
import pytest

from repro.maps.map2 import map2_exponential, map2_from_moments_and_decay
from repro.queueing import ctmc
from repro.queueing.ctmc import (
    DIRECT_SOLVE_STATE_LIMIT,
    MATERIALIZED_STATE_LIMIT,
    SolveStats,
    SteadyStateError,
    choose_solver_tier,
    steady_state_distribution,
    steady_state_matrix_free,
)
from repro.queueing.map_network import MapClosedNetworkSolver
from repro.queueing.transient import NetworkSegment, solve_piecewise_stationary


@pytest.fixture()
def solver():
    front = map2_exponential(0.02)
    db = map2_from_moments_and_decay(0.015, 4.0, 0.95)
    return MapClosedNetworkSolver(front, db, 0.5)


class TestTierSelection:
    """Regression-pins the size thresholds the README documents."""

    @pytest.mark.parametrize(
        "num_states,expected",
        [
            (1, "direct"),
            (DIRECT_SOLVE_STATE_LIMIT, "direct"),
            (DIRECT_SOLVE_STATE_LIMIT + 1, "ilu_krylov"),
            (100_000, "ilu_krylov"),       # ~N=220 with MAP(2) service
            (503_004, "ilu_krylov"),       # N=500, the materialized headline
            (MATERIALIZED_STATE_LIMIT + 1, "matrix_free"),
            (2_006_004, "matrix_free"),    # N=1000
            (4_509_004, "matrix_free"),    # N=1500
        ],
    )
    def test_size_based_selection(self, num_states, expected):
        assert choose_solver_tier(num_states) == expected

    def test_keyword_override_beats_size(self):
        assert choose_solver_tier(10, override="matrix_free") == "matrix_free"
        assert choose_solver_tier(10_000_000, override="direct") == "direct"

    def test_unknown_tier_rejected(self):
        with pytest.raises(ValueError):
            choose_solver_tier(10, override="quantum")
        # "auto" is not a tier: leaving the override out is the default.
        with pytest.raises(ValueError):
            choose_solver_tier(10, override="auto")

    def test_environment_does_not_force_a_tier(self, monkeypatch):
        """``tier=`` is the only override; no environment variable is read."""
        monkeypatch.setenv("REPRO_SOLVER_TIER", "ilu_krylov")
        assert choose_solver_tier(10) == "direct"


class TestCrossTierAgreement:
    def test_result_records_tier(self, solver):
        result = solver.solve(4)
        assert result.solver_tier == "direct"
        forced = solver.solve(4, tier="matrix_free")
        assert forced.solver_tier == "matrix_free"
        # solver_tier is provenance, not content: results still compare equal.
        assert result.population == forced.population

    @pytest.mark.parametrize("population", [3, 25])
    def test_matrix_free_matches_direct(self, solver, population):
        reference = solver.solve(population)
        forced = solver.solve(population, tier="matrix_free")
        assert forced.throughput == pytest.approx(reference.throughput, rel=1e-7)
        assert forced.db_queue_length == pytest.approx(
            reference.db_queue_length, rel=1e-6, abs=1e-9
        )
        assert forced.front_utilization == pytest.approx(
            reference.front_utilization, rel=1e-7
        )

    def test_ilu_matches_direct(self, solver):
        reference = solver.solve(20)
        forced = solver.solve(20, tier="ilu_krylov")
        assert forced.solver_tier == "ilu_krylov"
        assert forced.throughput == pytest.approx(reference.throughput, rel=1e-8)

    def test_sweep_honours_forced_tier_and_matches(self, solver):
        sweep = solver.solve_sweep([4, 8], tier="matrix_free")
        assert [r.solver_tier for r in sweep] == ["matrix_free", "matrix_free"]
        for result in sweep:
            reference = solver.solve(result.population)
            assert result.throughput == pytest.approx(reference.throughput, rel=1e-7)

    def test_steady_state_matrix_free_single_state(self):
        from repro.maps.map_process import MAP
        from repro.queueing.kron import NetworkStateSpace
        from repro.queueing.kron_operator import MatrixFreeGenerator

        poisson = MAP([[-2.0]], [[2.0]])
        operator = MatrixFreeGenerator.from_maps(
            poisson, poisson, 0.5, NetworkStateSpace(0, 1, 1)
        )
        np.testing.assert_array_equal(steady_state_matrix_free(operator), [1.0])


class TestFallbacksAreLogged:
    def test_matrix_free_krylov_fallback_warns(self, solver, caplog, monkeypatch):
        """A failing BiCGSTAB must log and fall through to GMRES."""

        def boom(*args, **kwargs):
            raise RuntimeError("synthetic bicgstab failure")

        monkeypatch.setattr(ctmc, "_matrix_free_bicgstab", boom)
        with caplog.at_level(logging.WARNING, logger="repro.queueing.ctmc"):
            result = solver.solve(4, tier="matrix_free")
        assert result.solver_tier == "matrix_free"
        assert any("bicgstab" in record.message for record in caplog.records)
        reference = solver.solve(4)
        assert result.throughput == pytest.approx(reference.throughput, rel=1e-7)

    def test_matrix_free_tier_failure_falls_back_to_materialized(
        self, solver, caplog, monkeypatch
    ):
        """If the whole matrix-free solve raises, the materialized tier runs."""
        from repro.queueing import map_network

        def boom(*args, **kwargs):
            raise RuntimeError("synthetic operator failure")

        monkeypatch.setattr(map_network, "steady_state_matrix_free", boom)
        with caplog.at_level(logging.WARNING, logger="repro.queueing.map_network"):
            result = solver.solve(4, tier="matrix_free")
        assert result.solver_tier == "ilu_krylov"
        assert any("falling back" in record.message for record in caplog.records)
        reference = solver.solve(4)
        assert result.throughput == pytest.approx(reference.throughput, rel=1e-8)

    def test_preconditioner_setup_failure_warns_and_recovers(
        self, solver, caplog, monkeypatch
    ):
        """An unusable preconditioner downgrades to unpreconditioned Krylov."""
        from repro.queueing import kron_operator

        def boom(self):
            raise RuntimeError("synthetic preconditioner failure")

        monkeypatch.setattr(kron_operator.MatrixFreeGenerator, "preconditioner", boom)
        with caplog.at_level(logging.WARNING, logger="repro.queueing.ctmc"):
            result = solver.solve(3, tier="matrix_free")
        assert any("preconditioner setup failed" in r.message for r in caplog.records)
        reference = solver.solve(3)
        assert result.throughput == pytest.approx(reference.throughput, rel=1e-6)


def _fail_linear_solvers(monkeypatch):
    """Make every strategy but power iteration raise, in both entry points."""

    def boom(*args, **kwargs):
        raise RuntimeError("synthetic linear-solver failure")

    for name in ("_direct_solve", "_ilu_krylov_solve", "_matrix_free_bicgstab",
                 "_matrix_free_gmres"):
        monkeypatch.setattr(ctmc, name, boom)


class TestPowerLastResort:
    """Power iteration ends every tier's list and is validated like the rest."""

    def test_power_accepted_in_both_tiers(self, solver, monkeypatch):
        generator = solver._build_generator(4)
        reference = steady_state_distribution(generator)
        operator = solver._assembler.operator(solver.state_space(4))
        _fail_linear_solvers(monkeypatch)

        stats = SolveStats()
        distribution = steady_state_distribution(generator, stats=stats)
        assert [(a.strategy, a.accepted) for a in stats.attempts] == [
            ("direct", False), ("ilu_krylov", False), ("power", True),
        ]
        np.testing.assert_allclose(distribution, reference, atol=1e-9)

        free_stats = SolveStats()
        free = steady_state_matrix_free(operator, stats=free_stats)
        assert [(a.strategy, a.accepted) for a in free_stats.attempts] == [
            ("bicgstab", False), ("gmres", False), ("power", True),
        ]
        assert free_stats.attempts[-1].iterations is None
        np.testing.assert_allclose(free, reference, atol=1e-9)

    def test_unconverged_power_raises_steady_state_error(self, solver, monkeypatch):
        operator = solver._assembler.operator(solver.state_space(6))
        _fail_linear_solvers(monkeypatch)
        monkeypatch.setattr(ctmc, "_POWER_MAX_ITERATIONS", 3)
        stats = SolveStats()
        with pytest.raises(SteadyStateError, match=f"{operator.num_states} states"):
            steady_state_matrix_free(operator, stats=stats)
        assert [(a.strategy, a.accepted) for a in stats.attempts] == [
            ("bicgstab", False), ("gmres", False), ("power", False),
        ]

    def test_materialized_power_failure_raises(self, solver, monkeypatch):
        generator = solver._build_generator(5)
        _fail_linear_solvers(monkeypatch)
        monkeypatch.setattr(ctmc, "_POWER_MAX_ITERATIONS", 2)
        stats = SolveStats()
        with pytest.raises(SteadyStateError, match="residual"):
            steady_state_distribution(generator, tier="ilu_krylov", stats=stats)
        assert [a.strategy for a in stats.attempts] == ["ilu_krylov", "direct", "power"]
        assert not any(a.accepted for a in stats.attempts)

    def test_steady_state_error_is_a_runtime_error(self, solver, caplog, monkeypatch):
        """A failed matrix-free tier still falls back to the materialized one."""

        def boom(*args, **kwargs):
            raise RuntimeError("synthetic Krylov failure")

        for name in ("_matrix_free_bicgstab", "_matrix_free_gmres"):
            monkeypatch.setattr(ctmc, name, boom)
        monkeypatch.setattr(ctmc, "_POWER_MAX_ITERATIONS", 2)
        with caplog.at_level(logging.WARNING):
            result = solver.solve(4, tier="matrix_free")
        assert result.solver_tier == "ilu_krylov"
        assert [a["strategy"] for a in result.solver_attempts] == [
            "bicgstab", "gmres", "power", "ilu_krylov",
        ]
        assert result.solver_attempts[-1]["accepted"] is True
        assert any("SteadyStateError" in record.message for record in caplog.records)


class TestEntryPointsAgree:
    """``solve``, ``solve_sweep`` and a one-segment piecewise solve share one
    per-population solve, so their metrics compare equal."""

    @pytest.mark.parametrize("tier", [None, "direct", "ilu_krylov", "matrix_free"])
    @pytest.mark.parametrize("population", [6, 45])
    def test_solve_sweep_and_piecewise_equal(self, solver, tier, population):
        single = solver.solve(population, tier=tier)
        swept = solver.solve_sweep([population], tier=tier)[0]
        segment = NetworkSegment(
            10.0, solver.front_service, solver.db_service, solver.think_time,
            population,
        )
        piecewise = solve_piecewise_stationary([segment], tier=tier)[0]
        assert single == swept == piecewise
        assert single.solver_tier == swept.solver_tier == piecewise.solver_tier
        assert single.krylov_iterations == piecewise.krylov_iterations
        _, distribution, result = solver.solve_distribution(population, tier=tier)
        assert result == single
        assert single.throughput == solver.metrics_from_distribution(
            solver.state_space(population), distribution
        ).throughput


class TestSolveDiagnostics:
    """Results carry iteration counts, setup time and per-attempt timings."""

    def test_ilu_records_iterations_and_attempts(self, solver):
        result = solver.solve(20, tier="ilu_krylov")
        assert result.krylov_iterations >= 1
        assert result.precond_setup_seconds >= 0.0
        assert result.solver_attempts
        accepted = result.solver_attempts[-1]
        assert accepted["accepted"] is True
        assert accepted["iterations"] == result.krylov_iterations
        assert accepted["seconds"] >= 0.0

    def test_matrix_free_records_iterations(self, solver):
        result = solver.solve(20, tier="matrix_free")
        assert result.krylov_iterations >= 1
        assert result.precond_setup_seconds >= 0.0
        assert result.solver_attempts[-1]["strategy"] == "bicgstab"

    def test_direct_has_no_iterations(self, solver):
        result = solver.solve(4)
        assert result.solver_tier == "direct"
        assert result.krylov_iterations is None
        assert result.solver_attempts[-1]["strategy"] == "direct"

    def test_diagnostics_do_not_affect_equality(self, solver):
        # Diagnostics are provenance, not content (compare=False fields).
        first = solver.solve(20, tier="ilu_krylov")
        second = solver.solve(20, tier="direct")
        assert first.population == second.population
        assert first.throughput == pytest.approx(second.throughput, rel=1e-8)

