"""Tests for the recursive lattice hierarchy (`repro.queueing.multilevel`).

Three central claims:

* the family-wise level-1 Galerkin product of :func:`coarse_balance_matrix`
  equals the dense reference ``P^T A P`` (with the coarse normalisation
  surgery re-applied) to machine precision — the fine balance matrix is
  never formed in production, so this is the only place the algebra is
  checked against first principles;
* the hierarchy coarsens ~4x per level and stops at the direct-solve
  threshold, independent of the population;
* one cycle is an exact linear, deterministic operator — the property that
  lets the enclosing preconditioner stay fixed across Krylov iterations.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.maps.map2 import map2_exponential, map2_from_moments_and_decay
from repro.queueing.ctmc import _balance_system
from repro.queueing.kron_operator import (
    MatrixFreeGenerator,
    MultilevelPreconditioner,
)
from repro.queueing.map_network import MapClosedNetworkSolver
from repro.queueing.multilevel import (
    COARSEST_UNKNOWNS,
    CYCLE_GAMMA,
    LatticeHierarchy,
    coarse_balance_matrix,
    lattice_aggregates,
    tentative_prolongation,
)


@pytest.fixture()
def solver():
    front = map2_from_moments_and_decay(0.02, 4.0, 0.5)
    db = map2_from_moments_and_decay(0.015, 4.0, 0.95)
    return MapClosedNetworkSolver(front, db, 0.5)


def fine_operator(solver, population):
    return solver._assembler.operator(solver.state_space(population))


class TestLatticeAggregates:
    @pytest.mark.parametrize("population", [1, 2, 7, 12, 30])
    def test_partition_and_lex_order(self, solver, population):
        space = solver.state_space(population)
        aggregate_of, coarse_front, coarse_db = lattice_aggregates(
            space.block_n_front, space.block_n_db
        )
        # Every block lands in exactly one aggregate; ids are dense.
        assert aggregate_of.shape == space.block_n_front.shape
        assert set(np.unique(aggregate_of)) == set(range(coarse_front.size))
        # Aggregates are the (nf // 2, ndb // 2) cells...
        np.testing.assert_array_equal(
            coarse_front[aggregate_of], space.block_n_front // 2
        )
        np.testing.assert_array_equal(coarse_db[aggregate_of], space.block_n_db // 2)
        # ...numbered lexicographically, same nf-major order as the fine
        # enumeration, so the last aggregate holds the last fine block
        # (population, 0) — whose final phase row is the normalisation row.
        order = np.lexsort((coarse_db, coarse_front))
        np.testing.assert_array_equal(order, np.arange(coarse_front.size))
        assert aggregate_of[-1] == coarse_front.size - 1

    def test_recoarsening_terminates_at_a_point(self):
        front = np.array([0, 0, 1, 1, 2, 2])
        db = np.array([0, 1, 0, 1, 0, 1])
        for _ in range(10):
            aggregate_of, front, db = lattice_aggregates(front, db)
            if front.size == 1:
                break
        assert front.size == 1 and db.size == 1


class TestTentativeProlongation:
    def test_partition_of_unity_per_phase(self, solver):
        space = solver.state_space(9)
        aggregate_of, coarse_front, _ = lattice_aggregates(
            space.block_n_front, space.block_n_db
        )
        K = space.block_size
        P = tentative_prolongation(aggregate_of, K, coarse_front.size)
        assert P.shape == (space.num_states, coarse_front.size * K)
        dense = P.toarray()
        # One unit entry per fine state: prolongation copies the coarse
        # value, restriction sums aggregate members per phase.
        assert np.count_nonzero(dense) == space.num_states
        np.testing.assert_array_equal(dense.sum(axis=1), 1.0)
        # Phase structure: fine state (block, phase) maps to coarse phase.
        rows, cols = dense.nonzero()
        np.testing.assert_array_equal(rows % K, cols % K)


class TestCoarseBalanceMatrix:
    @pytest.mark.parametrize("population", [7, 12])
    @pytest.mark.parametrize(
        "front,db,think",
        [
            (map2_from_moments_and_decay(0.02, 4.0, 0.5),
             map2_from_moments_and_decay(0.015, 4.0, 0.95), 0.5),
            (map2_exponential(0.02), map2_exponential(0.015), 0.0),
        ],
        ids=["bursty", "expo-zero-think"],
    )
    def test_matches_dense_galerkin_product(self, front, db, think, population):
        solver = MapClosedNetworkSolver(front, db, think)
        space = solver.state_space(population)
        operator = fine_operator(solver, population)
        aggregate_of, coarse_front, _ = lattice_aggregates(
            space.block_n_front, space.block_n_db
        )
        K = space.block_size
        coarse = coarse_balance_matrix(operator, aggregate_of, coarse_front.size)

        # Dense reference: P^T Q^T P with the normalisation surgery
        # re-applied at the coarse level (mask the last row, write P^T 1).
        generator = solver._build_generator(population)
        P = tentative_prolongation(aggregate_of, K, coarse_front.size).toarray()
        reference = P.T @ generator.toarray().T @ P
        reference[-1, :] = P.sum(axis=0)

        scale = np.abs(reference).max()
        assert np.abs(coarse.toarray() - reference).max() <= 1e-13 * scale


class TestLatticeHierarchy:
    def test_single_level_below_threshold(self, solver):
        hierarchy = LatticeHierarchy(fine_operator(solver, 30))
        # 30 jobs -> 544 level-1 unknowns: straight to the direct solve.
        assert hierarchy.num_levels == 1
        assert hierarchy.level_sizes[0] <= COARSEST_UNKNOWNS
        assert hierarchy.level_sizes[0] == hierarchy.prolongation.shape[1]

    def test_depth_grows_with_population(self, solver):
        hierarchy = LatticeHierarchy(fine_operator(solver, 200))
        assert hierarchy.level_sizes == [20604, 5304, 1404]
        ratios = [
            hierarchy.level_sizes[i] / hierarchy.level_sizes[i + 1]
            for i in range(len(hierarchy.level_sizes) - 1)
        ]
        assert all(3.0 < ratio < 5.0 for ratio in ratios)
        assert hierarchy.level_sizes[-1] <= COARSEST_UNKNOWNS

    def test_cycle_is_linear_and_deterministic(self, solver):
        hierarchy = LatticeHierarchy(fine_operator(solver, 40))
        rng = np.random.default_rng(7)
        r1 = rng.standard_normal(solver.state_space(40).num_states)
        r2 = rng.standard_normal(r1.size)
        combined = hierarchy.solve(2.0 * r1 - 3.0 * r2)
        separate = 2.0 * hierarchy.solve(r1) - 3.0 * hierarchy.solve(r2)
        np.testing.assert_allclose(combined, separate, rtol=1e-9, atol=1e-12)
        np.testing.assert_array_equal(hierarchy.solve(r1), hierarchy.solve(r1))

    def test_default_cycle_is_w(self, solver):
        hierarchy = LatticeHierarchy(fine_operator(solver, 30))
        assert CYCLE_GAMMA == 2
        assert hierarchy.gamma == CYCLE_GAMMA

    def test_v_cycle_knob(self, solver):
        # N=200 is deep enough (3 levels) that the cycle shape matters; a
        # single-level hierarchy is a direct solve either way.
        operator = fine_operator(solver, 200)
        w = LatticeHierarchy(operator)
        v = LatticeHierarchy(operator, gamma=1)
        assert w.num_levels >= 2
        rng = np.random.default_rng(11)
        residual = rng.standard_normal(operator.num_states)
        # Both cycles are valid coarse corrections but do different work.
        assert v.gamma == 1
        assert not np.array_equal(w.solve(residual), v.solve(residual))


class TestMultilevelPreconditionedSolve:
    def test_matches_direct_reference(self, solver):
        reference = solver.solve(25)
        forced = solver.solve(25, tier="matrix_free")
        assert forced.throughput == pytest.approx(reference.throughput, rel=1e-7)

    def test_hierarchy_is_exposed(self, solver):
        operator = fine_operator(solver, 30)
        preconditioner = operator.preconditioner()
        assert isinstance(preconditioner, MultilevelPreconditioner)
        assert preconditioner.hierarchy.num_levels >= 1
