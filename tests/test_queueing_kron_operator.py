"""Tests for the matrix-free generator operator (`repro.queueing.kron_operator`).

Two central claims:

* the matrix-free matvecs equal the materialized CSR generator's products to
  machine precision — for arbitrary MAP orders, populations up to N=200, and
  in all three directions (``Q x``, ``Q^T x`` and the normalised balance
  matrix ``A x``);
* every level-sweep orientation of the preconditioner solves *exactly* the
  level-block-diagonal system it claims to solve.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.maps.map2 import (
    map2_exponential,
    map2_from_moments_and_decay,
    map2_hyperexponential_renewal,
)
from repro.maps.map_process import MAP
from repro.queueing.ctmc import _balance_system
from repro.queueing.kron_operator import (
    LevelSweepPreconditioner,
    MatrixFreeGenerator,
    MultilevelPreconditioner,
)
from repro.queueing.map_network import MapClosedNetworkSolver


def random_map(order: int, seed: int) -> MAP:
    """A random valid MAP of the given order (strictly positive rates)."""
    rng = np.random.default_rng(seed)
    d1 = rng.uniform(0.5, 50.0, size=(order, order))
    d0 = rng.uniform(0.1, 10.0, size=(order, order))
    np.fill_diagonal(d0, 0.0)
    np.fill_diagonal(d0, -(d0.sum(axis=1) + d1.sum(axis=1)))
    return MAP(d0, d1)


def matvec_scale(generator, x) -> float:
    return float(np.abs(generator.diagonal()).max() * np.abs(x).max())


CASES = [
    ("expo/expo", map2_exponential(0.02), map2_exponential(0.015), 0.5),
    ("expo/bursty", map2_exponential(0.02), map2_from_moments_and_decay(0.015, 4.0, 0.95), 0.5),
    ("bursty/bursty", map2_from_moments_and_decay(0.02, 8.0, 0.5),
     map2_from_moments_and_decay(0.015, 16.0, 0.99), 0.25),
    ("renewal/expo", map2_hyperexponential_renewal(0.003, 20.0), map2_exponential(0.004), 1.0),
    ("zero-think", map2_exponential(0.01), map2_exponential(0.005), 0.0),
    ("map3/map2", random_map(3, 1), random_map(2, 2), 0.4),
    ("map3/map3", random_map(3, 3), random_map(3, 4), 0.1),
]


class TestMatvecEqualsMaterialized:
    @pytest.mark.parametrize("population", [1, 2, 7])
    @pytest.mark.parametrize("name,front,db,think", CASES, ids=[c[0] for c in CASES])
    def test_matvecs_match_csr(self, name, front, db, think, population):
        solver = MapClosedNetworkSolver(front, db, think)
        space = solver.state_space(population)
        generator = solver._assembler.build(space)
        operator = solver._assembler.operator(space)
        rng = np.random.default_rng(population)
        x = rng.standard_normal(space.num_states)
        tol = 1e-13 * matvec_scale(generator, x)
        np.testing.assert_allclose(operator.q_matvec(x), generator @ x, rtol=0, atol=tol)
        np.testing.assert_allclose(operator.qt_matvec(x), generator.T @ x, rtol=0, atol=tol)

    @pytest.mark.parametrize("name,front,db,think", CASES[:3], ids=[c[0] for c in CASES[:3]])
    def test_balance_matvec_matches_balance_system(self, name, front, db, think):
        solver = MapClosedNetworkSolver(front, db, think)
        space = solver.state_space(6)
        generator = solver._assembler.build(space)
        operator = solver._assembler.operator(space)
        A, _ = _balance_system(generator)
        x = np.random.default_rng(6).standard_normal(space.num_states)
        tol = 1e-13 * matvec_scale(generator, x)
        np.testing.assert_allclose(operator.balance_matvec(x), A @ x, rtol=0, atol=tol)

    @given(
        front_seed=st.integers(min_value=0, max_value=10_000),
        db_seed=st.integers(min_value=0, max_value=10_000),
        front_order=st.sampled_from([2, 3]),
        db_order=st.sampled_from([2, 3]),
        population=st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=25, deadline=None)
    def test_matvec_property_random_maps(
        self, front_seed, db_seed, front_order, db_order, population
    ):
        front = random_map(front_order, front_seed)
        db = random_map(db_order, db_seed + 20_000)
        solver = MapClosedNetworkSolver(front, db, 0.3)
        space = solver.state_space(population)
        generator = solver._assembler.build(space)
        operator = solver._assembler.operator(space)
        x = np.random.default_rng(front_seed ^ db_seed).standard_normal(space.num_states)
        tol = 1e-13 * matvec_scale(generator, x)
        np.testing.assert_allclose(operator.qt_matvec(x), generator.T @ x, rtol=0, atol=tol)

    def test_matvec_equality_at_n200(self):
        """The acceptance-criterion scale: 81k states, bursty MAP(2)s."""
        front = map2_from_moments_and_decay(0.02, 4.0, 0.5)
        db = map2_from_moments_and_decay(0.015, 4.0, 0.95)
        solver = MapClosedNetworkSolver(front, db, 0.5)
        space = solver.state_space(200)
        generator = solver._assembler.build(space)
        operator = solver._assembler.operator(space)
        x = np.random.default_rng(200).standard_normal(space.num_states)
        tol = 1e-13 * matvec_scale(generator, x)
        np.testing.assert_allclose(operator.qt_matvec(x), generator.T @ x, rtol=0, atol=tol)
        np.testing.assert_allclose(operator.q_matvec(x), generator @ x, rtol=0, atol=tol)

    def test_from_maps_matches_assembler_operator(self):
        front, db, think = CASES[1][1], CASES[1][2], 0.5
        solver = MapClosedNetworkSolver(front, db, think)
        space = solver.state_space(4)
        x = np.random.default_rng(4).standard_normal(space.num_states)
        via_assembler = solver._assembler.operator(space)
        direct = MatrixFreeGenerator.from_maps(front, db, think, space)
        np.testing.assert_array_equal(direct.qt_matvec(x), via_assembler.qt_matvec(x))

    def test_rejects_mismatched_space(self):
        from repro.queueing.kron import NetworkStateSpace

        with pytest.raises(ValueError):
            MatrixFreeGenerator.from_maps(
                map2_exponential(1.0), map2_exponential(1.0), 0.5,
                NetworkStateSpace(2, 3, 3),
            )

    def test_materialized_nnz_is_exact(self):
        for name, front, db, think in CASES[:4]:
            solver = MapClosedNetworkSolver(front, db, think)
            space = solver.state_space(5)
            generator = solver._assembler.build(space)
            operator = solver._assembler.operator(space)
            generator.eliminate_zeros()
            assert operator.materialized_nnz() == generator.nnz, name
            assert operator.materialized_bytes_estimate() > 0

    def test_rate_scale_matches_generator_diagonal(self):
        front, db = CASES[2][1], CASES[2][2]
        solver = MapClosedNetworkSolver(front, db, 0.25)
        space = solver.state_space(6)
        generator = solver._assembler.build(space)
        operator = solver._assembler.operator(space)
        assert operator.rate_scale == pytest.approx(
            float(np.abs(generator.diagonal()).max()), rel=1e-12
        )


class TestLevelSweepPreconditioner:
    """Each sweep orientation exactly solves its level-block-diagonal system."""

    @pytest.fixture(scope="class")
    def setup(self):
        front = map2_from_moments_and_decay(0.02, 4.0, 0.5)
        db = map2_from_moments_and_decay(0.015, 4.0, 0.95)
        solver = MapClosedNetworkSolver(front, db, 0.5)
        space = solver.state_space(12)
        generator = solver._assembler.build(space)
        operator = solver._assembler.operator(space)
        A, _ = _balance_system(generator)
        return space, operator, A.toarray(), generator

    def _masked_reference(self, space, dense, level_of_block, drop_last_row_couplings):
        """Level-block-diagonal of the balance matrix, as the sweeps define it."""
        K = space.block_size
        level = np.repeat(level_of_block, K)
        masked = np.where(level[:, None] == level[None, :], dense, 0.0)
        if drop_last_row_couplings:
            # These orientations keep the normalisation row only within the
            # final phase block (the sweeps solve per-block rows).
            masked[-1, :] = 0.0
            masked[-1, -K:] = 1.0
        return masked

    @pytest.mark.parametrize("mode,drop", [("nf", False), ("ndb", True), ("front", True)])
    def test_sweep_solves_level_diagonal_exactly(self, setup, mode, drop):
        space, operator, dense, _ = setup
        levels = {
            "nf": space.block_n_front,
            "ndb": space.block_n_db,
            "front": space.block_n_front + space.block_n_db,
        }[mode]
        reference = self._masked_reference(space, dense, levels, drop)
        r = np.random.default_rng(7).standard_normal(space.num_states)
        sweeps = LevelSweepPreconditioner(operator)
        sweep = getattr(sweeps, f"_solve_levels_{mode}")
        r_blocks = r.reshape(-1, space.block_size)
        solved = sweep(r_blocks, np.empty_like(r_blocks)).reshape(-1)
        expected = np.linalg.solve(reference, r)
        np.testing.assert_allclose(solved, expected, rtol=1e-10, atol=1e-12 * np.abs(expected).max())

    def test_two_level_preconditioned_solve_matches_direct(self, setup):
        """The production preconditioner must carry a Krylov solve to the
        same steady state the materialized direct solve produces."""
        from repro.queueing.ctmc import steady_state_distribution, steady_state_matrix_free

        space, operator, _, generator = setup
        direct = steady_state_distribution(generator)
        matrix_free = steady_state_matrix_free(operator)
        np.testing.assert_allclose(matrix_free, direct, rtol=1e-6, atol=1e-12)

    def test_linear_operator_view(self, setup):
        space, operator, _, _ = setup
        preconditioner = operator.preconditioner()
        assert isinstance(preconditioner, MultilevelPreconditioner)
        r = np.random.default_rng(10).standard_normal(space.num_states)
        np.testing.assert_array_equal(
            preconditioner.as_linear_operator() @ r, preconditioner.solve(r)
        )
