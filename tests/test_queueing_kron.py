"""Tests for the Kronecker-structured CTMC assembly (`repro.queueing.kron`).

The central claim: the vectorised assembly produces a sparse generator that
is *bit-identical* — same CSR structure, same floating-point values — to the
retained naive per-state builder, for any service MAPs and population.
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
from repro.queueing.kron import KronGeneratorAssembler, NetworkStateSpace, remap_distribution
from repro.queueing.map_network import MapClosedNetworkSolver


def assert_identical_sparse(left, right):
    """Exact (bit-level) equality of two CSR matrices."""
    left = left.tocsr().copy()
    right = right.tocsr().copy()
    left.sort_indices()
    right.sort_indices()
    assert left.shape == right.shape
    assert np.array_equal(left.indptr, right.indptr)
    assert np.array_equal(left.indices, right.indices)
    assert np.array_equal(left.data, right.data)


class TestStateSpace:
    @pytest.mark.parametrize("population,k_front,k_db", [(0, 1, 1), (1, 2, 2), (4, 1, 2), (6, 3, 2)])
    def test_matches_dict_enumeration(self, population, k_front, k_db):
        space = NetworkStateSpace(population, k_front, k_db)
        expected = []
        for n_front in range(population + 1):
            for n_db in range(population + 1 - n_front):
                for phase_front in range(k_front):
                    for phase_db in range(k_db):
                        expected.append((n_front, n_db, phase_front, phase_db))
        assert space.num_states == len(expected)
        n_front, n_db, phase_front, phase_db = space.state_arrays()
        actual = list(zip(n_front.tolist(), n_db.tolist(), phase_front.tolist(), phase_db.tolist()))
        assert actual == expected
        # state_index inverts the enumeration.
        for state_id, state in enumerate(expected):
            assert space.state_index(*state) == state_id

    def test_block_count(self):
        space = NetworkStateSpace(10, 2, 3)
        assert space.num_blocks == 11 * 12 // 2
        assert space.num_states == space.num_blocks * 6

    def test_rejects_bad_orders(self):
        with pytest.raises(ValueError):
            NetworkStateSpace(1, 0, 1)
        with pytest.raises(ValueError):
            NetworkStateSpace(-1, 1, 1)


class TestKroneckerEqualsNaive:
    CASES = [
        ("expo/expo", map2_exponential(0.02), map2_exponential(0.015), 0.5),
        ("expo/bursty", map2_exponential(0.02), map2_from_moments_and_decay(0.015, 4.0, 0.95), 0.5),
        ("bursty/bursty", map2_from_moments_and_decay(0.02, 8.0, 0.5),
         map2_from_moments_and_decay(0.015, 16.0, 0.99), 0.25),
        ("renewal/expo", map2_hyperexponential_renewal(0.003, 20.0), map2_exponential(0.004), 1.0),
        ("zero-think", map2_exponential(0.01), map2_exponential(0.005), 0.0),
    ]

    @pytest.mark.parametrize("population", [1, 2, 5])
    @pytest.mark.parametrize("name,front,db,think", CASES, ids=[c[0] for c in CASES])
    def test_bit_identical_generators(self, name, front, db, think, population):
        solver = MapClosedNetworkSolver(front, db, think)
        assert_identical_sparse(
            solver._build_generator(population), solver._build_generator_naive(population)
        )

    @given(
        scv=st.floats(min_value=1.0, max_value=50.0),
        decay=st.floats(min_value=0.0, max_value=0.999),
        population=st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=25, deadline=None)
    def test_bit_identical_generators_property(self, scv, decay, population):
        front = map2_exponential(0.02)
        db = map2_from_moments_and_decay(0.015, scv, decay)
        solver = MapClosedNetworkSolver(front, db, 0.5)
        assert_identical_sparse(
            solver._build_generator(population), solver._build_generator_naive(population)
        )

    def test_assembler_rejects_mismatched_space(self):
        assembler = KronGeneratorAssembler(map2_exponential(1.0), map2_exponential(1.0), 0.5)
        with pytest.raises(ValueError):
            assembler.build(NetworkStateSpace(2, 2, 2))


class TestSweepWarmStart:
    @pytest.fixture(scope="class")
    def solver(self):
        front = map2_exponential(0.004)
        db = map2_from_moments_and_decay(0.003, 10.0, 0.99)
        return MapClosedNetworkSolver(front, db, 0.5)

    def test_sweep_deterministic(self, solver):
        first = solver.solve_sweep([4, 8, 12])
        second = solver.solve_sweep([4, 8, 12])
        assert first == second

    def test_sweep_matches_individual_solves(self, solver):
        sweep = solver.solve_sweep([4, 8, 12])
        for result in sweep:
            individual = solver.solve(result.population)
            assert result.throughput == pytest.approx(individual.throughput, abs=1e-8, rel=1e-8)
            assert result.db_queue_length == pytest.approx(
                individual.db_queue_length, abs=1e-8, rel=1e-8
            )

    def test_sweep_order_irrelevant_and_duplicates_preserved(self, solver):
        ascending = solver.solve_sweep([4, 8, 12])
        shuffled = solver.solve_sweep([12, 4, 8, 4])
        assert [r.population for r in shuffled] == [12, 4, 8, 4]
        by_population = {r.population: r for r in ascending}
        for result in shuffled:
            assert result == by_population[result.population]

    def test_sweep_rejects_invalid_population(self, solver):
        with pytest.raises(ValueError):
            solver.solve_sweep([4, 0])


class TestEmbedDistribution:
    """:func:`remap_distribution` embedding a steady state into a neighbouring
    population's space: the warm start of population sweeps."""

    def test_identity_embedding(self):
        space = NetworkStateSpace(3, 1, 2)
        distribution = np.random.default_rng(0).dirichlet(np.ones(space.num_states))
        embedded = remap_distribution(space, distribution, space)
        assert np.allclose(embedded, distribution)

    @pytest.mark.parametrize("orders", [(1, 2), (2, 2), (2, 3)])
    @pytest.mark.parametrize("populations", [(1, 2), (2, 4), (7, 30), (30, 31)])
    def test_grow_preserves_mass_on_shared_blocks(self, orders, populations):
        """Growing a sweep's population keeps every block's probabilities
        verbatim (states new to the larger space get zero)."""
        small = NetworkStateSpace(populations[0], *orders)
        large = NetworkStateSpace(populations[1], *orders)
        distribution = np.random.default_rng(1).dirichlet(np.ones(small.num_states))
        embedded = remap_distribution(small, distribution, large)
        assert embedded.sum() == pytest.approx(1.0)
        n_front, n_db, phase_front, phase_db = small.state_arrays()
        shared = large.state_index(n_front, n_db, phase_front, phase_db)
        np.testing.assert_allclose(embedded[shared], distribution, rtol=1e-14, atol=0)
        large_front, large_db, _, _ = large.state_arrays()
        assert embedded[large_front + large_db > populations[0]].sum() == 0.0

    def test_shrink_renormalises(self):
        large = NetworkStateSpace(4, 2, 1)
        small = NetworkStateSpace(2, 2, 1)
        distribution = np.random.default_rng(2).dirichlet(np.ones(large.num_states))
        embedded = remap_distribution(large, distribution, small)
        assert embedded.shape == (small.num_states,)
        assert embedded.sum() == pytest.approx(1.0)

    def test_mismatched_orders_rejected(self):
        with pytest.raises(ValueError):
            remap_distribution(
                NetworkStateSpace(2, 1, 2), np.ones(12), NetworkStateSpace(2, 2, 2)
            )
