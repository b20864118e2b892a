"""Tests for the sparse CTMC utilities."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sparse

from repro.queueing.ctmc import SparseGeneratorBuilder, steady_state_distribution
from repro.queueing.ctmc import _power_iteration_callable


class TestBuilder:
    def test_row_sums_zero(self):
        builder = SparseGeneratorBuilder(3)
        builder.add(0, 1, 2.0)
        builder.add(1, 2, 1.0)
        builder.add(2, 0, 0.5)
        generator = builder.build()
        assert np.allclose(np.asarray(generator.sum(axis=1)).reshape(-1), 0.0)

    def test_zero_rate_ignored(self):
        builder = SparseGeneratorBuilder(2)
        builder.add(0, 1, 0.0)
        generator = builder.build()
        assert generator.nnz == 0

    def test_duplicate_transitions_summed(self):
        builder = SparseGeneratorBuilder(2)
        builder.add(0, 1, 1.0)
        builder.add(0, 1, 2.0)
        generator = builder.build().toarray()
        assert generator[0, 1] == pytest.approx(3.0)
        assert generator[0, 0] == pytest.approx(-3.0)

    def test_self_loop_rejected(self):
        builder = SparseGeneratorBuilder(2)
        with pytest.raises(ValueError):
            builder.add(1, 1, 1.0)

    def test_out_of_range_rejected(self):
        builder = SparseGeneratorBuilder(2)
        with pytest.raises(IndexError):
            builder.add(0, 5, 1.0)

    def test_invalid_size_rejected(self):
        with pytest.raises(ValueError):
            SparseGeneratorBuilder(0)


class TestSteadyState:
    def test_two_state_chain(self):
        builder = SparseGeneratorBuilder(2)
        builder.add(0, 1, 1.0)
        builder.add(1, 0, 3.0)
        pi = steady_state_distribution(builder.build())
        assert pi[0] == pytest.approx(0.75, rel=1e-9)
        assert pi[1] == pytest.approx(0.25, rel=1e-9)

    def test_birth_death_chain_matches_mm1k(self):
        # M/M/1/K with lambda=1, mu=2, K=4: pi_n ~ (1/2)^n.
        size = 5
        builder = SparseGeneratorBuilder(size)
        for n in range(size - 1):
            builder.add(n, n + 1, 1.0)
            builder.add(n + 1, n, 2.0)
        pi = steady_state_distribution(builder.build())
        rho = 0.5
        expected = np.array([rho**n for n in range(size)])
        expected /= expected.sum()
        assert np.allclose(pi, expected, rtol=1e-8)

    def test_distribution_sums_to_one(self):
        builder = SparseGeneratorBuilder(4)
        rng = np.random.default_rng(3)
        for i in range(4):
            for j in range(4):
                if i != j:
                    builder.add(i, j, float(rng.uniform(0.1, 2.0)))
        pi = steady_state_distribution(builder.build())
        assert pi.sum() == pytest.approx(1.0, rel=1e-9)
        assert np.all(pi >= 0)

    def test_single_state(self):
        generator = sparse.csr_matrix(np.zeros((1, 1)))
        assert steady_state_distribution(generator)[0] == pytest.approx(1.0)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            steady_state_distribution(sparse.csr_matrix(np.zeros((2, 3))))

    def test_power_iteration_agrees_with_direct(self):
        builder = SparseGeneratorBuilder(3)
        builder.add(0, 1, 2.0)
        builder.add(1, 2, 1.0)
        builder.add(2, 0, 0.7)
        builder.add(1, 0, 0.3)
        generator = builder.build()
        direct = steady_state_distribution(generator)
        rate_scale = float(np.abs(generator.diagonal()).max())
        iterative = _power_iteration_callable(
            lambda pi: pi @ generator, rate_scale, 3, tol=1e-13
        )
        assert np.allclose(direct, iterative, atol=1e-6)
