"""Byte-identity of the row-slice matrix-free operator against gather/scatter.

The matrix-free matvecs add every transition family back with contiguous
row slices, and the sweeps read the diagonal-block inverses from a table of
the distinct blocks.  Both are reorganisations of the same arithmetic, so
the results must equal — byte for byte — those of the historical code, which
gathered and scattered blocks through per-family index arrays and inverted
every diagonal block on its own.  That code is kept below as the reference.

One known exception: at population 1 every family has a single source
block, and the reference's one-row gathers went through numpy's
matrix-vector path instead of the matrix-matrix one, so those products may
differ in the last bits; population 1 is compared to ``1e-14 * rate_scale``
(with ``|x| <= 1``) instead.

The end-to-end pins hash every non-timing field of forced matrix-free solves;
the digests were recorded with the gather/scatter operator.
"""

from __future__ import annotations

import hashlib
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.maps.map2 import map2_from_moments_and_decay
from repro.maps.map_process import MAP
from repro.queueing.map_network import MapClosedNetworkSolver


def random_map(order: int, seed: int, hidden: bool) -> MAP:
    """A random valid MAP; ``hidden=False`` leaves ``D0`` diagonal."""
    rng = np.random.default_rng(seed)
    d1 = rng.uniform(0.5, 50.0, size=(order, order))
    d0 = rng.uniform(0.1, 10.0, size=(order, order)) if hidden else np.zeros((order, order))
    np.fill_diagonal(d0, 0.0)
    np.fill_diagonal(d0, -(d0.sum(axis=1) + d1.sum(axis=1)))
    return MAP(d0, d1)


# ----------------------------------------------------------------------
# Reference: the gather/scatter operator the row-slice one replaced.
# ----------------------------------------------------------------------
class GatherScatterReference:
    def __init__(self, operator) -> None:
        space = operator.space
        self.space = space
        eye_front = np.eye(space.k_front)
        eye_db = np.eye(space.k_db)
        self.front_completion = np.kron(operator.d1_front, eye_db)
        self.front_hidden = np.kron(operator.hidden_front, eye_db)
        self.db_completion = np.kron(eye_front, operator.d1_db)
        self.db_hidden = np.kron(eye_front, operator.hidden_db)
        self.has_front_hidden = bool(self.front_hidden.any())
        self.has_db_hidden = bool(self.db_hidden.any())

        offsets = space.block_offset
        n_front = space.block_n_front
        n_db = space.block_n_db
        blocks = np.arange(space.num_blocks)
        thinking = space.population - n_front - n_db
        self.think_src = blocks[thinking > 0]
        self.think_dest = offsets[n_front[self.think_src] + 1] + n_db[self.think_src]
        self.think_rates = thinking[self.think_src] * operator.think_rate
        self.front_src = blocks[n_front > 0]
        self.front_dest = offsets[n_front[self.front_src] - 1] + n_db[self.front_src] + 1
        self.db_src = blocks[n_db > 0]
        self.db_dest = self.db_src - 1

        front_exit = (operator.d1_front + operator.hidden_front).sum(axis=1)
        db_exit = (operator.d1_db + operator.hidden_db).sum(axis=1)
        K = space.block_size
        exit_rate = np.multiply.outer(thinking * operator.think_rate, np.ones(K))
        exit_rate[self.front_src] += np.repeat(front_exit, space.k_db)[None, :]
        exit_rate[self.db_src] += np.tile(db_exit, space.k_front)[None, :]
        self.exit_rate = exit_rate

    def _blocks(self, x):
        space = self.space
        return np.asarray(x, dtype=float).reshape(space.num_blocks, space.block_size)

    def q_matvec(self, x):
        xb = self._blocks(x)
        yb = -self.exit_rate * xb
        yb[self.think_src] += self.think_rates[:, None] * xb[self.think_dest]
        yb[self.front_src] += xb[self.front_dest] @ self.front_completion.T
        if self.has_front_hidden:
            yb[self.front_src] += xb[self.front_src] @ self.front_hidden.T
        yb[self.db_src] += xb[self.db_dest] @ self.db_completion.T
        if self.has_db_hidden:
            yb[self.db_src] += xb[self.db_src] @ self.db_hidden.T
        return yb.reshape(-1)

    def qt_matvec(self, x):
        xb = self._blocks(x)
        yb = -self.exit_rate * xb
        yb[self.think_dest] += self.think_rates[:, None] * xb[self.think_src]
        yb[self.front_dest] += xb[self.front_src] @ self.front_completion
        if self.has_front_hidden:
            yb[self.front_src] += xb[self.front_src] @ self.front_hidden
        yb[self.db_dest] += xb[self.db_src] @ self.db_completion
        if self.has_db_hidden:
            yb[self.db_src] += xb[self.db_src] @ self.db_hidden
        return yb.reshape(-1)

    def balance_matvec(self, x):
        y = self.qt_matvec(x)
        y[-1] = float(np.asarray(x).sum())
        return y

    def diagonal_block_inverses(self):
        space = self.space
        K = space.block_size
        gate = (space.block_n_front > 0).astype(np.intp) * 2 + (
            space.block_n_db > 0
        ).astype(np.intp)
        variants = np.stack(
            [
                np.zeros((K, K)),
                self.db_hidden.T,
                self.front_hidden.T,
                (self.front_hidden + self.db_hidden).T,
            ]
        )
        diagonal_blocks = variants[gate]
        local = np.arange(K)
        diagonal_blocks[:, local, local] -= self.exit_rate
        diagonal_blocks[-1, K - 1, :] = 1.0
        return np.linalg.inv(diagonal_blocks)


def assert_same(actual, expected, population, rate_scale):
    if population == 1:
        np.testing.assert_allclose(actual, expected, rtol=0, atol=1e-14 * rate_scale)
    else:
        assert actual.tobytes() == expected.tobytes()


# ----------------------------------------------------------------------
# Matvecs
# ----------------------------------------------------------------------
@given(
    population=st.integers(min_value=0, max_value=60),
    k_front=st.integers(min_value=1, max_value=3),
    k_db=st.integers(min_value=1, max_value=3),
    front_hidden=st.booleans(),
    db_hidden=st.booleans(),
    think_time=st.sampled_from([0.0, 0.05, 0.7]),
    seed=st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=60, deadline=None)
def test_matvecs_byte_identical_to_gather_scatter(
    population, k_front, k_db, front_hidden, db_hidden, think_time, seed
):
    front = random_map(k_front, seed, front_hidden)
    db = random_map(k_db, seed + 1, db_hidden)
    solver = MapClosedNetworkSolver(front, db, think_time)
    operator = solver._assembler.operator(solver.state_space(population))
    reference = GatherScatterReference(operator)
    x = np.random.default_rng(seed).uniform(-1.0, 1.0, operator.num_states)
    for name in ("q_matvec", "qt_matvec", "balance_matvec"):
        assert_same(
            getattr(operator, name)(x), getattr(reference, name)(x),
            population, operator.rate_scale,
        )


# ----------------------------------------------------------------------
# Inverse table
# ----------------------------------------------------------------------
MAP_SET = [
    ("1x2-hidden", random_map(1, 11, False), random_map(2, 12, True), 0.4),
    ("2x3-hidden", random_map(2, 13, True), random_map(3, 14, True), 0.1),
    ("3x1-no-hidden", random_map(3, 15, False), random_map(1, 16, False), 1.0),
    ("2x2-zero-think", random_map(2, 17, True), random_map(2, 18, False), 0.0),
    ("3x2-hidden", random_map(3, 19, True), random_map(2, 20, True), 0.05),
]


@pytest.mark.parametrize("population", [1, 2, 5, 17, 60])
@pytest.mark.parametrize("name,front,db,think", MAP_SET, ids=[m[0] for m in MAP_SET])
def test_inverse_table_byte_identical(name, front, db, think, population):
    solver = MapClosedNetworkSolver(front, db, think)
    operator = solver._assembler.operator(solver.state_space(population))
    table, kind = operator.diagonal_block_inverses()
    assert table.shape[0] <= 4 * (population + 1) + 1
    expected = GatherScatterReference(operator).diagonal_block_inverses()
    assert table[kind].tobytes() == expected.tobytes()


# ----------------------------------------------------------------------
# End-to-end pins
# ----------------------------------------------------------------------
TIMING_FIELDS = {"precond_setup_seconds", "solver_attempts"}


def result_digest(result) -> str:
    parts = [
        f"{f.name}={getattr(result, f.name)!r}"
        for f in fields(result)
        if f.name not in TIMING_FIELDS
    ]
    attempts = [
        (a["strategy"], a["iterations"], a["accepted"]) for a in result.solver_attempts
    ]
    parts.append(f"attempts={attempts!r}")
    return hashlib.sha256(";".join(parts).encode()).hexdigest()


@pytest.mark.parametrize(
    "population,digest",
    [
        (40, "c9be424baa7d07c6ce10c9326da52023fe13e489928024aebbd591f6125c5f6c"),
        (120, "bf07273ede7cc0c76e8b699c321aaaa0a327086642db838303ecddfedd007ba9"),
    ],
)
def test_matrix_free_solve_pinned(population, digest):
    solver = MapClosedNetworkSolver(
        map2_from_moments_and_decay(0.02, 2.0, 0.5),
        map2_from_moments_and_decay(0.015, 4.0, 0.9),
        0.5,
    )
    result = solver.solve(population, tier="matrix_free")
    assert result.solver_tier == "matrix_free"
    assert result_digest(result) == digest
