"""Kronecker-structured CTMC assembly for the closed MAP queueing network.

The network's state is ``(n_front, n_db, phase_front, phase_db)`` with
``n_front + n_db <= N``.  All states sharing one ``(n_front, n_db)`` pair form
a *phase block* of ``K = K_front * K_db`` states, and every transition family
of the network acts on whole blocks at once as a Kronecker product of a MAP
matrix slice with an identity:

=====================  ==============================  =====================
family                 local block-to-block rates      block displacement
=====================  ==============================  =====================
think completion       ``rate * I_K``                  ``(+1,  0)``
front completion       ``D1_front (x) I_{K_db}``       ``(-1, +1)``
front hidden jump      ``offdiag(D0_front) (x) I``     ``( 0,  0)``
db completion          ``I_{K_front} (x) D1_db``       ``( 0, -1)``
db hidden jump         ``I (x) offdiag(D0_db)``        ``( 0,  0)``
=====================  ==============================  =====================

:class:`NetworkStateSpace` enumerates the lattice of blocks with pure array
arithmetic (no per-state Python, no dict index) and
:class:`KronGeneratorAssembler` broadcasts the five families over all blocks
to emit the generator's COO triplets in a handful of numpy operations.  The
resulting matrix is *bit-identical* to the historical per-state builder (the
enumeration order and every floating-point rate expression are preserved),
which the test-suite asserts exactly.

The local family triplets depend only on the two service MAPs, so one
assembler instance is reused across an entire population sweep;
:func:`remap_distribution` carries a solved steady state onto a neighbouring
population's state space — the warm start of population sweeps and the
population-change rule at the segment boundaries of time-varying solves.
"""

from __future__ import annotations

import numpy as np

from repro.maps.map_process import MAP
from repro.queueing.ctmc import assemble_generator

__all__ = ["NetworkStateSpace", "KronGeneratorAssembler", "remap_distribution"]

#: Rate of the exponential stage that approximates an immediate transition
#: when the think time is zero (matches the historical per-state builder).
ZERO_THINK_RATE = 1e9


class NetworkStateSpace:
    """Array-based enumeration of ``(n_front, n_db, phase_front, phase_db)``.

    Blocks (distinct ``(n_front, n_db)`` pairs) are numbered lexicographically
    — ``n_front`` major, ``n_db`` minor — and phases within a block by
    ``phase_front * k_db + phase_db``, so that

        ``state = block(n_front, n_db) * K + phase_front * k_db + phase_db``

    reproduces the historical dict-based enumeration order exactly.
    """

    def __init__(self, population: int, k_front: int, k_db: int) -> None:
        if population < 0:
            raise ValueError("population must be non-negative")
        if k_front < 1 or k_db < 1:
            raise ValueError("MAP orders must be >= 1")
        self.population = population
        self.k_front = k_front
        self.k_db = k_db
        self.block_size = k_front * k_db
        counts = np.arange(population + 1, 0, -1)
        #: ``block_offset[nf]`` is the block id of ``(nf, 0)``; the extra
        #: trailing entry makes ``block_offset[nf + 1]`` valid for every block.
        self.block_offset = np.concatenate(([0], np.cumsum(counts)))
        self.num_blocks = int(self.block_offset[-1])
        self.block_n_front = np.repeat(np.arange(population + 1), counts)
        self.block_n_db = np.arange(self.num_blocks) - self.block_offset[self.block_n_front]
        self.num_states = self.num_blocks * self.block_size
        self._state_arrays: tuple[np.ndarray, ...] | None = None

    def block_index(self, n_front, n_db):
        """Block id(s) of ``(n_front, n_db)`` — vectorised."""
        return self.block_offset[n_front] + n_db

    def state_index(self, n_front, n_db, phase_front, phase_db):
        """Flat state id(s) — vectorised; matches the historical enumeration."""
        return (
            self.block_index(n_front, n_db) * self.block_size
            + phase_front * self.k_db
            + phase_db
        )

    def state_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Per-state ``(n_front, n_db, phase_front, phase_db)`` arrays (cached)."""
        if self._state_arrays is None:
            K = self.block_size
            n_front = np.repeat(self.block_n_front, K)
            n_db = np.repeat(self.block_n_db, K)
            phase_front = np.tile(np.repeat(np.arange(self.k_front), self.k_db), self.num_blocks)
            phase_db = np.tile(np.arange(self.k_db), self.k_front * self.num_blocks)
            self._state_arrays = (n_front, n_db, phase_front, phase_db)
        return self._state_arrays



def remap_distribution(
    source_space: NetworkStateSpace,
    distribution: np.ndarray,
    target_space: NetworkStateSpace,
) -> np.ndarray:
    """Carry a distribution across a population change.

    Phases are preserved (the spaces must share their MAP orders).  A block
    ``(n_front, n_db)`` keeps its queue contents when the new population can
    hold them (added customers start thinking); when the population shrinks
    below ``n_front + n_db``, the excess customers are dropped from the front
    queue first, then the database queue — the same truncation rule the
    time-varying simulators apply, so transient solutions and simulated
    trajectories stay aligned through downward population steps.  Population
    sweeps grow the population, so their warm start keeps every block's mass
    verbatim.
    """
    if (source_space.k_front, source_space.k_db) != (
        target_space.k_front,
        target_space.k_db,
    ):
        raise ValueError("state spaces have different phase orders")
    n_front = source_space.block_n_front
    n_db = source_space.block_n_db
    excess = np.maximum(n_front + n_db - target_space.population, 0)
    drop_front = np.minimum(n_front, excess)
    new_front = n_front - drop_front
    new_db = n_db - (excess - drop_front)
    target_blocks = target_space.block_index(new_front, new_db)
    K = source_space.block_size
    local = np.arange(K)
    source_idx = (np.arange(source_space.num_blocks)[:, None] * K + local[None, :]).ravel()
    target_idx = (target_blocks[:, None] * K + local[None, :]).ravel()
    result = np.zeros(target_space.num_states)
    np.add.at(result, target_idx, distribution[source_idx])
    total = result.sum()
    if total <= 0:
        raise ValueError("no probability mass carried over the population change")
    return result / total


def _positive_triplets(matrix: np.ndarray):
    """Strictly positive entries of a local ``K x K`` rate matrix as triplets."""
    rows, cols = np.nonzero(matrix > 0)
    return rows, cols, matrix[rows, cols]


def _offdiagonal(matrix: np.ndarray) -> np.ndarray:
    """Off-diagonal part of ``D0`` with negative round-off entries dropped."""
    hidden = np.array(matrix, dtype=float, copy=True)
    np.fill_diagonal(hidden, 0.0)
    return np.where(hidden > 0, hidden, 0.0)


class KronGeneratorAssembler:
    """Vectorised generator assembly from the network's Kronecker structure.

    One instance precomputes the local (within-block) transition triplets of
    the four MAP-driven families — they depend only on the service MAPs, not
    on the population — and :meth:`build` broadcasts them over the block
    lattice of any :class:`NetworkStateSpace` with matching phase orders.
    """

    def __init__(self, front_service: MAP, db_service: MAP, think_time: float) -> None:
        if think_time < 0:
            raise ValueError("think_time must be non-negative")
        self.k_front = front_service.order
        self.k_db = db_service.order
        self.think_rate = ZERO_THINK_RATE if think_time == 0 else 1.0 / float(think_time)
        eye_front = np.eye(self.k_front)
        eye_db = np.eye(self.k_db)
        self._front_completion = _positive_triplets(np.kron(front_service.D1, eye_db))
        self._front_hidden = _positive_triplets(np.kron(_offdiagonal(front_service.D0), eye_db))
        self._db_completion = _positive_triplets(np.kron(eye_front, db_service.D1))
        self._db_hidden = _positive_triplets(np.kron(eye_front, _offdiagonal(db_service.D0)))
        #: Clipped local family matrices, shared with the matrix-free tier so
        #: its matvecs apply exactly the rates the materialized path emits.
        self._d1_front = np.where(front_service.D1 > 0, front_service.D1, 0.0)
        self._hidden_front = _offdiagonal(front_service.D0)
        self._d1_db = np.where(db_service.D1 > 0, db_service.D1, 0.0)
        self._hidden_db = _offdiagonal(db_service.D0)

    def state_space(self, population: int) -> NetworkStateSpace:
        """State space of this network at the given population."""
        return NetworkStateSpace(population, self.k_front, self.k_db)

    def operator(self, space: NetworkStateSpace):
        """Matrix-free view of the generator over ``space``.

        Returns a :class:`repro.queueing.kron_operator.MatrixFreeGenerator`
        built from this assembler's cached local family matrices — the
        operator of every population in a sweep shares the same Kronecker
        block structure and only pays the per-population setup.
        """
        from repro.queueing.kron_operator import MatrixFreeGenerator

        if space.k_front != self.k_front or space.k_db != self.k_db:
            raise ValueError("state space phase orders do not match the assembler's MAPs")
        return MatrixFreeGenerator(
            space,
            self._d1_front,
            self._hidden_front,
            self._d1_db,
            self._hidden_db,
            self.think_rate,
        )

    def build(self, space: NetworkStateSpace):
        """Assemble the CSR generator over ``space`` with zero per-state work."""
        if space.k_front != self.k_front or space.k_db != self.k_db:
            raise ValueError("state space phase orders do not match the assembler's MAPs")
        K = space.block_size
        offsets = space.block_offset
        n_front = space.block_n_front
        n_db = space.block_n_db
        blocks = np.arange(space.num_blocks)
        rows_parts: list[np.ndarray] = []
        cols_parts: list[np.ndarray] = []
        rate_parts: list[np.ndarray] = []

        # Think completions: diagonal local structure, per-block rate
        # ``thinking * think_rate``, destination block (n_front + 1, n_db).
        thinking = space.population - n_front - n_db
        source = blocks[thinking > 0]
        if source.size:
            destination = offsets[n_front[source] + 1] + n_db[source]
            local = np.arange(K)
            rows_parts.append((source[:, None] * K + local[None, :]).ravel())
            cols_parts.append((destination[:, None] * K + local[None, :]).ravel())
            rate_parts.append(np.repeat(thinking[source] * self.think_rate, K))

        # MAP-driven families: broadcast the local triplets over every block
        # the family applies to.
        front_busy = blocks[n_front > 0]
        db_busy = blocks[n_db > 0]
        families = (
            (front_busy, offsets[n_front[front_busy] - 1] + n_db[front_busy] + 1,
             self._front_completion),
            (front_busy, front_busy, self._front_hidden),
            (db_busy, db_busy - 1, self._db_completion),
            (db_busy, db_busy, self._db_hidden),
        )
        for source, destination, (local_rows, local_cols, local_rates) in families:
            if source.size == 0 or local_rates.size == 0:
                continue
            rows_parts.append((source[:, None] * K + local_rows[None, :]).ravel())
            cols_parts.append((destination[:, None] * K + local_cols[None, :]).ravel())
            rate_parts.append(np.tile(local_rates, source.size))

        if rows_parts:
            rows = np.concatenate(rows_parts)
            cols = np.concatenate(cols_parts)
            rates = np.concatenate(rate_parts)
        else:  # single-state space with no transitions
            rows = cols = np.empty(0, dtype=np.int64)
            rates = np.empty(0, dtype=float)
        return assemble_generator(rows, cols, rates, space.num_states)

