"""Recursive multilevel hierarchy over the network's block lattice.

The matrix-free tier's coarse correction used to be a one-shot ILU of the
*phase-aggregated* ``(n_front, n_db)`` lattice matrix (one scalar unknown per
block).  Measurement showed that this coarse space — not the quality of its
solve — is what capped convergence: replacing the ILU with an *exact* coarse
solve left the Krylov iteration count unchanged (66 at N=200, 106 at N=400,
growing ~N^0.6), because collapsing the phases throws away exactly the error
components the coarse grid is supposed to carry.

This module builds the coarse space that works: geometric 2x2 aggregation of
the ``(n_front, n_db)`` lattice **tensored with the phase identity**, so every
coarse unknown keeps its ``K = k_front * k_db`` phase copies.  Applied
recursively with Galerkin products it yields a classic AMG-style hierarchy

* level 0 — the fine balance system, never materialized; smoothed by the
  exact level sweeps of the enclosing preconditioner
  (:class:`repro.queueing.kron_operator.LevelSweepPreconditioner`),
* level 1 — the first Galerkin product ``P^T A P``, assembled *family-wise*
  from the Kronecker structure (:func:`coarse_balance_matrix`) so the fine
  matrix is never formed; ``~states / 4`` unknowns,
* levels 2..L — plain sparse Galerkin products of the level above, each
  another ~4x smaller, smoothed by damped point Jacobi,
* level L — a sparse direct factorisation once the system is small enough
  that SuperLU fill-in is irrelevant (:data:`COARSEST_UNKNOWNS`).

One application of :meth:`LatticeHierarchy.solve` is a single cycle —
a W-cycle by default (:data:`CYCLE_GAMMA`): each level visits the next
coarser one twice.  The coarse matrices shrink ~4x per level, so the extra
visits cost little, and the W-cycle keeps the BiCGSTAB iteration count
nearly flat in the population (~22 at N=400 versus 66/106 before the
hierarchy existed, and versus 31+ at N=1000 with a plain V-cycle), which is
what turns the N>=1000 solves from minutes into tens of seconds.

Two measured design notes, so nobody re-tries them casually:

* *Prolongation smoothing* (the "smoothed" in textbook smoothed aggregation,
  ``P = (I - w D^{-1} A) P_tent``) is a catastrophe here: the balance
  matrix's dense ``K x K`` phase blocks make the smoothed ``P`` couple
  neighbouring aggregates across all phases, the coarse Galerkin products
  densify level over level, and setup explodes (measured ~700x at N=200)
  while the iteration count *rises*.  The tentative (piecewise-constant)
  prolongation is the right operator for this lattice.
* The coarsest level must stay small: SuperLU fill-in on these lattice
  matrices is enormous (~29M factor nonzeros at 20k unknowns), which is the
  very wall the matrix-free tier exists to dodge.  Four-ish levels end well
  below :data:`COARSEST_UNKNOWNS` even at N=1500.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sparse
import scipy.sparse.linalg as sparse_linalg

__all__ = [
    "LatticeHierarchy",
    "lattice_aggregates",
    "tentative_prolongation",
    "coarse_balance_matrix",
    "COARSEST_UNKNOWNS",
    "JACOBI_DAMPING",
    "JACOBI_SWEEPS",
    "CYCLE_GAMMA",
]

#: Stop coarsening once a level has at most this many unknowns and factorise
#: it directly.  Small enough that SuperLU fill-in stays trivial, large
#: enough that the recursion terminates after ~4 levels at N=1500.
COARSEST_UNKNOWNS = 5_000

#: Damping factor of the point-Jacobi smoother on the coarse levels.  The
#: balance matrix is nonsymmetric, so weighted Jacobi is used in its plain
#: damped form; 0.7 measured best over {0.5, 0.7, 0.9} on the Figure-9 MAPs.
JACOBI_DAMPING = 0.7

#: Pre- and post-smoothing sweeps per level per cycle.
JACOBI_SWEEPS = 2

#: Recursive visits to the next coarser level per cycle: 1 is a V-cycle,
#: 2 the default W-cycle.  The coarse matrices shrink ~4x per level, so the
#: W-cycle's extra visits are nearly free while shaving iterations at depth
#: (measured 33 -> 32 at N=400 and, combined with the sandwich arrangement
#: of the enclosing preconditioner, keeping the count flat toward N=1000
#: where the V-cycle drifted to 31+).
CYCLE_GAMMA = 2


def lattice_aggregates(
    n_front: np.ndarray, n_db: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Geometric 2x2 aggregation of ``(n_front, n_db)`` lattice coordinates.

    Returns ``(aggregate_of, coarse_n_front, coarse_n_db)``: the aggregate id
    of every input point plus the coarse lattice coordinates
    ``(n_front // 2, n_db // 2)`` of every aggregate.  Aggregates are numbered
    lexicographically by their coarse coordinates — the same ``n_front``-major
    order as the fine block enumeration, so the *last* aggregate always
    contains the last fine block ``(population, 0)`` (whose final phase row
    carries the normalisation constraint).  The coarse coordinate arrays feed
    straight back in for the next coarsening.
    """
    coarse_front = np.asarray(n_front, dtype=np.intp) // 2
    coarse_db = np.asarray(n_db, dtype=np.intp) // 2
    stride = int(coarse_db.max()) + 1 if coarse_db.size else 1
    keys = coarse_front * stride + coarse_db
    unique, aggregate_of = np.unique(keys, return_inverse=True)
    return aggregate_of, unique // stride, unique % stride


def tentative_prolongation(
    aggregate_of: np.ndarray, block_size: int, num_aggregates: int
) -> sparse.csr_matrix:
    """Piecewise-constant prolongation ``(lattice aggregation) (x) I_K``.

    Column ``(aggregate, phase)`` is the indicator of the fine states with
    that phase inside the aggregate; every fine state appears in exactly one
    column with weight one, so restriction (``P^T``) sums aggregate members
    per phase and prolongation copies the coarse value to every member.
    """
    num_fine = aggregate_of.size * block_size
    rows = np.arange(num_fine)
    cols = (
        np.repeat(aggregate_of, block_size) * block_size
        + np.tile(np.arange(block_size), aggregate_of.size)
    )
    return sparse.csr_matrix(
        (np.ones(num_fine), (rows, cols)),
        shape=(num_fine, num_aggregates * block_size),
    )


def coarse_balance_matrix(
    operator, aggregate_of: np.ndarray, num_aggregates: int
) -> sparse.csr_matrix:
    """Level-1 Galerkin product ``P^T A P`` assembled family-wise.

    ``A`` is the balance matrix (``Q^T`` with the last row replaced by the
    normalisation constraint) of a
    :class:`~repro.queueing.kron_operator.MatrixFreeGenerator`.  Because the
    prolongation is (lattice aggregation) ``(x) I_K`` and every transition
    family acts as one local ``K x K`` matrix broadcast over lattice blocks,
    the Galerkin product never needs the fine matrix: each family contributes
    ``kron(W_f, L_f^T)`` where ``W_f`` is the *block-level* aggregate
    adjacency (``W_f[agg(dest), agg(src)] = sum of the family's per-block
    rates``) — a handful of sparse matrices with one entry per fine lattice
    block, nothing of fine-system size.

    The normalisation surgery is re-applied at the coarse level: the last
    coarse row (last aggregate, last phase — which contains the fine
    normalisation row, see :func:`lattice_aggregates`) is replaced by the
    column sums of ``P``, i.e. the aggregate sizes — exactly ``P^T 1``, the
    coarse image of the fine ``sum(pi) = 1`` row.
    """
    space = operator.space
    K = space.block_size
    num_coarse = num_aggregates * K

    def family(dest_blocks, src_blocks, weights, local):
        adjacency = sparse.coo_matrix(
            (weights, (aggregate_of[dest_blocks], aggregate_of[src_blocks])),
            shape=(num_aggregates, num_aggregates),
        ).tocsr()
        return sparse.kron(adjacency, local.T, format="csr")

    # Block-level source/destination of every family (the same fixed
    # (n_front, n_db) shifts the operator's matvecs apply row by row).
    n_front, n_db = space.block_n_front, space.block_n_db
    blocks = np.arange(space.num_blocks)
    thinking = space.population - n_front - n_db
    think = blocks[thinking > 0]
    front = blocks[n_front > 0]
    db = blocks[n_db > 0]
    ones = np.ones(front.size)  # every family skips population + 1 blocks
    coarse = family(
        space.block_offset[n_front[think] + 1] + n_db[think], think,
        operator._think_rates[think], np.eye(K),
    )
    coarse = coarse + family(
        space.block_offset[n_front[front] - 1] + n_db[front] + 1, front, ones,
        operator._front_completion,
    )
    if operator._has_front_hidden:
        coarse = coarse + family(front, front, ones, operator._front_hidden)
    coarse = coarse + family(db - 1, db, ones, operator._db_completion)
    if operator._has_db_hidden:
        coarse = coarse + family(db, db, ones, operator._db_hidden)
    # The exit-rate diagonal aggregates per (aggregate, phase).
    coarse_exit = np.zeros((num_aggregates, K))
    np.add.at(coarse_exit, aggregate_of, operator._exit_rate)
    coarse = coarse + sparse.diags(-coarse_exit.reshape(-1))

    # Coarse normalisation surgery: mask the last row, write P^T 1 into it.
    keep = np.ones(num_coarse)
    keep[-1] = 0.0
    aggregate_sizes = np.bincount(aggregate_of, minlength=num_aggregates)
    normalisation = sparse.csr_matrix(
        (
            np.repeat(aggregate_sizes, K).astype(float),
            (np.full(num_coarse, num_coarse - 1), np.arange(num_coarse)),
        ),
        shape=(num_coarse, num_coarse),
    )
    return (sparse.diags(keep) @ coarse + normalisation).tocsr()


class LatticeHierarchy:
    """Recursive Galerkin hierarchy on the coarsened block lattice.

    Built once per operator (population): the level-1 matrix comes from
    :func:`coarse_balance_matrix`, deeper levels are plain sparse Galerkin
    products, and recursion stops at :data:`COARSEST_UNKNOWNS` (or when the
    lattice cannot coarsen further) with a SuperLU factorisation.
    :meth:`solve` maps a *fine-level* residual through one cycle — restrict
    to level 1, damped-Jacobi / recurse ``gamma`` times / damped-Jacobi down
    and up the levels, direct solve at the bottom, prolong back — and is
    linear and deterministic, so the enclosing preconditioner stays a fixed
    operator across Krylov iterations.
    """

    def __init__(
        self,
        operator,
        coarsest_unknowns: int = COARSEST_UNKNOWNS,
        damping: float = JACOBI_DAMPING,
        sweeps: int = JACOBI_SWEEPS,
        gamma: int = CYCLE_GAMMA,
    ) -> None:
        space = operator.space
        K = space.block_size
        self.damping = float(damping)
        self.sweeps = int(sweeps)
        self.gamma = int(gamma)
        aggregate_of, coarse_front, coarse_db = lattice_aggregates(
            space.block_n_front, space.block_n_db
        )
        #: Fine-to-level-1 prolongation (the only fine-system-sized object).
        self.prolongation = tentative_prolongation(
            aggregate_of, K, coarse_front.size
        )
        matrix = coarse_balance_matrix(operator, aggregate_of, coarse_front.size)
        #: Per level: (matrix, inverse diagonal, prolongation to next level).
        self._levels: list[tuple[sparse.csr_matrix, np.ndarray, sparse.csr_matrix]] = []
        while matrix.shape[0] > coarsest_unknowns:
            aggregate_of, coarse_front, coarse_db = lattice_aggregates(
                coarse_front, coarse_db
            )
            if coarse_front.size * K == matrix.shape[0]:
                break  # the lattice cannot coarsen further
            step = tentative_prolongation(aggregate_of, K, coarse_front.size)
            coarser = (step.T @ matrix @ step).tocsr()
            diagonal = matrix.diagonal()
            diagonal[diagonal == 0.0] = 1.0
            self._levels.append((matrix, 1.0 / diagonal, step))
            matrix = coarser
        self._coarsest = sparse_linalg.splu(matrix.tocsc())
        #: Unknowns per level, level 1 first, the direct-solved level last.
        self.level_sizes = [level[0].shape[0] for level in self._levels]
        self.level_sizes.append(matrix.shape[0])

    @property
    def num_levels(self) -> int:
        """Number of materialized levels (including the direct-solved one)."""
        return len(self.level_sizes)

    def _smooth(self, matrix, inverse_diagonal, rhs, x):
        for _ in range(self.sweeps):
            x = x + self.damping * inverse_diagonal * (rhs - matrix @ x)
        return x

    def _cycle(self, depth: int, rhs: np.ndarray) -> np.ndarray:
        if depth == len(self._levels):
            return self._coarsest.solve(rhs)
        matrix, inverse_diagonal, step = self._levels[depth]
        x = self._smooth(matrix, inverse_diagonal, rhs, np.zeros_like(rhs))
        for _ in range(self.gamma):
            x = x + step @ self._cycle(depth + 1, step.T @ (rhs - matrix @ x))
        return self._smooth(matrix, inverse_diagonal, rhs, x)

    def solve(self, residual: np.ndarray) -> np.ndarray:
        """Coarse correction of a fine residual: restrict, cycle, prolong."""
        return self.prolongation @ self._cycle(
            0, self.prolongation.T @ np.asarray(residual, dtype=float)
        )
