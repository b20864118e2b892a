"""Matrix-free application of the closed MAP network's generator.

:mod:`repro.queueing.kron` assembles the CTMC generator *matrix* from the
network's phase-block Kronecker structure.  That is the fastest route to a
materialized sparse matrix, but the matrix itself — and above all the ILU
factorisation that preconditions its Krylov solve — is what caps exact solves
around half a million states.  This module removes the matrix entirely:

:class:`MatrixFreeGenerator` applies ``Q x`` and ``Q^T x`` directly from the
phase-block Kronecker families: the state vector is reshaped to
``(blocks, K)`` and every transition family becomes one shuffle-algorithm
``(blocks, K) @ (K, K)`` product with its local Kronecker block, broadcast
over the lattice blocks the family applies to.  Memory is
``O(states * phases)`` (the state vector, the per-state exit-rate diagonal
and a few block-index arrays) instead of the ``O(nnz)`` triplets + CSR +
balance CSC + ILU fill of the materialized tier.

Preconditioning comes in two layers:

* :class:`LevelSweepPreconditioner` — the three level sweeps: block-Jacobi
  over population *levels* with **exact** within-level solves.  Grouped by
  ``n_front`` the balance matrix's level blocks are block-upper-bidiagonal in
  ``n_db`` (only database completions move ``n_db`` inside a level), grouped
  by ``n_db`` they are lower-bidiagonal in ``n_front`` (only think
  completions), and grouped by the total station population
  ``n_front + n_db`` they are bidiagonal along the front-completion diagonal.  Each orientation is one QBD-style
  substitution sweep with the per-block ``K x K`` inverses, *batched across
  levels* (``population + 1`` vectorised steps, no per-block Python).
* :class:`MultilevelPreconditioner` — the production preconditioner of the
  matrix-free tier: the three sweep orientations composed multiplicatively
  (every transition family is solved exactly by one of them) around a
  *recursive multilevel coarse correction*
  (:class:`repro.queueing.multilevel.LatticeHierarchy`): the balance matrix
  is Galerkin-coarsened onto successively 2x2-aggregated ``(n_front, n_db)``
  lattices with the phases preserved, and one V-cycle over that hierarchy
  kills the slow population-flow error modes that the local sweeps cannot
  damp.  The phase-preserving coarse space is what keeps the Krylov
  iteration count flat in the population (~20 from N=200 to N=1500); the
  earlier one-shot ILU of the *phase-aggregated* lattice left it growing
  ~N^0.6.

The family matrices depend only on the two service MAPs, so
:meth:`repro.queueing.kron.KronGeneratorAssembler.operator` hands each new
population's operator the same cached local blocks — population sweeps pay
the per-population setup (exit diagonal, block inverses, coarse hierarchy)
but never re-derive the Kronecker structure.

Every transition family is a fixed ``(n_front, n_db)`` shift, and blocks are
numbered ``n_front``-major, so each family maps a contiguous run of one
``n_front`` row onto a contiguous run of a neighbouring row (think
completions onto row ``n_front + 1``, front completions onto row
``n_front - 1``, database completions and the hidden jumps within the row).
The matvecs therefore run one contiguous ``(blocks, K) @ (K, K)`` GEMM per
family and add it back with ``population + 1`` row-slice ``+=`` (or one
shifted slice for the within-row families) — no gather or scatter of
block-index arrays per Krylov iteration.  The families are added in a fixed
order (exit, think, front, front hidden, db, db hidden), so every element's
sum is the same one the materialized Kronecker structure defines.

A balance diagonal block depends only on its server gate
``(n_front > 0, n_db > 0)`` and station population ``n_front + n_db``
(equivalently, the thinking count), and the block carrying the
normalisation row is the only one with its pair, so
:meth:`MatrixFreeGenerator.diagonal_block_inverses` inverts only the distinct
blocks — at most ``4 (population + 1)`` ``K x K`` matrices — and hands the
sweeps a small inverse table plus a per-block kind index.  Within each sweep
step the kinds run contiguously through the table, and the ``nf`` sweep
transposes its residual once into ``n_db``-major order, so no sweep gathers
either.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse.linalg as sparse_linalg

from repro.maps.map_process import MAP
from repro.queueing.kron import NetworkStateSpace, ZERO_THINK_RATE, _offdiagonal
from repro.queueing.multilevel import LatticeHierarchy

__all__ = [
    "MatrixFreeGenerator",
    "LevelSweepPreconditioner",
    "MultilevelPreconditioner",
]


class MatrixFreeGenerator:
    """The network generator as matvec callables — never materialized.

    Parameters mirror the local family data precomputed by
    :class:`~repro.queueing.kron.KronGeneratorAssembler`: the clipped
    completion matrices ``D1`` and hidden-jump matrices ``offdiag(D0)`` of
    the two service MAPs (exactly the matrices whose Kronecker products feed
    the materialized assembly, so matvecs agree with the CSR matrix to
    machine precision), plus the think rate and the population's state space.
    """

    def __init__(
        self,
        space: NetworkStateSpace,
        d1_front: np.ndarray,
        hidden_front: np.ndarray,
        d1_db: np.ndarray,
        hidden_db: np.ndarray,
        think_rate: float,
    ) -> None:
        if (d1_front.shape[0], d1_db.shape[0]) != (space.k_front, space.k_db):
            raise ValueError("state space phase orders do not match the MAP matrices")
        self.space = space
        self.d1_front = d1_front
        self.hidden_front = hidden_front
        self.d1_db = d1_db
        self.hidden_db = hidden_db
        self.think_rate = float(think_rate)
        self.num_states = space.num_states

        # Local K x K family blocks (the same Kronecker products whose
        # positive triplets the materialized assembler broadcasts).
        eye_front = np.eye(space.k_front)
        eye_db = np.eye(space.k_db)
        self._front_completion = np.kron(d1_front, eye_db)
        self._front_hidden = np.kron(hidden_front, eye_db)
        self._db_completion = np.kron(eye_front, d1_db)
        self._db_hidden = np.kron(eye_front, hidden_db)
        self._has_front_hidden = bool(self._front_hidden.any())
        self._has_db_hidden = bool(self._db_hidden.any())

        n_db = space.block_n_db
        thinking = space.population - space.block_n_front - n_db
        #: Row ``n_front`` is blocks ``offsets[n_front]:offsets[n_front + 1]``
        #: (Python ints: the matvecs slice with them every iteration).
        self._offsets = space.block_offset.tolist()
        #: Per-block think rate ``thinking * think_rate`` (zero when nobody
        #: thinks).
        self._think_rates = thinking * self.think_rate
        #: First and last block of every row: the blocks a within-row shift
        #: (database completion) has no partner for.
        self._row_first = space.block_offset[:-1]
        self._row_last = space.block_offset[1:] - 1

        # Exit rates (the negated generator diagonal), per block and phase.
        front_exit = (d1_front + hidden_front).sum(axis=1)
        db_exit = (d1_db + hidden_db).sum(axis=1)
        K = space.block_size
        exit_rate = np.multiply.outer(self._think_rates, np.ones(K))
        exit_rate[self._offsets[1] :] += np.repeat(front_exit, space.k_db)[None, :]
        exit_rate[n_db > 0] += np.tile(db_exit, space.k_front)[None, :]
        self._exit_rate = exit_rate  # (num_blocks, K)
        #: Largest total exit rate — the residual-validation scale, identical
        #: in meaning to ``max |diag(Q)|`` of the materialized generator.
        self.rate_scale = float(exit_rate.max()) if exit_rate.size else 0.0
        self._inverse_table_cache: tuple[np.ndarray, np.ndarray] | None = None

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_maps(
        cls,
        front_service: MAP,
        db_service: MAP,
        think_time: float,
        space: NetworkStateSpace,
    ) -> "MatrixFreeGenerator":
        """Build the operator straight from the two service MAPs."""
        if think_time < 0:
            raise ValueError("think_time must be non-negative")
        think_rate = ZERO_THINK_RATE if think_time == 0 else 1.0 / float(think_time)
        return cls(
            space,
            np.where(front_service.D1 > 0, front_service.D1, 0.0),
            _offdiagonal(front_service.D0),
            np.where(db_service.D1 > 0, db_service.D1, 0.0),
            _offdiagonal(db_service.D0),
            think_rate,
        )

    # ------------------------------------------------------------------
    # Matvecs
    # ------------------------------------------------------------------
    def _as_blocks(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(x, dtype=float).reshape(
            self.space.num_blocks, self.space.block_size
        )

    # The think and front families shift by a different block count in
    # every row, so they are added back row by row.  A database completion
    # shifts by one block within a row: it is added back as one shifted
    # slice after the blocks without a partner in their row are set to
    # -0.0, which leaves every sum bit-identical (x + -0.0 == x for every x,
    # signed zeros included).
    def q_matvec(self, x: np.ndarray) -> np.ndarray:
        """``y = Q x`` (rows = source states): one GEMM per family."""
        xb = self._as_blocks(x)
        yb = -self._exit_rate * xb
        o = self._offsets
        rows = range(self.space.population + 1)
        for nf in rows[:-1]:  # think: (nf, ndb) -> (nf + 1, ndb)
            row = slice(o[nf], o[nf + 1] - 1)
            yb[row] += self._think_rates[row, None] * xb[o[nf + 1] : o[nf + 2]]
        front = xb @ self._front_completion.T
        for nf in rows[1:]:  # front completion: (nf, ndb) -> (nf - 1, ndb + 1)
            yb[o[nf] : o[nf + 1]] += front[o[nf - 1] + 1 : o[nf]]
        if self._has_front_hidden:
            yb[o[1] :] += xb[o[1] :] @ self._front_hidden.T
        db = xb @ self._db_completion.T  # (nf, ndb) -> (nf, ndb - 1)
        db[self._row_last] = -0.0
        yb[1:] += db[:-1]
        if self._has_db_hidden:
            db_hidden = xb @ self._db_hidden.T
            db_hidden[self._row_first] = -0.0
            yb += db_hidden
        return yb.reshape(-1)

    def qt_matvec(self, x: np.ndarray) -> np.ndarray:
        """``y = Q^T x`` — equivalently ``x Q``, the balance-equation direction."""
        xb = self._as_blocks(x)
        yb = -self._exit_rate * xb
        o = self._offsets
        rows = range(self.space.population + 1)
        think = self._think_rates[:, None] * xb
        for nf in rows[:-1]:
            yb[o[nf + 1] : o[nf + 2]] += think[o[nf] : o[nf + 1] - 1]
        front = xb @ self._front_completion
        for nf in rows[1:]:
            yb[o[nf - 1] + 1 : o[nf]] += front[o[nf] : o[nf + 1]]
        if self._has_front_hidden:
            yb[o[1] :] += xb[o[1] :] @ self._front_hidden
        db = xb @ self._db_completion
        db[self._row_first] = -0.0
        yb[:-1] += db[1:]
        if self._has_db_hidden:
            db_hidden = xb @ self._db_hidden
            db_hidden[self._row_first] = -0.0
            yb += db_hidden
        return yb.reshape(-1)

    def balance_matvec(self, x: np.ndarray) -> np.ndarray:
        """``A x`` where ``A`` is ``Q^T`` with the last row replaced by ones.

        Mirrors :func:`repro.queueing.ctmc._balance_system` exactly, so the
        matrix-free Krylov solve targets the same linear system the
        materialized tier factorises.
        """
        y = self.qt_matvec(x)
        y[-1] = float(np.asarray(x).sum())
        return y

    def residual(self, distribution: np.ndarray) -> float:
        """Balance residual ``max |pi Q|`` of a candidate distribution."""
        return float(np.abs(self.qt_matvec(distribution)).max())

    # ------------------------------------------------------------------
    # scipy views
    # ------------------------------------------------------------------
    def balance_operator(self) -> sparse_linalg.LinearOperator:
        """The normalised balance matrix ``A`` as a ``LinearOperator``."""
        n = self.num_states
        return sparse_linalg.LinearOperator(
            (n, n), matvec=self.balance_matvec, dtype=float
        )

    def preconditioner(self) -> "MultilevelPreconditioner":
        """The balance-system preconditioner of the matrix-free tier."""
        return MultilevelPreconditioner(self)

    # ------------------------------------------------------------------
    # Shared preconditioner ingredients
    # ------------------------------------------------------------------
    def diagonal_block_inverses(self) -> tuple[np.ndarray, np.ndarray]:
        """Inverses of the balance matrix's per-block ``K x K`` diagonal.

        The within-block part of ``A``: transposed hidden-jump Kronecker
        blocks gated by server occupancy, minus the exit-rate diagonal; the
        normalisation row overwrites the last local row of the final block.
        A block depends only on its gate ``g = 2 (n_front > 0) + (n_db > 0)``
        and station population ``s = n_front + n_db`` (the final block is the
        only one with its ``(g, s)``), so only the distinct ones are inverted.
        Returns ``(table, kind)``: ``table[kind[b]]`` is the inverse of block
        ``b``, with ``kind = g (population + 1) + s``; unused table entries
        stay zero.  Shared (and cached) across every sweep orientation.
        """
        if self._inverse_table_cache is None:
            space = self.space
            K = space.block_size
            gate = (space.block_n_front > 0).astype(np.intp) * 2 + (
                space.block_n_db > 0
            ).astype(np.intp)
            kind = gate * (space.population + 1) + space.block_n_front + space.block_n_db
            present, first = np.unique(kind, return_index=True)
            variants = np.stack(
                [
                    np.zeros((K, K)),
                    self._db_hidden.T,
                    self._front_hidden.T,
                    (self._front_hidden + self._db_hidden).T,
                ]
            )
            diagonal_blocks = variants[gate[first]]
            local = np.arange(K)
            diagonal_blocks[:, local, local] -= self._exit_rate[first]
            # The sum(pi) = 1 row.
            diagonal_blocks[np.searchsorted(present, kind[-1]), K - 1, :] = 1.0
            table = np.zeros((4 * (space.population + 1), K, K))
            table[present] = np.linalg.inv(diagonal_blocks)
            self._inverse_table_cache = (table, kind)
        return self._inverse_table_cache

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def materialized_nnz(self) -> int:
        """Exact nonzero count the materialized CSR generator would have."""
        # Each family skips population + 1 blocks: those with thinking == 0
        # (think), n_front == 0 (front) or n_db == 0 (db).
        busy = self.space.num_blocks - (self.space.population + 1)
        local = (
            np.eye(self.space.block_size),
            self._front_completion,
            self._front_hidden,
            self._db_completion,
            self._db_hidden,
        )
        return int(
            np.count_nonzero(self._exit_rate)
            + busy * sum(np.count_nonzero(block) for block in local)
        )

    def materialized_bytes_estimate(self) -> int:
        """Bytes the materialized solve tier would need for the same system.

        CSR generator + balance CSC (8-byte values + 4-byte indices + row
        pointers each) plus ILU factors at the materialized tier's fill
        factor — the allocations the matrix-free tier avoids.  Documented in
        the README alongside the measured peak-RSS numbers.
        """
        nnz = self.materialized_nnz()
        per_matrix = nnz * 12 + self.num_states * 4
        ilu_fill = 2.0  # ctmc._ILU_FILL_FACTOR
        return int(per_matrix * 2 + nnz * ilu_fill * 12)


class LevelSweepPreconditioner:
    """The three level sweeps: exact block solves over population levels.

    For the balance matrix ``A`` (``Q^T`` with the normalisation row), the
    diagonal block of a fixed-``n_front`` level couples its lattice blocks
    only through database completions — block-upper-bidiagonal in ``n_db`` —
    a fixed-``n_db`` level only through think completions — lower-bidiagonal
    in ``n_front`` — and a fixed-``n_front + n_db`` diagonal only through
    front completions.  Each orientation is solved *exactly* by one
    substitution sweep with the per-block ``K x K`` inverses, batched across
    levels (``population + 1`` vectorised steps per application — a one-sweep
    QBD-style smoother with no per-block Python):

    * :meth:`_solve_levels_nf` — every fixed-``n_front`` level (backward in
      ``n_db``, exact on database completions);
    * :meth:`_solve_levels_ndb` — every fixed-``n_db`` level (forward in
      ``n_front``, exact on think completions);
    * :meth:`_solve_levels_front` — every fixed-total-population diagonal
      (backward in ``n_front``, exact on front completions).

    :class:`MultilevelPreconditioner` composes them around its coarse
    correction.
    """

    def __init__(self, operator: MatrixFreeGenerator) -> None:
        self.operator = operator
        self.space = operator.space
        table, _ = operator.diagonal_block_inverses()
        #: ``_runs[g, s]``: inverse of the diagonal block with gate ``g`` and
        #: station population ``s`` (see ``diagonal_block_inverses``).
        self._runs = table.reshape(4, self.space.population + 1, *table.shape[1:])

    def _solve_step(self, first_gate, rest_gate, station, rhs, out) -> None:
        """``out = inverse(block) @ rhs`` over one sweep step's blocks.

        A step holds the blocks at station populations ``station ..
        population`` in order: the first has gate ``first_gate``, the rest
        ``rest_gate``, so each part reads one contiguous run of the table.
        """
        first = self._runs[first_gate, station : station + 1]
        out[:1] = np.matmul(first, rhs[:1, :, None])[:, :, 0]
        out[1:] = np.matmul(self._runs[rest_gate, station + 1 :], rhs[1:, :, None])[:, :, 0]

    # ------------------------------------------------------------------
    def _solve_levels_nf(self, r_blocks: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Exact solve of every fixed-``n_front`` level (backward in n_db).

        The residual is transposed once, row slice by row slice, into an
        ``n_db``-major square whose row ``n_db`` holds the blocks of one
        step; the solution overwrites it in place and is transposed back.
        """
        o = self.operator._offsets
        population = self.space.population
        coupling = self.operator._db_completion
        square = np.empty((population + 1, population + 1, r_blocks.shape[1]))
        for n_front in range(population + 1):
            width = population + 1 - n_front
            square[:width, n_front] = r_blocks[o[n_front] : o[n_front] + width]
        for n_db in range(population, -1, -1):
            rhs = square[n_db, : population - n_db + 1]
            if n_db < population:
                rhs[:-1] -= square[n_db + 1, : population - n_db] @ coupling
            gate = 1 if n_db else 0
            self._solve_step(gate, gate + 2, n_db, rhs, rhs)
        for n_front in range(population + 1):
            width = population + 1 - n_front
            out[o[n_front] : o[n_front] + width] = square[:width, n_front]
        return out

    def _solve_levels_ndb(self, r_blocks: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Exact solve of every fixed-``n_db`` level (forward in n_front)."""
        o = self.operator._offsets
        population = self.space.population
        for n_front in range(population + 1):
            start, stop = o[n_front], o[n_front + 1]
            rhs = r_blocks[start:stop].copy()
            if n_front > 0:
                previous = slice(o[n_front - 1], o[n_front - 1] + stop - start)
                rhs -= self.operator._think_rates[previous, None] * out[previous]
                if n_front == population:
                    # The global last row is the normalisation row of the
                    # balance system; its think coupling does not exist.
                    rhs[-1, -1] = r_blocks[-1, -1]
            gate = 2 if n_front else 0
            self._solve_step(gate, gate + 1, n_front, rhs, out[start:stop])
        return out

    def _solve_levels_front(self, r_blocks: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Exact solve of every total-population diagonal (backward in n_front)."""
        o = self.operator._offsets
        population = self.space.population
        coupling = self.operator._front_completion
        for n_front in range(population, -1, -1):
            start, stop = o[n_front], o[n_front + 1]
            rhs = r_blocks[start:stop].copy()
            if n_front < population:
                # row (nf, ndb) couples to column (nf + 1, ndb - 1).
                rhs[1:] -= out[stop : o[n_front + 2]] @ coupling
            gate = 2 if n_front else 0
            self._solve_step(gate, gate + 1, n_front, rhs, out[start:stop])
        return out


class MultilevelPreconditioner:
    """Level sweeps + recursive multilevel lattice coarse correction.

    The production preconditioner of the matrix-free tier.  One application
    is a *sandwich*: two pre-smoothing sweeps (``ndb`` then ``front`` — every
    transition family is solved exactly by one of them), the coarse
    correction as one W-cycle over the phase-preserving Galerkin hierarchy
    (:class:`repro.queueing.multilevel.LatticeHierarchy` — the fine level
    stays matrix-free, the sweeps *are* its smoother), and one
    post-smoothing ``nf`` sweep.  The coarse hierarchy is what keeps the
    Krylov iteration count flat in the population: the sweeps damp
    phase-local error almost perfectly but propagate information only one
    lattice level per application, while the slow modes of the balance system
    live on the population-flow lattice — and preserving the phases in the
    coarse space (unlike the historical phase-aggregated ILU, which left
    iterations growing ~N^0.6) is what lets the hierarchy carry them.

    The arrangement is measured, not guessed (N=400, Figure-9 MAPs): the
    historical five-stage form (three pre-sweeps + V-cycle + ``ndb`` post)
    needed 20 iterations at 0.69 s each; dropping to two pre-sweeps alone
    ballooned the count to 33; the sandwich with the W-cycle lands at 22
    iterations at 0.29 s each — every fine-level stage costs a full balance
    matvec for its residual, so fewer, better-placed stages win even at a
    slightly higher iteration count.
    """

    def __init__(self, operator: MatrixFreeGenerator) -> None:
        self.operator = operator
        self.block_size = operator.space.block_size
        self._sweep = LevelSweepPreconditioner(operator)
        #: The coarse Galerkin hierarchy (exposed for tests and diagnostics).
        self.hierarchy = LatticeHierarchy(operator)

    def solve(self, residual: np.ndarray) -> np.ndarray:
        op = self.operator
        sweep = self._sweep
        K = self.block_size

        def apply_sweep(kind, r):
            blocks = np.asarray(r, dtype=float).reshape(-1, K)
            out = np.empty_like(blocks)
            return kind(blocks, out).reshape(-1)

        z = apply_sweep(sweep._solve_levels_ndb, residual)
        z = z + apply_sweep(
            sweep._solve_levels_front, residual - op.balance_matvec(z)
        )
        z = z + self.hierarchy.solve(residual - op.balance_matvec(z))
        z = z + apply_sweep(sweep._solve_levels_nf, residual - op.balance_matvec(z))
        return z

    def as_linear_operator(self) -> sparse_linalg.LinearOperator:
        n = self.operator.num_states
        return sparse_linalg.LinearOperator((n, n), matvec=self.solve, dtype=float)

