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

* :class:`LevelSweepPreconditioner` — block-Jacobi over population *levels*
  with **exact** within-level solves.  Grouped by ``n_front`` the balance
  matrix's level blocks are block-upper-bidiagonal in ``n_db`` (only database
  completions move ``n_db`` inside a level), grouped by ``n_db`` they are
  lower-bidiagonal in ``n_front`` (only think completions), and grouped by
  the total station population ``n_front + n_db`` they are bidiagonal along
  the front-completion diagonal.  Each orientation is one QBD-style
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

The ``REPRO_SOLVER_THREADS`` environment variable chunks the per-family
``(blocks, K) @ (K, K)`` GEMMs of the matvecs across a thread pool.
**Determinism contract**: within every family the source-to-destination
block map is injective, so each output row is written by exactly one chunk
and the floating-point result is bit-identical for *every* thread count
(threads = 1, the default, additionally runs the unchunked original code
path).  The knob is read once per operator at construction time.
"""

from __future__ import annotations

import os

import numpy as np
import scipy.sparse.linalg as sparse_linalg

from repro.maps.map_process import MAP
from repro.queueing.kron import NetworkStateSpace, ZERO_THINK_RATE, _offdiagonal
from repro.queueing.multilevel import LatticeHierarchy

__all__ = [
    "MatrixFreeGenerator",
    "LevelSweepPreconditioner",
    "MultilevelPreconditioner",
    "PRECONDITIONER_MODES",
    "THREADS_ENV_VAR",
    "solver_thread_count",
]

#: Level-sweep orientations understood by :class:`LevelSweepPreconditioner`:
#: ``nf`` solves each fixed-``n_front`` level (backward in ``n_db``, exact on
#: database completions), ``ndb`` each fixed-``n_db`` level (forward in
#: ``n_front``, exact on think completions), ``front`` each fixed-total-
#: population diagonal (backward in ``n_front``, exact on front completions),
#: and ``alternating`` composes ``ndb`` then ``nf`` multiplicatively.
PRECONDITIONER_MODES = ("alternating", "nf", "ndb", "front")

#: Environment variable with the matvec GEMM worker-thread count (default 1).
THREADS_ENV_VAR = "REPRO_SOLVER_THREADS"

#: Don't bother splitting a family across threads below this many blocks per
#: chunk — the dispatch overhead would exceed the GEMM.
_MIN_BLOCKS_PER_CHUNK = 4_096


def solver_thread_count(override: int | str | None = None) -> int:
    """Worker threads for the chunked matvec GEMMs (default 1).

    ``override`` (or the ``REPRO_SOLVER_THREADS`` environment variable, in
    that precedence order) sets the count; empty/unset means single-threaded.
    Results are bit-identical for every value — see the module docstring's
    determinism contract.
    """
    raw = override if override is not None else os.environ.get(THREADS_ENV_VAR)
    if raw is None or str(raw).strip() == "":
        return 1
    try:
        count = int(str(raw).strip())
    except ValueError:
        raise ValueError(
            f"{THREADS_ENV_VAR} must be a positive integer, got {raw!r}"
        ) from None
    if count < 1:
        raise ValueError(f"{THREADS_ENV_VAR} must be >= 1, got {raw!r}")
    return count


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

        offsets = space.block_offset
        n_front = space.block_n_front
        n_db = space.block_n_db
        blocks = np.arange(space.num_blocks)
        thinking = space.population - n_front - n_db

        # Per-family block index arrays (source -> destination is injective
        # within each family, so scattered adds never collide).
        self._think_src = blocks[thinking > 0]
        self._think_dest = offsets[n_front[self._think_src] + 1] + n_db[self._think_src]
        self._think_rates = thinking[self._think_src] * self.think_rate
        self._front_src = blocks[n_front > 0]
        self._front_dest = (
            offsets[n_front[self._front_src] - 1] + n_db[self._front_src] + 1
        )
        self._db_src = blocks[n_db > 0]
        self._db_dest = self._db_src - 1

        # Exit rates (the negated generator diagonal), per block and phase.
        front_exit = (d1_front + hidden_front).sum(axis=1)
        db_exit = (d1_db + hidden_db).sum(axis=1)
        K = space.block_size
        exit_rate = np.multiply.outer(thinking * self.think_rate, np.ones(K))
        exit_rate[self._front_src] += np.repeat(front_exit, space.k_db)[None, :]
        exit_rate[self._db_src] += np.tile(db_exit, space.k_front)[None, :]
        self._exit_rate = exit_rate  # (num_blocks, K)
        #: Largest total exit rate — the residual-validation scale, identical
        #: in meaning to ``max |diag(Q)|`` of the materialized generator.
        self.rate_scale = float(exit_rate.max()) if exit_rate.size else 0.0
        self._inverse_blocks_cache: np.ndarray | None = None
        #: Matvec GEMM worker threads (``REPRO_SOLVER_THREADS``, default 1).
        self.num_threads = solver_thread_count()
        self._executor = None

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

    def _chunks(self, size: int) -> list[slice] | None:
        """Block-axis slices for the worker pool; ``None`` = run unchunked."""
        if self.num_threads == 1 or size < 2 * _MIN_BLOCKS_PER_CHUNK:
            return None
        step = max(_MIN_BLOCKS_PER_CHUNK, -(-size // self.num_threads))
        return [slice(start, min(start + step, size)) for start in range(0, size, step)]

    def _pool(self):
        if self._executor is None:
            from concurrent.futures import ThreadPoolExecutor

            self._executor = ThreadPoolExecutor(
                max_workers=self.num_threads, thread_name_prefix="repro-solver"
            )
        return self._executor

    def _scatter_gemm(self, yb, dest, xb, src, local) -> None:
        """``yb[dest] += xb[src] @ local``, chunked over the block axis.

        ``dest`` is duplicate-free within every family, so each output row is
        written by exactly one chunk and the result is independent of the
        chunking — bit-identical for every thread count.
        """
        chunks = self._chunks(dest.size)
        if chunks is None:
            yb[dest] += xb[src] @ local
            return
        run = lambda piece: yb.__setitem__(  # noqa: E731 - closure over yb
            dest[piece], yb[dest[piece]] + xb[src[piece]] @ local
        )
        list(self._pool().map(run, chunks))

    def _scatter_scaled(self, yb, dest, xb, src, rates) -> None:
        """``yb[dest] += rates[:, None] * xb[src]`` with the same chunking."""
        chunks = self._chunks(dest.size)
        if chunks is None:
            yb[dest] += rates[:, None] * xb[src]
            return
        run = lambda piece: yb.__setitem__(  # noqa: E731 - closure over yb
            dest[piece], yb[dest[piece]] + rates[piece, None] * xb[src[piece]]
        )
        list(self._pool().map(run, chunks))

    def q_matvec(self, x: np.ndarray) -> np.ndarray:
        """``y = Q x`` (rows = source states): one GEMM per family."""
        xb = self._as_blocks(x)
        yb = -self._exit_rate * xb
        self._scatter_scaled(yb, self._think_src, xb, self._think_dest, self._think_rates)
        self._scatter_gemm(
            yb, self._front_src, xb, self._front_dest, self._front_completion.T
        )
        if self._has_front_hidden:
            self._scatter_gemm(
                yb, self._front_src, xb, self._front_src, self._front_hidden.T
            )
        self._scatter_gemm(yb, self._db_src, xb, self._db_dest, self._db_completion.T)
        if self._has_db_hidden:
            self._scatter_gemm(yb, self._db_src, xb, self._db_src, self._db_hidden.T)
        return yb.reshape(-1)

    def qt_matvec(self, x: np.ndarray) -> np.ndarray:
        """``y = Q^T x`` — equivalently ``x Q``, the balance-equation direction."""
        xb = self._as_blocks(x)
        yb = -self._exit_rate * xb
        self._scatter_scaled(yb, self._think_dest, xb, self._think_src, self._think_rates)
        self._scatter_gemm(
            yb, self._front_dest, xb, self._front_src, self._front_completion
        )
        if self._has_front_hidden:
            self._scatter_gemm(
                yb, self._front_src, xb, self._front_src, self._front_hidden
            )
        self._scatter_gemm(yb, self._db_dest, xb, self._db_src, self._db_completion)
        if self._has_db_hidden:
            self._scatter_gemm(yb, self._db_src, xb, self._db_src, self._db_hidden)
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
    def generator_operator(self) -> sparse_linalg.LinearOperator:
        """``Q`` as a :class:`scipy.sparse.linalg.LinearOperator`."""
        n = self.num_states
        return sparse_linalg.LinearOperator(
            (n, n), matvec=self.q_matvec, rmatvec=self.qt_matvec, dtype=float
        )

    def balance_operator(self) -> sparse_linalg.LinearOperator:
        """The normalised balance matrix ``A`` as a ``LinearOperator``."""
        n = self.num_states
        return sparse_linalg.LinearOperator(
            (n, n), matvec=self.balance_matvec, dtype=float
        )

    def preconditioner(self, kind: str = "multilevel"):
        """Balance-system preconditioner: ``multilevel`` (production; the
        historical name ``two_level`` is accepted) or a single
        :data:`PRECONDITIONER_MODES` sweep."""
        if kind in ("multilevel", "two_level"):
            return MultilevelPreconditioner(self)
        return LevelSweepPreconditioner(self, mode=kind)

    # ------------------------------------------------------------------
    # Shared preconditioner ingredients
    # ------------------------------------------------------------------
    def diagonal_block_inverses(self) -> np.ndarray:
        """Inverses of the balance matrix's per-block ``K x K`` diagonal.

        The within-block part of ``A``: transposed hidden-jump Kronecker
        blocks gated by server occupancy, minus the exit-rate diagonal; the
        normalisation row overwrites the last local row of the final block.
        Shared (and cached) across every sweep orientation.
        """
        if self._inverse_blocks_cache is None:
            space = self.space
            K = space.block_size
            gate = (space.block_n_front > 0).astype(np.intp) * 2 + (
                space.block_n_db > 0
            ).astype(np.intp)
            variants = np.stack(
                [
                    np.zeros((K, K)),
                    self._db_hidden.T,
                    self._front_hidden.T,
                    (self._front_hidden + self._db_hidden).T,
                ]
            )
            diagonal_blocks = variants[gate]
            local = np.arange(K)
            diagonal_blocks[:, local, local] -= self._exit_rate
            diagonal_blocks[-1, K - 1, :] = 1.0  # the sum(pi) = 1 row
            self._inverse_blocks_cache = np.linalg.inv(diagonal_blocks)
        return self._inverse_blocks_cache

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def materialized_nnz(self) -> int:
        """Exact nonzero count the materialized CSR generator would have."""
        return int(
            np.count_nonzero(self._exit_rate)
            + self._think_src.size * self.space.block_size
            + self._front_src.size
            * (
                np.count_nonzero(self._front_completion)
                + np.count_nonzero(self._front_hidden)
            )
            + self._db_src.size
            * (
                np.count_nonzero(self._db_completion)
                + np.count_nonzero(self._db_hidden)
            )
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
    """Block-Jacobi over population levels with exact within-level solves.

    For the balance matrix ``A`` (``Q^T`` with the normalisation row), the
    diagonal block of a fixed-``n_front`` level couples its lattice blocks
    only through database completions — block-upper-bidiagonal in ``n_db`` —
    a fixed-``n_db`` level only through think completions — lower-bidiagonal
    in ``n_front`` — and a fixed-``n_front + n_db`` diagonal only through
    front completions.  Each orientation is solved *exactly* by one
    substitution sweep with the per-block ``K x K`` inverses, batched across
    levels (``population + 1`` vectorised steps per application — a one-sweep
    QBD-style smoother with no per-block Python).

    ``alternating`` composes the ``ndb`` and ``nf`` orientations
    multiplicatively (``z = z1 + P_nf^{-1}(r - A z1)``).
    """

    def __init__(self, operator: MatrixFreeGenerator, mode: str = "alternating") -> None:
        if mode not in PRECONDITIONER_MODES:
            raise ValueError(
                f"unknown preconditioner mode {mode!r}; expected one of "
                f"{PRECONDITIONER_MODES}"
            )
        self.operator = operator
        self.mode = mode
        self.space = operator.space
        self._inverse_blocks = operator.diagonal_block_inverses()

    # ------------------------------------------------------------------
    def _solve_levels_nf(self, r_blocks: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Exact solve of every fixed-``n_front`` level (backward in n_db)."""
        space = self.space
        offsets = space.block_offset
        population = space.population
        inverse = self._inverse_blocks
        coupling = self.operator._db_completion
        for n_db in range(population, -1, -1):
            ids = offsets[: population - n_db + 1] + n_db
            rhs = r_blocks[ids]
            if n_db < population:
                rhs[:-1] -= out[ids[:-1] + 1] @ coupling
            out[ids] = np.matmul(inverse[ids], rhs[:, :, None])[:, :, 0]
        return out

    def _solve_levels_ndb(self, r_blocks: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Exact solve of every fixed-``n_db`` level (forward in n_front)."""
        space = self.space
        offsets = space.block_offset
        population = space.population
        think_rate = self.operator.think_rate
        inverse = self._inverse_blocks
        for n_front in range(population + 1):
            start, stop = offsets[n_front], offsets[n_front + 1]
            rhs = r_blocks[start:stop].copy()
            if n_front > 0:
                width = stop - start
                previous = out[offsets[n_front - 1] : offsets[n_front - 1] + width]
                thinking = population - (n_front - 1) - np.arange(width)
                rhs -= (think_rate * thinking)[:, None] * previous
                if n_front == population:
                    # The global last row is the normalisation row of the
                    # balance system; its think coupling does not exist.
                    rhs[-1, -1] = r_blocks[-1, -1]
            out[start:stop] = np.matmul(inverse[start:stop], rhs[:, :, None])[:, :, 0]
        return out

    def _solve_levels_front(self, r_blocks: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Exact solve of every total-population diagonal (backward in n_front)."""
        space = self.space
        offsets = space.block_offset
        population = space.population
        inverse = self._inverse_blocks
        coupling = self.operator._front_completion
        for n_front in range(population, -1, -1):
            start, stop = offsets[n_front], offsets[n_front + 1]
            rhs = r_blocks[start:stop].copy()
            if n_front < population:
                # row (nf, ndb) couples to column (nf + 1, ndb - 1).
                rhs[1:] -= out[offsets[n_front + 1] : offsets[n_front + 2]] @ coupling
            out[start:stop] = np.matmul(inverse[start:stop], rhs[:, :, None])[:, :, 0]
        return out

    # ------------------------------------------------------------------
    def solve(self, residual: np.ndarray) -> np.ndarray:
        """Apply ``M^{-1}`` to a residual vector."""
        K = self.space.block_size
        r_blocks = np.asarray(residual, dtype=float).reshape(-1, K)
        out = np.empty_like(r_blocks)
        if self.mode == "nf":
            return self._solve_levels_nf(r_blocks, out).reshape(-1)
        if self.mode == "front":
            return self._solve_levels_front(r_blocks, out).reshape(-1)
        first = self._solve_levels_ndb(r_blocks, out).reshape(-1)
        if self.mode == "ndb":
            return first
        correction = residual - self.operator.balance_matvec(first)
        out_nf = np.empty_like(r_blocks)
        second = self._solve_levels_nf(correction.reshape(-1, K), out_nf)
        return first + second.reshape(-1)

    def as_linear_operator(self) -> sparse_linalg.LinearOperator:
        n = self.operator.num_states
        return sparse_linalg.LinearOperator((n, n), matvec=self.solve, dtype=float)


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
        self._sweep = LevelSweepPreconditioner(operator, mode="nf")
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

