"""Sparse continuous-time Markov chain utilities.

The exact solution of the closed MAP queueing network (Figure 9 of the paper)
requires building and solving a CTMC with up to hundreds of thousands of
states.  This module provides a small, reusable toolkit:

* :class:`SparseGeneratorBuilder` — incremental construction of a sparse
  generator matrix from individual transitions,
* :func:`assemble_generator` — one-shot construction from COO triplet arrays
  (the vectorised assembly path of :mod:`repro.queueing.kron` feeds this),
* :func:`steady_state_distribution` — robust solution of the global balance
  equations ``pi Q = 0``, ``pi 1 = 1``.

Solver tiers
------------
The balance system is built directly in COO/CSC form (no ``lil_matrix`` row
surgery).  Small systems go through a sparse direct LU solve, which is cheap
and the most accurate.  Larger systems are solved with an ILU-preconditioned
Krylov iteration first (BiCGSTAB, with a GMRES retry).  Beyond
:data:`MATERIALIZED_STATE_LIMIT` states even the materialized CSR + ILU pair
becomes the bottleneck (gigabytes of fill, minutes of factorisation), and
:func:`steady_state_matrix_free` takes over: a preconditioned Krylov solve
whose operator applies the generator directly from its Kronecker block
structure (:mod:`repro.queueing.kron_operator`) — nothing larger than
``O(states)`` is ever allocated.  :func:`choose_solver_tier` picks the tier
from the state count; the ``tier=`` keyword of the solver entry points is the
one way to force a tier.

Each tier is one ordered list of ``(name, strategy)`` pairs — direct, then
ILU-Krylov, then power iteration; or ILU-Krylov first; or matrix-free
BiCGSTAB, GMRES, then power iteration — run by one loop,
:func:`_run_strategies`.  Every candidate solution is validated against the
residual ``max |pi Q|`` before it is accepted; failures are logged and the
next strategy is tried.  When the uniformised power iteration at the end of
the list fails too, :class:`SteadyStateError` is raised.

Both entry points accept an optional :class:`SolveStats` sink that records,
per strategy attempted, the wall-clock seconds and Krylov iteration count —
iteration counts are machine-independent, which is what lets the benchmark
trajectory gate on them alongside wall clock.
"""

from __future__ import annotations

import dataclasses
import logging
import time

import numpy as np
import scipy.sparse as sparse
import scipy.sparse.linalg as sparse_linalg

__all__ = [
    "SparseGeneratorBuilder",
    "SolveAttempt",
    "SolveStats",
    "SteadyStateError",
    "assemble_generator",
    "steady_state_distribution",
    "steady_state_matrix_free",
    "choose_solver_tier",
    "SOLVER_TIERS",
    "DIRECT_SOLVE_STATE_LIMIT",
    "MATERIALIZED_STATE_LIMIT",
]

logger = logging.getLogger(__name__)

#: Below this many states the sparse direct solve, the most accurate option,
#: runs first.  Above it the ILU+Krylov path leads: the LU fill grows
#: super-linearly on lattice-structured generators.  The limit is kept for
#: accuracy, not speed: with the banded LU, ILU+BiCGSTAB is already faster
#: at 1,984 states (MAP(2) x MAP(2), N=30: 0.017 s direct vs 0.006 s), and at
#: 20,604 states (N=100) the direct solve takes 1.5 s against 0.17 s
#: (median of 5, 2-core Xeon).
DIRECT_SOLVE_STATE_LIMIT = 4_000

#: Above this many states the generator is no longer materialized at all:
#: the CSR + balance CSC + ILU working set passes ~1 GiB around 10^6 states
#: (measured 1.4 GiB peak RSS at N=1000, ~2*10^6 states) while the
#: matrix-free tier stays an order of magnitude leaner.
MATERIALIZED_STATE_LIMIT = 600_000

#: Tier names, in ascending problem-size order.
SOLVER_TIERS = ("direct", "ilu_krylov", "matrix_free")


@dataclasses.dataclass
class SolveAttempt:
    """One solver strategy attempt: what ran, for how long, with what outcome."""

    strategy: str
    seconds: float
    #: Krylov iterations consumed by the attempt (BiCGSTAB iterations, or
    #: GMRES inner iterations); ``None`` for non-Krylov strategies.
    iterations: int | None = None
    #: Whether this attempt produced the distribution that was returned.
    accepted: bool = False


@dataclasses.dataclass
class SolveStats:
    """Mutable sink for per-solve instrumentation.

    Pass an instance as the ``stats=`` keyword of
    :func:`steady_state_distribution` or :func:`steady_state_matrix_free`;
    the solver fills it in place (the return value stays a bare
    distribution, so no caller changes are forced).
    """

    #: Seconds spent building the preconditioner (ILU factorisation, or the
    #: multilevel lattice hierarchy); ``None`` if no preconditioner was built.
    precond_setup_seconds: float | None = None
    attempts: list[SolveAttempt] = dataclasses.field(default_factory=list)

    @property
    def krylov_iterations(self) -> int | None:
        """Total Krylov iterations across all attempts; ``None`` if none ran."""
        counts = [a.iterations for a in self.attempts if a.iterations is not None]
        return sum(counts) if counts else None

    def _record_setup(self, seconds: float) -> None:
        self.precond_setup_seconds = (self.precond_setup_seconds or 0.0) + seconds


class SteadyStateError(RuntimeError):
    """No strategy of a solver tier produced a valid steady state.

    A ``RuntimeError``, so the matrix-free to materialized tier fallback and
    experiment-cell supervision treat it like any other solver failure.
    """


def choose_solver_tier(num_states: int, override: str | None = None) -> str:
    """Pick the steady-state solver tier for a system of ``num_states``.

    ``override`` forces a tier regardless of size.  It is the one place a
    tier is forced: the ``tier=`` keyword of the solver entry points, the
    ``--tier`` CLI flag and a ctmc solver's ``{"tier": ...}`` option all
    reach it.  Unknown names raise ``ValueError``.
    """
    if override is not None:
        if override not in SOLVER_TIERS:
            raise ValueError(
                f"unknown solver tier {override!r}; expected one of {SOLVER_TIERS}"
            )
        return override
    if num_states <= DIRECT_SOLVE_STATE_LIMIT:
        return "direct"
    if num_states <= MATERIALIZED_STATE_LIMIT:
        return "ilu_krylov"
    return "matrix_free"


#: ILU preconditioner knobs for the Krylov path.  ``NATURAL`` ordering beats
#: COLAMD by ~10x here because the network's state enumeration already orders
#: the lattice blocks contiguously.
_ILU_DROP_TOL = 0.05
_ILU_FILL_FACTOR = 2.0

#: Acceptance threshold for a candidate distribution: the balance residual
#: ``max |pi Q|`` must be below this fraction of the largest exit rate.
_RESIDUAL_RTOL = 1e-8


def assemble_generator(rows, cols, rates, num_states: int) -> sparse.csr_matrix:
    """CSR generator from off-diagonal COO triplets.

    Duplicate ``(row, col)`` entries are summed and the diagonal is filled so
    that every row sums to zero.  Both the incremental
    :class:`SparseGeneratorBuilder` and the vectorised Kronecker assembly
    funnel through this helper, which guarantees the two paths produce
    bit-identical matrices for the same set of triplets.
    """
    off_diagonal = sparse.coo_matrix(
        (rates, (rows, cols)), shape=(num_states, num_states)
    ).tocsr()
    row_sums = np.asarray(off_diagonal.sum(axis=1)).reshape(-1)
    diagonal = sparse.diags(-row_sums)
    return (off_diagonal + diagonal).tocsr()


class SparseGeneratorBuilder:
    """Incremental builder of a sparse CTMC generator matrix.

    Off-diagonal transition rates are added with :meth:`add`; the diagonal is
    filled automatically so that every row sums to zero.
    """

    def __init__(self, num_states: int) -> None:
        if num_states < 1:
            raise ValueError("num_states must be >= 1")
        self.num_states = num_states
        self._rows: list[int] = []
        self._cols: list[int] = []
        self._rates: list[float] = []

    def add(self, source: int, destination: int, rate: float) -> None:
        """Add a transition with the given rate (ignored when rate <= 0)."""
        if rate <= 0:
            return
        if source == destination:
            raise ValueError("self-loops are not allowed in a CTMC generator")
        if not (0 <= source < self.num_states and 0 <= destination < self.num_states):
            raise IndexError("state index out of range")
        self._rows.append(source)
        self._cols.append(destination)
        self._rates.append(float(rate))

    def build(self) -> sparse.csr_matrix:
        """Return the generator as a CSR matrix with a consistent diagonal."""
        return assemble_generator(self._rows, self._cols, self._rates, self.num_states)


def _balance_system(generator: sparse.spmatrix):
    """Build ``A x = b`` for the balance equations, directly in CSC form.

    ``A`` is ``Q^T`` with the last row replaced by the normalisation
    constraint ``sum(pi) = 1`` — constructed from COO triplets instead of
    ``lil_matrix`` row surgery, which is both faster and allocation-light.
    """
    num_states = generator.shape[0]
    transposed = generator.T.tocoo()
    keep = transposed.row != num_states - 1
    rows = np.concatenate([transposed.row[keep], np.full(num_states, num_states - 1)])
    cols = np.concatenate([transposed.col[keep], np.arange(num_states)])
    data = np.concatenate([transposed.data[keep], np.ones(num_states)])
    A = sparse.csc_matrix((data, (rows, cols)), shape=(num_states, num_states))
    b = np.zeros(num_states)
    b[-1] = 1.0
    return A, b


def _validated(candidate, residual_of, rate_scale: float):
    """Normalise a candidate solution; ``None`` if it is not a distribution.

    Accepts the candidate only when it is finite, non-negative up to round-off
    and satisfies the balance equations to
    ``max |pi Q| <= 1e-8 * max(rate_scale, 1.0)`` with ``rate_scale`` the
    largest exit rate.  The floor of 1 makes the bound absolute when every
    rate is below 1, so it is not scale-free (ROADMAP: "One accuracy contract
    for every solver tier").  ``residual_of`` maps a normalised candidate to
    ``max |pi Q|`` — a sparse row-vector product for the materialized tiers,
    an operator matvec for the matrix-free tier.
    """
    candidate = np.asarray(candidate).reshape(-1)
    if not np.all(np.isfinite(candidate)) or candidate.min() < -1e-8:
        return None
    candidate = np.clip(candidate, 0.0, None)
    total = candidate.sum()
    if total <= 0:
        return None
    candidate = candidate / total
    if residual_of(candidate) > _RESIDUAL_RTOL * max(rate_scale, 1.0):
        return None
    return candidate


def _direct_solve(A, b) -> np.ndarray:
    """Sparse LU solve in the natural state order, without pivoting.

    The network's lattice order keeps the generator banded (bandwidth 122
    at 3,782 states), so the factors fill only the band plus the last row,
    which holds the normalisation constraint.  ``Q^T`` is column diagonally
    dominant, so elimination needs no pivoting.  COLAMD with partial
    pivoting (``spsolve``'s default) filled 1.7x more entries and took 4x
    longer on that system.  A singular factor raises ``RuntimeError``.
    """
    return sparse_linalg.splu(
        A, permc_spec="NATURAL", diag_pivot_thresh=0.0
    ).solve(b)


def _iteration_counter(counter: list[int]):
    """scipy callback that bumps ``counter[0]`` once per (inner) iteration.

    ``bicgstab`` invokes ``callback(xk)`` once per iteration;  ``gmres`` with
    ``callback_type="pr_norm"`` invokes it once per *inner* iteration — both
    give the machine-independent work count the benchmark trajectory gates on.
    """

    def callback(_arg) -> None:
        counter[0] += 1

    return callback


def _ilu_krylov_solve(A, b, initial_guess, counter, stats=None) -> np.ndarray:
    """ILU-preconditioned BiCGSTAB with a GMRES retry on stagnation.

    ``counter`` is a one-element list accumulating Krylov iterations — it is
    read by the caller even when this function raises, so iterations burnt by
    a failed attempt still show up in the stats.
    """
    setup_start = time.perf_counter()
    ilu = sparse_linalg.spilu(
        A,
        drop_tol=_ILU_DROP_TOL,
        fill_factor=_ILU_FILL_FACTOR,
        permc_spec="NATURAL",
        diag_pivot_thresh=0.0,
    )
    if stats is not None:
        stats._record_setup(time.perf_counter() - setup_start)
    preconditioner = sparse_linalg.LinearOperator(A.shape, ilu.solve)
    solution, info = sparse_linalg.bicgstab(
        A, b, M=preconditioner, x0=initial_guess, rtol=1e-12, atol=0.0,
        maxiter=2000, callback=_iteration_counter(counter),
    )
    if info != 0:
        solution, info = sparse_linalg.gmres(
            A,
            b,
            M=preconditioner,
            x0=initial_guess,
            rtol=1e-12,
            atol=0.0,
            restart=100,
            maxiter=2000,
            callback=_iteration_counter(counter),
            callback_type="pr_norm",
        )
    if info != 0:
        raise RuntimeError(f"Krylov iteration did not converge (info={info})")
    return solution


#: Strategies that report no Krylov iteration count.
_NON_KRYLOV_STRATEGIES = ("direct", "power")


def _run_strategies(strategies, residual_of, rate_scale: float, num_states: int,
                    stats: SolveStats | None, label: str) -> np.ndarray:
    """The one strategy loop of every solver tier.

    ``strategies`` is an ordered list of ``(name, strategy)`` pairs; a
    strategy maps a one-element Krylov iteration counter to a candidate
    solution.  The first candidate that passes :func:`_validated` is
    returned.  Every attempt is timed and recorded in ``stats``, and every
    failure is logged before the next strategy runs.  Raises
    :class:`SteadyStateError` when no candidate is accepted.
    """
    residual = None
    for position, (name, strategy) in enumerate(strategies, start=1):
        counter = [0]
        attempt_start = time.perf_counter()
        solution = None
        try:
            candidate = strategy(counter)
        except (RuntimeError, ValueError, ArithmeticError, MemoryError,
                np.linalg.LinAlgError) as error:
            # MemoryError is included deliberately: the direct fallback can hit
            # SuperLU's fill-in wall on large lattice generators, and the
            # power-iteration last resort must still get its chance.
            failure = f"failed ({type(error).__name__}: {error})"
        else:
            solution = _validated(candidate, residual_of, rate_scale)
            if solution is None:
                residual = residual_of(np.asarray(candidate, dtype=float).reshape(-1))
            failure = "produced an invalid distribution"
        if stats is not None:
            stats.attempts.append(SolveAttempt(
                name, time.perf_counter() - attempt_start,
                iterations=None if name in _NON_KRYLOV_STRATEGIES else counter[0],
                accepted=solution is not None,
            ))
        if solution is not None:
            return solution
        logger.warning(
            "%s steady-state %s solve %s%s", label, name, failure,
            "; trying next strategy" if position < len(strategies) else "",
        )
    raise SteadyStateError(
        f"no {label} strategy ({', '.join(name for name, _ in strategies)}) "
        f"produced a valid steady state for {num_states} states; last balance "
        f"residual max|pi Q| = {residual}"
    )


def steady_state_distribution(
    generator: sparse.spmatrix,
    tol: float = 1e-12,
    initial_guess: np.ndarray | None = None,
    tier: str | None = None,
    stats: SolveStats | None = None,
) -> np.ndarray:
    """Solve ``pi Q = 0`` with ``pi >= 0`` and ``sum(pi) = 1``.

    Parameters
    ----------
    generator:
        Square sparse CTMC generator (zero row sums).
    tol:
        Convergence tolerance of the power-iteration last resort.
    initial_guess:
        Optional warm start for the iterative paths — e.g. the steady state
        of a nearby model, as produced by population sweeps.  The direct
        solve ignores it, so providing a guess never changes the result of a
        successfully direct-solved system.
    tier:
        Forces a tier (:func:`choose_solver_tier`); ``None`` picks by size.
        ``direct`` runs direct, ILU-Krylov, then power iteration; any other
        tier runs ILU-Krylov first, since the generator is already
        materialized.
    stats:
        Optional :class:`SolveStats` filled in place with per-attempt
        timings and Krylov iteration counts.
    """
    num_states = generator.shape[0]
    if generator.shape[0] != generator.shape[1]:
        raise ValueError("generator must be square")
    tier = choose_solver_tier(num_states, override=tier)
    if num_states == 1:
        return np.array([1.0])

    generator = generator.tocsr()
    rate_scale = float(np.abs(generator.diagonal()).max())
    A, b = _balance_system(generator)

    def pi_q(pi):
        return pi @ generator

    strategies = [
        ("direct", lambda counter: _direct_solve(A, b)),
        ("ilu_krylov",
         lambda counter: _ilu_krylov_solve(A, b, initial_guess, counter, stats)),
    ]
    if tier != "direct":
        strategies.reverse()
    strategies.append(("power", lambda counter: _power_iteration_callable(
        pi_q, rate_scale, num_states, tol=tol, initial_guess=initial_guess,
    )))
    return _run_strategies(
        strategies, lambda candidate: float(np.abs(pi_q(candidate)).max()),
        rate_scale, num_states, stats, "materialized",
    )


#: Relative tolerance of the matrix-free Krylov iterations.  The acceptance
#: criterion is the absolute balance residual ``max |pi Q| <= 1e-8 *
#: rate_scale`` — at matrix-free sizes (rate scales of 10^3+) a 1e-9 Krylov
#: residual leaves three-plus orders of magnitude of safety margin while
#: saving the last ~quarter of the iterations a 1e-12 target would cost.
_MATRIX_FREE_RTOL = 1e-9
_MATRIX_FREE_MAXITER = 600


def _matrix_free_bicgstab(operator, b, initial_guess, preconditioner, counter):
    solution, info = sparse_linalg.bicgstab(
        operator.balance_operator(),
        b,
        M=preconditioner,
        x0=initial_guess,
        rtol=_MATRIX_FREE_RTOL,
        atol=0.0,
        maxiter=_MATRIX_FREE_MAXITER,
        callback=_iteration_counter(counter),
    )
    if info != 0:
        raise RuntimeError(f"matrix-free BiCGSTAB did not converge (info={info})")
    return solution


def _matrix_free_gmres(operator, b, initial_guess, preconditioner, counter):
    # Restart length 50 keeps the Krylov basis ~50 state vectors — the only
    # O(states) allocation of this tier beyond the operator itself.
    solution, info = sparse_linalg.gmres(
        operator.balance_operator(),
        b,
        M=preconditioner,
        x0=initial_guess,
        rtol=_MATRIX_FREE_RTOL,
        atol=0.0,
        restart=50,
        maxiter=40,
        callback=_iteration_counter(counter),
        callback_type="pr_norm",
    )
    if info != 0:
        raise RuntimeError(f"matrix-free GMRES did not converge (info={info})")
    return solution


def steady_state_matrix_free(
    operator,
    tol: float = 1e-12,
    initial_guess: np.ndarray | None = None,
    stats: SolveStats | None = None,
) -> np.ndarray:
    """Steady state through a matrix-free operator — nothing materialized.

    ``operator`` is a :class:`repro.queueing.kron_operator.MatrixFreeGenerator`
    (or any object with the same ``num_states`` / ``rate_scale`` /
    ``balance_operator`` / ``preconditioner`` / ``qt_matvec`` / ``residual``
    surface).  The solve targets the same normalised balance system as the
    materialized tiers — preconditioned BiCGSTAB first, a GMRES retry, and
    matrix-free power iteration as the last resort — and validates every
    candidate against the same ``max |pi Q|`` residual threshold.  ``stats``
    is an optional :class:`SolveStats` filled in place.
    """
    num_states = operator.num_states
    if num_states == 1:
        return np.array([1.0])
    b = np.zeros(num_states)
    b[-1] = 1.0

    setup_start = time.perf_counter()
    try:
        preconditioner = operator.preconditioner().as_linear_operator()
        if stats is not None:
            stats._record_setup(time.perf_counter() - setup_start)
    except (RuntimeError, ValueError, MemoryError, np.linalg.LinAlgError) as error:
        logger.warning(
            "matrix-free preconditioner setup failed (%s: %s); "
            "continuing unpreconditioned", type(error).__name__, error,
        )
        preconditioner = None

    strategies = [
        ("bicgstab", lambda counter: _matrix_free_bicgstab(
            operator, b, initial_guess, preconditioner, counter)),
        ("gmres", lambda counter: _matrix_free_gmres(
            operator, b, initial_guess, preconditioner, counter)),
        ("power", lambda counter: _power_iteration_callable(
            operator.qt_matvec, operator.rate_scale, num_states,
            tol=tol, initial_guess=initial_guess)),
    ]
    return _run_strategies(
        strategies, operator.residual, operator.rate_scale, num_states, stats,
        "matrix-free",
    )


#: Iteration cap of the power-iteration last resort.  An unconverged final
#: iterate still goes through residual validation like any other candidate.
_POWER_MAX_ITERATIONS = 200_000


def _power_iteration_callable(
    pi_q,
    rate_scale: float,
    num_states: int,
    tol: float = 1e-12,
    initial_guess: np.ndarray | None = None,
) -> np.ndarray:
    """Uniformised power iteration over a ``pi -> pi Q`` callable.

    The last strategy of every tier: a sparse row-vector product on the
    materialized tiers, the operator's ``qt_matvec`` on the matrix-free tier.
    One uniformisation step is ``pi + (pi Q) / Lambda`` with ``Lambda`` just
    above the largest exit rate, so no transition matrix is ever formed.
    Stops once no entry moves by ``tol`` or after
    :data:`_POWER_MAX_ITERATIONS` steps, returning the last iterate.
    """
    uniformisation_rate = rate_scale * 1.05 + 1e-12
    if initial_guess is not None and initial_guess.sum() > 0:
        pi = np.clip(np.asarray(initial_guess, dtype=float).reshape(-1), 0.0, None)
        pi = pi / pi.sum()
    else:
        pi = np.full(num_states, 1.0 / num_states)
    for _ in range(_POWER_MAX_ITERATIONS):
        new_pi = pi + np.asarray(pi_q(pi)).reshape(-1) / uniformisation_rate
        new_pi = np.clip(new_pi, 0.0, None)
        new_pi /= new_pi.sum()
        if np.abs(new_pi - pi).max() < tol:
            return new_pi
        pi = new_pi
    return pi
