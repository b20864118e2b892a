"""Exact solution of the closed MAP queueing network of Figure 9.

The paper's capacity-planning model is a closed queueing network with

* a delay station (the user think time ``Z``, exponentially distributed,
  infinite servers),
* a front-server queue and a database-server queue in series, both
  processor-sharing, whose *service processes* are MAPs (fitted MAP(2)s in
  the methodology, but the solver accepts MAPs of any order),
* a fixed population of ``N`` emulated browsers circulating
  think → front → database → think.

Because the service processes are MAPs rather than exponential, the network
has no product form; the paper solves it exactly "by building the underlying
Markov chain and solving the system of linear equations".  This module does
exactly that: the CTMC state is ``(n_front, n_db, phase_front, phase_db)``
with ``n_front + n_db <= N``; the service MAP of a server advances only while
that server is busy (the service process is defined on concatenated busy
periods, exactly as it is measured).

The generator is assembled from the network's Kronecker block structure
(:mod:`repro.queueing.kron`) with pure array arithmetic — no per-state Python
— and per-state metrics are vectorised reductions over the enumeration
arrays.  :meth:`MapClosedNetworkSolver.solve_sweep` reuses the block
structure across populations and warm-starts the iterative linear solver
from the previous population's steady state.  ``solve``, ``solve_sweep``
and ``solve_distribution`` share one per-population solve, so the three
return equal metrics for the same population, tier and warm start.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace

import numpy as np

from repro.maps.map_process import MAP
from repro.queueing.ctmc import (
    SolveStats,
    SparseGeneratorBuilder,
    choose_solver_tier,
    steady_state_distribution,
    steady_state_matrix_free,
)
from repro.queueing.kron import (
    ZERO_THINK_RATE,
    KronGeneratorAssembler,
    NetworkStateSpace,
    remap_distribution,
)

__all__ = ["MapNetworkResult", "MapClosedNetworkSolver", "solve_map_closed_network"]

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class MapNetworkResult:
    """Steady-state metrics of the closed MAP queueing network."""

    population: int
    think_time: float
    throughput: float
    front_utilization: float
    db_utilization: float
    front_queue_length: float
    db_queue_length: float
    mean_customers_thinking: float
    num_states: int
    #: Which solver tier produced the steady state (``direct``,
    #: ``ilu_krylov`` or ``matrix_free``); excluded from equality — it
    #: describes how the result was obtained, not what was computed.
    solver_tier: str = field(default="", compare=False)
    #: Total Krylov iterations spent producing the steady state; ``None``
    #: when only a direct solve ran.  Like the remaining solver diagnostics
    #: below, excluded from equality.
    krylov_iterations: int | None = field(default=None, compare=False)
    #: Seconds spent building preconditioners (ILU factorisation or the
    #: multilevel lattice hierarchy); ``None`` if none was built.
    precond_setup_seconds: float | None = field(default=None, compare=False)
    #: Per-strategy attempt records — tuples of dicts with ``strategy``,
    #: ``seconds``, ``iterations`` and ``accepted`` keys, in execution
    #: order.
    solver_attempts: tuple = field(default=(), compare=False)

    @property
    def response_time(self) -> float:
        """Mean end-to-end response time via Little's law (excludes think time)."""
        if self.throughput <= 0:
            return float("inf")
        return self.population / self.throughput - self.think_time

    def summary(self) -> dict:
        """Dictionary of the headline metrics."""
        return {
            "population": self.population,
            "throughput": self.throughput,
            "response_time": self.response_time,
            "front_utilization": self.front_utilization,
            "db_utilization": self.db_utilization,
            "front_queue_length": self.front_queue_length,
            "db_queue_length": self.db_queue_length,
        }


class MapClosedNetworkSolver:
    """Exact CTMC solver for the closed (delay → MAP/PS → MAP/PS) network.

    Parameters
    ----------
    front_service:
        Service process of the front (web/application) server.
    db_service:
        Service process of the database server.
    think_time:
        Mean exponential think time ``Z`` of the delay station (seconds).

    Notes
    -----
    The state space grows as ``(N + 1)(N + 2)/2 * K_front * K_db`` where the
    ``K``s are the MAP orders.  The Kronecker-structured assembly and the
    ILU-preconditioned linear solver keep populations of several hundred
    customers with MAP(2) service solvable exactly in seconds.
    """

    def __init__(self, front_service: MAP, db_service: MAP, think_time: float) -> None:
        if think_time < 0:
            raise ValueError("think_time must be non-negative")
        self.front_service = front_service
        self.db_service = db_service
        self.think_time = float(think_time)
        #: Local Kronecker transition families, shared by all populations.
        self._assembler = KronGeneratorAssembler(front_service, db_service, self.think_time)

    # ------------------------------------------------------------------
    # State-space enumeration
    # ------------------------------------------------------------------
    def state_space(self, population: int) -> NetworkStateSpace:
        """Array-based state enumeration at the given population."""
        return self._assembler.state_space(population)

    def _enumerate_states(self, population: int):
        """Dict-based enumeration retained for the naive reference builder."""
        k_front = self.front_service.order
        k_db = self.db_service.order
        states: list[tuple[int, int, int, int]] = []
        index: dict[tuple[int, int, int, int], int] = {}
        for n_front in range(population + 1):
            for n_db in range(population + 1 - n_front):
                for phase_front in range(k_front):
                    for phase_db in range(k_db):
                        state = (n_front, n_db, phase_front, phase_db)
                        index[state] = len(states)
                        states.append(state)
        return index, states

    def _build_generator(self, population: int):
        """Vectorised Kronecker assembly of the CTMC generator."""
        return self._assembler.build(self.state_space(population))

    def _build_generator_naive(self, population: int):
        """Per-state reference builder (the pre-Kronecker implementation).

        Kept as the ground truth for the property test asserting that the
        vectorised assembly produces bit-identical matrices; it is never used
        on the hot path.
        """
        index, states = self._enumerate_states(population)
        think_rate = 0.0 if self.think_time == 0 else 1.0 / self.think_time
        builder = SparseGeneratorBuilder(len(states))
        front_d0, front_d1 = self.front_service.D0, self.front_service.D1
        db_d0, db_d1 = self.db_service.D0, self.db_service.D1
        k_front = self.front_service.order
        k_db = self.db_service.order

        for state_id, (n_front, n_db, phase_front, phase_db) in enumerate(states):
            thinking = population - n_front - n_db
            # Think completion: a customer submits a new request to the front server.
            if thinking > 0:
                if self.think_time == 0:
                    # A zero think time is modelled as an immediate transition
                    # approximated by a very fast exponential stage.
                    rate = thinking * ZERO_THINK_RATE
                else:
                    rate = thinking * think_rate
                destination = (n_front + 1, n_db, phase_front, phase_db)
                builder.add(state_id, index[destination], rate)
            # Front server events (only while it is busy).
            if n_front > 0:
                for next_phase in range(k_front):
                    # Completion: the request moves to the database server.
                    rate = front_d1[phase_front, next_phase]
                    if rate > 0:
                        destination = (n_front - 1, n_db + 1, next_phase, phase_db)
                        builder.add(state_id, index[destination], rate)
                    # Hidden phase change.
                    if next_phase != phase_front:
                        rate = front_d0[phase_front, next_phase]
                        if rate > 0:
                            destination = (n_front, n_db, next_phase, phase_db)
                            builder.add(state_id, index[destination], rate)
            # Database server events (only while it is busy).
            if n_db > 0:
                for next_phase in range(k_db):
                    # Completion: the web page is delivered, the customer thinks.
                    rate = db_d1[phase_db, next_phase]
                    if rate > 0:
                        destination = (n_front, n_db - 1, phase_front, next_phase)
                        builder.add(state_id, index[destination], rate)
                    if next_phase != phase_db:
                        rate = db_d0[phase_db, next_phase]
                        if rate > 0:
                            destination = (n_front, n_db, phase_front, next_phase)
                            builder.add(state_id, index[destination], rate)
        return builder.build()

    # ------------------------------------------------------------------
    # Solution
    # ------------------------------------------------------------------
    def _metrics(
        self, space: NetworkStateSpace, distribution: np.ndarray
    ) -> MapNetworkResult:
        """Steady-state metrics as vectorised reductions over the state arrays."""
        n_front, n_db, _, phase_db = space.state_arrays()
        db_d1_row_sums = self.db_service.D1.sum(axis=1)
        db_busy_states = n_db > 0
        throughput = float(
            distribution[db_busy_states] @ db_d1_row_sums[phase_db[db_busy_states]]
        )
        return MapNetworkResult(
            population=space.population,
            think_time=self.think_time,
            throughput=throughput,
            front_utilization=float(distribution[n_front > 0].sum()),
            db_utilization=float(distribution[db_busy_states].sum()),
            front_queue_length=float(distribution @ n_front),
            db_queue_length=float(distribution @ n_db),
            mean_customers_thinking=float(
                distribution @ (space.population - n_front - n_db)
            ),
            num_states=space.num_states,
        )

    def _solve_space(
        self,
        space: NetworkStateSpace,
        tier: str | None,
        guess: np.ndarray | None,
    ) -> tuple[np.ndarray, MapNetworkResult]:
        """Steady state and metrics of one population's state space.

        The one per-population solve behind :meth:`solve`,
        :meth:`solve_sweep` and :meth:`solve_distribution`: picks the tier
        (``tier`` forces one), solves, and returns ``(distribution, result)``
        with the solver diagnostics attached.  A matrix-free failure falls
        back to the materialized ILU+Krylov tier (logged), so a forced or
        size-selected ``matrix_free`` never strands the caller; the
        diagnostics then cover the attempts of both tiers.
        """
        tier = choose_solver_tier(space.num_states, override=tier)
        stats = SolveStats()
        distribution = None
        if tier == "matrix_free":
            try:
                operator = self._assembler.operator(space)
                distribution = steady_state_matrix_free(
                    operator, initial_guess=guess, stats=stats
                )
            except (RuntimeError, ValueError, MemoryError,
                    np.linalg.LinAlgError) as error:
                logger.warning(
                    "matrix-free tier failed (%s: %s); falling back to the "
                    "materialized ilu_krylov tier", type(error).__name__, error,
                )
                tier = "ilu_krylov"
        if distribution is None:
            distribution = steady_state_distribution(
                self._assembler.build(space), initial_guess=guess, tier=tier,
                stats=stats,
            )
        result = self._diagnostics(self._metrics(space, distribution), tier, stats)
        return distribution, result

    @staticmethod
    def _diagnostics(result: MapNetworkResult, tier_used: str,
                     stats: SolveStats) -> MapNetworkResult:
        """Attach solver diagnostics to a metrics result."""
        return replace(
            result,
            solver_tier=tier_used,
            krylov_iterations=stats.krylov_iterations,
            precond_setup_seconds=stats.precond_setup_seconds,
            solver_attempts=tuple(
                {
                    "strategy": a.strategy,
                    "seconds": round(a.seconds, 6),
                    "iterations": a.iterations,
                    "accepted": a.accepted,
                }
                for a in stats.attempts
            ),
        )

    def metrics_from_distribution(
        self, space: NetworkStateSpace, distribution: np.ndarray
    ) -> MapNetworkResult:
        """Network metrics of an arbitrary distribution over ``space``.

        The distribution need not be the steady state: the transient layer
        (:mod:`repro.queueing.transient`) evaluates time-averaged and
        end-of-segment distributions through the same reductions, so
        piecewise-stationary and transient metrics are directly comparable.
        """
        return self._metrics(space, distribution)

    def initial_distribution(self, space: NetworkStateSpace) -> np.ndarray:
        """The empty-network distribution: everyone thinking, phases stationary.

        All probability mass sits in the ``(n_front, n_db) = (0, 0)`` block,
        spread over the phase pairs as the product of the two MAPs' embedded
        stationary distributions — exactly how the simulators initialise
        their replications, which makes transient solutions and simulated
        trajectories start from the same state.
        """
        phase_product = np.outer(
            self.front_service.embedded_stationary, self.db_service.embedded_stationary
        ).ravel()
        distribution = np.zeros(space.num_states)
        block = space.block_index(0, 0) * space.block_size
        distribution[block:block + space.block_size] = phase_product
        return distribution / distribution.sum()

    def solve(
        self,
        population: int,
        tier: str | None = None,
        initial_guess: np.ndarray | None = None,
    ) -> MapNetworkResult:
        """Solve the network for the given customer population.

        ``tier`` forces a solver tier (``direct``, ``ilu_krylov`` or
        ``matrix_free``); by default :func:`repro.queueing.ctmc.choose_solver_tier`
        picks from the state count.  The result records the tier that
        produced it.  ``initial_guess`` warm-starts the iterative tiers (the
        direct solve ignores it, so small systems return identical results
        either way); piecewise-stationary sweeps pass the previous segment's
        steady state.
        """
        return self.solve_distribution(population, tier, initial_guess)[2]

    def solve_distribution(
        self,
        population: int,
        tier: str | None = None,
        initial_guess: np.ndarray | None = None,
    ) -> tuple[NetworkStateSpace, np.ndarray, MapNetworkResult]:
        """Steady-state distribution and metrics of one population.

        Returns ``(space, distribution, result)``; ``result`` is what
        :meth:`solve` returns for the same arguments.  The piecewise layers
        in :mod:`repro.queueing.transient` chain these distributions across
        segments — as warm starts for the next segment's steady state, or as
        the initial condition of the next segment's transient.
        """
        if population < 1:
            raise ValueError("population must be >= 1")
        space = self.state_space(population)
        distribution, result = self._solve_space(space, tier, initial_guess)
        return space, distribution, result

    def solve_sweep(
        self,
        populations,
        tier: str | None = None,
    ) -> list[MapNetworkResult]:
        """Solve the network for every population in ``populations``.

        Populations are solved in ascending order (each distinct value once)
        so that the iterative linear solver of each population can be
        warm-started from the previous population's steady state, carried
        into the larger state space by :func:`remap_distribution`; results
        are returned in request order.  The direct sparse solve used for
        small systems ignores the warm start, so sweep results are identical
        to individual :meth:`solve` calls there and agree to solver tolerance
        everywhere else.  The solver tier is chosen per population (warm
        starts carry across tier boundaries); ``tier`` forces one for the
        whole sweep.
        """
        requested = [int(n) for n in populations]
        targets = sorted(set(requested))
        for population in targets:
            if population < 1:
                raise ValueError("population must be >= 1")
        solved: dict[int, MapNetworkResult] = {}
        previous: tuple[NetworkStateSpace, np.ndarray] | None = None
        for population in targets:
            space = self.state_space(population)
            guess = None
            if previous is not None:
                guess = remap_distribution(previous[0], previous[1], space)
            distribution, solved[population] = self._solve_space(space, tier, guess)
            previous = (space, distribution)
        return [solved[population] for population in requested]


def solve_map_closed_network(
    front_service: MAP, db_service: MAP, think_time: float, population: int
) -> MapNetworkResult:
    """Convenience wrapper: build the solver and solve one population."""
    solver = MapClosedNetworkSolver(front_service, db_service, think_time)
    return solver.solve(population)
