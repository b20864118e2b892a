"""Analytical queueing solvers.

* :mod:`~repro.queueing.mva` — exact Mean Value Analysis for single-class
  closed queueing networks with a think-time (delay) station: the *baseline*
  capacity-planning model the paper argues against for bursty workloads.
* :mod:`~repro.queueing.map_network` — exact solution (via the underlying
  CTMC) of the closed MAP queueing network of Figure 9: think-time delay
  station plus two processor-sharing servers whose service processes are
  MAPs.  This is the model the paper's methodology parameterises.
* :mod:`~repro.queueing.kron` — Kronecker-structured state enumeration and
  vectorised generator assembly behind the exact solver.
* :mod:`~repro.queueing.kron_operator` — matrix-free application of the
  generator (and its level-sweep / multilevel preconditioners) for state
  spaces too large to materialize.
* :mod:`~repro.queueing.multilevel` — the recursive phase-preserving
  Galerkin hierarchy on the coarsened ``(n_front, n_db)`` lattice behind
  the matrix-free tier's coarse correction.
* :mod:`~repro.queueing.ctmc` — sparse continuous-time Markov chain
  utilities shared by the solvers, including the size-aware solver-tier
  selection (``direct`` / ``ilu_krylov`` / ``matrix_free``).
* :mod:`~repro.queueing.transient` — time-varying solution layers on top of
  the exact solver: piecewise-stationary sweeps with cross-segment warm
  starts, and true transients by uniformization on the materialized tier.
* :mod:`~repro.queueing.bounds` — asymptotic bounds for closed networks.
"""

from repro.queueing.mva import MVAResult, mva_closed_network
from repro.queueing.ctmc import (
    assemble_generator,
    choose_solver_tier,
    steady_state_distribution,
    steady_state_matrix_free,
    SOLVER_TIERS,
    SparseGeneratorBuilder,
)
from repro.queueing.kron import (
    KronGeneratorAssembler,
    NetworkStateSpace,
    remap_distribution,
)
from repro.queueing.kron_operator import (
    LevelSweepPreconditioner,
    MatrixFreeGenerator,
    MultilevelPreconditioner,
)
from repro.queueing.multilevel import LatticeHierarchy
from repro.queueing.map_network import (
    MapNetworkResult,
    solve_map_closed_network,
    MapClosedNetworkSolver,
)
from repro.queueing.transient import (
    NetworkSegment,
    PiecewiseTransientSolution,
    SegmentTransient,
    solve_piecewise_stationary,
    solve_piecewise_transient,
    uniformized_transient,
)
from repro.queueing.bounds import (
    ThroughputBounds,
    asymptotic_throughput_bounds,
    balanced_job_bounds,
)

__all__ = [
    "MVAResult",
    "mva_closed_network",
    "assemble_generator",
    "choose_solver_tier",
    "steady_state_distribution",
    "steady_state_matrix_free",
    "SOLVER_TIERS",
    "SparseGeneratorBuilder",
    "KronGeneratorAssembler",
    "NetworkStateSpace",
    "LevelSweepPreconditioner",
    "MatrixFreeGenerator",
    "MultilevelPreconditioner",
    "LatticeHierarchy",
    "MapNetworkResult",
    "solve_map_closed_network",
    "MapClosedNetworkSolver",
    "NetworkSegment",
    "PiecewiseTransientSolution",
    "SegmentTransient",
    "remap_distribution",
    "solve_piecewise_stationary",
    "solve_piecewise_transient",
    "uniformized_transient",
    "ThroughputBounds",
    "asymptotic_throughput_bounds",
    "balanced_job_bounds",
]
