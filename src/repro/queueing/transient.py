"""Time-varying solution layers for the closed MAP network.

The steady-state solvers answer "what does the network do under a fixed
load?"; the paper's motivating scenarios — flash crowds, regime-switching
burstiness, server slowdown and recovery — are *time-varying*.  This module
adds the two classical answers on top of the existing machinery:

Piecewise-stationary sweeps
    :func:`solve_piecewise_stationary` solves each timeline segment's network
    to steady state, warm-starting every segment's iterative linear solve
    from the previous segment's distribution (remapped across population
    changes).  Valid when segments are long relative to the network's
    relaxation time; each segment's result is *exactly* the steady state of
    that segment's network — identical to an independent
    :meth:`~repro.queueing.map_network.MapClosedNetworkSolver.solve` on the
    direct tier, and equal to solver tolerance on the iterative tiers.

True transients by uniformization
    :func:`solve_piecewise_transient` propagates the full state distribution
    through the timeline: within each segment the generator is fixed and the
    distribution evolves as ``pi(t) = pi(0) e^{Q t}``, evaluated by
    uniformization (:func:`uniformized_transient`) on the *materialized*
    generator — both the distribution at the segment end and its time
    average over the segment, so time-averaged transient metrics are
    directly comparable to what the simulators measure.

Both layers share the boundary conventions of the time-varying simulators
(:mod:`repro.simulation.timevarying`): service-MAP regime switches carry the
current phase over (all segments must use MAPs of equal orders), population
increases add customers to the think station, and population decreases drop
the excess customers from the front queue first, then the database queue
(:func:`remap_distribution`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.maps.failures import frozen_map
from repro.maps.map_process import MAP
from repro.queueing.kron import NetworkStateSpace, remap_distribution
from repro.queueing.map_network import MapClosedNetworkSolver, MapNetworkResult

__all__ = [
    "NetworkSegment",
    "SegmentTransient",
    "PiecewiseTransientSolution",
    "remap_distribution",
    "uniformized_transient",
    "solve_piecewise_stationary",
    "solve_piecewise_transient",
]

#: Uniformization rate safety factor above the largest exit rate; keeps the
#: DTMC's diagonal strictly positive so iterates stay non-negative.
_UNIFORMIZATION_SLACK = 1.02

#: Hard cap on uniformization terms per segment.  ``Lambda * duration`` terms
#: are needed (one sparse matvec each); beyond this the transient tier is the
#: wrong tool and the caller should use piecewise-stationary or simulation.
MAX_UNIFORMIZATION_TERMS = 200_000


@dataclass(frozen=True)
class NetworkSegment:
    """One stationary segment of a time-varying closed MAP network.

    ``front_up`` / ``db_up`` mark hard outages: a down station serves at
    rate zero (its service MAP is frozen — no completions, no phase
    transitions) while jobs keep queueing at it.  ``front`` / ``db`` always
    hold the *healthy* service MAPs so phases and initial distributions stay
    well-defined; solvers and simulators must use :meth:`effective_front` /
    :meth:`effective_db` for the segment's actual dynamics.
    """

    duration: float
    front: MAP
    db: MAP
    think_time: float
    population: int
    label: str = ""
    front_up: bool = True
    db_up: bool = True

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise ValueError("segment duration must be positive")
        if self.population < 1:
            raise ValueError("segment population must be >= 1")
        if self.think_time <= 0:
            raise ValueError("segment think_time must be positive")

    @property
    def has_outage(self) -> bool:
        return not (self.front_up and self.db_up)

    def effective_front(self) -> MAP:
        """The front service MAP governing this segment (frozen when down)."""
        return self.front if self.front_up else frozen_map(self.front.order)

    def effective_db(self) -> MAP:
        """The db service MAP governing this segment (frozen when down)."""
        return self.db if self.db_up else frozen_map(self.db.order)


def _require_equal_orders(segments: list[NetworkSegment] | tuple[NetworkSegment, ...]) -> None:
    if not segments:
        raise ValueError("at least one segment is required")
    first = segments[0]
    for segment in segments[1:]:
        if (
            segment.front.order != first.front.order
            or segment.db.order != first.db.order
        ):
            raise ValueError(
                "all segments must use service MAPs of equal orders so phases "
                "carry over at regime switches"
            )


def uniformized_transient(
    generator,
    initial: np.ndarray,
    duration: float,
    tol: float = 1e-10,
    max_terms: int = MAX_UNIFORMIZATION_TERMS,
) -> tuple[np.ndarray, np.ndarray]:
    """Transient distribution of a CTMC by uniformization.

    Returns ``(pi_end, pi_avg)``: the distribution at time ``duration`` and
    the *time-averaged* distribution over ``[0, duration]``.  With
    ``P = I + Q / Lambda`` and ``v_k = pi(0) P^k``,

    .. math::

        pi(t) = \\sum_k e^{-q} q^k / k! \\; v_k, \\qquad
        \\frac{1}{t}\\int_0^t pi(s)\\,ds = \\sum_k \\frac{P[N_q > k]}{q} v_k

    where ``q = Lambda t`` and ``N_q`` is Poisson(``q``) — both sums use the
    same power iterates, so the average costs nothing extra.  The series is
    truncated once the Poisson mass beyond ``k`` drops below ``tol`` and both
    results are renormalised.
    """
    from scipy.stats import poisson

    initial = np.asarray(initial, dtype=float)
    if duration <= 0:
        return initial.copy(), initial.copy()
    Q = generator.tocsr()
    rate_scale = float(np.abs(Q.diagonal()).max())
    if rate_scale <= 0:  # absorbing-everywhere chain: nothing moves
        return initial.copy(), initial.copy()
    lam = rate_scale * _UNIFORMIZATION_SLACK
    q = lam * duration
    k_hi = int(np.ceil(q + 12.0 * np.sqrt(q + 1.0) + 25.0))
    if k_hi > max_terms:
        raise ValueError(
            f"uniformization needs ~{k_hi} terms (Lambda*t = {q:.3g}); beyond "
            f"max_terms={max_terms} use piecewise-stationary solves or the "
            "simulators for this segment"
        )
    ks = np.arange(k_hi + 1)
    pmf = poisson.pmf(ks, q)
    sf = poisson.sf(ks, q)
    keep = int(np.searchsorted(np.cumsum(pmf), 1.0 - tol)) + 1
    keep = min(keep + 1, k_hi + 1)

    v = initial.copy()
    pi_end = np.zeros_like(v)
    pi_avg = np.zeros_like(v)
    for k in range(keep):
        pi_end += pmf[k] * v
        pi_avg += (sf[k] / q) * v
        if k < keep - 1:
            v = v + (v @ Q) / lam
            # P is stochastic, so negatives are pure round-off; renormalise
            # to keep the iterate a distribution over long series.
            np.clip(v, 0.0, None, out=v)
            v /= v.sum()
    pi_end = np.clip(pi_end, 0.0, None)
    pi_avg = np.clip(pi_avg, 0.0, None)
    return pi_end / pi_end.sum(), pi_avg / pi_avg.sum()


def _segment_key(segment: NetworkSegment) -> tuple:
    """Value-identity of a segment's network (for steady-state reuse)."""
    return (
        segment.front.D0.tobytes(),
        segment.front.D1.tobytes(),
        segment.db.D0.tobytes(),
        segment.db.D1.tobytes(),
        segment.think_time,
        segment.population,
        segment.front_up,
        segment.db_up,
    )


def solve_piecewise_stationary(
    segments: list[NetworkSegment] | tuple[NetworkSegment, ...],
    tier: str | None = None,
) -> list[MapNetworkResult]:
    """Steady state of every segment's network, warm-started across segments.

    Each returned result is exactly the steady state of that segment's
    (front, db, think, population) network: consecutive segments only share
    *warm starts* — the previous segment's distribution, remapped across any
    population change, seeds the next segment's iterative linear solve.  The
    direct tier ignores the guess entirely and the iterative tiers converge
    to the same residual threshold, so results match independent per-segment
    solves.  Identical consecutive networks are solved once and reused.
    """
    segments = list(segments)
    _require_equal_orders(segments)
    for index, segment in enumerate(segments):
        if segment.has_outage:
            raise ValueError(
                f"segment {index} ({segment.label or 'unlabelled'}) has a hard "
                "outage: a down station has no steady state (jobs accumulate "
                "until repair). Use solve_piecewise_transient or the "
                "simulators for outage timelines."
            )
    results: list[MapNetworkResult] = []
    solved: dict[tuple, tuple[NetworkStateSpace, np.ndarray, MapNetworkResult]] = {}
    previous: tuple[NetworkStateSpace, np.ndarray] | None = None
    for segment in segments:
        key = _segment_key(segment)
        if key in solved:
            space, distribution, result = solved[key]
        else:
            solver = MapClosedNetworkSolver(segment.front, segment.db, segment.think_time)
            guess = None
            if previous is not None:
                space = solver.state_space(segment.population)
                guess = remap_distribution(previous[0], previous[1], space)
            space, distribution, result = solver.solve_distribution(
                segment.population, tier=tier, initial_guess=guess
            )
            solved[key] = (space, distribution, result)
        results.append(result)
        previous = (space, distribution)
    return results


@dataclass(frozen=True)
class SegmentTransient:
    """Transient solution of one timeline segment."""

    label: str
    start: float
    end: float
    #: Metrics of the time-averaged distribution over the segment — the
    #: quantity the simulators' per-segment estimates converge to.
    average: MapNetworkResult
    #: Metrics of the distribution at the segment's end.
    final: MapNetworkResult


@dataclass(frozen=True)
class PiecewiseTransientSolution:
    """Uniformized transient through a whole timeline."""

    segments: tuple[SegmentTransient, ...]

    @property
    def horizon(self) -> float:
        return self.segments[-1].end

    def overall(self) -> dict:
        """Duration-weighted averages of the per-segment average metrics."""
        horizon = self.horizon
        keys = (
            "throughput",
            "front_utilization",
            "db_utilization",
            "front_queue_length",
            "db_queue_length",
        )
        totals = dict.fromkeys(keys, 0.0)
        for segment in self.segments:
            weight = (segment.end - segment.start) / horizon
            summary = segment.average.summary()
            for key in keys:
                totals[key] += weight * summary[key]
        return totals


def solve_piecewise_transient(
    segments: list[NetworkSegment] | tuple[NetworkSegment, ...],
    tol: float = 1e-10,
    max_terms: int = MAX_UNIFORMIZATION_TERMS,
) -> PiecewiseTransientSolution:
    """Exact transient of the time-varying network by uniformization.

    Starts from the empty network (everyone thinking, service phases at
    their embedded stationary distributions — exactly the simulators'
    initial state) and propagates the full distribution segment by segment
    on the materialized generator tier.  Segment boundaries apply the shared
    conventions: phases carry over regime switches,
    :func:`remap_distribution` handles population changes.
    """
    segments = list(segments)
    _require_equal_orders(segments)
    solution: list[SegmentTransient] = []
    pi: np.ndarray | None = None
    previous_space: NetworkStateSpace | None = None
    clock = 0.0
    for segment in segments:
        # The effective solver (frozen MAPs during an outage) supplies the
        # segment's generator and metrics; the initial distribution needs the
        # healthy MAPs' embedded stationary phases, so it always comes from a
        # solver over the true service processes (the state space is shared —
        # it depends only on population and phase orders).
        solver = MapClosedNetworkSolver(
            segment.effective_front(), segment.effective_db(), segment.think_time
        )
        space = solver.state_space(segment.population)
        if pi is None:
            base = MapClosedNetworkSolver(segment.front, segment.db, segment.think_time)
            pi = base.initial_distribution(space)
        elif previous_space is not None and previous_space.population != space.population:
            pi = remap_distribution(previous_space, pi, space)
        generator = solver._assembler.build(space)
        pi_end, pi_avg = uniformized_transient(
            generator, pi, segment.duration, tol=tol, max_terms=max_terms
        )
        solution.append(
            SegmentTransient(
                label=segment.label,
                start=clock,
                end=clock + segment.duration,
                average=solver.metrics_from_distribution(space, pi_avg),
                final=solver.metrics_from_distribution(space, pi_end),
            )
        )
        pi = pi_end
        previous_space = space
        clock += segment.duration
    return PiecewiseTransientSolution(segments=tuple(solution))
