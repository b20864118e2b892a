"""Output checks made from outside the program.

Every check is an invariant the model implies, with a stated tolerance, so a
change of summation order or solver tolerance inside the program does not
fail the benchmark while a wrong answer does.  Integers are compared exactly
where the program promises them.  A failed check raises :class:`CheckFailed`.
"""

from __future__ import annotations

import math

import numpy as np

from repro.queueing.bounds import asymptotic_throughput_bounds, balanced_job_bounds

#: Relative tolerance of the exact-solver invariants.  The iterative tiers
#: accept a distribution at a balance residual of about 1e-8 of the largest
#: rate; the invariants below hold to well inside 1e-6 then.
SOLVER_RTOL = 1e-6
#: Simulation throughput must lie within this many standard errors of the
#: exact CTMC throughput at the same grid point.
SIM_STANDARD_ERRORS = 5.0
#: The MAP(2) fit keeps candidates whose index of dispersion is within
#: this relative distance of the measured one (the paper's +-20 %).
FIT_DISPERSION_TOLERANCE = 0.20


class CheckFailed(AssertionError):
    """An output of the program broke a stated invariant."""


def _close(actual: float, expected: float, rtol: float, what: str) -> None:
    scale = max(abs(expected), abs(actual), 1e-12)
    if not math.isfinite(actual) or abs(actual - expected) > rtol * scale:
        raise CheckFailed(f"{what}: got {actual!r}, expected {expected!r} (rtol {rtol:g})")


def check_throughput_bounds(
    throughput: float, demands, think_time: float, population: int,
    rtol: float = SOLVER_RTOL,
) -> None:
    """X lies within the asymptotic and the balanced-job bounds."""
    bounds = [
        asymptotic_throughput_bounds(demands, think_time, population),
        balanced_job_bounds(demands, think_time, population),
    ]
    check_within(throughput, max(b.lower for b in bounds), min(b.upper for b in bounds),
                 f"N={population}: throughput", rtol)


def check_closed_network(
    population: int,
    think_time: float,
    throughput: float,
    response_time: float,
    utilizations,
    demands,
    rtol: float = SOLVER_RTOL,
) -> None:
    """X = N/(R+Z), U = X*D per tier and the throughput bounds."""
    if throughput <= 0:
        raise CheckFailed(f"N={population}: non-positive throughput {throughput!r}")
    _close(throughput, population / (response_time + think_time), rtol,
           f"N={population}: response-time law X = N/(R+Z)")
    for tier, (utilization, demand) in enumerate(zip(utilizations, demands)):
        if not 0.0 <= utilization <= 1.0 + rtol:
            raise CheckFailed(f"N={population}: utilization {utilization!r} of tier {tier}")
        _close(utilization, throughput * demand, rtol,
               f"N={population}: utilization law U = X*D at tier {tier}")
    check_throughput_bounds(throughput, demands, think_time, population, rtol)


def check_map_network_result(result, demands, rtol: float = SOLVER_RTOL) -> None:
    """Invariants of a ``MapNetworkResult``; ``demands`` are the MAP means.

    Probability mass is checked through the population: the mean numbers of
    customers at the two queues and at the delay add up to N only when the
    distribution sums to one.  The response time is taken from Little's law
    over the two queues, so X = N/(R+Z) also checks Little's law at the delay.
    """
    n = result.population
    total = result.front_queue_length + result.db_queue_length + result.mean_customers_thinking
    _close(total / n, 1.0, rtol, f"N={n}: probability mass")
    response = (result.front_queue_length + result.db_queue_length) / result.throughput
    check_closed_network(
        n, result.think_time, result.throughput, response,
        (result.front_utilization, result.db_utilization), demands, rtol,
    )


def check_row_network(metrics: dict, population: int, think_time: float, demands,
                      rtol: float = SOLVER_RTOL) -> None:
    """Invariants of one experiment row of the CTMC or MVA solver.

    The row has no thinking count, so probability mass is checked through
    the population with Little's law at the delay: Q_front + Q_db + X*Z = N.
    """
    throughput = metrics["throughput"]
    total = metrics["front_queue_length"] + metrics["db_queue_length"] + throughput * think_time
    _close(total / population, 1.0, rtol, f"N={population}: probability mass")
    check_closed_network(
        population, think_time, throughput, metrics["response_time"],
        (metrics["front_utilization"], metrics["db_utilization"]), demands, rtol,
    )


def check_within(value: float, lower: float, upper: float, what: str,
                 rtol: float = SOLVER_RTOL) -> None:
    """``lower <= value <= upper`` up to a relative slack."""
    if not lower * (1 - rtol) <= value <= upper * (1 + rtol):
        raise CheckFailed(f"{what} {value!r} outside [{lower!r}, {upper!r}]")


def check_mva_result(result, rtol: float = 1e-9) -> None:
    """Invariants of an ``MVAResult`` at every population it covers."""
    demands = np.asarray(result.demands, dtype=float)
    for n in range(1, result.population + 1):
        throughput = result.throughput_at(n)
        queues = result.queue_length_at(n)
        _close(float(queues.sum()) + throughput * result.think_time, float(n), rtol,
               f"N={n}: MVA population (mass)")
        check_closed_network(
            n, result.think_time, throughput, result.system_response_time(n),
            result.utilization_at(n), demands, rtol,
        )


def check_simulation_agrees(
    replicate_throughputs, exact_throughput: float,
    standard_errors: float = SIM_STANDARD_ERRORS,
) -> float:
    """Mean simulated X within ``standard_errors`` SEs of the exact X.

    Returns the distance in standard errors.
    """
    samples = np.asarray(replicate_throughputs, dtype=float)
    if samples.size < 2:
        raise CheckFailed("a standard error needs at least two replications")
    error = samples.std(ddof=1) / math.sqrt(samples.size)
    distance = abs(samples.mean() - exact_throughput) / max(error, 1e-12)
    if distance > standard_errors:
        raise CheckFailed(
            f"simulated throughput {samples.mean():.6g} is {distance:.2f} standard "
            f"errors from the exact {exact_throughput:.6g} (limit {standard_errors:g})"
        )
    return float(distance)


def check_fitted_map(process, target_dispersion: float, target_mean: float,
                     tolerance: float = FIT_DISPERSION_TOLERANCE) -> None:
    """The fitted MAP keeps the mean and meets the dispersion tolerance.

    The index of dispersion is recomputed from the MAP itself.  A target at
    or below 1 is fitted by the exponential MAP (I = 1) by contract.
    """
    _close(process.mean(), target_mean, 1e-9, "fitted MAP mean")
    achieved = process.index_of_dispersion()
    if target_dispersion <= 1.0:
        _close(achieved, 1.0, 1e-9, "exponential fit index of dispersion")
        return
    relative = abs(achieved - target_dispersion) / target_dispersion
    if relative > tolerance:
        raise CheckFailed(
            f"fitted index of dispersion {achieved:.6g} is {relative:.1%} from the "
            f"target {target_dispersion:.6g} (tolerance {tolerance:.0%})"
        )


def check_equal(actual, expected, what: str) -> None:
    """Exact equality, for integers and values the program promises exactly."""
    if actual != expected:
        raise CheckFailed(f"{what}: got {actual!r}, expected {expected!r}")


def check_cache_replay(cold, replay) -> None:
    """A replay computes nothing and returns the cold run's rows unchanged."""
    check_equal(replay.meta.get("cells_computed"), 0, "cells computed on replay")
    check_equal(replay.meta.get("cells_from_cache"), cold.meta["cells_total"],
                "cells served from cache on replay")
    cold_rows = {(r.solver, r.replication, tuple(sorted(r.params.items()))): r.metrics
                 for r in cold.rows}
    replay_rows = {(r.solver, r.replication, tuple(sorted(r.params.items()))): r.metrics
                   for r in replay.rows}
    check_equal(replay_rows, cold_rows, "replayed metrics")


def check_service_health(health: dict) -> None:
    """The service ends healthy and serves a fresh forecast."""
    check_equal(health.get("status"), "healthy", "service status")
    check_equal(health.get("serving"), "fresh", "served forecast")
