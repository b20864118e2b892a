"""Fitting a MAP(2) from (mean, index of dispersion, 95th percentile).

Section 4.1 of the paper parameterises the service process of each server
with a two-phase Markovian Arrival Process fitted from exactly three numbers
that can all be obtained from coarse measurements:

* the mean service time,
* the index of dispersion ``I`` (from the Figure-2 estimator),
* the 95th percentile of the service times (from busy-period scaling).

The procedure generates a set of candidate MAP(2)s whose index of dispersion
is within ±20 % of the measured value and selects the candidate whose 95th
percentile is closest to the measured one; ties are broken in favour of the
largest lag-1 autocorrelation (the paper's recommendation, as it yields
slightly conservative capacity estimates).

The candidate family used here is the *correlated hyper-exponential* MAP(2)
(:func:`repro.maps.map2.map2_from_moments_and_decay`): its marginal is a
two-phase hyper-exponential (so the mean is matched exactly and the 95th
percentile is controlled by the SCV and the branch-probability parameters)
while the stickiness of the phase chain controls the index of dispersion
independently of the marginal.

That family has a closed-form index of dispersion,

    I = SCV + (SCV - 1) * decay / (1 - decay),

which does not depend on the branch probability.  The fit evaluates it for
the whole grid in numpy first and builds a :class:`MAP` only for candidates
whose closed-form relative error is within the tolerance plus a margin of
``1e-9`` (the closed form agrees with :meth:`MAP.index_of_dispersion` to about
``1e-11`` relative).  The survivors then go through the matrix-based check,
so the filter only skips candidates the matrix check would reject and the
result is the same as scanning the full grid.  When nothing is feasible, only
the candidates whose closed-form error is within the margin of the best
constructible one are evaluated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.maps.map2 import map2_exponential, map2_from_moments_and_decay
from repro.maps.map_process import MAP

__all__ = [
    "FittedServiceProcess",
    "MapFitError",
    "fit_map2_from_measurements",
    "candidate_grid",
]


class MapFitError(RuntimeError):
    """No feasible MAP(2) candidate could be constructed for a target triple.

    Subclasses :class:`RuntimeError` for backward compatibility (callers that
    caught the historical bare ``RuntimeError`` keep working) but carries the
    fitting targets and nearest-feasible diagnostics so supervised callers —
    e.g. the live service's degradation path — can log *why* a refit failed
    instead of a bare one-liner.

    Attributes
    ----------
    target_mean, target_dispersion, target_p95:
        The measured ``(mean, I, p95)`` triple the fit was asked to match
        (``target_p95`` may be ``None``).
    candidates_considered:
        How many grid candidates were attempted before giving up.
    nearest:
        Diagnostics of the constructible candidate whose index of dispersion
        came closest to the target — ``{"achieved_dispersion", "scv",
        "decay", "relative_error"}`` — or ``None`` when not a single grid
        candidate was constructible.
    """

    def __init__(
        self,
        message: str,
        *,
        target_mean: float,
        target_dispersion: float,
        target_p95: float | None = None,
        candidates_considered: int = 0,
        nearest: dict | None = None,
    ) -> None:
        details = (
            f"{message} (targets: mean={target_mean:g}, "
            f"I={target_dispersion:g}, p95="
            f"{'none' if target_p95 is None else format(target_p95, 'g')}; "
            f"{candidates_considered} candidate(s) considered"
        )
        if nearest is not None:
            details += (
                f"; nearest feasible: I={nearest.get('achieved_dispersion'):g} "
                f"at scv={nearest.get('scv'):g}, decay={nearest.get('decay'):g}, "
                f"relative error {nearest.get('relative_error'):.1%}"
            )
        details += ")"
        super().__init__(details)
        self.target_mean = target_mean
        self.target_dispersion = target_dispersion
        self.target_p95 = target_p95
        self.candidates_considered = candidates_considered
        self.nearest = dict(nearest) if nearest is not None else None


@dataclass(frozen=True)
class FittedServiceProcess:
    """A fitted MAP(2) service process together with fitting diagnostics."""

    map: MAP
    mean: float
    target_dispersion: float
    achieved_dispersion: float
    target_p95: float | None
    achieved_p95: float
    scv: float
    decay: float
    branch_probability: float | None
    candidates_considered: int
    candidates_feasible: int

    @property
    def dispersion_error(self) -> float:
        """Relative error on the index of dispersion."""
        if self.target_dispersion == 0:
            return 0.0
        return abs(self.achieved_dispersion - self.target_dispersion) / self.target_dispersion

    @property
    def p95_error(self) -> float | None:
        """Relative error on the 95th percentile (``None`` if no target)."""
        if self.target_p95 is None or self.target_p95 == 0:
            return None
        return abs(self.achieved_p95 - self.target_p95) / self.target_p95

    def summary(self) -> dict:
        """Dictionary summarising the fit, convenient for reports."""
        return {
            "mean": self.mean,
            "target_I": self.target_dispersion,
            "achieved_I": self.achieved_dispersion,
            "target_p95": self.target_p95,
            "achieved_p95": self.achieved_p95,
            "scv": self.scv,
            "decay": self.decay,
            "candidates": self.candidates_feasible,
        }


# Slack on the closed-form filter: the closed form and the matrix
# ``index_of_dispersion()`` agree to ~1e-11 relative on the candidate grid.
CLOSED_FORM_MARGIN = 1e-9


def _closed_form_dispersion(scv, decay):
    """Index of dispersion of the correlated hyper-exponential MAP(2)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return scv + (scv - 1.0) * decay / (1.0 - decay)


def candidate_grid(
    target_dispersion: float,
    scv_values=None,
    decay_values=None,
    branch_probabilities=(None, 0.7, 0.9, 0.975),
) -> list[tuple[float, float, float | None]]:
    """Enumerate the (SCV, decay, branch-probability) candidate grid.

    The SCV grid spans from just above 1 to slightly above the target index
    of dispersion (an SCV larger than ``I`` is unreachable with positive
    correlation, and the paper's workloads all satisfy ``SCV <= I``).
    """
    if target_dispersion <= 0:
        raise ValueError("target_dispersion must be positive")
    if scv_values is None:
        upper = max(2.0, min(1.2 * target_dispersion, 400.0))
        scv_values = np.unique(
            np.concatenate(
                [
                    np.array([1.05, 1.25, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 24.0, 32.0]),
                    np.geomspace(1.05, upper, 12),
                ]
            )
        )
        scv_values = scv_values[scv_values <= upper]
    if decay_values is None:
        decay_values = np.array(
            [0.0, 0.3, 0.5, 0.7, 0.8, 0.9, 0.95, 0.975, 0.99, 0.995, 0.998, 0.999, 0.9995]
        )
    grid: list[tuple[float, float, float | None]] = []
    for scv in scv_values:
        for decay in decay_values:
            for p1 in branch_probabilities:
                grid.append((float(scv), float(decay), p1))
    return grid


def fit_map2_from_measurements(
    mean: float,
    index_of_dispersion: float,
    p95: float | None = None,
    dispersion_tolerance: float = 0.20,
    scv_values=None,
    decay_values=None,
    branch_probabilities=(None, 0.7, 0.9, 0.975),
) -> FittedServiceProcess:
    """Fit a MAP(2) to the measured (mean, I, p95) triple.

    Parameters
    ----------
    mean:
        Measured mean service time (must be positive).
    index_of_dispersion:
        Measured index of dispersion ``I``.
    p95:
        Measured 95th percentile of the service times; ``None`` selects the
        candidate with the smallest dispersion error instead.
    dispersion_tolerance:
        Maximum relative error on ``I`` for a candidate to be retained
        (the paper uses ±20 %).
    scv_values, decay_values, branch_probabilities:
        Optional overrides of the candidate grid (see :func:`candidate_grid`).

    Returns
    -------
    FittedServiceProcess

    Notes
    -----
    * When ``I <= 1`` (no burstiness, low variability) the exponential MAP is
      returned directly: burstiness plays no role and the mean dominates the
      queueing behaviour.
    * The fit never alters the mean: every candidate matches it exactly.
    """
    if mean <= 0:
        raise ValueError("mean must be positive")
    if index_of_dispersion <= 0:
        raise ValueError("index_of_dispersion must be positive")
    if index_of_dispersion <= 1.0 + 1e-9:
        exponential = map2_exponential(mean)
        return FittedServiceProcess(
            map=exponential,
            mean=mean,
            target_dispersion=index_of_dispersion,
            achieved_dispersion=1.0,
            target_p95=p95,
            achieved_p95=exponential.interarrival_percentile(0.95),
            scv=1.0,
            decay=0.0,
            branch_probability=None,
            candidates_considered=1,
            candidates_feasible=1,
        )

    grid = candidate_grid(index_of_dispersion, scv_values, decay_values, branch_probabilities)
    closed_form = _closed_form_dispersion(
        np.array([scv for scv, _, _ in grid]), np.array([decay for _, decay, _ in grid])
    )
    closed_form_errors = np.abs(closed_form - index_of_dispersion) / index_of_dispersion

    def build(index):
        """``(achieved_i, scv, decay, relative_error, p1, MAP)``, or None."""
        scv, decay, p1 = grid[index]
        try:
            candidate = map2_from_moments_and_decay(mean, scv, decay, p1)
        except ValueError:
            return None
        achieved_i = candidate.index_of_dispersion()
        relative_error = abs(achieved_i - index_of_dispersion) / index_of_dispersion
        return (achieved_i, scv, decay, relative_error, p1, candidate)

    feasible: list[tuple[float, float, float, float, float | None, MAP]] = []
    # ``not >`` keeps a NaN closed form, whose candidate then fails to build.
    for index in np.flatnonzero(
        ~(closed_form_errors > dispersion_tolerance + CLOSED_FORM_MARGIN)
    ):
        entry = build(index)
        if entry is None or entry[0] <= 0 or entry[3] > dispersion_tolerance:
            continue
        feasible.append(entry)

    if not feasible:
        # Fall back to the candidate with the closest achievable dispersion:
        # better an approximate model than none (this only happens for very
        # small tolerance values or extreme targets).  Candidates are tried
        # by increasing closed-form error until no untried one can come
        # within the margin of the best matrix error; the first strict
        # minimum in grid order among the tried ones is the full scan's pick.
        tried = {}
        best_error = np.inf
        for index in np.argsort(closed_form_errors, kind="stable"):
            if closed_form_errors[index] > best_error + CLOSED_FORM_MARGIN:
                break
            entry = build(index)
            if entry is not None:
                tried[index] = entry
                best_error = min(best_error, entry[3])
        best = None
        best_error = np.inf
        for index in sorted(tried):
            if tried[index][3] < best_error:
                best_error = tried[index][3]
                best = tried[index]
        if best is None:
            raise MapFitError(
                "no feasible MAP(2) candidate could be constructed",
                target_mean=mean,
                target_dispersion=index_of_dispersion,
                target_p95=p95,
                candidates_considered=len(grid),
                nearest=None,
            )
        feasible = [best]

    # Each candidate's p95 is computed once, for the key and the result.
    percentiles = [
        None if p95 is None else candidate.interarrival_percentile(0.95)
        for *_, candidate in feasible
    ]

    def selection_key(position):
        relative_error, candidate = feasible[position][3], feasible[position][5]
        if p95 is None:
            p95_error = relative_error
        else:
            p95_error = abs(percentiles[position] - p95) / p95
        # Ties broken by the largest lag-1 autocorrelation (conservative fit).
        return (p95_error, -candidate.autocorrelation(1))

    chosen_position = min(range(len(feasible)), key=selection_key)
    achieved_i, scv, decay, _, p1, chosen = feasible[chosen_position]
    achieved_p95 = percentiles[chosen_position]
    if achieved_p95 is None:
        achieved_p95 = chosen.interarrival_percentile(0.95)
    return FittedServiceProcess(
        map=chosen,
        mean=mean,
        target_dispersion=index_of_dispersion,
        achieved_dispersion=achieved_i,
        target_p95=p95,
        achieved_p95=achieved_p95,
        scv=scv,
        decay=decay,
        branch_probability=p1,
        candidates_considered=len(grid),
        candidates_feasible=len(feasible),
    )
