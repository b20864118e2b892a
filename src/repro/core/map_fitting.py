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

The selection is one ``np.lexsort`` over a candidate pool, keyed on that
family's closed forms:

* *Feasibility.*  The index of dispersion is
  ``I = SCV + (SCV - 1) * decay / (1 - decay)`` whatever the branch
  probability, and agrees with :meth:`MAP.index_of_dispersion` to ~``1e-11``
  relative.  A candidate within ``tol - CLOSED_FORM_MARGIN`` of the target is
  feasible, one beyond ``tol + CLOSED_FORM_MARGIN`` is not, and only those in
  between are built and checked with the matrix value, so the feasible count
  equals a full matrix scan's.
* *The pool* is the feasible candidates.  With none (tiny tolerances,
  extreme targets) it is every constructible candidate: better an
  approximate model than none.
* *Primary key.*  With a p95 target and a feasible pool, the p95 error.  An
  (SCV, p1) group has one hyper-exponential marginal whatever the decay: its
  rates are computed once, and the p95 of every feasible group at once by
  :func:`repro.maps.ph.hyperexp_percentile`.  Otherwise (the paper gives no
  rule without a p95) the closed-form I error, errors within
  ``CLOSED_FORM_MARGIN`` of the pool's best counting as ties.
* *Tie-breaks.*  The largest closed-form lag-1 autocorrelation
  ``rho1 = decay * (SCV - 1) / (2 * SCV)``, so within a group the largest
  feasible decay wins; then grid order, whose p1 axis starts with the
  balanced means (``None``).
* Only the chosen candidate is built; its reported I and p95 are the matrix
  :meth:`MAP.index_of_dispersion` and :meth:`MAP.interarrival_percentile`.

The dispersion keys do not depend on the mean, so without a p95 target, or
with nothing feasible, service times recorded in seconds and the same ones in
milliseconds get the same (SCV, decay, p1).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from repro.maps.map2 import map2_exponential, map2_from_moments_and_decay
from repro.maps.map_process import MAP
from repro.maps.ph import hyperexp_percentile, hyperexp_rates_from_moments

__all__ = [
    "FittedServiceProcess",
    "MapFitError",
    "fit_map2_from_measurements",
    "candidate_grid",
]


class MapFitError(RuntimeError):
    """A MAP(2) refit failed.

    :func:`fit_map2_from_measurements` always returns the nearest candidate;
    the live service raises this for a diverged refit (its ``fit-diverge``
    fault).  Subclasses :class:`RuntimeError` for backward compatibility
    (callers that caught the historical bare ``RuntimeError`` keep working)
    but carries the fitting targets, so supervised callers — e.g. the live
    service's degradation path — can log *why* a refit failed.

    Attributes
    ----------
    target_mean, target_dispersion, target_p95:
        The measured ``(mean, I, p95)`` triple the fit was asked to match
        (``target_p95`` may be ``None``).
    candidates_considered:
        How many grid candidates were considered before giving up.
    """

    def __init__(
        self,
        message: str,
        *,
        target_mean: float,
        target_dispersion: float,
        target_p95: float | None = None,
        candidates_considered: int = 0,
    ) -> None:
        p95 = "none" if target_p95 is None else format(target_p95, "g")
        super().__init__(
            f"{message} (targets: mean={target_mean:g}, I={target_dispersion:g}, "
            f"p95={p95}; {candidates_considered} candidate(s) considered)"
        )
        self.target_mean = target_mean
        self.target_dispersion = target_dispersion
        self.target_p95 = target_p95
        self.candidates_considered = candidates_considered


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


# Slack on the closed-form feasibility test: the closed form and the matrix
# ``index_of_dispersion()`` agree to ~1e-11 relative on the candidate grid.
CLOSED_FORM_MARGIN = 1e-9

# The candidate grid.  The SCV axis is these values plus 12 geometric steps
# from 1.05, all capped by the target (see :func:`candidate_grid`).  The p1
# axis starts with ``None`` (balanced means), so grid order prefers it.
FIXED_SCVS = (1.05, 1.25, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 24.0, 32.0)
DECAYS = np.array(
    [0.0, 0.3, 0.5, 0.7, 0.8, 0.9, 0.95, 0.975, 0.99, 0.995, 0.998, 0.999, 0.9995]
)
BRANCH_PROBABILITIES = (None, 0.7, 0.9, 0.975)


def _closed_form_dispersion(scv, decay):
    """Index of dispersion of the correlated hyper-exponential MAP(2)."""
    return scv + (scv - 1.0) * decay / (1.0 - decay)


def _scv_axis(target_dispersion):
    """The SCV axis of the candidate grid for ``target_dispersion``."""
    if target_dispersion <= 0:
        raise ValueError("target_dispersion must be positive")
    upper = max(2.0, min(1.2 * target_dispersion, 400.0))
    scvs = np.unique(np.concatenate([FIXED_SCVS, np.geomspace(1.05, upper, 12)]))
    return scvs[scvs <= upper]


def candidate_grid(target_dispersion: float) -> list[tuple[float, float, float | None]]:
    """Enumerate the (SCV, decay, branch-probability) candidate grid.

    The SCV grid spans from just above 1 to slightly above the target index
    of dispersion (an SCV larger than ``I`` is unreachable with positive
    correlation, and the paper's workloads all satisfy ``SCV <= I``).
    """
    grid = itertools.product(_scv_axis(target_dispersion), DECAYS, BRANCH_PROBABILITIES)
    return [(float(scv), float(decay), p1) for scv, decay, p1 in grid]


def fit_map2_from_measurements(
    mean: float,
    index_of_dispersion: float,
    p95: float | None = None,
    dispersion_tolerance: float = 0.20,
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

    scv_axis = _scv_axis(index_of_dispersion)
    shape = (scv_axis.size, DECAYS.size, len(BRANCH_PROBABILITIES))
    # (p1, rate1, rate2) of each (SCV, p1) marginal, computed once; NaN marks
    # a marginal that no hyper-exponential matches.
    marginals = np.full((scv_axis.size, len(BRANCH_PROBABILITIES), 3), np.nan)
    for s, scv in enumerate(scv_axis):
        for p, p1 in enumerate(BRANCH_PROBABILITIES):
            try:
                marginals[s, p] = hyperexp_rates_from_moments(mean, float(scv), p1)
            except ValueError:
                pass
    constructible = np.broadcast_to(~np.isnan(marginals[:, None, :, 0]), shape).ravel()
    closed_form = _closed_form_dispersion(scv_axis[:, None, None], DECAYS[None, :, None])
    errors = np.broadcast_to(
        np.abs(closed_form - index_of_dispersion) / index_of_dispersion, shape
    ).ravel()

    def build(index):
        """The candidate MAP at flat grid ``index``."""
        s, d, p = np.unravel_index(index, shape)
        return map2_from_moments_and_decay(
            mean, float(scv_axis[s]), float(DECAYS[d]), BRANCH_PROBABILITIES[p]
        )

    feasible = constructible & (errors <= dispersion_tolerance - CLOSED_FORM_MARGIN)
    for index in np.flatnonzero(
        constructible & ~feasible & (errors <= dispersion_tolerance + CLOSED_FORM_MARGIN)
    ):
        achieved_i = build(index).index_of_dispersion()
        relative_error = abs(achieved_i - index_of_dispersion) / index_of_dispersion
        feasible[index] = achieved_i > 0 and relative_error <= dispersion_tolerance
    feasible = np.flatnonzero(feasible)

    # The balanced-means marginal exists for every SCV of the grid, so the
    # pool is never empty.
    pool = feasible if feasible.size else np.flatnonzero(constructible)
    s, d, p = np.unravel_index(pool, shape)
    if feasible.size and p95 is not None:
        groups, group_of = np.unique(s * len(BRANCH_PROBABILITIES) + p, return_inverse=True)
        branch, rate1, rate2 = marginals.reshape(-1, 3)[groups].T
        group_p95 = hyperexp_percentile(branch, rate1, rate2, 0.95)
        primary = np.abs(group_p95[group_of] - p95) / p95
    else:
        # Closed-form I errors within the margin of the best are ties.
        primary = errors[pool]
        primary = np.where(primary <= primary.min() + CLOSED_FORM_MARGIN, 0.0, primary)
    rho1 = DECAYS[d] * (scv_axis[s] - 1.0) / (2.0 * scv_axis[s])
    # Ties go to the largest lag-1 autocorrelation (the paper's conservative
    # choice), then to grid order (lexsort is stable).
    chosen = pool[np.lexsort((-rho1, primary))[0]]

    fitted = build(chosen)
    s, d, p = np.unravel_index(chosen, shape)
    return FittedServiceProcess(
        map=fitted,
        mean=mean,
        target_dispersion=index_of_dispersion,
        achieved_dispersion=fitted.index_of_dispersion(),
        target_p95=p95,
        achieved_p95=fitted.interarrival_percentile(0.95),
        scv=float(scv_axis[s]),
        decay=float(DECAYS[d]),
        branch_probability=BRANCH_PROBABILITIES[p],
        candidates_considered=int(np.prod(shape)),
        candidates_feasible=feasible.size or 1,
    )
