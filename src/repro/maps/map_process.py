"""Markovian Arrival Processes (MAPs).

A MAP of order ``n`` is specified by two ``n x n`` matrices ``(D0, D1)``:

* ``D1 >= 0`` holds the rates of *marked* transitions (each marked transition
  produces an event — an arrival when the MAP models an arrival process, a
  completion when it models a service process),
* ``D0`` holds the rates of hidden transitions; its diagonal is negative and
  ``D0 + D1`` is a conservative generator matrix.

The class below exposes every descriptor needed by the paper's methodology in
closed form: moments and SCV of the stationary inter-event times, lag-k
autocorrelation coefficients, and the asymptotic index of dispersion for
counts

    I = SCV * (1 + 2 * sum_{k>=1} rho_k)

which is the quantity the measurement procedure of Figure 2 estimates from
coarse monitoring data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.linalg import expm
from scipy.optimize import brentq

__all__ = ["MAP", "validate_map"]


def validate_map(D0, D1, atol: float = 1e-8) -> tuple[np.ndarray, np.ndarray]:
    """Validate a ``(D0, D1)`` pair and return them as float arrays.

    Raises :class:`ValueError` when the pair does not define a proper MAP:
    mismatched shapes, negative off-diagonal rates, non-negative diagonal in
    ``D0``, negative entries in ``D1`` or non-zero row sums of ``D0 + D1``.
    """
    D0 = np.asarray(D0, dtype=float)
    D1 = np.asarray(D1, dtype=float)
    if D0.ndim != 2 or D0.shape[0] != D0.shape[1]:
        raise ValueError("D0 must be a square matrix")
    if D0.shape != D1.shape:
        raise ValueError("D0 and D1 must have the same shape")
    if np.any(D1 < -atol):
        raise ValueError("D1 must be non-negative")
    off_diag = D0 - np.diag(np.diag(D0))
    if np.any(off_diag < -atol):
        raise ValueError("off-diagonal entries of D0 must be non-negative")
    if np.any(np.diag(D0) > atol):
        raise ValueError("diagonal entries of D0 must be non-positive")
    row_sums = (D0 + D1).sum(axis=1)
    if np.any(np.abs(row_sums) > 1e-6):
        raise ValueError("row sums of D0 + D1 must be zero (generator matrix)")
    return D0, D1


def _stationary_of_generator(Q: np.ndarray) -> np.ndarray:
    """Stationary probability vector of a conservative generator matrix."""
    n = Q.shape[0]
    A = np.vstack([Q.T, np.ones((1, n))])
    b = np.zeros(n + 1)
    b[-1] = 1.0
    solution, *_ = np.linalg.lstsq(A, b, rcond=None)
    solution = np.clip(solution, 0.0, None)
    total = solution.sum()
    if total <= 0:
        raise ValueError("generator has no valid stationary distribution")
    return solution / total


def _stationary_of_stochastic(P: np.ndarray) -> np.ndarray:
    """Stationary probability vector of a stochastic matrix."""
    n = P.shape[0]
    A = np.vstack([(P.T - np.eye(n)), np.ones((1, n))])
    b = np.zeros(n + 1)
    b[-1] = 1.0
    solution, *_ = np.linalg.lstsq(A, b, rcond=None)
    solution = np.clip(solution, 0.0, None)
    total = solution.sum()
    if total <= 0:
        raise ValueError("stochastic matrix has no valid stationary distribution")
    return solution / total


@dataclass(frozen=True)
class MAP:
    """A Markovian Arrival Process ``MAP(D0, D1)``.

    The same object is used throughout the library for *service processes*
    (marked transitions are request completions) and for *arrival processes*.

    Examples
    --------
    A Poisson process of rate 2 is a MAP of order 1:

    >>> poisson = MAP([[-2.0]], [[2.0]])
    >>> round(poisson.mean(), 6), round(poisson.scv(), 6), round(poisson.index_of_dispersion(), 6)
    (0.5, 1.0, 1.0)
    """

    D0: np.ndarray
    D1: np.ndarray
    _validate: bool = field(default=True, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self._validate:
            D0, D1 = validate_map(self.D0, self.D1)
        else:
            D0 = np.asarray(self.D0, dtype=float)
            D1 = np.asarray(self.D1, dtype=float)
        object.__setattr__(self, "D0", D0)
        object.__setattr__(self, "D1", D1)

    # ------------------------------------------------------------------
    # Structural properties
    # ------------------------------------------------------------------
    @property
    def order(self) -> int:
        """Number of phases."""
        return self.D0.shape[0]

    @cached_property
    def generator(self) -> np.ndarray:
        """The generator ``Q = D0 + D1`` of the background phase process."""
        return self.D0 + self.D1

    @cached_property
    def theta(self) -> np.ndarray:
        """Stationary distribution of the background phase process."""
        return _stationary_of_generator(self.generator)

    @cached_property
    def _inverse_minus_d0(self) -> np.ndarray:
        """``(-D0)^{-1}``, shared by the moment and correlation formulas."""
        return np.linalg.inv(-self.D0)

    @cached_property
    def embedded_transition_matrix(self) -> np.ndarray:
        """Stochastic matrix ``P = (-D0)^{-1} D1`` embedded at event epochs."""
        return np.linalg.solve(-self.D0, self.D1)

    @cached_property
    def embedded_stationary(self) -> np.ndarray:
        """Stationary phase distribution seen just after an event."""
        return _stationary_of_stochastic(self.embedded_transition_matrix)

    @cached_property
    def fundamental_rate(self) -> float:
        """Long-run event rate ``lambda = theta D1 1``."""
        return float(self.theta @ self.D1 @ np.ones(self.order))

    # ------------------------------------------------------------------
    # Inter-event time descriptors
    # ------------------------------------------------------------------
    def moment(self, k: int) -> float:
        """k-th raw moment of the stationary inter-event time."""
        if k < 1:
            raise ValueError("moment order must be >= 1")
        inv = self._inverse_minus_d0
        vector = self.embedded_stationary.copy()
        factorial = 1
        for i in range(k):
            vector = vector @ inv
            factorial *= i + 1
        return float(factorial * vector.sum())

    def mean(self) -> float:
        """Mean stationary inter-event time (``1 / fundamental_rate``)."""
        return self.moment(1)

    def variance(self) -> float:
        """Variance of the stationary inter-event time."""
        m1 = self.moment(1)
        return self.moment(2) - m1 * m1

    def scv(self) -> float:
        """Squared coefficient of variation of the inter-event time."""
        m1 = self.moment(1)
        return self.variance() / (m1 * m1)

    def skewness(self) -> float:
        """Skewness of the stationary inter-event time."""
        m1, m2, m3 = self.moment(1), self.moment(2), self.moment(3)
        variance = m2 - m1 * m1
        central3 = m3 - 3.0 * m1 * m2 + 2.0 * m1 ** 3
        return central3 / variance ** 1.5

    def joint_moment(self, lag: int) -> float:
        """Joint moment ``E[X_0 * X_lag]`` of inter-event times ``lag`` apart."""
        if lag < 1:
            raise ValueError("lag must be >= 1")
        inv = self._inverse_minus_d0
        P = self.embedded_transition_matrix
        ones = np.ones(self.order)
        return float(
            self.embedded_stationary @ inv @ np.linalg.matrix_power(P, lag) @ inv @ ones
        )

    def autocorrelation(self, lag: int) -> float:
        """Lag-``lag`` autocorrelation coefficient of inter-event times."""
        m1 = self.moment(1)
        variance = self.variance()
        if variance <= 0:
            return 0.0
        return (self.joint_moment(lag) - m1 * m1) / variance

    def autocorrelations(self, max_lag: int) -> np.ndarray:
        """Array of autocorrelation coefficients for lags ``1..max_lag``."""
        return np.array([self.autocorrelation(k) for k in range(1, max_lag + 1)])

    def autocorrelation_decay(self) -> float:
        """Geometric decay rate of the autocorrelation function.

        For an order-2 MAP the autocorrelation satisfies
        ``rho_k = rho_1 * gamma^(k-1)`` where ``gamma`` is the sub-dominant
        eigenvalue of the embedded transition matrix.  For larger MAPs the
        modulus of the sub-dominant eigenvalue is returned.
        """
        eigenvalues = np.linalg.eigvals(self.embedded_transition_matrix)
        moduli = sorted(np.abs(eigenvalues), reverse=True)
        if len(moduli) < 2:
            return 0.0
        return float(moduli[1])

    # ------------------------------------------------------------------
    # Burstiness descriptors
    # ------------------------------------------------------------------
    def autocorrelation_sum(self) -> float:
        """Closed form of ``sum_{k>=1} rho_k`` via the fundamental matrix.

        Uses ``sum_{k>=1} (P^k - 1 pi) = Z - I`` with
        ``Z = (I - P + 1 pi)^{-1}``.
        """
        P = self.embedded_transition_matrix
        pi = self.embedded_stationary
        n = self.order
        ones = np.ones(n)
        Z = np.linalg.inv(np.eye(n) - P + np.outer(ones, pi))
        inv = self._inverse_minus_d0
        m1 = self.moment(1)
        variance = self.variance()
        if variance <= 0:
            return 0.0
        covariance_sum = float(pi @ inv @ (Z - np.eye(n)) @ inv @ ones) - 0.0
        # pi inv (1 pi) inv 1 == m1^2; subtract it once per lag via (Z - I).
        # (Z - I) already equals sum_k (P^k - 1 pi), so the m1^2 term is gone.
        return covariance_sum / variance

    def index_of_dispersion(self) -> float:
        """Asymptotic index of dispersion for counts, eq. (1) of the paper.

        ``I = SCV * (1 + 2 * sum_{k>=1} rho_k)`` evaluated in closed form.
        For a Poisson process ``I == 1``; for a renewal process ``I == SCV``.
        """
        scv = self.scv()
        return float(scv * (1.0 + 2.0 * self.autocorrelation_sum()))

    # ------------------------------------------------------------------
    # Marginal distribution of the inter-event time
    # ------------------------------------------------------------------
    def interarrival_cdf(self, x) -> np.ndarray | float:
        """CDF of the stationary inter-event time: ``1 - pi exp(D0 x) 1``."""
        scalar = np.isscalar(x)
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        ones = np.ones(self.order)
        values = np.empty_like(xs)
        for i, point in enumerate(xs):
            if point <= 0:
                values[i] = 0.0
            else:
                values[i] = 1.0 - float(self.embedded_stationary @ expm(self.D0 * point) @ ones)
        values = np.clip(values, 0.0, 1.0)
        return float(values[0]) if scalar else values

    def interarrival_percentile(self, q: float) -> float:
        """Quantile of the stationary inter-event time distribution."""
        if not 0.0 < q < 1.0:
            raise ValueError("q must be in the open interval (0, 1)")
        upper = self.mean()
        for _ in range(200):
            if self.interarrival_cdf(upper) >= q:
                break
            upper *= 2.0
        else:
            raise RuntimeError("failed to bracket the requested percentile")
        return float(
            brentq(lambda x: self.interarrival_cdf(x) - q, 0.0, upper, xtol=1e-12, rtol=1e-10)
        )

    # ------------------------------------------------------------------
    # Counting process
    # ------------------------------------------------------------------
    @cached_property
    def deviation_matrix(self) -> np.ndarray:
        """Deviation matrix ``D = integral_0^inf (exp(Qu) - 1 theta) du``.

        It is the unique solution of ``Q D = 1 theta - I`` with ``theta D = 0``
        and appears in the exact counting-process variance of a MAP.
        """
        n = self.order
        Q = self.generator
        theta = self.theta
        ones = np.ones(n)
        rhs = np.outer(ones, theta) - np.eye(n)
        deviation = np.zeros((n, n))
        M = np.vstack([Q, theta.reshape(1, -1)])
        for j in range(n):
            b = np.append(rhs[:, j], 0.0)
            col, *_ = np.linalg.lstsq(M, b, rcond=None)
            deviation[:, j] = col
        return deviation

    def counting_moments(self, t: float) -> tuple[float, float]:
        """Mean and variance of the number of events in ``(0, t]``.

        With the phase process started in its time-stationary distribution,

            E[N_t]   = lambda * t
            Var[N_t] = lambda * t + 2 t * theta D1 D D1 1
                       - 2 * theta D1 D^2 (I - exp(Qt)) D1 1

        where ``D`` is the deviation matrix of the background generator.  The
        formula follows from integrating the second factorial moment of the
        counting process and is exact for any MAP.
        """
        if t <= 0:
            raise ValueError("t must be positive")
        theta = self.theta
        ones = np.ones(self.order)
        lam = self.fundamental_rate
        Q = self.generator
        deviation = self.deviation_matrix
        mean_count = lam * t
        linear_term = 2.0 * t * float(theta @ self.D1 @ deviation @ self.D1 @ ones)
        transient_term = -2.0 * float(
            theta
            @ self.D1
            @ deviation
            @ deviation
            @ (np.eye(self.order) - expm(Q * t))
            @ self.D1
            @ ones
        )
        variance = mean_count + linear_term + transient_term
        # Guard against tiny negative values caused by round-off at small t.
        variance = max(variance, 0.0)
        return mean_count, variance

    def asymptotic_index_of_dispersion_counts(self) -> float:
        """Limit of ``Var[N_t] / E[N_t]`` as ``t -> infinity`` (closed form).

        Equals ``1 + 2 theta D1 D D1 1 / lambda`` and coincides with
        :meth:`index_of_dispersion` (the interval-based definition of
        eq. (1) in the paper) for every MAP.
        """
        theta = self.theta
        ones = np.ones(self.order)
        lam = self.fundamental_rate
        return 1.0 + 2.0 * float(theta @ self.D1 @ self.deviation_matrix @ self.D1 @ ones) / lam

    def index_of_dispersion_counts(self, t: float) -> float:
        """Finite-time index of dispersion for counts ``Var[N_t] / E[N_t]``."""
        mean_count, variance = self.counting_moments(t)
        if mean_count <= 0:
            return 1.0
        return variance / mean_count

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------
    def scaled(self, factor: float) -> "MAP":
        """Return a MAP whose inter-event times are multiplied by ``factor``.

        Scaling time by ``factor`` divides every rate by ``factor`` and leaves
        SCV, autocorrelations and the index of dispersion unchanged.
        """
        if factor <= 0:
            raise ValueError("factor must be positive")
        return MAP(self.D0 / factor, self.D1 / factor)

    def summary(self) -> dict:
        """Dictionary with the descriptors used throughout the paper."""
        return {
            "order": self.order,
            "mean": self.mean(),
            "scv": self.scv(),
            "skewness": self.skewness(),
            "lag1_autocorrelation": self.autocorrelation(1),
            "autocorrelation_decay": self.autocorrelation_decay(),
            "index_of_dispersion": self.index_of_dispersion(),
            "fundamental_rate": self.fundamental_rate,
        }
