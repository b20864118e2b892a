"""Continuous phase-type (PH) distributions.

A phase-type distribution is the distribution of the time to absorption of a
finite-state continuous-time Markov chain with one absorbing state.  It is
specified by an initial probability vector ``alpha`` over the transient states
and a sub-generator matrix ``T`` (negative diagonal, non-negative off-diagonal,
row sums ``<= 0``).  The exit-rate vector is ``t = -T @ 1``.

The paper uses PH building blocks in two places:

* hyper-exponential service-time samples for the synthetic traces of
  Figure 1 / Table 1, and
* the marginal (stationary interarrival-time) distribution of the fitted
  MAP(2), whose 95th percentile is matched against the measured one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import expm
from scipy.optimize import brentq

__all__ = [
    "PHDistribution",
    "hyperexponential_ph",
    "hyperexp_rates_from_moments",
    "hyperexp_percentile",
]


def _as_1d(vector) -> np.ndarray:
    array = np.asarray(vector, dtype=float).reshape(-1)
    return array


def _as_2d(matrix) -> np.ndarray:
    array = np.asarray(matrix, dtype=float)
    if array.ndim != 2 or array.shape[0] != array.shape[1]:
        raise ValueError("sub-generator must be a square matrix")
    return array


@dataclass(frozen=True)
class PHDistribution:
    """A continuous phase-type distribution ``PH(alpha, T)``.

    Parameters
    ----------
    alpha:
        Initial probability vector over the transient states.  Must be
        non-negative and sum to one (a defective initial vector, i.e. a point
        mass at zero, is not supported).
    T:
        Sub-generator matrix of the transient states.

    Examples
    --------
    >>> ph = PHDistribution(np.array([1.0]), np.array([[-2.0]]))
    >>> round(ph.mean(), 6)
    0.5
    >>> ph = hyperexponential_ph(mean=1.0, scv=3.0)
    >>> round(ph.scv(), 6)
    3.0
    """

    alpha: np.ndarray
    T: np.ndarray
    _validate: bool = field(default=True, repr=False, compare=False)

    def __post_init__(self) -> None:
        alpha = _as_1d(self.alpha)
        T = _as_2d(self.T)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "T", T)
        if not self._validate:
            return
        if alpha.shape[0] != T.shape[0]:
            raise ValueError("alpha and T have incompatible sizes")
        if np.any(alpha < -1e-12):
            raise ValueError("alpha must be non-negative")
        if abs(alpha.sum() - 1.0) > 1e-8:
            raise ValueError("alpha must sum to one")
        off_diagonal = T - np.diag(np.diag(T))
        if np.any(off_diagonal < -1e-12):
            raise ValueError("off-diagonal entries of T must be non-negative")
        if np.any(np.diag(T) > 1e-12):
            raise ValueError("diagonal entries of T must be non-positive")
        if np.any(T.sum(axis=1) > 1e-8):
            raise ValueError("row sums of T must be non-positive")
        if np.linalg.matrix_rank(T) < T.shape[0]:
            raise ValueError("T is singular: absorption is unreachable from some phase")

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def order(self) -> int:
        """Number of transient phases."""
        return self.T.shape[0]

    @property
    def exit_rates(self) -> np.ndarray:
        """Exit-rate vector ``t = -T @ 1``."""
        return -self.T @ np.ones(self.order)

    # ------------------------------------------------------------------
    # Moments
    # ------------------------------------------------------------------
    def moment(self, k: int) -> float:
        """Return the k-th raw moment ``E[X^k] = k! * alpha (-T)^{-k} 1``."""
        if k < 1:
            raise ValueError("moment order must be >= 1")
        inv = np.linalg.inv(-self.T)
        vector = self.alpha.copy()
        for _ in range(k):
            vector = vector @ inv
        return float(_factorial(k) * vector.sum())

    def mean(self) -> float:
        """Mean of the distribution."""
        return self.moment(1)

    def variance(self) -> float:
        """Variance of the distribution."""
        m1 = self.moment(1)
        return self.moment(2) - m1 * m1

    def scv(self) -> float:
        """Squared coefficient of variation ``Var[X] / E[X]^2``."""
        m1 = self.moment(1)
        return self.variance() / (m1 * m1)

    def skewness(self) -> float:
        """Skewness ``E[(X - mu)^3] / sigma^3``."""
        m1, m2, m3 = self.moment(1), self.moment(2), self.moment(3)
        variance = m2 - m1 * m1
        central3 = m3 - 3 * m1 * m2 + 2 * m1 ** 3
        return central3 / variance ** 1.5

    # ------------------------------------------------------------------
    # Distribution functions
    # ------------------------------------------------------------------
    def cdf(self, x) -> np.ndarray | float:
        """Cumulative distribution function ``F(x) = 1 - alpha exp(Tx) 1``."""
        scalar = np.isscalar(x)
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        ones = np.ones(self.order)
        values = np.empty_like(xs)
        for i, point in enumerate(xs):
            if point <= 0:
                values[i] = 0.0
            else:
                values[i] = 1.0 - float(self.alpha @ expm(self.T * point) @ ones)
        values = np.clip(values, 0.0, 1.0)
        return float(values[0]) if scalar else values

    def pdf(self, x) -> np.ndarray | float:
        """Probability density function ``f(x) = alpha exp(Tx) t``."""
        scalar = np.isscalar(x)
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        exit_rates = self.exit_rates
        values = np.empty_like(xs)
        for i, point in enumerate(xs):
            if point < 0:
                values[i] = 0.0
            else:
                values[i] = float(self.alpha @ expm(self.T * point) @ exit_rates)
        return float(values[0]) if scalar else values

    def percentile(self, q: float) -> float:
        """Return the ``q``-quantile (``q`` in (0, 1)) by numerical inversion."""
        if not 0.0 < q < 1.0:
            raise ValueError("q must be in the open interval (0, 1)")
        mean = self.mean()
        upper = mean
        # Expand the bracket until the CDF exceeds q.
        for _ in range(200):
            if self.cdf(upper) >= q:
                break
            upper *= 2.0
        else:
            raise RuntimeError("failed to bracket the requested percentile")
        return float(brentq(lambda x: self.cdf(x) - q, 0.0, upper, xtol=1e-12, rtol=1e-10))

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    def sample(self, size: int, rng: np.random.Generator | None = None) -> np.ndarray:
        """Draw ``size`` independent samples by simulating the absorbing chain."""
        if rng is None:
            rng = np.random.default_rng()
        exit_rates = self.exit_rates
        total_rates = -np.diag(self.T)
        order = self.order
        # Transition probabilities out of each phase (to phases, then absorption).
        jump_probs = np.zeros((order, order + 1))
        for i in range(order):
            if total_rates[i] <= 0:
                jump_probs[i, order] = 1.0
                continue
            jump_probs[i, :order] = np.maximum(self.T[i], 0.0) / total_rates[i]
            jump_probs[i, i] = 0.0
            jump_probs[i, order] = exit_rates[i] / total_rates[i]
        samples = np.empty(size)
        for n in range(size):
            phase = int(rng.choice(order, p=self.alpha))
            elapsed = 0.0
            while True:
                rate = total_rates[phase]
                elapsed += rng.exponential(1.0 / rate) if rate > 0 else 0.0
                nxt = int(rng.choice(order + 1, p=jump_probs[phase]))
                if nxt == order:
                    break
                phase = nxt
            samples[n] = elapsed
        return samples


def _factorial(k: int) -> int:
    result = 1
    for i in range(2, k + 1):
        result *= i
    return result


# ----------------------------------------------------------------------
# Constructors
# ----------------------------------------------------------------------
def hyperexp_rates_from_moments(
    mean: float, scv: float, p1: float | None = None
) -> tuple[float, float, float]:
    """Return ``(p1, rate1, rate2)`` of a two-phase hyper-exponential.

    The hyper-exponential mixes ``Exp(rate1)`` with probability ``p1`` and
    ``Exp(rate2)`` with probability ``1 - p1`` and matches the requested mean
    and squared coefficient of variation (``scv >= 1``).

    If ``p1`` is omitted, the *balanced means* parameterisation is used
    (``p1 / rate1 == p2 / rate2``), which is the textbook two-moment fit.  If
    ``p1`` is supplied it acts as a third degree of freedom (it shifts the
    skewness / tail of the distribution while preserving mean and SCV), which
    is how the fitting procedure of the paper explores candidates with
    different 95th percentiles.
    """
    if mean <= 0:
        raise ValueError("mean must be positive")
    if scv < 1.0:
        raise ValueError("a hyper-exponential requires scv >= 1")
    if abs(scv - 1.0) < 1e-12:
        # Degenerate case: plain exponential (both branches identical).
        rate = 1.0 / mean
        return 0.5, rate, rate
    if p1 is None:
        p1 = 0.5 * (1.0 + np.sqrt((scv - 1.0) / (scv + 1.0)))
        rate1 = 2.0 * p1 / mean
        rate2 = 2.0 * (1.0 - p1) / mean
        return float(p1), float(rate1), float(rate2)
    if not 0.0 < p1 < 1.0:
        raise ValueError("p1 must be in the open interval (0, 1)")
    p2 = 1.0 - p1
    # Solve for the branch means x1 = 1/rate1, x2 = 1/rate2 from
    #   p1*x1 + p2*x2 = mean
    #   p1*x1^2 + p2*x2^2 = mean^2 * (scv + 1) / 2
    second = mean * mean * (scv + 1.0) / 2.0
    # Substitute x2 = (mean - p1*x1) / p2 into the second equation.
    a = p1 + p1 * p1 / p2
    b = -2.0 * mean * p1 / p2
    c = mean * mean / p2 - second
    discriminant = b * b - 4.0 * a * c
    if discriminant < 0:
        raise ValueError(
            "no feasible hyper-exponential for mean=%g scv=%g p1=%g" % (mean, scv, p1)
        )
    sqrt_disc = np.sqrt(discriminant)
    x1 = (-b + sqrt_disc) / (2.0 * a)
    x2 = (mean - p1 * x1) / p2
    if x1 <= 0 or x2 <= 0:
        x1 = (-b - sqrt_disc) / (2.0 * a)
        x2 = (mean - p1 * x1) / p2
    if x1 <= 0 or x2 <= 0:
        raise ValueError(
            "no positive-rate hyper-exponential for mean=%g scv=%g p1=%g" % (mean, scv, p1)
        )
    return float(p1), float(1.0 / x1), float(1.0 / x2)


def hyperexp_percentile(p1, rate1, rate2, q: float) -> np.ndarray:
    """``q``-quantiles of two-phase hyper-exponentials (arguments broadcast).

    Bisects ``p1 * exp(-rate1 * t) + (1 - p1) * exp(-rate2 * t) = 1 - q`` on
    ``[0, -log(1 - q) / min(rate1, rate2)]`` until every midpoint is an end of
    its bracket, i.e. to about one ulp.
    """
    if not 0.0 < q < 1.0:
        raise ValueError("q must be in the open interval (0, 1)")
    p1, rate1, rate2 = np.broadcast_arrays(
        *(np.asarray(a, dtype=float) for a in (p1, rate1, rate2))
    )
    tail = 1.0 - q
    lower = np.zeros(p1.shape)
    upper = -np.log(tail) / np.minimum(rate1, rate2)
    while True:
        middle = 0.5 * (lower + upper)
        if not np.any((middle > lower) & (middle < upper)):
            return middle
        above = p1 * np.exp(-rate1 * middle) + (1.0 - p1) * np.exp(-rate2 * middle) > tail
        lower = np.where(above, middle, lower)
        upper = np.where(above, upper, middle)


def hyperexponential_ph(
    mean: float, scv: float, p1: float | None = None
) -> PHDistribution:
    """Two-phase hyper-exponential PH distribution matching mean and SCV."""
    p1, rate1, rate2 = hyperexp_rates_from_moments(mean, scv, p1)
    alpha = np.array([p1, 1.0 - p1])
    T = np.array([[-rate1, 0.0], [0.0, -rate2]])
    return PHDistribution(alpha, T)
