"""End-to-end model construction from coarse monitoring measurements.

This module glues the pieces of the methodology together.  Given per-window
utilisation and completion counts for the front server and the database
server (the only inputs the paper requires), it

1. estimates each server's mean service time, index of dispersion and 95th
   percentile of service times,
2. fits a MAP(2) per server,
3. assembles the closed MAP queueing network of Figure 9 and exposes
   predictions (throughput, utilisations, response time) as a function of the
   number of emulated browsers, together with the MVA baseline parameterised
   only with mean service demands.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.dispersion import DispersionEstimate, estimate_index_of_dispersion
from repro.core.map_fitting import FittedServiceProcess, fit_map2_from_measurements
from repro.core.percentiles import estimate_service_percentile
from repro.maps.map_process import MAP
from repro.queueing.map_network import MapClosedNetworkSolver, MapNetworkResult
from repro.queueing.mva import MVAResult, mva_closed_network

__all__ = [
    "ServerMeasurement",
    "ServerModel",
    "MultiTierModel",
    "build_server_model",
    "build_multitier_model",
]


@dataclass(frozen=True)
class ServerMeasurement:
    """Coarse monitoring data of one server.

    Attributes
    ----------
    name:
        Server name (used in reports).
    utilizations:
        Per-window CPU utilisation samples in ``[0, 1]``.
    completions:
        Per-window completed-request counts.
    period:
        Monitoring window length in seconds.
    """

    name: str
    utilizations: np.ndarray
    completions: np.ndarray
    period: float

    def __post_init__(self) -> None:
        utilizations = np.asarray(self.utilizations, dtype=float).reshape(-1)
        completions = np.asarray(self.completions, dtype=float).reshape(-1)
        if utilizations.shape != completions.shape:
            raise ValueError("utilizations and completions must have the same length")
        if self.period <= 0:
            raise ValueError("period must be positive")
        object.__setattr__(self, "utilizations", utilizations)
        object.__setattr__(self, "completions", completions)

    @property
    def mean_service_time(self) -> float:
        """Busy time per completion: the utilisation-law service demand."""
        total_busy = float(self.utilizations.sum()) * self.period
        total_completed = float(self.completions.sum())
        if total_completed <= 0:
            return float("nan")
        return total_busy / total_completed

    @property
    def mean_utilization(self) -> float:
        """Average utilisation over the monitoring interval."""
        return float(self.utilizations.mean())

    @property
    def observed_throughput(self) -> float:
        """Average completion rate over the monitoring interval."""
        return float(self.completions.sum() / (self.completions.size * self.period))


@dataclass(frozen=True)
class ServerModel:
    """A fitted service-process model for one server."""

    name: str
    mean_service_time: float
    dispersion: DispersionEstimate
    p95_service_time: float
    fitted: FittedServiceProcess

    @property
    def index_of_dispersion(self) -> float:
        """The measured index of dispersion used for the fit."""
        return self.dispersion.index_of_dispersion

    @property
    def service_map(self) -> MAP:
        """The fitted MAP(2) service process."""
        return self.fitted.map

    def summary(self) -> dict:
        """Dictionary with the three measured parameters and the fit result."""
        return {
            "name": self.name,
            "mean_service_time": self.mean_service_time,
            "index_of_dispersion": self.index_of_dispersion,
            "p95_service_time": self.p95_service_time,
            "fitted_scv": self.fitted.scv,
            "fitted_decay": self.fitted.decay,
            "fitted_I": self.fitted.achieved_dispersion,
        }


def build_server_model(measurement: ServerMeasurement) -> ServerModel:
    """Estimate (mean, I, p95) for one server and fit its MAP(2).

    The estimator and the fit use the paper's 20 % tolerances: the Figure-2
    convergence test and the ±20 % band on the candidates' index of
    dispersion.
    """
    dispersion = estimate_index_of_dispersion(
        measurement.utilizations, measurement.completions, measurement.period
    )
    mean_service = measurement.mean_service_time
    p95 = estimate_service_percentile(
        measurement.utilizations, measurement.completions, measurement.period, quantile=0.95
    )
    fitted = fit_map2_from_measurements(
        mean=mean_service,
        index_of_dispersion=max(dispersion.index_of_dispersion, 1e-6),
        p95=p95,
    )
    return ServerModel(
        name=measurement.name,
        mean_service_time=mean_service,
        dispersion=dispersion,
        p95_service_time=p95,
        fitted=fitted,
    )


@dataclass
class MultiTierModel:
    """The parameterised capacity-planning model of the multi-tier system.

    Combines the fitted front-server and database-server models with the
    think time of the closed-loop workload generator.  Exposes both the
    burstiness-aware MAP queueing network prediction and the MVA baseline.
    """

    front: ServerModel
    database: ServerModel
    think_time: float
    _solver: MapClosedNetworkSolver = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.think_time < 0:
            raise ValueError("think_time must be non-negative")
        self._solver = MapClosedNetworkSolver(
            self.front.service_map, self.database.service_map, self.think_time
        )

    # ------------------------------------------------------------------
    # Burstiness-aware prediction (the paper's model)
    # ------------------------------------------------------------------
    def predict(self, population: int) -> MapNetworkResult:
        """Exact prediction of the MAP queueing network for one population."""
        return self._solver.solve(population)

    def predict_throughput(self, populations) -> np.ndarray:
        """Predicted throughput for each population in ``populations``."""
        return np.array([self.predict(int(n)).throughput for n in populations])

    # ------------------------------------------------------------------
    # Baseline: MVA with mean service demands only
    # ------------------------------------------------------------------
    def mva_baseline(self, population: int) -> MVAResult:
        """The MVA model of Section 3.4 (mean service demands only)."""
        demands = [self.front.mean_service_time, self.database.mean_service_time]
        return mva_closed_network(demands, self.think_time, population)

    def mva_throughput(self, populations) -> np.ndarray:
        """MVA-predicted throughput for each population in ``populations``."""
        populations = [int(n) for n in populations]
        if not populations:
            return np.array([])
        result = self.mva_baseline(max(populations))
        return np.array([result.throughput_at(n) for n in populations])

    def summary(self) -> dict:
        """Dictionary describing both fitted servers and the think time."""
        return {
            "think_time": self.think_time,
            "front": self.front.summary(),
            "database": self.database.summary(),
        }


def build_multitier_model(
    front: ServerMeasurement,
    database: ServerMeasurement,
    think_time: float,
) -> MultiTierModel:
    """Build the full two-tier model from per-server monitoring data."""
    front_model = build_server_model(front)
    database_model = build_server_model(database)
    return MultiTierModel(front=front_model, database=database_model, think_time=think_time)
