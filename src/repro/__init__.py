"""repro — burstiness-aware capacity planning for multi-tier applications.

A faithful, self-contained reproduction of

    Ningfang Mi, Giuliano Casale, Ludmila Cherkasova, Evgenia Smirni.
    "Burstiness in Multi-Tier Applications: Symptoms, Causes, and New Models."
    ACM/IFIP/USENIX Middleware 2008.

The package is organised around the paper's methodology:

* :mod:`repro.core` — the contribution: estimate the index of dispersion and
  the 95th percentile of service times from coarse monitoring data, fit a
  MAP(2) per server, and assemble a burstiness-aware closed queueing network.
* :mod:`repro.maps` — phase-type distributions and Markovian Arrival
  Processes (moments, autocorrelations, index of dispersion, sampling).
* :mod:`repro.traces` — synthetic workload traces with controllable
  burstiness (Figure 1 / Table 1 of the paper).
* :mod:`repro.queueing` — analytical solvers: exact MVA (the baseline) and
  the exact CTMC solution of the closed MAP queueing network (the model).
* :mod:`repro.simulation` — discrete-event simulators (trace-driven FCFS
  queue, closed MAP network) used for validation.
* :mod:`repro.monitoring` — windowed collectors (the `sar` / Diagnostics
  analogue); the MVA baseline takes its demands from them by the
  utilisation law.
* :mod:`repro.tpcw` — a simulated three-tier TPC-W testbed with
  contention-induced burstiness and bottleneck switch.
"""

from repro.core import (
    ServerMeasurement,
    ServerModel,
    MultiTierModel,
    build_server_model,
    build_multitier_model,
    estimate_index_of_dispersion,
    fit_map2_from_measurements,
)
from repro.maps import MAP, PHDistribution
from repro.queueing import mva_closed_network, solve_map_closed_network
from repro.traces import Trace

__version__ = "1.0.0"

__all__ = [
    "ServerMeasurement",
    "ServerModel",
    "MultiTierModel",
    "build_server_model",
    "build_multitier_model",
    "estimate_index_of_dispersion",
    "fit_map2_from_measurements",
    "MAP",
    "PHDistribution",
    "mva_closed_network",
    "solve_map_closed_network",
    "Trace",
    "quickstart_model",
    "__version__",
]


def quickstart_model(seed: int | None = 0, duration: float = 600.0):
    """Build the paper's model end to end on a short simulated experiment.

    Runs the simulated TPC-W testbed under the browsing mix, collects coarse
    monitoring data, and returns the fitted
    :class:`~repro.core.model_builder.MultiTierModel`.  Intended as a
    one-line demonstration of the whole pipeline; see ``examples/`` for
    complete scenarios.
    """
    from repro.tpcw import BROWSING_MIX, build_model_from_testbed, collect_monitoring_dataset

    dataset = collect_monitoring_dataset(
        BROWSING_MIX, num_ebs=50, think_time=0.5, duration=duration, seed=seed
    )
    return build_model_from_testbed(dataset, model_think_time=0.5)
