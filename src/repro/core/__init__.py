"""The paper's primary contribution: burstiness-aware model parameterisation.

The workflow implemented here turns *coarse* monitoring measurements of a
multi-tier system into a capacity-planning model that captures burstiness:

1. :mod:`~repro.core.dispersion` — estimate the index of dispersion ``I`` of
   each server's service process from per-window utilisation and
   completion-count samples (the pseudo-code of Figure 2 of the paper);
2. :mod:`~repro.core.percentiles` — estimate the 95th percentile of service
   times from busy-period lengths;
3. :mod:`~repro.core.map_fitting` — fit a MAP(2) from the triple
   *(mean service time, I, 95th percentile)*;
4. :mod:`~repro.core.model_builder` — assemble the per-server MAP(2)s into a
   closed MAP queueing network (Figure 9) and predict throughput / response
   time / utilisation as a function of the number of emulated browsers.
"""

from repro.core.dispersion import DispersionEstimate, estimate_index_of_dispersion
from repro.core.percentiles import estimate_service_percentile
from repro.core.map_fitting import (
    FittedServiceProcess,
    MapFitError,
    fit_map2_from_measurements,
)
from repro.core.model_builder import (
    ServerMeasurement,
    ServerModel,
    MultiTierModel,
    build_server_model,
    build_multitier_model,
)

__all__ = [
    "DispersionEstimate",
    "estimate_index_of_dispersion",
    "estimate_service_percentile",
    "FittedServiceProcess",
    "MapFitError",
    "fit_map2_from_measurements",
    "ServerMeasurement",
    "ServerModel",
    "MultiTierModel",
    "build_server_model",
    "build_multitier_model",
]
