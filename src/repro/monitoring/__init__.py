"""Monitoring substrate: the analogue of `sar` and HP (Mercury) Diagnostics.

The paper's methodology deliberately consumes only the kind of coarse data
that commodity monitoring tools emit.  This subpackage provides:

* :mod:`~repro.monitoring.windows` — the repo's one window binner (also used
  by :mod:`repro.service.streaming`) and buffered windowed accumulators for
  counts and for time-weighted signals (busy time, queue length),
* :mod:`~repro.monitoring.collector` — per-server monitors that turn raw
  simulation events into utilisation / completion-count / queue-length series
  at a configurable granularity,
* :mod:`~repro.monitoring.busy_periods` — extraction of busy periods from
  utilisation series,
* :mod:`~repro.monitoring.regression` — utilisation-regression estimation of
  per-class mean service demands (the standard parameterisation of the MVA
  baseline).
"""

from repro.monitoring.windows import CountWindows, TimeWeightedWindows
from repro.monitoring.collector import ServerMonitor, MonitoringSeries
from repro.monitoring.busy_periods import busy_periods_from_utilization, BusyPeriod
from repro.monitoring.regression import estimate_service_demands, RegressionResult

__all__ = [
    "CountWindows",
    "TimeWeightedWindows",
    "ServerMonitor",
    "MonitoringSeries",
    "busy_periods_from_utilization",
    "BusyPeriod",
    "estimate_service_demands",
    "RegressionResult",
]
