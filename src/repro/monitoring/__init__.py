"""Monitoring substrate: the analogue of `sar` and HP (Mercury) Diagnostics.

The paper's methodology deliberately consumes only the kind of coarse data
that commodity monitoring tools emit.  This subpackage provides:

* :mod:`~repro.monitoring.windows` — the repo's one window binner (also used
  by :mod:`repro.service.streaming`) and buffered windowed accumulators for
  counts and for time-weighted signals (busy time, queue length),
* :mod:`~repro.monitoring.collector` — per-server monitors that turn raw
  simulation events into utilisation / completion-count / queue-length series
  at a configurable granularity.

The MVA baseline takes each server's mean service demand from these series
by the utilisation law (busy time over completions, see
:attr:`repro.core.model_builder.ServerMeasurement.mean_service_time`).
"""

from repro.monitoring.windows import CountWindows, TimeWeightedWindows
from repro.monitoring.collector import ServerMonitor, MonitoringSeries

__all__ = [
    "CountWindows",
    "TimeWeightedWindows",
    "ServerMonitor",
    "MonitoringSeries",
]
