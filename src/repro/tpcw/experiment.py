"""Experiment drivers for the simulated TPC-W testbed.

These helpers wrap :class:`~repro.tpcw.testbed.TPCWTestbed` into the
experiment shapes used by the paper's evaluation:

* :func:`run_eb_sweep` — run the testbed for an increasing number of emulated
  browsers (Figures 4, 10 and 12),
* :func:`collect_monitoring_dataset` — one long run at a fixed number of EBs
  used to estimate the index of dispersion and fit the MAP(2)s (the paper
  uses 50 EBs and think times of 0.5 s or 7 s, Section 4.2),
* :func:`build_model_from_testbed` — turn the monitoring data of a run into
  the :class:`~repro.core.model_builder.MultiTierModel` capacity-planning
  model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.model_builder import (
    MultiTierModel,
    ServerMeasurement,
    build_multitier_model,
)
from repro.monitoring.collector import MonitoringSeries
from repro.tpcw.contention import ContentionConfig
from repro.tpcw.mixes import TransactionMix
from repro.tpcw.testbed import TestbedConfig, TestbedResult, TPCWTestbed

__all__ = [
    "SweepPoint",
    "run_eb_sweep",
    "collect_monitoring_dataset",
    "measurement_from_series",
    "build_model_from_testbed",
]


@dataclass(frozen=True)
class SweepPoint:
    """Measured metrics of the testbed at one population size."""

    num_ebs: int
    throughput: float
    front_utilization: float
    db_utilization: float
    mean_response_time: float
    result: TestbedResult

    def summary(self) -> dict:
        """Row of the Figure-4 / Figure-10 tables."""
        return {
            "num_ebs": self.num_ebs,
            "throughput": self.throughput,
            "front_utilization": self.front_utilization,
            "db_utilization": self.db_utilization,
            "mean_response_time": self.mean_response_time,
        }


def run_eb_sweep(
    mix: TransactionMix,
    eb_values,
    think_time: float = 0.5,
    duration: float = 400.0,
    warmup: float = 50.0,
    contention: ContentionConfig | None = None,
    seed: int | None = 0,
) -> list[SweepPoint]:
    """Run the testbed for each population in ``eb_values``.

    Each population gets its own deterministic child seed so that results are
    reproducible yet independent across populations.
    """
    contention = contention or ContentionConfig()
    points: list[SweepPoint] = []
    for num_ebs in eb_values:
        # The same seed is reused for every population (common random numbers):
        # all points see the same contention schedule, which keeps the measured
        # throughput curve monotone and makes comparisons across populations
        # reflect the population change only.
        config = TestbedConfig(
            mix=mix,
            num_ebs=int(num_ebs),
            think_time=think_time,
            duration=duration,
            warmup=warmup,
            contention=contention,
            seed=seed,
        )
        result = TPCWTestbed(config).run()
        points.append(
            SweepPoint(
                num_ebs=int(num_ebs),
                throughput=result.throughput,
                front_utilization=result.front_utilization,
                db_utilization=result.db_utilization,
                mean_response_time=result.mean_response_time,
                result=result,
            )
        )
    return points


def collect_monitoring_dataset(
    mix: TransactionMix,
    num_ebs: int = 50,
    think_time: float = 7.0,
    duration: float = 1500.0,
    warmup: float = 60.0,
    contention: ContentionConfig | None = None,
    seed: int | None = 1,
) -> TestbedResult:
    """One long monitoring run used to parameterise the model.

    The defaults follow the paper's recommendation (Section 4.2): collect the
    estimation trace at a *larger* think time (``Z_estim = 7 s``) so that few
    requests complete per monitoring window and the index of dispersion
    estimate is based on finer-grained information, even though the capacity
    planning model itself will be evaluated at ``Z_qn = 0.5 s``.
    """
    config = TestbedConfig(
        mix=mix,
        num_ebs=num_ebs,
        think_time=think_time,
        duration=duration,
        warmup=warmup,
        contention=contention or ContentionConfig(),
        seed=seed,
    )
    return TPCWTestbed(config).run()


def measurement_from_series(series: MonitoringSeries) -> ServerMeasurement:
    """Convert a monitoring series into the model-builder's input format.

    Utilisation is aggregated onto the coarser completion-count windows so
    that both inputs share the same time base (exactly what an operator would
    do when joining `sar` and Diagnostics logs).
    """
    utilization = series.completion_utilization()
    completions = series.aligned_completions()
    return ServerMeasurement(
        name=series.name,
        utilizations=utilization,
        completions=completions,
        period=series.completion_window,
    )


def build_model_from_testbed(
    result: TestbedResult,
    model_think_time: float = 0.5,
) -> MultiTierModel:
    """Build the burstiness-aware capacity-planning model from a testbed run.

    ``model_think_time`` is the think time of the *predicted* scenario
    (``Z_qn`` in the paper), which may differ from the think time used when
    collecting the estimation trace (``Z_estim``).
    """
    return build_multitier_model(
        measurement_from_series(result.front),
        measurement_from_series(result.database),
        think_time=model_think_time,
    )
