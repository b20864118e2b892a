"""Registry of named experiment scenarios.

Every figure/table of the paper's evaluation, plus synthetic grids that go
beyond it, is available as a named :class:`ScenarioSpec`:

==================  ======================================================
name                what it reproduces / explores
==================  ======================================================
``fig4``            measured EB sweeps of the three TPC-W mixes
``fig5``–``fig8``   the 100-EB runs behind the time-series figures
``fig9``            closed MAP network: CTMC vs simulation vs MVA vs bounds
``fig9_ci``         the fig9 network with 64 simulation replications per
                    grid point (tight confidence intervals vs the CTMC)
``fig10``           MVA prediction error against measurements
``fig11``           monitoring-granularity study (Z_estim = 0.5 s vs 7 s)
``fig12``           the headline MAP-model vs MVA vs measured comparison
``table1``          M/Trace/1 response times of the Figure-1 traces
``estimation``      Z_estim = 0.5 s monitoring runs behind the fitted models
``granularity_*``   the Figure-11 estimation runs (``_fine`` 0.5 s, ``_coarse`` 7 s)
``grid_burstiness`` synthetic burstiness x population x variability grid
``grid_variability``synthetic service-variability sweep (renewal case)
``smoke``           tiny analytic-only scenario (fast engine self-check)
``smoke_tv``        tiny time-varying scenario (piecewise solvers +
                    simulation on a three-segment regime switch)
==================  ======================================================

Time-varying what-if studies beyond ``smoke_tv`` ship as scenario *packs*
(JSON files under ``scenarios/``) rather than registry entries — see
:mod:`repro.experiments.packs`.

The registry stores zero-argument factories, so scenario objects are built
fresh on each request and callers can never mutate the registered defaults.
Use :func:`register_scenario` to add project-specific scenarios; see the
README for a walk-through.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable

from repro.experiments.spec import (
    EstimationSpec,
    MapSpec,
    ReplicationPolicy,
    ScenarioSpec,
    SolverSpec,
    SyntheticWorkload,
    TestbedWorkload,
    TimeVaryingSegment,
    TimeVaryingWorkload,
    TraceWorkload,
)

__all__ = [
    "register_scenario",
    "get_scenario",
    "list_scenarios",
    "scenario_descriptions",
    "tpcw_sweep_scenario",
    "monitoring_scenario",
    "PAPER_SCENARIOS",
    "EB_VALUES",
]

# Shared experiment constants of the paper-style runs (kept here, once, so
# the benchmark harness, the examples and the CLI all agree on them).
EB_VALUES = (25, 50, 75, 100, 125, 150)
SWEEP_DURATION = 400.0
SWEEP_WARMUP = 40.0
SWEEP_SEED = 7
TIMESERIES_SEED = 17
MODEL_THINK_TIME = 0.5

#: Scenario names every reproduction of the paper's evaluation must provide.
PAPER_SCENARIOS = (
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "table1",
)

_REGISTRY: dict[str, Callable[[], ScenarioSpec]] = {}


def register_scenario(name: str, factory: Callable[[], ScenarioSpec]) -> None:
    """Register a named scenario factory (optionally replacing an entry)."""
    _REGISTRY[name] = factory


def get_scenario(name: str) -> ScenarioSpec:
    """Build the named scenario; raises ``KeyError`` with suggestions."""
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; available: {', '.join(list_scenarios())}"
        ) from None
    spec = factory()
    if spec.name != name:
        raise ValueError(
            f"scenario factory for {name!r} produced a spec named {spec.name!r}"
        )
    return spec


def list_scenarios() -> list[str]:
    """Registered scenario names, sorted."""
    return sorted(_REGISTRY)


def scenario_descriptions() -> dict[str, str]:
    """Mapping name -> one-line description for every registered scenario."""
    return {name: get_scenario(name).description for name in list_scenarios()}


# ----------------------------------------------------------------------
# Parameterised factories (reused by examples and the CLI)
# ----------------------------------------------------------------------
def tpcw_sweep_scenario(
    name: str,
    mixes: tuple[str, ...],
    populations: tuple[int, ...] = EB_VALUES,
    duration: float = SWEEP_DURATION,
    warmup: float = SWEEP_WARMUP,
    seed: int = SWEEP_SEED,
    description: str = "",
    with_models: bool = False,
) -> ScenarioSpec:
    """A measured TPC-W EB sweep, optionally with fitted-model predictions."""
    solvers: list[SolverSpec] = [SolverSpec(kind="testbed")]
    estimation = None
    if with_models:
        estimation = EstimationSpec()
        solvers += [SolverSpec(kind="fitted_map"), SolverSpec(kind="fitted_mva")]
    return ScenarioSpec(
        name=name,
        description=description or f"TPC-W EB sweep over {', '.join(mixes)}",
        workload=TestbedWorkload(
            mixes=tuple(dict.fromkeys(mixes)),
            populations=tuple(dict.fromkeys(int(n) for n in populations)),
            think_time=MODEL_THINK_TIME,
            duration=duration,
            warmup=warmup,
            estimation=estimation,
        ),
        solvers=tuple(solvers),
        # Common random numbers across populations keep the curves monotone.
        replication=ReplicationPolicy(replications=1, base_seed=seed, policy="shared"),
    )


def monitoring_scenario(
    name: str,
    mixes: tuple[str, ...],
    think_time: float,
    duration: float,
    num_ebs: int = 50,
    warmup: float = 60.0,
    seed: int = 21,
    description: str = "",
) -> ScenarioSpec:
    """A Section-4.2 monitoring run: one long testbed run per mix.

    The full :class:`~repro.tpcw.testbed.TestbedResult` of each run is the
    cell artifact, so the model-building fixtures (estimation datasets,
    granularity studies) are engine scenarios like everything else and their
    monitoring series are cache-served from npz side-files on re-runs.
    """
    return ScenarioSpec(
        name=name,
        description=description
        or f"monitoring runs ({num_ebs} EBs, Z_estim = {think_time:g} s) over "
        f"{', '.join(mixes)}",
        workload=TestbedWorkload(
            mixes=tuple(dict.fromkeys(mixes)),
            populations=(num_ebs,),
            think_time=think_time,
            duration=duration,
            warmup=warmup,
        ),
        solvers=(SolverSpec(kind="testbed"),),
        replication=ReplicationPolicy(replications=1, base_seed=seed, policy="shared"),
    )


def _estimation() -> ScenarioSpec:
    return monitoring_scenario(
        "estimation",
        mixes=("browsing", "shopping", "ordering"),
        think_time=MODEL_THINK_TIME,
        duration=800.0,
        seed=21,
        description="Z_estim = 0.5 s monitoring runs that parameterise the fitted "
        "models of Figure 12",
    )


def _granularity_fine() -> ScenarioSpec:
    return monitoring_scenario(
        "granularity_fine",
        mixes=("browsing",),
        think_time=0.5,
        duration=800.0,
        seed=23,
        description="Figure 11 estimation run at fine granularity (Z_estim = 0.5 s)",
    )


def _granularity_coarse() -> ScenarioSpec:
    return monitoring_scenario(
        "granularity_coarse",
        mixes=("browsing",),
        think_time=7.0,
        duration=2500.0,
        seed=23,
        description="Figure 11 estimation run at coarse granularity (Z_estim = 7 s)",
    )


def _timeseries_scenario(name: str, figure: str) -> Callable[[], ScenarioSpec]:
    def factory() -> ScenarioSpec:
        return ScenarioSpec(
            name=name,
            description=f"100-EB monitoring runs behind Figure {figure} (the per-second "
            "series are the cells' testbed artifacts)",
            workload=TestbedWorkload(
                mixes=("browsing", "shopping", "ordering"),
                populations=(100,),
                think_time=MODEL_THINK_TIME,
                duration=300.0,
                warmup=30.0,
            ),
            solvers=(SolverSpec(kind="testbed"),),
            replication=ReplicationPolicy(replications=1, base_seed=TIMESERIES_SEED, policy="shared"),
        )

    return factory


def _fig4() -> ScenarioSpec:
    return tpcw_sweep_scenario(
        "fig4",
        mixes=("browsing", "shopping", "ordering"),
        description="Figure 4: measured throughput and utilisation vs number of EBs",
    )


def _fig9() -> ScenarioSpec:
    return ScenarioSpec(
        name="fig9",
        description="Figure 9 network: exact CTMC vs event simulation vs MVA vs bounds "
        "on a bursty closed MAP network",
        workload=SyntheticWorkload(
            front=MapSpec(family="exponential", mean=0.02),
            db_mean=0.015,
            db_scv=(4.0,),
            db_decay=(0.95,),
            think_time=0.5,
            populations=(5, 15, 30),
        ),
        solvers=(
            SolverSpec(kind="ctmc"),
            SolverSpec(kind="simulation", options={"horizon": 3000.0, "warmup": 300.0}),
            SolverSpec(kind="mva"),
            SolverSpec(kind="bounds"),
        ),
        replication=ReplicationPolicy(replications=2, base_seed=2008, policy="per_cell"),
    )


def _fig9_ci() -> ScenarioSpec:
    return ScenarioSpec(
        name="fig9_ci",
        description="Figure 9 network with 64 simulation replications per grid "
        "point: sub-percent confidence intervals cross-checked against the exact CTMC",
        workload=SyntheticWorkload(
            front=MapSpec(family="exponential", mean=0.02),
            db_mean=0.015,
            db_scv=(4.0,),
            db_decay=(0.95,),
            think_time=0.5,
            populations=(5, 15, 30),
        ),
        solvers=(
            SolverSpec(kind="ctmc"),
            SolverSpec(kind="simulation", options={"horizon": 2000.0, "warmup": 200.0}),
        ),
        replication=ReplicationPolicy(replications=64, base_seed=2008, policy="per_cell"),
    )


def _fig10() -> ScenarioSpec:
    spec = tpcw_sweep_scenario(
        "fig10",
        mixes=("browsing", "shopping", "ordering"),
        description="Figure 10: MVA predictions (mean demands only) vs measured throughput",
        with_models=True,
    )
    # Figure 10 only needs the MVA side of the fitted model.
    return replace(spec, solvers=(SolverSpec(kind="testbed"), SolverSpec(kind="fitted_mva")))


def _fig11() -> ScenarioSpec:
    return ScenarioSpec(
        name="fig11",
        description="Figure 11: effect of the monitoring granularity (Z_estim = 0.5 s vs 7 s) "
        "on the fitted MAP model",
        workload=TestbedWorkload(
            mixes=("browsing",),
            populations=EB_VALUES,
            think_time=MODEL_THINK_TIME,
            duration=SWEEP_DURATION,
            warmup=SWEEP_WARMUP,
            estimation=EstimationSpec(seed=23),
        ),
        solvers=(
            SolverSpec(kind="testbed"),
            SolverSpec(
                kind="fitted_map",
                label="map_z0.5",
                options={"estimation_think_time": 0.5, "estimation_duration": 800.0},
            ),
            SolverSpec(
                kind="fitted_map",
                label="map_z7",
                options={"estimation_think_time": 7.0, "estimation_duration": 2500.0},
            ),
        ),
        replication=ReplicationPolicy(replications=1, base_seed=SWEEP_SEED, policy="shared"),
    )


def _fig12() -> ScenarioSpec:
    return tpcw_sweep_scenario(
        "fig12",
        mixes=("browsing", "shopping", "ordering"),
        description="Figure 12: burstiness-aware MAP model vs MVA vs measurements",
        with_models=True,
    )


def _table1() -> ScenarioSpec:
    return ScenarioSpec(
        name="table1",
        description="Table 1: M/Trace/1 response times of the four Figure-1 traces "
        "at 50% and 80% utilisation",
        workload=TraceWorkload(),
        solvers=(SolverSpec(kind="mtrace1"),),
        replication=ReplicationPolicy(replications=1, base_seed=1, policy="per_cell"),
    )


def _grid_burstiness() -> ScenarioSpec:
    return ScenarioSpec(
        name="grid_burstiness",
        description="Synthetic grid: burstiness (decay) x service variability (SCV) x "
        "population, solved exactly and bounded",
        workload=SyntheticWorkload(
            front=MapSpec(family="exponential", mean=0.02),
            db_mean=0.015,
            db_scv=(4.0, 16.0),
            db_decay=(0.0, 0.9, 0.99),
            think_time=0.5,
            populations=(1, 10, 40),
        ),
        solvers=(
            SolverSpec(kind="ctmc"),
            SolverSpec(kind="mva"),
            SolverSpec(kind="bounds"),
        ),
    )


def _grid_variability() -> ScenarioSpec:
    return ScenarioSpec(
        name="grid_variability",
        description="Synthetic sweep of service variability without autocorrelation "
        "(renewal case): where MVA degrades gracefully",
        workload=SyntheticWorkload(
            front=MapSpec(family="exponential", mean=0.02),
            db_mean=0.015,
            db_scv=(1.0, 2.0, 8.0, 32.0),
            db_decay=(0.0,),
            think_time=0.5,
            populations=(1, 5, 20, 60),
        ),
        solvers=(
            SolverSpec(kind="ctmc"),
            SolverSpec(kind="mva"),
            SolverSpec(kind="bounds"),
        ),
    )


def _smoke() -> ScenarioSpec:
    return ScenarioSpec(
        name="smoke",
        description="Tiny analytic-only scenario: engine self-check in well under a second",
        workload=SyntheticWorkload(
            front=MapSpec(family="exponential", mean=0.05),
            db_mean=0.04,
            db_scv=(4.0,),
            db_decay=(0.5,),
            think_time=0.5,
            populations=(1, 3),
        ),
        solvers=(SolverSpec(kind="ctmc"), SolverSpec(kind="mva"), SolverSpec(kind="bounds")),
    )


def _smoke_tv() -> ScenarioSpec:
    return ScenarioSpec(
        name="smoke_tv",
        description="Tiny time-varying self-check: a three-segment regime switch "
        "solved piecewise (stationary and uniformized-transient) and simulated",
        workload=TimeVaryingWorkload(
            front=MapSpec(family="exponential", mean=0.05),
            db_mean=0.04,
            db_scv=4.0,
            db_decay=0.5,
            think_time=0.5,
            population=4,
            segments=(
                TimeVaryingSegment(duration=40.0, label="base"),
                TimeVaryingSegment(duration=20.0, label="surge", population=8, db_decay=0.9),
                TimeVaryingSegment(duration=40.0, label="cooldown", population=2),
            ),
        ),
        solvers=(
            SolverSpec(kind="piecewise_ctmc"),
            SolverSpec(kind="transient_ctmc"),
            SolverSpec(kind="simulation", options={"warmup": 5.0}),
        ),
        replication=ReplicationPolicy(replications=4, base_seed=11, policy="per_cell"),
    )


register_scenario("fig4", _fig4)
for _name in ("fig5", "fig6", "fig7", "fig8"):
    register_scenario(_name, _timeseries_scenario(_name, _name[3:]))
register_scenario("fig9", _fig9)
register_scenario("fig9_ci", _fig9_ci)
register_scenario("fig10", _fig10)
register_scenario("fig11", _fig11)
register_scenario("fig12", _fig12)
register_scenario("table1", _table1)
register_scenario("estimation", _estimation)
register_scenario("granularity_fine", _granularity_fine)
register_scenario("granularity_coarse", _granularity_coarse)
register_scenario("grid_burstiness", _grid_burstiness)
register_scenario("grid_variability", _grid_variability)
register_scenario("smoke", _smoke)
register_scenario("smoke_tv", _smoke_tv)
