"""The four workloads: inputs made from a seed, one round of fixed work each.

All four are closed-loop with one caller: each call into the program waits
for the previous one to return.  Parallelism comes only from the program's
own worker processes (the experiment runner and the service stages), with
at most ``nproc`` workers.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core.model_builder import build_multitier_model
from repro.experiments import (
    ExperimentRunner,
    MapSpec,
    ReplicationPolicy,
    ScenarioSpec,
    SolverSpec,
    SyntheticWorkload,
)
from repro.maps.map2 import map2_from_moments_and_decay
from repro.queueing.map_network import MapClosedNetworkSolver
from repro.service import ServiceConfig, WhatIfService, synthesize_service_trace
from repro.service.registry import map_from_payload
from repro.tpcw import BROWSING_MIX, TestbedConfig, TPCWTestbed
from repro.tpcw.experiment import measurement_from_series

from perfbench import checks
from perfbench.checks import CheckFailed


@dataclass
class RoundResult:
    """One round of a workload's fixed work."""

    wall_s: float
    #: Latency of each closed-loop operation of the round (see ``cycle``).
    latencies: list[float]
    info: dict = field(default_factory=dict)


class Ledger:
    """Counts operations and failed ones; opens one traced operation each.

    A :class:`CheckFailed` inside :meth:`op` marks the operation failed and
    is recorded; any other exception propagates.
    """

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self._ops = 0

    @contextmanager
    def op(self, name: str, counted: bool = True):
        """One operation; ``counted=False`` only groups the program's own."""
        self._ops += 1
        if counted:
            self.attempted += 1
        scope = (self.tracer.span(f"op.{name}", op_id=f"{name}#{self._ops}")
                 if self.tracer else nullcontext())
        try:
            with scope:
                yield
        except CheckFailed as failure:
            self.fail(f"{name}: {failure}")

    def fail(self, message: str) -> None:
        self.failed += 1
        self.failures.append(message)

    def check(self, name: str, check, *args) -> None:
        """Run one check outside any operation; a failure is a failed operation."""
        try:
            check(*args)
        except CheckFailed as failure:
            self.fail(f"{name}: {failure}")

    def record(self, attempted: int, failed: int = 0, messages=()) -> None:
        """Operations the program ran on its own (stage invocations, cells)."""
        self.attempted += attempted
        self.failed += failed
        self.failures.extend(messages)


def _seeds(seed: int, count: int) -> list[int]:
    """``count`` independent 32-bit seeds derived from the workload seed."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


# ----------------------------------------------------------------------
class TpcwModel:
    """The paper's pipeline in-process: monitor, fit, predict.

    One TPC-W monitoring run, the two tiers' measurements, the
    dispersion/p95/MAP(2) fit, then MAP-network and MVA predictions.
    """

    name = "tpcw_model"
    cycle = "one pipeline pass, monitoring run to forecast"
    NUM_EBS = 50
    THINK_TIME = 0.5
    DURATION = 600.0
    WARMUP = 60.0
    POPULATIONS = tuple(range(25, 151, 25))

    #: Rounds cycle through this many testbed seeds.  The fitted MAPs, and
    #: with them the solvers' iteration counts, differ from seed to seed;
    #: the median over rounds then spans several fitted models.
    TESTBED_SEEDS = 8

    def prepare(self, seed: int, workdir: Path) -> dict:
        configs = [
            TestbedConfig(
                mix=BROWSING_MIX, num_ebs=self.NUM_EBS, think_time=self.THINK_TIME,
                duration=self.DURATION, warmup=self.WARMUP, seed=testbed_seed,
            )
            for testbed_seed in _seeds(seed, self.TESTBED_SEEDS)
        ]
        return {"configs": configs}

    def round(self, inputs: dict, index: int, workdir: Path, ledger: Ledger) -> RoundResult:
        started = time.perf_counter()
        info: dict = {}
        with ledger.op("testbed"):
            configs = inputs["configs"]
            result = TPCWTestbed(configs[index % len(configs)]).run()
            info["transactions"] = result.completed_transactions
            checks.check_equal(sum(result.transaction_counts.values()),
                               result.completed_transactions, "transactions by type")
        with ledger.op("fit"):
            model = build_multitier_model(
                measurement_from_series(result.front),
                measurement_from_series(result.database),
                think_time=self.THINK_TIME,
            )
            for server in (model.front, model.database):
                checks.check_fitted_map(
                    server.service_map, server.fitted.target_dispersion, server.fitted.mean
                )
        demands = (model.front.service_map.mean(), model.database.service_map.mean())
        for population in self.POPULATIONS:
            with ledger.op("predict"):
                checks.check_map_network_result(model.predict(population), demands)
        with ledger.op("mva"):
            throughput = model.mva_throughput(self.POPULATIONS)
            baseline = model.mva_baseline(max(self.POPULATIONS))
            checks.check_mva_result(baseline)
            checks.check_equal(
                [float(x) for x in throughput],
                [baseline.throughput_at(n) for n in self.POPULATIONS],
                "mva_throughput against the MVA recursion",
            )
        wall = time.perf_counter() - started
        return RoundResult(wall, [wall], info)


# ----------------------------------------------------------------------
class LargeSolve:
    """One exact solve just above the materialized tier's state limit."""

    name = "large_solve"
    cycle = "one solve"
    POPULATION = 560
    THINK_TIME = 0.5

    def prepare(self, seed: int, workdir: Path) -> dict:
        # The seed moves the service means by at most 1 %, which keeps the
        # network bursty and the state count (and so the tier) fixed.
        rng = np.random.default_rng(_seeds(seed, 1)[0])
        front_jitter, db_jitter = 1 + 0.01 * rng.uniform(-1, 1, size=2)
        return {
            "front": map2_from_moments_and_decay(0.02 * front_jitter, 2.0, 0.5),
            "db": map2_from_moments_and_decay(0.015 * db_jitter, 4.0, 0.9),
        }

    def round(self, inputs: dict, index: int, workdir: Path, ledger: Ledger) -> RoundResult:
        started = time.perf_counter()
        with ledger.op("solve"):
            solver = MapClosedNetworkSolver(inputs["front"], inputs["db"], self.THINK_TIME)
            result = solver.solve(self.POPULATION)
            wall = time.perf_counter() - started
            checks.check_equal(result.solver_tier, "matrix_free", "solver tier")
            checks.check_map_network_result(
                result, (inputs["front"].mean(), inputs["db"].mean())
            )
        info = {"states": result.num_states, "krylov_iterations": result.krylov_iterations}
        return RoundResult(wall, [wall], info)


# ----------------------------------------------------------------------
class ServiceCycle:
    """The live what-if service draining two synthetic traces."""

    name = "service_cycle"
    cycle = "one service cycle that refits and promotes a forecast"
    EVENTS = 84_000
    CHUNK_EVENTS = 2_000
    MIN_REFITS = 40
    MAX_CYCLES = 200

    def prepare(self, seed: int, workdir: Path) -> dict:
        workdir.mkdir(parents=True, exist_ok=True)
        front_seed, db_seed = _seeds(seed, 2)
        traces = {}
        for name, trace_seed, mean in (("front", front_seed, 0.02), ("db", db_seed, 0.015)):
            path = workdir / f"{name}.trace"
            synthesize_service_trace(
                path, events=self.EVENTS, mean_service=mean, scv=4.0,
                utilization=0.5, seed=trace_seed,
            )
            traces[name] = str(path)
        config = ServiceConfig(
            name="perfbench",
            traces=traces,
            think_time=1.0,
            populations=(1, 2, 4, 8),
            chunk_events=self.CHUNK_EVENTS,
            max_chunks_per_cycle=1,
            refit_windows=20,
            fit_horizon_windows=200,
            min_fit_windows=120,
            estimator={"min_windows": 40},
        )
        return {"config": config}

    def _check_forecast(self, good) -> None:
        stations = good.model["stations"]
        maps = {name: map_from_payload(stations[name]["map"]) for name in ("front", "db")}
        for name, process in maps.items():
            checks.check_fitted_map(
                process, stations[name]["dispersion"], stations[name]["mean_service"]
            )
        demands = (maps["front"].mean(), maps["db"].mean())
        for row in good.forecast["rows"]:
            checks.check_closed_network(
                row["population"], good.forecast["think_time"], row["throughput"],
                row["response_time"], (row["front_utilization"], row["db_utilization"]),
                demands,
            )

    def round(self, inputs: dict, index: int, workdir: Path, ledger: Ledger) -> RoundResult:
        state_dir = workdir / "state"
        started = time.perf_counter()
        service = WhatIfService.open(inputs["config"], state_dir)
        latencies = []
        for _ in range(self.MAX_CYCLES):
            before = service.events_total
            with ledger.op("cycle", counted=False):
                begun = time.perf_counter()
                service.run_cycle()
                elapsed = time.perf_counter() - begun
                good = service.last_good
                if good is not None and good.cycle == service.cycle:
                    latencies.append(elapsed)
                    self._check_forecast(good)
            if service.events_total == before:
                break
        wall = time.perf_counter() - started
        health = json.loads((state_dir / "health.json").read_text())
        stages = health["stages"].values()
        ledger.record(
            attempted=sum(stage["invocations"] for stage in stages),
            failed=sum(stage["failed"] for stage in stages),
            messages=[f"{name}: {stage['last_error']}" for name, stage
                      in health["stages"].items() if stage["last_error"]],
        )
        ledger.check("health", checks.check_service_health, health)
        ledger.check("events ingested", checks.check_equal, health["events_total"],
                     2 * self.EVENTS, "events ingested")
        if len(latencies) < self.MIN_REFITS:
            ledger.fail(f"only {len(latencies)} refit cycles, need {self.MIN_REFITS}")
        info = {"cycles": health["cycle"], "refit_cycles": len(latencies)}
        return RoundResult(wall, latencies, info)


# ----------------------------------------------------------------------
class SweepCampaign:
    """The ``run`` verb's path: a cold cached campaign, then its replay."""

    name = "sweep_campaign"
    cycle = "one cell, as the runner times it"
    FRONT_MEAN = 0.02
    DB_MEAN = 0.015
    THINK_TIME = 0.5
    POPULATIONS = (5, 10, 20, 30, 40, 60)
    REPLICATIONS = 16
    HORIZON = 25.0

    def prepare(self, seed: int, workdir: Path) -> dict:
        (base_seed,) = _seeds(seed, 1)
        spec = ScenarioSpec(
            name="perfbench_sweep",
            description="bursty synthetic grid for the benchmark",
            workload=SyntheticWorkload(
                front=MapSpec(family="exponential", mean=self.FRONT_MEAN),
                db_mean=self.DB_MEAN,
                db_scv=(4.0, 16.0),
                db_decay=(0.5, 0.95),
                think_time=self.THINK_TIME,
                populations=self.POPULATIONS,
            ),
            solvers=(
                SolverSpec(kind="ctmc"),
                SolverSpec(kind="mva"),
                SolverSpec(kind="bounds"),
                SolverSpec(kind="simulation", options={
                    "horizon": self.HORIZON, "warmup": self.HORIZON / 10,
                    "sim_backend": "batched",
                }),
            ),
            replication=ReplicationPolicy(
                replications=self.REPLICATIONS, base_seed=base_seed % 2**31,
                policy="per_cell",
            ),
        )
        return {"spec": spec, "jobs": os.cpu_count() or 1}

    def _check_rows(self, rows, ledger: Ledger) -> None:
        points: dict[tuple, dict] = {}
        for row in rows:
            point = points.setdefault(tuple(sorted(row.params.items())), {"simulation": []})
            if row.kind == "simulation":
                point["simulation"].append(row.metrics["throughput"])
            else:
                point[row.kind] = row.metrics
        demands = (self.FRONT_MEAN, self.DB_MEAN)
        for key, point in points.items():
            n = int(dict(key)["population"])
            for kind in ("ctmc", "mva"):
                ledger.check(f"{kind} {key}", checks.check_row_network,
                             point[kind], n, self.THINK_TIME, demands)
            exact = point["ctmc"]["throughput"]
            ledger.check(f"bounds {key}", checks.check_within, exact,
                         point["bounds"]["throughput_lower"],
                         point["bounds"]["throughput_upper"], "CTMC throughput")
            ledger.check(f"simulation {key}", checks.check_simulation_agrees,
                         point["simulation"], exact)

    def round(self, inputs: dict, index: int, workdir: Path, ledger: Ledger) -> RoundResult:
        spec, jobs = inputs["spec"], inputs["jobs"]
        cache_dir = workdir / "cache"
        # Grid points x (ctmc + mva + bounds + one cell per replication).
        expected_cells = len(self.POPULATIONS) * 2 * 2 * (3 + self.REPLICATIONS)
        with ledger.op("campaign", counted=False):
            started = time.perf_counter()
            cold = ExperimentRunner(cache_dir=cache_dir, jobs=jobs).run(spec)
            wall = time.perf_counter() - started
        ledger.record(attempted=cold.meta["cells_total"], failed=cold.meta["cells_failed"],
                      messages=[f.message for f in cold.failures])
        ledger.check("cells computed", checks.check_equal, cold.meta["cells_computed"],
                     expected_cells, "cells computed on the cold run")
        self._check_rows(cold.rows, ledger)
        with ledger.op("replay"):
            replay = ExperimentRunner(cache_dir=cache_dir, jobs=jobs).run(spec)
            checks.check_cache_replay(cold, replay)
        latencies = [row.elapsed_seconds for row in cold.rows]
        return RoundResult(wall, latencies, {"cells": cold.meta["cells_total"]})


WORKLOADS = {w.name: w for w in (TpcwModel(), LargeSolve(), ServiceCycle(), SweepCampaign())}
