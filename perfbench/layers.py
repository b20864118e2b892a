"""Which public functions the traced run wraps, and the per-layer metrics.

Every target is a public function or method of one layer of ``repro``;
:func:`layer_metrics` turns the merged spans and counts of one traced round
into the per-layer metrics named in ``BENCHMARK.json``.
"""

from __future__ import annotations

from collections import Counter
from pathlib import Path

from perfbench.stats import matvec_cost_computed, write_amplification
from perfbench.tracing import Span, Target


def _testbed(args, kwargs, result) -> dict:
    return {"transactions": int(result.completed_transactions)}


def _series(args, kwargs, result) -> dict:
    return {"windows": int(result.utilization.size + result.completions.size)}


def _fit(args, kwargs, result) -> dict:
    return {
        "considered": int(result.candidates_considered),
        "feasible": int(result.candidates_feasible),
    }


def _solve(args, kwargs, result) -> dict:
    attempts = result.solver_attempts
    krylov = [a for a in attempts if a["iterations"]]
    return {
        "states": int(result.num_states),
        "tier": result.solver_tier,
        "krylov_iterations": int(result.krylov_iterations or 0),
        "krylov_seconds": float(sum(a["seconds"] for a in krylov)),
        "precond_setup_s": float(result.precond_setup_seconds or 0.0),
        "attempts": len(attempts),
        "accepted": sum(1 for a in attempts if a["accepted"]),
    }


def _matvec(args, kwargs, result) -> dict:
    operator = args[0]
    flops, moved = matvec_cost_computed(
        operator.space.population,
        operator.space.k_front,
        operator.space.k_db,
        bool(operator.hidden_front.any()),
        bool(operator.hidden_db.any()),
    )
    return {"flops": flops, "bytes": moved}


def _batch(args, kwargs, result) -> dict:
    return {"events": int(sum(r.events for r in result))}


def _manifest(args, kwargs, result) -> dict:
    path = Path(args[0].directory) / "manifest.json"
    return {"manifest_bytes": path.stat().st_size}


def _run(args, kwargs, result) -> dict:
    jobs = args[0].jobs or 1
    return {**{k: int(v) for k, v in result.meta.items() if k.startswith("cells_")}, "jobs": jobs}


def _stage(args, kwargs, result) -> dict:
    return {"key": args[0], "retries": int(result.retries), "ok": bool(result.ok)}


def _ingest(args, kwargs, result) -> dict:
    return {"events": int(result[0][1]["events"])}


TARGETS = (
    Target("tpcw.run", "repro.tpcw.testbed:TPCWTestbed.run", _testbed),
    Target("tpcw.measurement", "repro.tpcw.experiment:measurement_from_series"),
    Target("monitoring.record", "repro.monitoring.collector:ServerMonitor.record_busy", count_only=True),
    Target("monitoring.record", "repro.monitoring.collector:ServerMonitor.record_queue_length", count_only=True),
    Target("monitoring.record", "repro.monitoring.collector:ServerMonitor.record_completion", count_only=True),
    Target("monitoring.series", "repro.monitoring.collector:ServerMonitor.series", _series),
    Target("core.dispersion", "repro.core.dispersion:estimate_index_of_dispersion"),
    Target("core.percentile", "repro.core.percentiles:estimate_service_percentile"),
    Target("core.fit", "repro.core.map_fitting:fit_map2_from_measurements", _fit),
    Target("queueing.solve", "repro.queueing.map_network:MapClosedNetworkSolver.solve", _solve),
    Target("queueing.mva", "repro.queueing.mva:mva_closed_network"),
    Target("queueing.matvec", "repro.queueing.kron_operator:MatrixFreeGenerator.qt_matvec", _matvec),
    Target("queueing.matvec", "repro.queueing.kron_operator:MatrixFreeGenerator.q_matvec", _matvec),
    Target("queueing.precond_apply", "repro.queueing.kron_operator:MultilevelPreconditioner.solve"),
    Target("queueing.coarse_cycle", "repro.queueing.multilevel:LatticeHierarchy.solve"),
    Target("simulation.batch", "repro.simulation.batched:simulate_closed_map_network_batch", _batch),
    Target("experiments.run", "repro.experiments.runner:ExperimentRunner.run", _run),
    Target("experiments.execute", "repro.experiments.solvers:execute_cell"),
    Target("experiments.execute", "repro.experiments.solvers:execute_simulation_group"),
    Target("experiments.cache_add", "repro.experiments.cache:CacheWriter.add", _manifest),
    Target("experiments.manifest_write", "repro.experiments.cache:CacheWriter.add_failure", _manifest),
    Target("experiments.manifest_write", "repro.experiments.cache:CacheWriter.finalize", _manifest),
    Target("experiments.cache_load", "repro.experiments.cache:ResultCache.load"),
    Target("service.cycle", "repro.service.daemon:WhatIfService.run_cycle"),
    Target("service.stage", "repro.service.pipeline:run_stage", _stage),
    Target("service.execute", "repro.service.pipeline:execute_ingest", _ingest),
    Target("service.execute", "repro.service.pipeline:execute_fit"),
    Target("service.execute", "repro.service.pipeline:execute_solve"),
    Target("service.snapshot", "repro.service.streaming:WindowedTraceAccumulator.snapshot"),
    Target("service.merge", "repro.service.streaming:WindowedTraceAccumulator.merge"),
    Target("service.checkpoint", "repro.service.daemon:WhatIfService.write_checkpoint"),
    Target("service.health_write", "repro.service.daemon:WhatIfService.write_health"),
    Target("service.promote", "repro.service.registry:ModelRegistry.promote"),
)

#: Per-layer metric name -> unit, in the order ``BENCHMARK.json`` lists them.
LAYER_UNITS = {
    "tpcw.run_s": "s",
    "tpcw.transactions": "count",
    "tpcw.transactions_per_s": "1/s",
    "tpcw.measurement_s": "s",
    "monitoring.record_calls": "count",
    "monitoring.series_s": "s",
    "monitoring.windows": "count",
    "core.dispersion_s": "s",
    "core.dispersion_calls": "count",
    "core.percentile_s": "s",
    "core.fit_s": "s",
    "core.fit_calls": "count",
    "core.fit_feasible_ratio": "ratio",
    "queueing.matvec_s": "s",
    "queueing.matvec_calls": "count",
    "queueing.precond_apply_s": "s",
    "queueing.precond_apply_calls": "count",
    "queueing.coarse_cycle_s": "s",
    "queueing.krylov_iterations": "count",
    "queueing.precond_setup_s": "s",
    "queueing.iter_s": "s",
    "queueing.matvec_gflop_computed": "GFLOP",
    "queueing.matvec_gbytes_computed": "GB",
    "queueing.solve_s": "s",
    "queueing.solves": "count",
    "queueing.states": "count",
    "queueing.solver_attempt_ratio": "ratio",
    "queueing.mva_s": "s",
    "simulation.batch_s": "s",
    "simulation.batch_calls": "count",
    "simulation.events": "count",
    "simulation.events_per_s": "1/s",
    "experiments.cells": "count",
    "experiments.cells_computed": "count",
    "experiments.cells_failed": "count",
    "experiments.cells_retried": "count",
    "experiments.execute_s": "s",
    "experiments.worker_busy_frac": "ratio",
    "experiments.cache_add_s": "s",
    "experiments.cache_add_calls": "count",
    "experiments.manifest_bytes_written": "bytes",
    "experiments.manifest_write_amplification": "ratio",
    "experiments.cache_load_s": "s",
    "service.cycles": "count",
    "service.forecasts": "count",
    "service.forecast_ratio": "ratio",
    "service.ingest_stage_s": "s",
    "service.fit_stage_s": "s",
    "service.solve_stage_s": "s",
    "service.stage_overhead_s": "s",
    "service.stage_retries": "count",
    "service.events_ingested": "count",
    "service.ingest_events_per_s": "1/s",
    "service.snapshot_s": "s",
    "service.merge_s": "s",
    "service.checkpoint_s": "s",
    "service.health_write_s": "s",
    "trace.overhead_s": "s",
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(spans: list[Span], counts: Counter) -> dict[str, float]:
    """Per-layer metrics of one traced round (``trace.overhead_s`` excluded)."""
    by_name: dict[str, list[Span]] = {}
    for record in spans:
        by_name.setdefault(record.name, []).append(record)

    def seconds(name: str, where=None) -> float:
        return sum(s.duration for s in by_name.get(name, []) if where is None or where(s))

    def calls(name: str) -> int:
        return len(by_name.get(name, []))

    def attr(name: str, key: str, where=None) -> float:
        return sum(s.attrs.get(key, 0) for s in by_name.get(name, [])
                   if where is None or where(s))

    def stage(prefix: str):
        return lambda s: str(s.attrs.get("key", "")).startswith(prefix)

    transactions = attr("tpcw.run", "transactions")
    matvec_s = seconds("queueing.matvec")
    events = attr("simulation.batch", "events")
    cold = lambda s: s.attrs.get("cells_computed", 0) > 0  # noqa: E731
    cold_runs = [s for s in by_name.get("experiments.run", []) if cold(s)]
    busy_capacity = sum(s.duration * s.attrs.get("jobs", 1) for s in cold_runs)
    manifest_writes = by_name.get("experiments.cache_add", []) + by_name.get(
        "experiments.manifest_write", [])
    manifest_bytes = sum(s.attrs["manifest_bytes"] for s in manifest_writes)
    final_manifests = [s.attrs["manifest_bytes"] for s in by_name.get("experiments.manifest_write", [])]
    ingest_s = seconds("service.stage", stage("service/ingest"))
    ingested = attr("service.execute", "events")
    cycles = calls("service.cycle")
    return {
        "tpcw.run_s": seconds("tpcw.run"),
        "tpcw.transactions": transactions,
        "tpcw.transactions_per_s": _ratio(transactions, seconds("tpcw.run")),
        "tpcw.measurement_s": seconds("tpcw.measurement"),
        "monitoring.record_calls": counts.get("monitoring.record", 0),
        "monitoring.series_s": seconds("monitoring.series"),
        "monitoring.windows": attr("monitoring.series", "windows"),
        "core.dispersion_s": seconds("core.dispersion"),
        "core.dispersion_calls": calls("core.dispersion"),
        "core.percentile_s": seconds("core.percentile"),
        "core.fit_s": seconds("core.fit"),
        "core.fit_calls": calls("core.fit"),
        "core.fit_feasible_ratio": _ratio(attr("core.fit", "feasible"), attr("core.fit", "considered")),
        "queueing.matvec_s": matvec_s,
        "queueing.matvec_calls": calls("queueing.matvec"),
        "queueing.precond_apply_s": seconds("queueing.precond_apply"),
        "queueing.precond_apply_calls": calls("queueing.precond_apply"),
        "queueing.coarse_cycle_s": seconds("queueing.coarse_cycle"),
        "queueing.krylov_iterations": attr("queueing.solve", "krylov_iterations"),
        "queueing.precond_setup_s": attr("queueing.solve", "precond_setup_s"),
        "queueing.iter_s": _ratio(attr("queueing.solve", "krylov_seconds"),
                                  attr("queueing.solve", "krylov_iterations")),
        "queueing.matvec_gflop_computed": attr("queueing.matvec", "flops") / 1e9,
        "queueing.matvec_gbytes_computed": attr("queueing.matvec", "bytes") / 1e9,
        "queueing.solve_s": seconds("queueing.solve"),
        "queueing.solves": calls("queueing.solve"),
        "queueing.states": attr("queueing.solve", "states"),
        "queueing.solver_attempt_ratio": _ratio(attr("queueing.solve", "accepted"),
                                                attr("queueing.solve", "attempts")),
        "queueing.mva_s": seconds("queueing.mva"),
        "simulation.batch_s": seconds("simulation.batch"),
        "simulation.batch_calls": calls("simulation.batch"),
        "simulation.events": events,
        "simulation.events_per_s": _ratio(events, seconds("simulation.batch")),
        "experiments.cells": sum(s.attrs.get("cells_total", 0) for s in cold_runs),
        "experiments.cells_computed": sum(s.attrs.get("cells_computed", 0) for s in cold_runs),
        "experiments.cells_failed": sum(s.attrs.get("cells_failed", 0) for s in cold_runs),
        "experiments.cells_retried": sum(s.attrs.get("cells_retried", 0) for s in cold_runs),
        "experiments.execute_s": seconds("experiments.execute"),
        "experiments.worker_busy_frac": _ratio(seconds("experiments.execute"), busy_capacity),
        "experiments.cache_add_s": seconds("experiments.cache_add"),
        "experiments.cache_add_calls": calls("experiments.cache_add"),
        "experiments.manifest_bytes_written": manifest_bytes,
        "experiments.manifest_write_amplification": (
            write_amplification(manifest_bytes, final_manifests[-1]) if final_manifests else 0.0
        ),
        "experiments.cache_load_s": seconds("experiments.cache_load"),
        "service.cycles": cycles,
        "service.forecasts": calls("service.promote"),
        "service.forecast_ratio": _ratio(calls("service.promote"), cycles),
        "service.ingest_stage_s": ingest_s,
        "service.fit_stage_s": seconds("service.stage", stage("service/fit")),
        "service.solve_stage_s": seconds("service.stage", stage("service/solve")),
        "service.stage_overhead_s": seconds("service.stage") - seconds("service.execute"),
        "service.stage_retries": attr("service.stage", "retries"),
        "service.events_ingested": ingested,
        "service.ingest_events_per_s": _ratio(ingested, ingest_s),
        "service.snapshot_s": seconds("service.snapshot"),
        "service.merge_s": seconds("service.merge"),
        "service.checkpoint_s": seconds("service.checkpoint"),
        "service.health_write_s": seconds("service.health_write"),
    }
