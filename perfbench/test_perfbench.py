"""Tests of the benchmark's own arithmetic, tracing and checks.

Each check gets one input it must accept and one it must reject.
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import os
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from perfbench import checks
from perfbench.checks import CheckFailed
from perfbench.layers import LAYER_UNITS, layer_metrics
from perfbench.stats import (
    matvec_cost_computed,
    percentile,
    quartile_spread,
    tail_percentile,
    write_amplification,
)
from perfbench.tracing import Span, Target, Tracer, self_time, self_times
from perfbench.workloads import Ledger
from repro.core.map_fitting import fit_map2_from_measurements
from repro.maps.map2 import map2_exponential, map2_from_moments_and_decay
from repro.queueing import mva as mva_module
from repro.queueing.map_network import MapClosedNetworkSolver
from repro.queueing.mva import mva_closed_network

BENCH_DIR = Path(__file__).resolve().parent


# ----------------------------------------------------------------------
# Percentiles, spreads, computed costs
# ----------------------------------------------------------------------
def test_percentile_interpolates_like_numpy():
    samples = [5.0, 1.0, 4.0, 2.0, 3.0, 10.0]
    for q in (0, 25, 50, 75, 90, 100):
        assert percentile(samples, q) == pytest.approx(np.percentile(samples, q))
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


@pytest.mark.parametrize(
    "count, expected",
    [(19, None), (20, 50), (39, 50), (40, 75), (99, 75), (100, 90), (200, 95), (1000, 99)],
)
def test_tail_percentile_keeps_ten_samples_beyond(count, expected):
    assert tail_percentile([0.0] * count) == expected


def test_quartile_spread_is_iqr_over_median():
    values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    # statistics.quantiles (exclusive method): q1 = 2.75, median 5.5, q3 = 8.25.
    assert quartile_spread(values) == pytest.approx((8.25 - 2.75) / 5.5)


def test_write_amplification():
    assert write_amplification(10 + 20 + 30, 30) == 2.0
    with pytest.raises(ValueError):
        write_amplification(10, 0)


def test_matvec_cost_by_hand():
    # N=1, one phase each, no hidden jumps: 3 blocks, 1 with transitions.
    flops, moved = matvec_cost_computed(1, 1, 1, False, False)
    assert flops == 3 * 1 + 1 * (2 + 2 * (2 + 1))
    family = 3 * 8 + 2 * 8
    assert moved == 3 * 3 * 8 + (family + 8 + 2 * family)
    hidden_flops, _ = matvec_cost_computed(1, 1, 1, True, True)
    assert hidden_flops == flops + 2 * (2 + 1)


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
def _span(name, span_id, parent, start, end, pid=1, **attrs):
    return Span(name=name, span_id=span_id, parent_id=parent, op_id="op",
                start=start, end=end, pid=pid, attrs=attrs)


def test_self_time_subtracts_union_of_clipped_children():
    parent = _span("p", "1", None, 0.0, 10.0)
    children = [
        _span("c", "2", "1", 1.0, 3.0),
        _span("c", "3", "1", 2.0, 5.0, pid=2),  # overlaps the first child
        _span("c", "4", "1", 9.0, 12.0, pid=3),  # runs past the parent's end
    ]
    assert self_time(parent, children) == pytest.approx(10.0 - 4.0 - 1.0)
    totals = self_times([parent, *children])
    assert totals["p"] == pytest.approx(5.0)
    assert totals["c"] == pytest.approx(2.0 + 3.0 + 3.0)


def _traced_child(value):
    return mva_module.mva_closed_network([0.01, 0.02], 0.5, value)


def _child_entry(tracer):
    with tracer.span("child.op"):
        _traced_child(3)


def test_tracer_records_parent_and_forked_worker_spans(tmp_path):
    original = mva_closed_network
    tracer = Tracer(tmp_path / "spans")
    tracer.install([Target("queueing.mva", "repro.queueing.mva:mva_closed_network")])
    try:
        assert mva_module.mva_closed_network is not original
        with tracer.span("op.root", op_id="root#1") as root:
            _traced_child(2)
            context = multiprocessing.get_context("fork")
            worker = context.Process(target=_child_entry, args=(tracer,))
            worker.start()
            worker.join(timeout=30)
            assert worker.exitcode == 0
    finally:
        tracer.uninstall()
    assert mva_module.mva_closed_network is original
    spans, _ = tracer.collect()
    by_name = {}
    for record in spans:
        by_name.setdefault(record.name, []).append(record)
    assert len(by_name["queueing.mva"]) == 2
    assert {s.op_id for s in spans} == {"root#1"}
    (child_op,) = by_name["child.op"]
    assert child_op.parent_id == root.span_id and child_op.pid != os.getpid()
    worker_mva = [s for s in by_name["queueing.mva"] if s.pid == child_op.pid]
    assert worker_mva and worker_mva[0].parent_id == child_op.span_id


def test_count_only_target_counts_calls(tmp_path):
    tracer = Tracer(tmp_path)
    tracer.install([Target("queueing.mva", "repro.queueing.mva:mva_closed_network",
                           count_only=True)])
    try:
        _traced_child(2)
        _traced_child(3)
    finally:
        tracer.uninstall()
    spans, counts = tracer.collect()
    assert spans == [] and counts["queueing.mva"] == 2


def test_layer_metrics_service_overhead_and_manifest_amplification():
    spans = [
        _span("service.stage", "1", None, 0.0, 2.0, key="service/fit", retries=1),
        _span("service.execute", "2", "1", 0.5, 1.5, pid=2),
        _span("service.stage", "3", None, 2.0, 3.0, key="service/ingest/front", retries=0),
        _span("service.execute", "4", "3", 2.2, 2.6, pid=3, events=400),
        _span("experiments.cache_add", "5", None, 3.0, 3.1, manifest_bytes=100),
        _span("experiments.cache_add", "6", None, 3.1, 3.2, manifest_bytes=200),
        _span("experiments.manifest_write", "7", None, 3.2, 3.3, manifest_bytes=300),
    ]
    metrics = layer_metrics(spans, Counter({"monitoring.record": 7}))
    assert set(metrics) == set(LAYER_UNITS) - {"trace.overhead_s"}
    assert metrics["service.stage_overhead_s"] == pytest.approx(3.0 - 1.4)
    assert metrics["service.fit_stage_s"] == pytest.approx(2.0)
    assert metrics["service.ingest_events_per_s"] == pytest.approx(400 / 1.0)
    assert metrics["service.stage_retries"] == 1
    assert metrics["experiments.manifest_bytes_written"] == 600
    assert metrics["experiments.manifest_write_amplification"] == pytest.approx(2.0)
    assert metrics["monitoring.record_calls"] == 7


# ----------------------------------------------------------------------
# Checks: one accepted and one rejected input each
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def network():
    front = map2_from_moments_and_decay(0.02, 4.0, 0.5)
    db = map2_from_moments_and_decay(0.015, 8.0, 0.9)
    result = MapClosedNetworkSolver(front, db, 0.5).solve(12)
    return result, (front.mean(), db.mean())


def test_map_network_checks(network):
    result, demands = network
    checks.check_map_network_result(result, demands)
    for broken in (
        dataclasses.replace(result, mean_customers_thinking=result.mean_customers_thinking + 0.1),
        dataclasses.replace(result, front_utilization=result.front_utilization * 1.01),
        dataclasses.replace(result, db_queue_length=result.db_queue_length + 0.5,
                            mean_customers_thinking=result.mean_customers_thinking - 0.5),
    ):
        with pytest.raises(CheckFailed):
            checks.check_map_network_result(broken, demands)


def test_throughput_bounds_reject_faster_than_bottleneck():
    checks.check_throughput_bounds(16.0, (0.02, 0.015), 0.5, 10)
    with pytest.raises(CheckFailed):
        checks.check_throughput_bounds(1 / 0.02 * 1.01, (0.02, 0.015), 0.5, 200)


def test_closed_network_rejects_response_time_law():
    x = 10 / 0.6
    checks.check_closed_network(10, 0.5, x, 0.1, (x * 0.02, x * 0.015), (0.02, 0.015))
    with pytest.raises(CheckFailed):
        checks.check_closed_network(10, 0.5, x, 0.2, (x * 0.02, x * 0.015), (0.02, 0.015))


def test_mva_checks():
    result = mva_closed_network([0.02, 0.015], 0.5, 30)
    checks.check_mva_result(result)
    throughput = result.throughput.copy()
    throughput[9] *= 1.001
    with pytest.raises(CheckFailed):
        checks.check_mva_result(dataclasses.replace(result, throughput=throughput))


def test_row_network_checks(network):
    result, demands = network
    row = {
        "throughput": result.throughput,
        "response_time": result.response_time,
        "front_utilization": result.front_utilization,
        "db_utilization": result.db_utilization,
        "front_queue_length": result.front_queue_length,
        "db_queue_length": result.db_queue_length,
    }
    checks.check_row_network(row, result.population, result.think_time, demands)
    with pytest.raises(CheckFailed):
        checks.check_row_network({**row, "front_queue_length": row["front_queue_length"] + 0.2},
                                 result.population, result.think_time, demands)


def test_within():
    checks.check_within(1.0, 0.5, 1.0, "x")
    with pytest.raises(CheckFailed):
        checks.check_within(1.1, 0.5, 1.0, "x")


def test_simulation_agreement():
    rng = np.random.default_rng(3)
    samples = 40.0 + rng.normal(0.0, 1.0, size=16)
    assert checks.check_simulation_agrees(samples, 40.0) < checks.SIM_STANDARD_ERRORS
    with pytest.raises(CheckFailed):
        checks.check_simulation_agrees(samples + 2.0, 40.0)
    with pytest.raises(CheckFailed):
        checks.check_simulation_agrees([40.0], 40.0)


def test_fitted_map_checks():
    fitted = fit_map2_from_measurements(0.01, 6.0, 0.03)
    checks.check_fitted_map(fitted.map, 6.0, 0.01)
    checks.check_fitted_map(map2_exponential(0.01), 0.8, 0.01)
    with pytest.raises(CheckFailed):
        checks.check_fitted_map(fitted.map, 12.0, 0.01)
    with pytest.raises(CheckFailed):
        checks.check_fitted_map(fitted.map, 6.0, 0.02)


def test_equal():
    checks.check_equal(3, 3, "n")
    with pytest.raises(CheckFailed):
        checks.check_equal(3, 4, "n")


def _experiment(computed, from_cache, throughput):
    row = SimpleNamespace(solver="ctmc", replication=0, params={"population": 5},
                          metrics={"throughput": throughput})
    meta = {"cells_total": 1, "cells_computed": computed, "cells_from_cache": from_cache}
    return SimpleNamespace(meta=meta, rows=(row,))


def test_cache_replay_checks():
    cold = _experiment(1, 0, 9.5)
    checks.check_cache_replay(cold, _experiment(0, 1, 9.5))
    with pytest.raises(CheckFailed):
        checks.check_cache_replay(cold, _experiment(1, 0, 9.5))
    with pytest.raises(CheckFailed):
        checks.check_cache_replay(cold, _experiment(0, 1, 9.5000001))


def test_service_health_checks():
    checks.check_service_health({"status": "healthy", "serving": "fresh"})
    with pytest.raises(CheckFailed):
        checks.check_service_health({"status": "degraded", "serving": "fresh"})
    with pytest.raises(CheckFailed):
        checks.check_service_health({"status": "healthy", "serving": "last-known-good"})


def test_ledger_counts_failed_checks_and_propagates_errors():
    ledger = Ledger()
    with ledger.op("ok"):
        pass
    with ledger.op("bad"):
        raise CheckFailed("broken")
    ledger.check("outside", checks.check_equal, 1, 2, "value")
    assert (ledger.attempted, ledger.failed) == (2, 2)
    with pytest.raises(ZeroDivisionError):
        with ledger.op("crash"):
            1 / 0


# ----------------------------------------------------------------------
# The command
# ----------------------------------------------------------------------
def test_benchmark_json_lists_every_metric():
    bench = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in bench["per_layer"]] == list(LAYER_UNITS)
    assert [m["unit"] for m in bench["per_layer"]] == list(LAYER_UNITS.values())
    from perfbench.run import END_TO_END_UNITS
    from perfbench.workloads import WORKLOADS

    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == END_TO_END_UNITS
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)


def test_command_without_program_fails_without_result(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tpcw_model", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert "correct" not in completed.stdout
