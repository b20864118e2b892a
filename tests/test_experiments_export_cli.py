"""Tests for the artifact-aware ``export`` CLI and the per-cell memory meta.

``export`` must serve everything straight from the run directory — never
re-solving — and the engine must record ``peak_rss_mb`` (plus the solver
tier for exact-CTMC cells) in ``CellResult.meta``, shown by the run summary.
"""

from __future__ import annotations

import csv
import io

import pytest

from repro.experiments import cli
from repro.experiments import registry as registry_module
from repro.experiments.registry import get_scenario, register_scenario
from repro.experiments.runner import run_scenario
from repro.experiments.solvers import execute_cell
from repro.experiments.spec import (
    ReplicationPolicy,
    ScenarioSpec,
    SolverSpec,
    TraceWorkload,
)


@pytest.fixture()
def tiny_trace_scenario():
    """A registered single-cell trace scenario (carries an artifact)."""
    name = "export-test-trace"

    def factory() -> ScenarioSpec:
        return ScenarioSpec(
            name=name,
            description="tiny artifact-bearing scenario for export tests",
            workload=TraceWorkload(traces=("a",), utilizations=(0.5,), trace_size=400),
            solvers=(SolverSpec(kind="mtrace1"),),
            replication=ReplicationPolicy(base_seed=5),
        )

    register_scenario(name, factory)
    yield name
    registry_module._REGISTRY.pop(name, None)


class TestCellMeta:
    def test_cells_record_peak_rss_and_tier(self):
        spec = get_scenario("smoke")
        cell = next(c for c in spec.cells() if c.solver_kind == "ctmc")
        result = execute_cell(spec, cell)
        assert result.meta["peak_rss_mb"] > 0
        assert result.meta["solver_tier"] == "direct"

    def test_meta_survives_the_cache_round_trip(self, tmp_path):
        spec = get_scenario("smoke")
        first = run_scenario(spec, cache_dir=tmp_path)
        cached = run_scenario(spec, cache_dir=tmp_path)
        assert cached.from_cache
        for row in cached.rows:
            assert row.meta["peak_rss_mb"] > 0

    def test_run_summary_shows_memory_column(self, tmp_path, capsys):
        assert cli.main(["run", "smoke", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "peak MB" in out
        assert "peak worker RSS" in out


class TestExportCli:
    def test_export_requires_a_cached_run(self, tmp_path, capsys):
        rc = cli.main(["export", "smoke", "--cache-dir", str(tmp_path)])
        assert rc == 1
        assert "no complete cached run" in capsys.readouterr().err

    def test_export_metrics_csv_matches_cached_result(self, tmp_path, capsys):
        spec = get_scenario("smoke")
        result = run_scenario(spec, cache_dir=tmp_path)
        assert cli.main(["export", "smoke", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == len(result.rows)
        # Spot-check one ctmc cell's throughput against the cached metrics.
        ctmc_rows = [row for row in rows if row["solver"] == "ctmc"]
        assert ctmc_rows
        for row in ctmc_rows:
            reference = result.one(
                solver="ctmc",
                db_scv=float(row["db_scv"]),
                db_decay=float(row["db_decay"]),
                population=int(float(row["population"])),
            )
            assert float(row["throughput"]) == pytest.approx(
                reference.metric("throughput"), rel=1e-12
            )

    def test_export_to_file_and_artifacts(self, tmp_path, tiny_trace_scenario, capsys):
        spec = get_scenario(tiny_trace_scenario)
        result = run_scenario(spec, cache_dir=tmp_path / "cache")
        output = tmp_path / "metrics.csv"
        artifacts = tmp_path / "series"
        rc = cli.main([
            "export", tiny_trace_scenario,
            "--cache-dir", str(tmp_path / "cache"),
            "--output", str(output),
            "--artifacts", str(artifacts),
        ])
        assert rc == 0
        with open(output, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 1
        assert float(rows[0]["mean_response_time"]) > 0
        # One CSV per artifact-bearing cell, columns = the stored series.
        series_files = sorted(artifacts.glob("*.csv"))
        assert len(series_files) == 1
        with open(series_files[0], newline="") as handle:
            series_rows = list(csv.DictReader(handle))
        artifact = result.rows[0].load_artifact()
        assert set(series_rows[0]) == set(artifact)
        assert len(series_rows) == max(len(v) for v in artifact.values())
        column = [float(r["response_times"]) for r in series_rows if r["response_times"]]
        assert column == pytest.approx(artifact["response_times"].tolist())

    def test_export_never_recomputes(self, tmp_path, tiny_trace_scenario, monkeypatch):
        spec = get_scenario(tiny_trace_scenario)
        run_scenario(spec, cache_dir=tmp_path)

        def boom(*args, **kwargs):
            raise AssertionError("export must not execute cells")

        monkeypatch.setattr("repro.experiments.solvers.execute_cell", boom)
        assert cli.main(["export", tiny_trace_scenario, "--cache-dir", str(tmp_path)]) == 0
