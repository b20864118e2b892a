"""CLI surface: list / show / run / sweep with cache round-trip."""

from __future__ import annotations

import json

import pytest

from repro.experiments.cli import build_sweep_spec, format_table, main
from repro.experiments.registry import get_scenario


class TestList:
    def test_lists_all_scenarios(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("fig4", "fig9", "fig12", "table1", "grid_burstiness"):
            assert name in out


class TestShow:
    def test_show_prints_canonical_spec(self, capsys):
        assert main(["show", "fig4"]) == 0
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert payload["name"] == "fig4"
        assert payload["workload"]["kind"] == "testbed"
        assert "hash:" in captured.err


class TestRun:
    def test_run_then_cached_rerun(self, tmp_path, capsys):
        args = ["run", "smoke", "--cache-dir", str(tmp_path), "--jobs", "1"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert "computed" in first
        assert "cached at" in first
        assert "solver: ctmc" in first

        assert main(args) == 0
        second = capsys.readouterr().out
        assert "(cache" in second
        assert "0 computed" in second

    def test_run_json_output(self, tmp_path, capsys):
        assert main(["run", "smoke", "--cache-dir", str(tmp_path), "--jobs", "1", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["name"] == "smoke"
        assert payload["rows"]

    def test_run_no_cache(self, tmp_path, capsys):
        assert main(["run", "smoke", "--no-cache", "--jobs", "1"]) == 0
        out = capsys.readouterr().out
        assert "cached at" not in out

    def test_run_table_has_seconds_column(self, capsys):
        assert main(["run", "smoke", "--no-cache", "--jobs", "1"]) == 0
        out = capsys.readouterr().out
        assert "seconds" in out


class TestSweepSpec:
    def test_overrides_populations_and_solvers(self):
        spec = build_sweep_spec(
            get_scenario("fig9"), populations=(5, 10), solvers=("ctmc", "mva")
        )
        assert spec.workload.populations == (5, 10)
        assert [solver.kind for solver in spec.solvers] == ["ctmc", "mva"]
        assert spec.name == "fig9-sweep"

    def test_think_time_override_changes_name_and_workload(self):
        spec = build_sweep_spec(get_scenario("fig9"), populations=(5,), think_time=1.5)
        assert spec.workload.think_time == 1.5
        assert spec.name == "fig9-sweep-z1.5"

    def test_tier_override_sets_ctmc_option_and_renames(self):
        base = get_scenario("fig9")
        spec = build_sweep_spec(base, populations=(5,), think_time=1.5, tier="direct")
        assert spec.name == "fig9-sweep-z1.5-direct"
        for solver, original in zip(spec.solvers, base.solvers):
            if solver.kind == "ctmc":
                assert solver.options == {**original.options, "tier": "direct"}
            else:
                assert solver == original

    def test_keeps_base_solvers_by_default(self):
        base = get_scenario("smoke")
        spec = build_sweep_spec(base, populations=(2,))
        assert spec.solvers == base.solvers

    def test_rejects_trace_workload(self):
        with pytest.raises(ValueError, match="population axis"):
            build_sweep_spec(get_scenario("table1"), populations=(5,))

    def test_rejects_nonpositive_populations(self):
        with pytest.raises(ValueError, match="populations must be >= 1"):
            build_sweep_spec(get_scenario("smoke"), populations=(0, 2))


class TestSweepCommand:
    def test_sweep_synthetic_scenario(self, capsys):
        args = [
            "sweep", "smoke", "--populations", "2,3", "--solvers", "ctmc,mva",
            "--no-cache", "--jobs", "1",
        ]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "smoke-sweep" in out
        assert "solver: ctmc" in out
        assert "solver: mva" in out

    def test_sweep_multiple_think_times(self, capsys):
        args = [
            "sweep", "smoke", "--populations", "2", "--think-times", "0.5,1.0",
            "--solvers", "ctmc", "--no-cache", "--jobs", "1",
        ]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "smoke-sweep-z0.5" in out
        assert "smoke-sweep-z1" in out

    def test_sweep_json_output(self, capsys):
        args = [
            "sweep", "smoke", "--populations", "2", "--solvers", "ctmc",
            "--no-cache", "--jobs", "1", "--json",
        ]
        assert main(args) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["name"] == "smoke-sweep"
        assert {row["params"]["population"] for row in payload["rows"]} == {2}

    def test_sweep_trace_workload_is_an_error(self, capsys):
        args = ["sweep", "table1", "--populations", "2", "--no-cache"]
        assert main(args) == 2
        assert "population axis" in capsys.readouterr().err

    def test_sweep_zero_population_is_an_error_not_a_traceback(self, capsys):
        args = ["sweep", "smoke", "--populations", "0", "--no-cache"]
        assert main(args) == 2
        assert "populations must be >= 1" in capsys.readouterr().err

    def test_sweep_rejects_unknown_solver_kind(self):
        with pytest.raises(SystemExit):
            main(["sweep", "smoke", "--populations", "2", "--solvers", "nonsense"])


class TestFormatTable:
    def test_alignment_and_separator(self):
        text = format_table(["a", "long"], [[1, 2], [333, 4]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert set(lines[1]) <= {"-", " "}

    def test_empty_rows(self):
        text = format_table(["a"], [])
        assert "a" in text

