"""Scenario packs and the time-varying workload spec.

Covers the JSON pack surface end-to-end: spec round-trips, the envelope
validator's error paths (each reporting the offending JSON path), the CLI
``validate``/``run`` commands on pack files, cache addressability (second
run of an unchanged pack computes nothing), and the shipped ``scenarios/``
files staying valid.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.experiments import (
    PACK_FORMAT,
    PackValidationError,
    ScenarioSpec,
    load_pack,
    validate_pack,
)
from repro.experiments.cli import main
from repro.experiments.packs import looks_like_pack_path
from repro.experiments.spec import (
    DETERMINISTIC_SOLVERS,
    MapSpec,
    ReplicationPolicy,
    SolverSpec,
    TimeVaryingSegment,
    TimeVaryingWorkload,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
SHIPPED_PACKS = sorted((REPO_ROOT / "scenarios").glob("*.json"))


def _workload(**overrides):
    fields = dict(
        front=MapSpec(family="exponential", mean=0.05),
        db_mean=0.04,
        db_scv=4.0,
        db_decay=0.5,
        think_time=0.5,
        population=4,
        segments=(
            TimeVaryingSegment(duration=30.0, label="calm"),
            TimeVaryingSegment(duration=30.0, label="bursty", db_decay=0.95),
        ),
    )
    fields.update(overrides)
    return TimeVaryingWorkload(**fields)


def _spec(**overrides):
    fields = dict(
        name="pack_test",
        description="pack test scenario",
        workload=_workload(),
        solvers=(
            SolverSpec(kind="piecewise_ctmc"),
            SolverSpec(kind="simulation", options={"warmup": 5.0}),
        ),
        replication=ReplicationPolicy(replications=3, base_seed=99, policy="per_cell"),
    )
    fields.update(overrides)
    return ScenarioSpec(**fields)


def _pack_payload(spec):
    payload = {"format": PACK_FORMAT}
    payload.update(spec.to_dict())
    # Round-trip through JSON: pack payloads always arrive as parsed JSON
    # (lists, not tuples), which is what the envelope validator checks.
    return json.loads(json.dumps(payload))


def _write_pack(tmp_path, spec, filename="pack.json", mutate=None):
    payload = _pack_payload(spec)
    if mutate is not None:
        mutate(payload)
    path = tmp_path / filename
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


class TestTimeVaryingSpec:
    def test_dict_round_trip_through_json(self):
        spec = _spec()
        clone = ScenarioSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert clone == spec
        assert clone.hash() == spec.hash()

    def test_single_grid_point(self):
        workload = _workload()
        assert workload.axes() == {}
        assert workload.horizon == pytest.approx(60.0)

    def test_piecewise_solvers_are_deterministic(self):
        assert "piecewise_ctmc" in DETERMINISTIC_SOLVERS
        assert "transient_ctmc" in DETERMINISTIC_SOLVERS
        spec = _spec()
        cells = spec.cells()
        by_kind: dict = {}
        for cell in cells:
            by_kind.setdefault(cell.solver_kind, []).append(cell)
        # Deterministic solver: one cell; simulation: one per replication.
        assert len(by_kind["piecewise_ctmc"]) == 1
        assert len(by_kind["simulation"]) == 3

    def test_segment_overrides_validated(self):
        with pytest.raises(ValueError):
            TimeVaryingSegment(duration=-1.0)
        with pytest.raises(ValueError):
            TimeVaryingSegment(duration=1.0, population=0)
        with pytest.raises(ValueError):
            TimeVaryingSegment(duration=1.0, db_mean=-0.5)

    def test_resolved_segments_apply_overrides(self):
        segments = _workload().resolved_segments()
        assert [s.label for s in segments] == ["calm", "bursty"]
        assert all(s.population == 4 for s in segments)
        assert segments[0].think_time == pytest.approx(0.5)


class TestValidatePack:
    def test_accepts_generated_pack(self):
        validate_pack(_pack_payload(_spec()))

    def test_rejects_non_object(self):
        with pytest.raises(PackValidationError, match="JSON object"):
            validate_pack([1, 2, 3], source="x.json")

    def test_rejects_missing_format(self):
        payload = _pack_payload(_spec())
        del payload["format"]
        with pytest.raises(PackValidationError, match="format"):
            validate_pack(payload, source="x.json")

    def test_rejects_unknown_workload_kind(self):
        payload = _pack_payload(_spec())
        payload["workload"]["kind"] = "sinusoidal"
        with pytest.raises(PackValidationError, match="workload.kind"):
            validate_pack(payload, source="x.json")

    def test_rejects_segment_without_duration(self):
        payload = _pack_payload(_spec())
        del payload["workload"]["segments"][1]["duration"]
        with pytest.raises(PackValidationError, match=r"segments\[1\]"):
            validate_pack(payload, source="x.json")

    def test_rejects_unknown_solver_kind(self):
        payload = _pack_payload(_spec())
        payload["solvers"][0]["kind"] = "oracle"
        with pytest.raises(PackValidationError, match=r"solvers\[0\]\.kind"):
            validate_pack(payload, source="x.json")

    def test_rejects_invalid_deep_field(self):
        payload = _pack_payload(_spec())
        payload["workload"]["segments"][0]["duration"] = -5.0
        with pytest.raises(
            PackValidationError, match=r"segments\[0\].duration: must be a positive"
        ):
            validate_pack(payload, source="x.json")

    def test_error_message_names_the_source(self):
        with pytest.raises(PackValidationError, match="myfile.json"):
            validate_pack({}, source="myfile.json")


class TestLoadPack:
    def test_round_trip(self, tmp_path):
        spec = _spec()
        path = _write_pack(tmp_path, spec)
        assert load_pack(path) == spec

    def test_missing_file(self, tmp_path):
        with pytest.raises(PackValidationError, match="unreadable"):
            load_pack(tmp_path / "nope.json")

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(PackValidationError, match="not valid JSON"):
            load_pack(path)

    def test_looks_like_pack_path(self):
        assert looks_like_pack_path("scenarios/flash_crowd.json")
        assert looks_like_pack_path("./smoke")
        assert looks_like_pack_path("pack.json")
        assert not looks_like_pack_path("fig9")
        assert not looks_like_pack_path("smoke_tv")


class TestShippedPacks:
    def test_scenarios_directory_is_populated(self):
        assert SHIPPED_PACKS, "scenarios/ must ship at least one pack"

    @pytest.mark.parametrize(
        "path", SHIPPED_PACKS, ids=[p.stem for p in SHIPPED_PACKS]
    )
    def test_shipped_pack_is_valid(self, path):
        spec = load_pack(path)
        assert spec.name == path.stem
        assert spec.cells()


class TestCli:
    def test_validate_ok(self, tmp_path, capsys):
        path = _write_pack(tmp_path, _spec())
        assert main(["validate", str(path)]) == 0
        out = capsys.readouterr().out
        assert "ok" in out and "pack_test" in out

    def test_validate_reports_failures(self, tmp_path, capsys):
        good = _write_pack(tmp_path, _spec(), filename="good.json")
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"format": "wrong/0"}), encoding="utf-8")
        assert main(["validate", str(good), str(bad)]) == 1
        captured = capsys.readouterr()
        assert "FAIL" in captured.err
        assert "good.json" in captured.out

    def test_run_pack_then_cached_rerun(self, tmp_path, capsys):
        # Tiny pack: analytic solver only, so the round-trip is fast.
        spec = _spec(
            solvers=(SolverSpec(kind="piecewise_ctmc"),),
            replication=ReplicationPolicy(replications=1, base_seed=1, policy="per_cell"),
        )
        path = _write_pack(tmp_path, spec)
        cache = tmp_path / "cache"
        args = ["run", str(path), "--cache-dir", str(cache), "--jobs", "1"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert "1 computed" in first
        assert main(args) == 0
        second = capsys.readouterr().out
        assert "0 computed" in second

    def test_run_missing_pack_fails_cleanly(self, capsys):
        assert main(["run", "no/such/pack.json"]) == 2
        assert "unreadable" in capsys.readouterr().err

    def test_show_accepts_pack_path(self, tmp_path, capsys):
        path = _write_pack(tmp_path, _spec())
        assert main(["show", str(path)]) == 0
        assert "pack_test" in capsys.readouterr().out


class TestOutageValidation:
    """Validator hardening for outage windows and per-segment ``down`` lists."""

    def _payload(self, outages=None, solvers=None, mutate_segment=None):
        spec = _spec(solvers=solvers or (SolverSpec(kind="transient_ctmc"),))
        payload = _pack_payload(spec)
        if outages is not None:
            payload["workload"]["outages"] = outages
        if mutate_segment is not None:
            mutate_segment(payload["workload"]["segments"])
        return payload

    def test_valid_outage_pack_passes(self):
        payload = self._payload(
            outages=[{"station": "db", "start": 10.0, "duration": 5.0}]
        )
        validate_pack(payload, source="x.json")
        spec = ScenarioSpec.from_dict(
            {key: value for key, value in payload.items() if key != "format"}
        )
        assert spec.workload.outages[0].station == "db"

    def test_rejects_unknown_station(self):
        payload = self._payload(
            outages=[{"station": "cache", "start": 0.0, "duration": 5.0}]
        )
        with pytest.raises(
            PackValidationError, match=r"outages\[0\].station: unknown station"
        ):
            validate_pack(payload, source="x.json")

    def test_rejects_negative_start(self):
        payload = self._payload(
            outages=[{"station": "db", "start": -1.0, "duration": 5.0}]
        )
        with pytest.raises(
            PackValidationError, match=r"outages\[0\].start: must be non-negative"
        ):
            validate_pack(payload, source="x.json")

    def test_rejects_nonpositive_duration(self):
        payload = self._payload(
            outages=[{"station": "db", "start": 1.0, "duration": 0.0}]
        )
        with pytest.raises(
            PackValidationError, match=r"outages\[0\].duration: must be positive"
        ):
            validate_pack(payload, source="x.json")

    def test_rejects_window_past_horizon(self):
        # Timeline horizon of the fixture is 60s (two 30s segments).
        payload = self._payload(
            outages=[{"station": "db", "start": 55.0, "duration": 20.0}]
        )
        with pytest.raises(PackValidationError, match="ends past the timeline horizon"):
            validate_pack(payload, source="x.json")

    def test_rejects_overlapping_windows_on_one_station(self):
        payload = self._payload(outages=[
            {"station": "db", "start": 5.0, "duration": 10.0},
            {"station": "db", "start": 12.0, "duration": 5.0},
        ])
        with pytest.raises(PackValidationError, match="overlaps workload.outages"):
            validate_pack(payload, source="x.json")

    def test_same_window_on_both_stations_is_fine(self):
        payload = self._payload(outages=[
            {"station": "db", "start": 5.0, "duration": 10.0},
            {"station": "front", "start": 5.0, "duration": 10.0},
        ])
        validate_pack(payload, source="x.json")

    def test_rejects_missing_keys(self):
        payload = self._payload(outages=[{"station": "db", "start": 5.0}])
        with pytest.raises(
            PackValidationError, match=r"outages\[0\]: missing required key"
        ):
            validate_pack(payload, source="x.json")

    def test_rejects_piecewise_ctmc_with_outages(self):
        payload = self._payload(
            outages=[{"station": "db", "start": 10.0, "duration": 5.0}],
            solvers=(SolverSpec(kind="piecewise_ctmc"),),
        )
        with pytest.raises(
            PackValidationError, match="piecewise_ctmc cannot solve hard outages"
        ):
            validate_pack(payload, source="x.json")

    def test_rejects_piecewise_ctmc_with_segment_down(self):
        def mutate(segments):
            segments[0]["down"] = ["db"]

        payload = self._payload(
            solvers=(SolverSpec(kind="piecewise_ctmc"),), mutate_segment=mutate
        )
        with pytest.raises(
            PackValidationError, match="piecewise_ctmc cannot solve hard outages"
        ):
            validate_pack(payload, source="x.json")

    def test_rejects_unknown_station_in_segment_down(self):
        def mutate(segments):
            segments[1]["down"] = ["db", "gpu"]

        payload = self._payload(mutate_segment=mutate)
        with pytest.raises(
            PackValidationError, match=r"segments\[1\].down\[1\]: unknown station"
        ):
            validate_pack(payload, source="x.json")
