"""The self-healing daemon: degradation, breakers, checkpoints, CLI contract."""

import json
import shutil

import numpy as np
import pytest

from repro.core.dispersion import estimate_index_of_dispersion
from repro.core.percentiles import estimate_service_percentile
from repro.experiments import cli
from repro.service import (
    BoundedWindowQueue,
    CheckpointMismatchError,
    CircuitBreaker,
    LastKnownGood,
    ModelRegistry,
    ServiceConfig,
    WhatIfService,
    WindowedTraceAccumulator,
    read_trace_chunk,
    synthesize_service_trace,
    write_trace_records,
)


def _make_traces(directory, events=30000):
    for name, seed in (("front", 1), ("db", 2)):
        synthesize_service_trace(
            directory / f"{name}.trace",
            events=events,
            mean_service=0.02,
            scv=4.0,
            utilization=0.5,
            seed=seed,
        )


def _config_payload(directory, **overrides):
    payload = {
        "name": "test",
        "traces": {
            "front": str(directory / "front.trace"),
            "db": str(directory / "db.trace"),
        },
        "think_time": 1.0,
        "populations": [1, 2, 4],
        "chunk_events": 2000,
        "max_chunks_per_cycle": 2,
        "refit_windows": 80,
        "fit_horizon_windows": 400,
        "min_fit_windows": 120,
        "estimator": {"min_windows": 40},
        "stage_timeout_seconds": 60.0,
        "stage_retries": 1,
        "breaker_threshold": 2,
        "breaker_backoff_cycles": 2,
        "breaker_backoff_cap_cycles": 8,
        "queue_maxlen": 4,
        "stall_cycles": 5,
        "checkpoint_every": 1,
    }
    payload.update(overrides)
    return payload


@pytest.fixture(scope="module")
def trace_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("traces")
    _make_traces(directory)
    return directory


def _service(trace_dir, state_dir, **overrides):
    config = ServiceConfig.from_dict(_config_payload(trace_dir, **overrides))
    return WhatIfService.open(config, state_dir)


# ----------------------------------------------------------------------
# Config validation
# ----------------------------------------------------------------------
class TestServiceConfig:
    def test_requires_both_stations(self, tmp_path):
        payload = _config_payload(tmp_path)
        payload["traces"] = {"front": "f.trace"}
        with pytest.raises(ValueError, match="front"):
            ServiceConfig.from_dict(payload)

    def test_rejects_unknown_keys(self, tmp_path):
        with pytest.raises(ValueError, match="unknown service config keys"):
            ServiceConfig.from_dict(_config_payload(tmp_path, bogus=1))

    def test_rejects_fractional_window_ticks(self, tmp_path):
        with pytest.raises(ValueError, match="whole"):
            ServiceConfig.from_dict(
                _config_payload(tmp_path, ticks_per_second=3, window_seconds=0.1)
            )

    def test_relative_traces_resolve_next_to_config(self, tmp_path):
        payload = _config_payload(tmp_path)
        payload["traces"] = {"front": "front.trace", "db": "db.trace"}
        path = tmp_path / "sub" / "service.json"
        path.parent.mkdir()
        path.write_text(json.dumps(payload))
        config = ServiceConfig.from_json(path)
        assert config.traces["front"] == str(tmp_path / "sub" / "front.trace")

    def test_hash_changes_with_geometry(self, tmp_path):
        base = ServiceConfig.from_dict(_config_payload(tmp_path))
        other = ServiceConfig.from_dict(_config_payload(tmp_path, refit_windows=81))
        assert base.config_hash() != other.config_hash()


# ----------------------------------------------------------------------
# Breaker and queue mechanics (pure, no subprocesses)
# ----------------------------------------------------------------------
class TestCircuitBreaker:
    def test_opens_after_threshold_and_probes_after_backoff(self):
        breaker = CircuitBreaker(threshold=2, backoff_cycles=3, backoff_cap_cycles=12)
        assert breaker.allow(1)
        breaker.record_failure(1)
        assert breaker.state == "closed"
        breaker.record_failure(2)
        assert breaker.state == "open" and breaker.opens == 1
        assert not breaker.allow(3) and not breaker.allow(4)
        assert breaker.allow(5)  # 2 + 3 cycles -> half-open probe
        assert breaker.state == "half-open"

    def test_failed_probe_doubles_backoff_capped(self):
        breaker = CircuitBreaker(threshold=1, backoff_cycles=2, backoff_cap_cycles=4)
        breaker.record_failure(1)
        assert breaker.allow(3)
        breaker.record_failure(3)  # failed probe: backoff 2 -> 4
        assert breaker.current_backoff == 4
        assert not breaker.allow(6)
        assert breaker.allow(7)
        breaker.record_failure(7)  # capped at 4
        assert breaker.current_backoff == 4

    def test_successful_probe_closes_and_resets(self):
        breaker = CircuitBreaker(threshold=1, backoff_cycles=2, backoff_cap_cycles=8)
        breaker.record_failure(1)
        assert breaker.allow(3)
        breaker.record_success()
        assert breaker.state == "closed" and breaker.current_backoff == 2

    def test_state_round_trip(self):
        breaker = CircuitBreaker(threshold=1, backoff_cycles=2, backoff_cap_cycles=8)
        breaker.record_failure(4)
        clone = CircuitBreaker(threshold=1, backoff_cycles=2, backoff_cap_cycles=8)
        clone.load_state(breaker.state_dict())
        assert clone.state_dict() == breaker.state_dict()


class TestBoundedWindowQueue:
    def test_sheds_oldest_and_counts_drops(self):
        queue = BoundedWindowQueue(2)
        for item in (1, 2, 3, 4):
            queue.push(item)
        assert queue.items == [3, 4]
        assert queue.dropped == 2

    def test_state_round_trip(self):
        queue = BoundedWindowQueue(3)
        queue.push(7)
        queue.push(9)
        clone = BoundedWindowQueue(1)
        clone.load_state(queue.state_dict())
        assert clone.state_dict() == queue.state_dict()


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
class TestModelRegistry:
    def _good(self, cycle=3):
        return LastKnownGood(
            cycle=cycle,
            window_end=160,
            model={"stations": {}, "think_time": 1.0},
            forecast={"rows": [{"population": 1, "throughput": 0.5}]},
        )

    def test_promote_load_round_trip(self, tmp_path):
        registry = ModelRegistry(tmp_path)
        assert registry.load() is None  # cold start
        registry.promote(self._good())
        loaded = registry.load()
        assert loaded is not None
        assert loaded.cycle == 3 and loaded.window_end == 160
        assert loaded.forecast["rows"][0]["throughput"] == 0.5

    def test_promotion_prunes_older_artifacts(self, tmp_path):
        registry = ModelRegistry(tmp_path)
        registry.promote(self._good(cycle=1))
        registry.promote(self._good(cycle=2))
        assert sorted(p.name for p in tmp_path.glob("model-*.json")) == [
            "model-00000002.json"
        ]

    def test_corrupt_artifact_degrades_to_cold_start(self, tmp_path):
        registry = ModelRegistry(tmp_path)
        registry.promote(self._good())
        artifact = next(tmp_path.glob("forecast-*.json"))
        artifact.write_text("tampered")
        assert registry.load() is None

    def test_corrupt_registry_degrades_to_cold_start(self, tmp_path):
        registry = ModelRegistry(tmp_path)
        registry.promote(self._good())
        registry.registry_path.write_text("{not json")
        assert registry.load() is None


# ----------------------------------------------------------------------
# The daemon loop (forks stage workers; moderate runtime)
# ----------------------------------------------------------------------
class TestDaemonLoop:
    def test_healthy_run_promotes_and_serves_fresh(self, trace_dir, tmp_path):
        service = _service(trace_dir, tmp_path / "state")
        for _ in range(3):
            service.run_cycle()
        assert service.status == "healthy"
        assert service.serving == "fresh"
        assert service.last_good is not None
        rows = service.last_good.forecast["rows"]
        assert [row["population"] for row in rows] == [1, 2, 4]
        assert all(row["throughput"] > 0 for row in rows)
        health = json.loads(service.health_path.read_text())
        assert health["status"] == "healthy"
        assert health["stages"]["fit"]["ok"] >= 1

    def test_fit_divergence_degrades_to_last_known_good_then_recovers(
        self, trace_dir, tmp_path, monkeypatch
    ):
        state = tmp_path / "state"
        service = _service(trace_dir, state, stall_cycles=50)
        service.run_cycle()  # promote once, cleanly
        assert service.serving == "fresh"
        good = service.last_good

        # Fit invocations 2-4 diverge (the lifetime counter drives the
        # injection); the service keeps serving the promoted forecast.
        monkeypatch.setenv("REPRO_FAULT_INJECT", "fit-diverge:service/fit:4")
        statuses = []
        for _ in range(6):
            statuses.append(service.run_cycle())
        assert "degraded" in statuses
        assert service.breakers["fit"].opens >= 1
        assert service.last_good is good  # old forecast still served
        assert service.serving == "last-known-good"
        assert service.staleness_windows > 0

        # Injection budget exhausts -> breaker half-open probe succeeds ->
        # a fresh model is promoted and health recovers.
        recovered = []
        for _ in range(8):
            recovered.append(service.run_cycle())
        assert recovered[-1] == "healthy"
        assert service.serving == "fresh"
        assert service.last_good is not good
        assert service.refits_failed_since_good == 0

    def test_solve_crash_counts_as_degradation(self, trace_dir, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_INJECT", "solve-crash:service/solve:1")
        service = _service(trace_dir, tmp_path / "state", stage_retries=0)
        status = service.run_cycle()
        assert status == "degraded"
        assert service.stats["solve"].failed == 1
        assert service.last_errors["solve"].startswith("[crash]")

    def test_checkpoint_resume_is_bit_identical(self, trace_dir, tmp_path):
        straight_dir = tmp_path / "straight"
        resumed_dir = tmp_path / "resumed"
        straight = _service(trace_dir, straight_dir)
        for _ in range(4):
            straight.run_cycle()
        straight.write_checkpoint()

        first = _service(trace_dir, resumed_dir)
        for _ in range(2):
            first.run_cycle()
        first.write_checkpoint()
        second = _service(trace_dir, resumed_dir)  # warm restart
        assert second.cycle == 2
        for _ in range(2):
            second.run_cycle()
        second.write_checkpoint()

        assert (straight_dir / "checkpoint.json").read_bytes() == (
            resumed_dir / "checkpoint.json"
        ).read_bytes()
        straight_forecast = max(straight_dir.glob("forecast-*.json"))
        resumed_forecast = max(resumed_dir.glob("forecast-*.json"))
        assert straight_forecast.read_bytes() == resumed_forecast.read_bytes()

    def test_no_fit_loses_a_window(self, trace_dir, tmp_path):
        """Discarding old windows never changes what a fit reads."""
        service = _service(trace_dir, tmp_path / "state")
        models = []
        while True:
            before = service.events_total
            service.run_cycle()
            if service.last_good is not None and service.last_good.cycle == service.cycle:
                models.append(service.last_good.model)
            if service.events_total == before:
                break
        assert all(acc.base > 0 for acc in service.accumulators.values())
        assert len(models) >= 5
        config = service.config
        for name in ("front", "db"):
            records, _ = read_trace_chunk(config.traces[name], 0, 10**9)
            whole = WindowedTraceAccumulator(config.window_ticks, config.ticks_per_second)
            whole.ingest(records)
            assert whole.base == 0
            for model in models:
                snap = whole.snapshot(model["window_start"], model["window_end"])
                dispersion = estimate_index_of_dispersion(
                    snap.utilizations, snap.completions, snap.period, **config.estimator
                )
                p95 = estimate_service_percentile(
                    snap.utilizations, snap.completions, snap.period
                )
                station = model["stations"][name]
                assert (station["mean_service"], station["dispersion"], station["p95"]) == (
                    snap.mean_service_time(),
                    float(dispersion.index_of_dispersion),
                    float(p95),
                )

    def test_drain_after_discard_resumes_bit_identically(self, trace_dir, tmp_path):
        straight_dir = tmp_path / "straight"
        resumed_dir = tmp_path / "resumed"
        straight = _service(trace_dir, straight_dir)
        straight.run(cycles=5)

        first = _service(trace_dir, resumed_dir)
        first.run(cycles=3)  # a drain: finish the cycle, checkpoint, stop
        drained = json.loads((resumed_dir / "checkpoint.json").read_text())
        assert all(acc["base"] > 0 for acc in drained["accumulators"].values())
        second = _service(trace_dir, resumed_dir)
        assert second.cycle == 3
        second.run(cycles=2)

        assert (straight_dir / "checkpoint.json").read_bytes() == (
            resumed_dir / "checkpoint.json"
        ).read_bytes()
        straight_forecast = max(straight_dir.glob("forecast-*.json"))
        resumed_forecast = max(resumed_dir.glob("forecast-*.json"))
        assert straight_forecast.read_bytes() == resumed_forecast.read_bytes()

    def test_resumes_checkpoint_without_base(self, trace_dir, tmp_path):
        """A checkpoint holding every window from 0 and no ``base`` resumes."""
        straight_dir = tmp_path / "straight"
        straight = _service(trace_dir, straight_dir)
        straight.run(cycles=3)
        legacy_dir = tmp_path / "legacy"
        shutil.copytree(straight_dir, legacy_dir)
        payload = json.loads((legacy_dir / "checkpoint.json").read_text())
        config = straight.config
        for name, state in payload["accumulators"].items():
            assert state["base"] > 0
            records, _ = read_trace_chunk(config.traces[name], 0, payload["offsets"][name])
            whole = WindowedTraceAccumulator(config.window_ticks, config.ticks_per_second)
            whole.ingest(records)
            legacy = whole.state_dict()
            assert legacy.pop("base") == 0
            assert (legacy["events"], legacy["max_end_ticks"]) == (
                state["events"],
                state["max_end_ticks"],
            )
            payload["accumulators"][name] = legacy
        (legacy_dir / "checkpoint.json").write_text(json.dumps(payload, indent=2))

        straight = _service(trace_dir, straight_dir)
        straight.run(cycles=1)
        resumed = _service(trace_dir, legacy_dir)
        assert resumed.accumulators["front"].base == 0
        resumed.run(cycles=1)
        assert (straight_dir / "checkpoint.json").read_bytes() == (
            legacy_dir / "checkpoint.json"
        ).read_bytes()
        assert max(straight_dir.glob("forecast-*.json")).read_bytes() == max(
            legacy_dir.glob("forecast-*.json")
        ).read_bytes()

    def test_trace_starting_late_is_fitted_from_its_first_window(self, tmp_path):
        directory = tmp_path / "late"
        directory.mkdir()
        _make_traces(directory, events=8000)
        db = directory / "db.trace"
        records, _ = read_trace_chunk(db, 0, 10**9)
        write_trace_records(db, records[:, 0] + 5_000_000, records[:, 1])  # 5 windows late
        service = _service(directory, tmp_path / "state")
        service.run_cycle()
        assert (service.accumulators["front"].base, service.accumulators["db"].base) == (0, 5)
        assert service.status == "healthy"
        assert service.last_good.model["window_start"] == 5

    def test_checkpoint_refuses_mismatched_config(self, trace_dir, tmp_path):
        state = tmp_path / "state"
        service = _service(trace_dir, state)
        service.run_cycle()
        with pytest.raises(CheckpointMismatchError, match="--reset"):
            _service(trace_dir, state, refit_windows=90)
        # --reset wipes the old state instead.
        config = ServiceConfig.from_dict(_config_payload(trace_dir, refit_windows=90))
        fresh = WhatIfService.open(config, state, reset=True)
        assert fresh.cycle == 0 and fresh.last_good is None

    def test_queue_sheds_refit_targets_while_breaker_open(
        self, trace_dir, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_FAULT_INJECT", "fit-diverge:service/fit")
        service = _service(trace_dir, tmp_path / "state", queue_maxlen=2)
        for _ in range(10):
            service.run_cycle()
        assert service.fit_queue.dropped > 0
        health = service.health_payload(heartbeat_unix=0.0)
        assert health["dropped_windows"] == service.fit_queue.dropped

    def test_exhausted_trace_stalls(self, tmp_path):
        directory = tmp_path / "tiny"
        directory.mkdir()
        _make_traces(directory, events=500)
        service = _service(directory, tmp_path / "state", stall_cycles=3)
        statuses = [service.run_cycle() for _ in range(5)]
        assert statuses[-1] == "stalled"
        assert service.no_new_cycles >= 3


# ----------------------------------------------------------------------
# CLI contract
# ----------------------------------------------------------------------
class TestServiceCli:
    @pytest.fixture()
    def config_path(self, trace_dir, tmp_path):
        payload = _config_payload(trace_dir)
        path = tmp_path / "service.json"
        path.write_text(json.dumps(payload))
        return path

    def test_status_and_forecast_exit_1_before_first_run(
        self, config_path, tmp_path, capsys
    ):
        state = str(tmp_path / "state")
        assert cli.main(["service", "status", str(config_path), "--state-dir", state]) == 1
        assert cli.main(["service", "forecast", str(config_path), "--state-dir", state]) == 1
        assert "no health snapshot" in capsys.readouterr().err

    def test_run_status_forecast_healthy(self, config_path, tmp_path, capsys):
        state = str(tmp_path / "state")
        code = cli.main(
            ["service", "run", str(config_path), "--cycles", "2", "--state-dir", state]
        )
        assert code == 0
        assert cli.main(["service", "status", str(config_path), "--state-dir", state]) == 0
        out = capsys.readouterr().out
        assert "healthy" in out and "fresh" in out
        assert (
            cli.main(
                ["service", "forecast", str(config_path), "--state-dir", state, "--json"]
            )
            == 0
        )
        forecast = json.loads(capsys.readouterr().out)
        assert forecast["stale"] is False
        assert [row["population"] for row in forecast["rows"]] == [1, 2, 4]

    def test_run_exits_3_when_degraded(self, config_path, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_FAULT_INJECT", "fit-diverge:service/fit")
        state = str(tmp_path / "state")
        code = cli.main(
            ["service", "run", str(config_path), "--cycles", "2", "--state-dir", state]
        )
        assert code == 3
        assert cli.main(["service", "status", str(config_path), "--state-dir", state]) == 3
        capsys.readouterr()

    def test_invalid_config_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"name": "x"}))
        assert cli.main(["service", "run", str(bad), "--cycles", "1"]) == 2
        assert "missing required key" in capsys.readouterr().err
