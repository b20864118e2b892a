"""Fault-tolerant execution: fault grammar, retries, budget, resume, quarantine.

Everything here drives *real* worker processes through the supervised runner
with deterministic fault injection (``REPRO_FAULT_INJECT``): crashes are real
``os._exit`` deaths, hangs are real sleeps reaped by the timeout, and the
assertions pin the recovery contract — retried cells are bit-identical to a
clean run, partial results degrade gracefully, recorded failures replay on
resume without recompute, and the failure budget aborts with the manifest
left in a resumable ``partial`` state.
"""

from __future__ import annotations

import json
import multiprocessing
import os

import pytest
from conftest import HANG_DEADLINE_SECONDS, deadline

from repro.experiments import (
    FAULT_ENV,
    ExperimentRunner,
    ExperimentResult,
    FailureBudgetExceeded,
    MapSpec,
    ReplicationPolicy,
    ScenarioSpec,
    SolverSpec,
    SupervisionPolicy,
    SyntheticWorkload,
    parse_fault_spec,
    run_scenario,
)
from repro.experiments.cli import main
from repro.experiments.faults import (
    FAULT_KINDS,
    POOL_FAULT_KINDS,
    SERVICE_FAULT_KINDS,
    FaultDirective,
    active_directives,
    matching_directive,
)
from repro.experiments.supervision import SupervisedTask, WorkerPool, run_supervised
from repro.service import ServiceConfig, WhatIfService, synthesize_service_trace


def small_spec(name="supervised_unit") -> ScenarioSpec:
    return ScenarioSpec(
        name=name,
        description="small analytic scenario for supervision tests",
        workload=SyntheticWorkload(
            front=MapSpec(family="exponential", mean=0.05),
            db_mean=0.04,
            db_scv=(4.0,),
            db_decay=(0.5,),
            think_time=0.5,
            populations=(1, 3),
        ),
        solvers=(SolverSpec(kind="ctmc"), SolverSpec(kind="mva"), SolverSpec(kind="bounds")),
        replication=ReplicationPolicy(base_seed=3),
    )


def fast_policy(**overrides) -> SupervisionPolicy:
    fields = dict(retries=2, max_failures=0, backoff_base=0.001, backoff_cap=0.01)
    fields.update(overrides)
    return SupervisionPolicy(**fields)


def rows_signature(result: ExperimentResult):
    return [
        (row.solver, tuple(sorted(row.params.items())), row.seed, row.metrics)
        for row in result.rows
    ]


class TestFaultGrammar:
    def test_parses_full_spec(self):
        directives = parse_fault_spec("crash:ctmc/*;hang:population=3;corrupt:mva:1")
        assert directives == (
            FaultDirective(kind="crash", pattern="ctmc/*"),
            FaultDirective(kind="hang", pattern="population=3"),
            FaultDirective(kind="corrupt", pattern="mva", max_attempts=1),
        )

    def test_blank_segments_are_skipped(self):
        assert len(parse_fault_spec("crash:x;;  ;error:y")) == 2

    @pytest.mark.parametrize(
        "spec",
        ["crash", "boom:*", "crash::", "crash:x:0", "crash:x:first", "crash:x:1:2"],
    )
    def test_rejects_malformed_directives(self, spec):
        with pytest.raises(ValueError):
            parse_fault_spec(spec)

    def test_matching_semantics(self):
        first_only = FaultDirective(kind="crash", pattern="mva", max_attempts=1)
        assert first_only.matches("smoke/mva/population=1/rep0", attempt=1)
        assert not first_only.matches("smoke/mva/population=1/rep0", attempt=2)
        assert not first_only.matches("smoke/ctmc/population=1/rep0", attempt=1)
        always = FaultDirective(kind="error", pattern="*")
        assert always.matches("anything", attempt=99)
        assert matching_directive((first_only, always), "smoke/ctmc/x/rep0", 1) is always

    def test_active_directives_read_from_environment(self, monkeypatch):
        monkeypatch.delenv(FAULT_ENV, raising=False)
        assert active_directives() == ()
        monkeypatch.setenv(FAULT_ENV, "error:mva")
        assert active_directives() == (FaultDirective(kind="error", pattern="mva"),)


class TestRetryRecovery:
    def test_error_on_first_attempt_retries_to_identical_result(
        self, tmp_path, monkeypatch
    ):
        spec = small_spec()
        monkeypatch.delenv(FAULT_ENV, raising=False)
        clean = run_scenario(spec, cache_dir=tmp_path / "clean", jobs=1)
        monkeypatch.setenv(FAULT_ENV, "error:mva:1")
        chaos = run_scenario(
            spec,
            cache_dir=tmp_path / "chaos",
            jobs=1,
            supervision=fast_policy(retries=2),
        )
        assert chaos.failures == ()
        assert chaos.meta["cells_retried"] >= 2  # both mva cells failed once
        assert rows_signature(chaos) == rows_signature(clean)

    def test_crash_on_first_attempt_is_survived(self, tmp_path, monkeypatch):
        spec = small_spec()
        monkeypatch.setenv(FAULT_ENV, "crash:ctmc:1")
        result = run_scenario(
            spec, cache_dir=tmp_path, jobs=2, supervision=fast_policy(retries=1)
        )
        assert result.failures == ()
        assert result.meta["cells_retried"] >= 2
        assert len(result.rows) == 6

    def test_timeout_reaps_hung_worker_then_retry_succeeds(
        self, tmp_path, monkeypatch
    ):
        spec = small_spec()
        monkeypatch.setenv(FAULT_ENV, "hang:bounds:1")
        with deadline(HANG_DEADLINE_SECONDS):
            result = run_scenario(
                spec,
                cache_dir=tmp_path,
                jobs=2,
                supervision=fast_policy(cell_timeout=0.75, retries=1),
            )
        assert result.failures == ()
        assert result.meta["cells_retried"] >= 2
        assert len(result.rows) == 6


class TestPartialResults:
    def test_persistent_error_degrades_to_partial_result(self, tmp_path, monkeypatch):
        spec = small_spec()
        monkeypatch.setenv(FAULT_ENV, "error:mva")
        result = run_scenario(
            spec,
            cache_dir=tmp_path,
            jobs=1,
            supervision=fast_policy(retries=1, max_failures=10),
        )
        assert len(result.rows) == 4  # everything except the two mva cells
        assert len(result.failures) == 2
        assert all(f.kind == "error" for f in result.failures)
        assert all(f.attempts == 2 for f in result.failures)
        assert all("mva" in f.key for f in result.failures)
        assert result.meta["cells_failed"] == 2

    def test_corrupt_payload_is_rejected_as_typed_failure(self, tmp_path, monkeypatch):
        spec = small_spec()
        monkeypatch.setenv(FAULT_ENV, "corrupt:bounds")
        result = run_scenario(
            spec,
            cache_dir=tmp_path,
            jobs=1,
            supervision=fast_policy(retries=0, max_failures=10),
        )
        assert len(result.failures) == 2
        assert all(f.kind == "corrupt" for f in result.failures)

    def test_complete_with_failures_retries_failed_cells_on_rerun(
        self, tmp_path, monkeypatch
    ):
        spec = small_spec()
        monkeypatch.setenv(FAULT_ENV, "error:mva")
        partial = run_scenario(
            spec,
            cache_dir=tmp_path,
            jobs=1,
            supervision=fast_policy(retries=0, max_failures=10),
        )
        assert partial.failures
        monkeypatch.delenv(FAULT_ENV, raising=False)
        recovered = run_scenario(spec, cache_dir=tmp_path, jobs=1)
        assert recovered.failures == ()
        assert len(recovered.rows) == 6
        # Only the previously-failed cells were recomputed.
        assert recovered.meta["cells_computed"] == 2
        assert recovered.meta["cells_from_cache"] == 4
        clean = run_scenario(spec, cache_dir=tmp_path / "fresh", jobs=1)
        assert rows_signature(recovered) == rows_signature(clean)


class TestFailureBudget:
    def test_exhausted_budget_aborts_with_resumable_manifest(
        self, tmp_path, monkeypatch
    ):
        spec = small_spec()
        monkeypatch.setenv(FAULT_ENV, "error:mva")
        runner = ExperimentRunner(
            cache_dir=tmp_path, jobs=1, supervision=fast_policy(retries=0, max_failures=0)
        )
        with pytest.raises(FailureBudgetExceeded) as excinfo:
            runner.run(spec)
        assert excinfo.value.failures
        manifest = json.loads(runner.cache.manifest_path(spec).read_text())
        assert manifest["status"] == "partial"
        assert manifest["failures"]
        assert manifest["failures"][0]["kind"] == "error"

    def test_partial_manifest_replays_failures_without_recompute(
        self, tmp_path, monkeypatch
    ):
        spec = small_spec()
        monkeypatch.setenv(FAULT_ENV, "error:mva")
        runner = ExperimentRunner(
            cache_dir=tmp_path, jobs=1, supervision=fast_policy(retries=0, max_failures=0)
        )
        with pytest.raises(FailureBudgetExceeded):
            runner.run(spec)
        monkeypatch.delenv(FAULT_ENV, raising=False)
        # Second run: the recorded failure replays from the manifest (the
        # partial run cannot vouch the cell would now succeed), the rest of
        # the grid completes.
        replay = run_scenario(spec, cache_dir=tmp_path, jobs=1)
        assert len(replay.failures) == 1
        assert replay.meta["cells_retried"] == 0
        # Third run: the entry is complete-with-failures, so the failed cell
        # is finally retried — and now converges.
        final = run_scenario(spec, cache_dir=tmp_path, jobs=1)
        assert final.failures == ()
        assert len(final.rows) == 6
        cached = run_scenario(spec, cache_dir=tmp_path, jobs=1)
        assert cached.from_cache


class TestQuarantine:
    def test_stale_manifest_is_quarantined_then_gc_pruned(self, tmp_path):
        spec = small_spec()
        runner = ExperimentRunner(cache_dir=tmp_path, jobs=1)
        runner.run(spec)
        manifest_path = runner.cache.manifest_path(spec)
        manifest = json.loads(manifest_path.read_text())
        manifest["code_fingerprint"] = "0" * 16  # simulate a stale entry
        manifest_path.write_text(json.dumps(manifest))

        fresh = runner.run(spec)
        assert not fresh.from_cache
        quarantine = runner.cache.path(spec) / ".quarantine"
        assert quarantine.is_dir()
        assert (quarantine / "manifest.json").exists()

        report = runner.cache.gc()
        assert report.removed_orphans >= 1
        assert not quarantine.exists()
        # The rebuilt entry itself survives gc and still serves.
        assert runner.run(spec).from_cache


class TestCliContract:
    def test_exit_codes_partial_then_recovered(self, tmp_path, monkeypatch, capsys):
        cache = str(tmp_path)
        monkeypatch.setenv(FAULT_ENV, "error:mva")
        code = main(
            ["run", "smoke", "--cache-dir", cache, "--jobs", "1",
             "--retries", "0", "--max-failures", "10"]
        )
        assert code == 3
        out = capsys.readouterr().out
        assert "failed" in out
        assert "error" in out  # failure table names the fault kind
        monkeypatch.delenv(FAULT_ENV, raising=False)
        assert main(["run", "smoke", "--cache-dir", cache, "--jobs", "1"]) == 0
        out = capsys.readouterr().out
        assert "failed" not in out

    def test_exit_code_abort_on_budget(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv(FAULT_ENV, "error:mva")
        code = main(
            ["run", "smoke", "--cache-dir", str(tmp_path), "--jobs", "1",
             "--retries", "0", "--max-failures", "0"]
        )
        assert code == 1
        assert "failure budget" in capsys.readouterr().err.lower()


class TestUnknownFaultKinds:
    def test_unknown_kind_rejected_with_valid_kinds_listed(self):
        # A typo like `worker-kil` must fail loudly, naming every valid
        # kind, instead of producing a directive that silently never fires.
        with pytest.raises(ValueError) as excinfo:
            parse_fault_spec("worker-kil:*:1")
        message = str(excinfo.value)
        assert "unknown fault kind 'worker-kil'" in message
        for kind in FAULT_KINDS:
            assert kind in message

    def test_service_kinds_are_valid(self):
        directives = parse_fault_spec(
            "fit-diverge:service/fit:2;solve-crash:*;ingest-stall:service/ingest"
        )
        assert [d.kind for d in directives] == [
            "fit-diverge",
            "solve-crash",
            "ingest-stall",
        ]
        assert directives[0].max_attempts == 2

    def test_kind_narrowing_keeps_foreign_directives_inert(self):
        # A service-only spec must never fire inside a pool worker, and
        # vice versa: each context filters to the kinds it understands.
        directives = parse_fault_spec("fit-diverge:*;crash:*")
        assert (
            matching_directive(directives, "any/cell", 1, kinds=POOL_FAULT_KINDS).kind
            == "crash"
        )
        assert (
            matching_directive(
                directives, "service/fit", 1, kinds=SERVICE_FAULT_KINDS
            ).kind
            == "fit-diverge"
        )


def _worker_pid(payload):
    """Module-level (so it pickles by reference): report the serving pid."""
    return [(payload, os.getpid())]


def _pid_tasks(*keys):
    return [SupervisedTask(payload=key, keys=(key,), cells=((key, "pid", 0, 0),)) for key in keys]


def _run_pids(tasks, jobs=1, pool=None, **policy):
    """``{key: pid}`` of the worker that returned each unit's rows, and the
    number of retries."""
    pids, retries = {}, 0
    for event, data in run_supervised(
        tasks, _worker_pid, fast_policy(**policy), jobs,
        validate_rows=lambda rows, task: True, pool=pool,
    ):
        if event == "rows":
            pids.update(data)
        elif event == "retry":
            retries += 1
        else:
            raise AssertionError(f"unexpected event {event}: {data}")
    return pids, retries


class TestWorkerLifecycle:
    def test_workers_serve_many_units(self):
        pids, retries = _run_pids(_pid_tasks(*(f"unit-{i}" for i in range(8))), jobs=2)
        assert retries == 0
        assert len(pids) == 8
        assert 1 <= len(set(pids.values())) <= 2
        assert os.getpid() not in pids.values()
        assert multiprocessing.active_children() == []  # the run joined them

    @pytest.mark.parametrize("kind", ["crash", "hang", "error"])
    def test_failed_attempt_retires_its_worker(self, kind, monkeypatch):
        # One worker: "first" leaves it idle, the failing first attempt of
        # "second" runs on it, and the retry must come from a fresh fork.
        monkeypatch.setenv(FAULT_ENV, f"{kind}:second:1")
        with deadline(HANG_DEADLINE_SECONDS):
            pids, retries = _run_pids(_pid_tasks("first", "second"), cell_timeout=1.0)
        assert retries == 1
        assert pids["first"] != pids["second"]

    def test_fault_spec_follows_the_dispatcher(self, monkeypatch):
        monkeypatch.delenv(FAULT_ENV, raising=False)
        pool = WorkerPool(1)
        try:
            first, retries = _run_pids(_pid_tasks("before"), pool=pool)
            assert retries == 0
            # Set after the worker was forked: the next task carries it.
            monkeypatch.setenv(FAULT_ENV, "error:after:1")
            second, retries = _run_pids(_pid_tasks("after"), pool=pool)
            assert retries == 1
            assert second["after"] != first["before"]
        finally:
            pool.close()
        assert multiprocessing.active_children() == []

    def test_service_cycles_share_one_worker(self, tmp_path, monkeypatch):
        monkeypatch.delenv(FAULT_ENV, raising=False)
        traces = {}
        for name, seed in (("front", 1), ("db", 2)):
            traces[name] = str(tmp_path / f"{name}.trace")
            synthesize_service_trace(
                traces[name], events=12000, mean_service=0.02, scv=4.0,
                utilization=0.5, seed=seed,
            )
        config = ServiceConfig(
            name="lifecycle", traces=traces, think_time=1.0, populations=(1, 2),
            chunk_events=2000, max_chunks_per_cycle=1, refit_windows=20,
            fit_horizon_windows=200, min_fit_windows=60, estimator={"min_windows": 40},
        )
        service = WhatIfService.open(config, tmp_path / "state")
        pids = set()
        for _ in range(5):
            service.run_cycle()
            pids.update(child.pid for child in multiprocessing.active_children())
        assert service.stats["fit"].ok >= 1  # fit and solve ran, not only ingest
        assert len(pids) == 1
        service.close()
        assert multiprocessing.active_children() == []
