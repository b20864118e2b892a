"""Artifact store behaviour: codec round-trips, integrity, resume, compat.

Covers the guarantees the run-directory cache makes:

* npz / JSON / testbed codecs are bit-exact through ``save -> load``,
* manifest hash verification rejects tampered side-files,
* a killed run resumes from its partial entry and produces results
  bit-identical to an uninterrupted cold run,
* the journal of settled cells survives SIGKILL, torn lines and ``cache
  gc``, is counted by ``cache ls`` and is gone once the run finalizes,
* unreadable cache entries are logged misses, never exceptions,
* entries written by the pre-artifact single-file format are still read,
* ``ExperimentResult.meta`` accounts for cache hits and artifact bytes.
"""

from __future__ import annotations

import json
import logging
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.experiments import (
    FAULT_ENV,
    ArtifactIntegrityError,
    ExperimentRunner,
    FailureBudgetExceeded,
    ReplicationPolicy,
    ScenarioSpec,
    SolverSpec,
    SupervisionPolicy,
    TraceWorkload,
    get_scenario,
    tpcw_sweep_scenario,
)
from repro.experiments.cache import ResultCache, manifest_fingerprint
from repro.experiments.results import (
    ArtifactCodecError,
    JsonArtifactCodec,
    NpzArtifactCodec,
    TestbedResultCodec,
    codec_for,
    write_artifact,
)


def make_testbed_spec(name="artifact_roundtrip", populations=(5, 8)) -> ScenarioSpec:
    return tpcw_sweep_scenario(
        name, mixes=("browsing",), populations=populations,
        duration=30.0, warmup=5.0, seed=7,
    )


def trace_spec(name="trace_artifacts") -> ScenarioSpec:
    return ScenarioSpec(
        name=name,
        description="small trace scenario with array artifacts",
        workload=TraceWorkload(traces=("a", "c"), utilizations=(0.5,), trace_size=2000),
        solvers=(SolverSpec(kind="mtrace1"),),
        replication=ReplicationPolicy(base_seed=1),
    )


def analytic_spec(name="analytic") -> ScenarioSpec:
    from repro.experiments import MapSpec, SyntheticWorkload

    return ScenarioSpec(
        name=name,
        description="artifact-free scenario for code-fingerprint tests",
        workload=SyntheticWorkload(
            front=MapSpec(family="exponential", mean=0.05),
            db_mean=0.04,
            db_scv=(4.0,),
            db_decay=(0.5,),
            think_time=0.5,
            populations=(1, 3),
        ),
        solvers=(SolverSpec(kind="ctmc"), SolverSpec(kind="mva")),
        replication=ReplicationPolicy(base_seed=3),
    )


def rows_signature(result):
    return [(row.solver, tuple(sorted(row.params.items())), row.seed, row.metrics)
            for row in result.rows]


# ----------------------------------------------------------------------
# Codecs
# ----------------------------------------------------------------------
class TestCodecs:
    def test_npz_single_array_round_trip_is_bit_exact(self):
        codec = NpzArtifactCodec()
        array = np.random.default_rng(0).normal(size=257)
        restored = codec.decode(codec.encode(array))
        assert restored.dtype == array.dtype
        assert np.array_equal(restored, array)

    def test_npz_mapping_round_trip_is_bit_exact(self):
        codec = NpzArtifactCodec()
        rng = np.random.default_rng(1)
        payload = {
            "floats": rng.normal(size=100),
            "ints": rng.integers(0, 1000, size=50),
            "empty": np.empty(0),
        }
        restored = codec.decode(codec.encode(payload))
        assert set(restored) == set(payload)
        for key, array in payload.items():
            assert restored[key].dtype == array.dtype
            assert np.array_equal(restored[key], array)

    def test_json_round_trip(self):
        codec = JsonArtifactCodec()
        payload = {"a": [1, 2.5, "x"], "b": {"nested": True, "none": None}}
        assert codec.decode(codec.encode(payload)) == payload

    def test_testbed_result_round_trip_is_bit_exact(self):
        from repro.tpcw import BROWSING_MIX
        from repro.tpcw.testbed import TestbedConfig, TPCWTestbed

        result = TPCWTestbed(
            TestbedConfig(mix=BROWSING_MIX, num_ebs=5, duration=25.0, warmup=5.0, seed=3)
        ).run()
        codec = TestbedResultCodec()
        restored = codec.decode(codec.encode(result))

        for attribute in ("utilization", "completions", "queue_length"):
            assert np.array_equal(
                getattr(restored.front, attribute), getattr(result.front, attribute)
            )
            assert np.array_equal(
                getattr(restored.database, attribute), getattr(result.database, attribute)
            )
        assert set(restored.tracked_in_system) == set(result.tracked_in_system)
        for name, series in result.tracked_in_system.items():
            assert np.array_equal(restored.tracked_in_system[name], series)
        assert restored.throughput == result.throughput
        assert restored.completed_transactions == result.completed_transactions
        assert restored.transaction_counts == result.transaction_counts
        assert restored.mean_response_time == result.mean_response_time
        assert restored.contention_episodes == result.contention_episodes
        assert restored.config.mix.name == result.config.mix.name
        assert restored.config.num_ebs == result.config.num_ebs
        assert restored.config.seed == result.config.seed
        assert restored.config.contention == result.config.contention

    def test_codec_dispatch(self):
        assert codec_for(np.zeros(3)).kind == "npz"
        assert codec_for({"x": np.zeros(3)}).kind == "npz"
        assert codec_for({"x": [1, 2]}).kind == "json"
        with pytest.raises(ArtifactCodecError):
            codec_for(object())


# ----------------------------------------------------------------------
# Integrity
# ----------------------------------------------------------------------
class TestIntegrity:
    def test_ref_verifies_hash(self, tmp_path):
        ref = write_artifact(np.arange(16.0), tmp_path, "cell")
        assert ref.path.exists()
        assert np.array_equal(ref.load(), np.arange(16.0))

    def test_tampered_side_file_is_rejected(self, tmp_path):
        ref = write_artifact(np.arange(16.0), tmp_path, "cell")
        ref.path.write_bytes(b"tampered bytes")
        with pytest.raises(ArtifactIntegrityError, match="fails verification"):
            ref.load()

    def test_tampered_cache_artifact_is_rejected_on_access(self, tmp_path):
        spec = trace_spec()
        runner = ExperimentRunner(cache_dir=tmp_path, jobs=1)
        runner.run(spec)
        entry = runner.cache.path(spec)
        side_file = next(p for p in sorted(entry.iterdir()) if p.suffix == ".npz")
        side_file.write_bytes(b"corrupted")
        warm = runner.run(spec)
        assert warm.from_cache
        with pytest.raises(ArtifactIntegrityError):
            for row in warm.rows:
                row.load_artifact()

    def test_tampered_artifact_is_recomputed_on_resume(self, tmp_path, caplog):
        spec = trace_spec()
        runner = ExperimentRunner(cache_dir=tmp_path, jobs=1)
        cold = runner.run(spec)
        entry = runner.cache.path(spec)
        # Demote the entry to partial and corrupt one side-file: the resume
        # path must drop the bad cell (with a warning) and recompute it.
        manifest_path = runner.cache.manifest_path(spec)
        manifest = json.loads(manifest_path.read_text())
        manifest["status"] = "partial"
        manifest_path.write_text(json.dumps(manifest))
        side_file = next(p for p in entry.iterdir() if p.suffix == ".npz")
        side_file.write_bytes(b"corrupted")
        with caplog.at_level(logging.WARNING, logger="repro.experiments.cache"):
            resumed = runner.run(spec)
        assert "dropping cached cell" in caplog.text
        assert resumed.meta["cells_computed"] == 1
        assert rows_signature(resumed) == rows_signature(cold)
        for row, cold_row in zip(resumed.rows, cold.rows):
            assert np.array_equal(
                row.load_artifact()["response_times"],
                cold_row.load_artifact()["response_times"],
            )


# ----------------------------------------------------------------------
# Streaming / resume
# ----------------------------------------------------------------------
class TestResume:
    def test_killed_run_resumes_bit_identically(self, tmp_path, monkeypatch):
        import repro.experiments.runner as runner_module
        from repro.experiments.solvers import execute_cell

        spec = make_testbed_spec()
        cold = ExperimentRunner(cache_dir=tmp_path / "cold", jobs=1, keep_artifacts=True).run(spec)

        executed = []

        def explode_after_one(spec_arg, cell):
            if executed:
                raise KeyboardInterrupt
            executed.append(cell.key)
            return execute_cell(spec_arg, cell)

        monkeypatch.setattr(runner_module, "execute_cell", explode_after_one)
        interrupted = ExperimentRunner(cache_dir=tmp_path / "resume", jobs=1)
        with pytest.raises(KeyboardInterrupt):
            interrupted.run(spec)
        manifest = json.loads(interrupted.cache.manifest_path(spec).read_text())
        assert manifest["status"] == "partial"
        assert len(manifest["rows"]) == 1

        monkeypatch.setattr(runner_module, "execute_cell", execute_cell)
        resumed = interrupted.run(spec)
        assert resumed.meta["cells_from_cache"] == 1
        assert resumed.meta["cells_computed"] == 1
        assert rows_signature(resumed) == rows_signature(cold)
        for row, cold_row in zip(resumed.rows, cold.rows):
            theirs, ours = cold_row.load_artifact(), row.load_artifact()
            assert np.array_equal(ours.front.utilization, theirs.front.utilization)
            assert np.array_equal(ours.database.queue_length, theirs.database.queue_length)

    def test_full_cache_hit_meta(self, tmp_path):
        spec = trace_spec()
        runner = ExperimentRunner(cache_dir=tmp_path, jobs=1)
        cold = runner.run(spec)
        assert cold.meta["cells_computed"] == len(cold.rows)
        assert cold.meta["artifacts_written"] == len(cold.rows)
        assert cold.meta["artifact_bytes_written"] > 0
        warm = runner.run(spec)
        assert warm.from_cache
        assert warm.meta["cells_computed"] == 0
        assert warm.meta["cells_from_cache"] == len(cold.rows)
        assert warm.meta["artifact_bytes_written"] == 0


# ----------------------------------------------------------------------
# Robustness / compatibility
# ----------------------------------------------------------------------
class TestCacheRobustness:
    def test_unreadable_manifest_is_logged_miss(self, tmp_path, caplog):
        spec = trace_spec()
        runner = ExperimentRunner(cache_dir=tmp_path, jobs=1)
        runner.run(spec)
        runner.cache.manifest_path(spec).write_text('{"spec_hash": "truncated...')
        with caplog.at_level(logging.WARNING, logger="repro.experiments.cache"):
            assert runner.cache.load(spec) is None
        assert "treating unreadable cache manifest" in caplog.text
        rerun = runner.run(spec)
        assert not rerun.from_cache

    def test_stale_code_fingerprint_is_a_logged_miss(self, tmp_path, caplog, monkeypatch):
        import repro.experiments.cache as cache_module

        spec = trace_spec()
        runner = ExperimentRunner(cache_dir=tmp_path, jobs=1)
        runner.run(spec)
        assert runner.cache.load(spec) is not None
        monkeypatch.setattr(cache_module, "source_fingerprint", lambda: "0ff0ba11dead")
        with caplog.at_level(logging.WARNING, logger="repro.experiments.cache"):
            assert runner.cache.load(spec) is None
            assert runner.cache.load_resume_state(spec) is None
        assert "different solver/simulator source state" in caplog.text

    def test_stale_code_fingerprint_forces_recompute(self, tmp_path, monkeypatch):
        """The runner recomputes — and rewrites — when kernel code changed."""
        import repro.experiments.cache as cache_module

        spec = analytic_spec()
        runner = ExperimentRunner(cache_dir=tmp_path, jobs=1)
        first = runner.run(spec)
        monkeypatch.setattr(cache_module, "source_fingerprint", lambda: "0ff0ba11dead")
        rerun = ExperimentRunner(cache_dir=tmp_path, jobs=1).run(spec)
        assert not rerun.from_cache
        assert rerun.meta["cells_computed"] == len(first.rows)
        # the rewritten entry carries the new fingerprint and serves again
        served = ExperimentRunner(cache_dir=tmp_path, jobs=1).run(spec)
        assert served.from_cache

    def test_manifest_records_the_current_fingerprint(self, tmp_path):
        from repro.experiments.cache import source_fingerprint

        spec = analytic_spec()
        runner = ExperimentRunner(cache_dir=tmp_path, jobs=1)
        runner.run(spec)
        manifest = json.loads(runner.cache.manifest_path(spec).read_text())
        assert manifest["code_fingerprint"] == source_fingerprint()

    def test_wrong_spec_hash_in_manifest_is_miss(self, tmp_path, caplog):
        spec = trace_spec()
        runner = ExperimentRunner(cache_dir=tmp_path, jobs=1)
        runner.run(spec)
        manifest_path = runner.cache.manifest_path(spec)
        manifest = json.loads(manifest_path.read_text())
        manifest["spec_hash"] = "0" * 16
        manifest_path.write_text(json.dumps(manifest))
        with caplog.at_level(logging.WARNING, logger="repro.experiments.cache"):
            assert runner.cache.load(spec) is None
        assert "does not match the requested spec hash" in caplog.text


# ----------------------------------------------------------------------
# Journal
# ----------------------------------------------------------------------
def journal_path(cache: ResultCache, spec: ScenarioSpec) -> Path:
    return cache.path(spec) / "journal.jsonl"


def partial_entry(tmp_path, spec: ScenarioSpec, count: int) -> ResultCache:
    """A killed run's entry: ``count`` cells journaled, no manifest rewrite."""
    rows = ExperimentRunner(jobs=1, keep_artifacts=True).run(spec).rows
    cache = ResultCache(tmp_path)
    writer = cache.writer(spec)
    for cell, row in list(zip(spec.cells(), rows))[:count]:
        writer.add(cell.key, row)
    return cache


class TestJournal:
    def test_sigkilled_pool_run_resumes_from_the_journal(self, tmp_path):
        import repro

        spec = get_scenario("smoke")
        env = dict(
            os.environ,
            PYTHONPATH=str(Path(repro.__file__).parents[1]),
            # One cell hangs forever, so the run is still going when killed.
            REPRO_FAULT_INJECT="hang:mva/db_decay=0.5,db_scv=4.0,population=3",
        )
        cache_dir = tmp_path / "killed"
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.experiments", "run", "smoke",
             "--jobs", "2", "--cache-dir", str(cache_dir)],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            start_new_session=True,
        )
        journal = journal_path(ResultCache(cache_dir), spec)
        try:
            deadline = time.monotonic() + 120.0
            while time.monotonic() < deadline and process.poll() is None:
                if journal.exists() and len(journal.read_text().splitlines()) >= 3:
                    break
                time.sleep(0.05)
            assert process.poll() is None, "the run ended before it could be killed"
            assert len(journal.read_text().splitlines()) >= 3
        finally:
            os.killpg(process.pid, signal.SIGKILL)  # the run and its workers
            process.wait()
        manifest = json.loads(ResultCache(cache_dir).manifest_path(spec).read_text())
        assert manifest["status"] == "partial"

        resumed = ExperimentRunner(cache_dir=cache_dir, jobs=1).run(spec)
        cached = resumed.meta["cells_from_cache"]
        assert cached >= 3
        assert resumed.meta["cells_computed"] == len(spec.cells()) - cached
        ExperimentRunner(cache_dir=tmp_path / "clean", jobs=1).run(spec)
        assert manifest_fingerprint(ResultCache(cache_dir).manifest_path(spec)) == (
            manifest_fingerprint(ResultCache(tmp_path / "clean").manifest_path(spec))
        )

    def test_torn_last_line_is_skipped_and_recomputed(self, tmp_path, caplog):
        spec = analytic_spec()
        cache = partial_entry(tmp_path, spec, count=2)
        journal = journal_path(cache, spec)
        text = journal.read_text()
        journal.write_text(text[:-20])  # a kill mid-append tears the last line
        with caplog.at_level(logging.WARNING, logger="repro.experiments.cache"):
            resumed = ExperimentRunner(cache_dir=tmp_path, jobs=1).run(spec)
        assert "skipping torn line 2" in caplog.text
        assert resumed.meta["cells_from_cache"] == 1
        assert resumed.meta["cells_computed"] == len(spec.cells()) - 1
        clean = ExperimentRunner(jobs=1).run(spec)
        assert rows_signature(resumed) == rows_signature(clean)

    def test_gc_keeps_the_journal_and_its_side_files(self, tmp_path):
        spec = trace_spec()
        cache = partial_entry(tmp_path, spec, count=1)
        entry = cache.path(spec)
        [side_file] = [p for p in entry.iterdir() if p.suffix == ".npz"]
        (entry / "orphan-00000000.npz").write_bytes(b"left behind by a kill")
        report = cache.gc()
        assert report.removed_orphans == 1
        assert journal_path(cache, spec).exists()
        assert side_file.exists()
        resumed = ExperimentRunner(cache_dir=tmp_path, jobs=1).run(spec)
        assert resumed.meta["cells_from_cache"] == 1

    def test_ls_counts_journal_rows(self, tmp_path, capsys):
        from repro.experiments.cli import main

        spec = trace_spec()
        cache = partial_entry(tmp_path, spec, count=2)
        assert json.loads(cache.manifest_path(spec).read_text())["rows"] == []
        [info] = cache.entries()
        assert (info.status, info.cells, info.artifacts) == ("partial", 2, 2)
        assert main(["cache", "ls", "--cache-dir", str(tmp_path)]) == 0
        assert "partial" in capsys.readouterr().out

    def test_finalize_removes_the_journal(self, tmp_path):
        spec = analytic_spec()
        cache = partial_entry(tmp_path, spec, count=1)
        assert journal_path(cache, spec).exists()
        ExperimentRunner(cache_dir=tmp_path, jobs=1).run(spec)
        assert json.loads(cache.manifest_path(spec).read_text())["status"] == "complete"
        assert not journal_path(cache, spec).exists()

    def test_manifest_is_written_at_open_and_finalize_only(self, tmp_path, monkeypatch):
        import repro.experiments.cache as cache_module

        written = []
        atomic = cache_module._write_json_atomic

        def counting(path, payload, indent=None):
            if path.name == "manifest.json":
                written.append(payload["status"])
            atomic(path, payload, indent)

        monkeypatch.setattr(cache_module, "_write_json_atomic", counting)
        ExperimentRunner(cache_dir=tmp_path, jobs=2).run(get_scenario("smoke"))
        assert written == ["partial", "complete"]

        # A run an exception ends writes one more partial manifest instead.
        written.clear()
        monkeypatch.setenv(FAULT_ENV, "error:mva")
        failing = ExperimentRunner(
            cache_dir=tmp_path / "failing", jobs=1, supervision=SupervisionPolicy(retries=0)
        )
        with pytest.raises(FailureBudgetExceeded):
            failing.run(get_scenario("smoke"))
        assert written == ["partial", "partial"]
