"""Distributed fleet backend: leases, exactly-once commits, crash tolerance.

Everything here drives *real* worker processes over the real on-disk work
queue.  The load-bearing assertions mirror the PR's acceptance criteria:

* two workers on disjoint cells merge a manifest whose
  :func:`manifest_fingerprint` equals a serial run's (the "bit-identical"
  contract — only volatile timing fields differ),
* a SIGKILLed worker loses no committed cell and the campaign converges,
* a forced double claim commits exactly once,
* a SIGTERMed supervisor drains to a resumable ``status: "partial"``
  manifest with every lease released,
* ``cache gc`` never touches an entry holding a live lease,
* the ``fleet`` CLI honours the documented exit-code contract (0/3/1/2
  plus 4 = in progress).
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

from repro.experiments import (
    CampaignInterrupted,
    ExperimentRunner,
    ExperimentResult,
    FailureBudgetExceeded,
    FleetPolicy,
    MapSpec,
    ReplicationPolicy,
    ScenarioSpec,
    SolverSpec,
    SyntheticWorkload,
    fetch_campaign,
    parse_fault_spec,
    run_fleet_campaign,
    submit_campaign,
)
from repro.experiments.cache import (
    FLEET_DIRNAME,
    ResultCache,
    fleet_activity,
    manifest_fingerprint,
)
from repro.experiments.cli import main
from repro.experiments.faults import (
    FAULT_ENV,
    FLEET_FAULT_KINDS,
    POOL_FAULT_KINDS,
    FaultDirective,
    matching_directive,
)
from repro.experiments.fleet import FleetQueue, build_units, fleet_worker

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")


def small_spec(name="fleet_unit") -> ScenarioSpec:
    return ScenarioSpec(
        name=name,
        description="small analytic scenario for fleet tests",
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


def fast_policy(**overrides) -> FleetPolicy:
    fields = dict(
        workers=2,
        lease_timeout=2.0,
        max_attempts=3,
        backoff_base=0.01,
        backoff_cap=0.05,
        poll_interval=0.02,
        drain_grace=2.0,
    )
    fields.update(overrides)
    return FleetPolicy(**fields)


def serial_fingerprint(spec: ScenarioSpec, tmp_path: Path) -> str:
    cache_dir = tmp_path / "serial-baseline"
    cache = ResultCache(cache_dir)
    ExperimentRunner(cache_dir=cache_dir, jobs=1).run(spec)
    return manifest_fingerprint(cache.manifest_path(spec))


def rows_signature(result: ExperimentResult):
    return [
        (row.solver, tuple(sorted(row.params.items())), row.seed, row.metrics)
        for row in result.rows
    ]


class TestFleetFaultGrammar:
    """The ``REPRO_FAULT_INJECT`` grammar extended with the fleet kinds."""

    def test_parses_fleet_kinds(self):
        directives = parse_fault_spec(
            "worker-kill:ctmc/*;lease-stall:population=3;double-claim:mva:1"
        )
        assert directives == (
            FaultDirective(kind="worker-kill", pattern="ctmc/*"),
            FaultDirective(kind="lease-stall", pattern="population=3"),
            FaultDirective(kind="double-claim", pattern="mva", max_attempts=1),
        )

    def test_kind_sets_partition_as_documented(self):
        # hang/corrupt are pool-only (a fleet worker heartbeats through a
        # hang); the fleet kinds are meaningless to the pool envelope.
        assert "hang" in POOL_FAULT_KINDS and "hang" not in FLEET_FAULT_KINDS
        assert "corrupt" in POOL_FAULT_KINDS and "corrupt" not in FLEET_FAULT_KINDS
        for kind in ("worker-kill", "lease-stall", "double-claim"):
            assert kind in FLEET_FAULT_KINDS and kind not in POOL_FAULT_KINDS
        assert "crash" in POOL_FAULT_KINDS and "crash" in FLEET_FAULT_KINDS

    def test_kinds_filter_hides_foreign_directives(self):
        fleet_only = FaultDirective(kind="worker-kill", pattern="*")
        pool_only = FaultDirective(kind="hang", pattern="*")
        both = (fleet_only, pool_only)
        assert matching_directive(both, "k", 1, kinds=POOL_FAULT_KINDS) is pool_only
        assert matching_directive(both, "k", 1, kinds=FLEET_FAULT_KINDS) is fleet_only
        assert matching_directive((fleet_only,), "k", 1, kinds=POOL_FAULT_KINDS) is None

    def test_pool_runner_ignores_fleet_directives(self, tmp_path, monkeypatch):
        # A fleet spec must be inert under the pool backend: the run
        # completes as if no injection were configured.
        monkeypatch.setenv(FAULT_ENV, "worker-kill:*;lease-stall:*;double-claim:*")
        spec = small_spec()
        result = ExperimentRunner(cache_dir=tmp_path / "c", jobs=2).run(spec)
        assert len(result.rows) == len(spec.cells())
        assert not result.failures
        assert result.meta["cells_retried"] == 0


class TestConcurrentWriters:
    def test_two_workers_merge_fingerprint_identical_to_serial(self, tmp_path):
        spec = small_spec()
        baseline = serial_fingerprint(spec, tmp_path)
        cache = ResultCache(tmp_path / "fleet")
        result = run_fleet_campaign(cache, spec, fast_policy())
        assert len(result.rows) == len(spec.cells())
        assert result.meta["cells_computed"] == len(spec.cells())
        assert manifest_fingerprint(cache.manifest_path(spec)) == baseline
        # Rows come back in spec grid order with spec-derived seeds.
        serial = ExperimentRunner(cache_dir=tmp_path / "serial-baseline", jobs=1).run(spec)
        assert rows_signature(result) == rows_signature(serial)

    def test_second_run_is_pure_cache_replay(self, tmp_path):
        spec = small_spec()
        cache = ResultCache(tmp_path / "fleet")
        run_fleet_campaign(cache, spec, fast_policy())
        again = run_fleet_campaign(cache, spec, fast_policy())
        assert again.from_cache
        assert again.meta["cells_computed"] == 0

    def test_commit_marker_is_exactly_once(self, tmp_path):
        spec = small_spec()
        cache = ResultCache(tmp_path / "fleet")
        submit_campaign(cache, spec, fast_policy())
        queue = FleetQueue(cache.path(spec))
        unit = queue.units[0]
        records = [
            {"key": key, "solver": "x", "artifact": None} for key in unit.keys
        ]
        assert queue.commit(unit, "winner", records) is True
        assert queue.commit(unit, "loser", records) is False
        marker = json.loads((queue.done / f"{unit.id}.json").read_text())
        assert marker["owner"] == "winner"

    def test_forced_double_claim_commits_exactly_once(self, tmp_path, monkeypatch):
        spec = small_spec()
        baseline = serial_fingerprint(spec, tmp_path)
        cache = ResultCache(tmp_path / "fleet")
        submit_campaign(cache, spec, fast_policy())
        queue = FleetQueue(cache.path(spec))
        victim = next(u for u in queue.units if "bounds" in u.keys[0])
        # A live foreign lease that will never expire nor be reaped (its pid
        # is alive): only a double-claim directive can take this unit.
        intruder_lease = queue.leases / f"{victim.id}.json"
        intruder_lease.write_text(json.dumps({
            "owner": "intruder", "pid": os.getpid(), "host": queue.host,
            "attempt": 1, "heartbeat": time.time(), "lease_timeout": 9999.0,
            "acquired": time.time(),
        }))
        monkeypatch.setenv(FAULT_ENV, "double-claim:bounds")
        committed = fleet_worker(cache.path(spec), spec, owner="rogue")
        assert committed == len(queue.units)
        marker = json.loads((queue.done / f"{victim.id}.json").read_text())
        assert marker["owner"] == "rogue"
        # The rogue never owned the lease, so the intruder's is untouched.
        assert json.loads(intruder_lease.read_text())["owner"] == "intruder"
        # A later commit of the same unit (the intruder finally finishing)
        # is discarded by the exactly-once marker.  Real late writers produce
        # equivalent shards (seeds derive from the spec), so replaying the
        # committed shard models the race faithfully.
        records = json.loads((queue.results / f"{victim.id}.json").read_text())
        assert queue.commit(victim, "intruder", records) is False
        monkeypatch.delenv(FAULT_ENV)
        state, result = fetch_campaign(cache, spec)
        assert state == "complete"
        assert len(result.rows) == len(spec.cells())
        assert manifest_fingerprint(cache.manifest_path(spec)) == baseline


class TestCrashTolerance:
    def test_sigkilled_worker_loses_no_cells(self, tmp_path, monkeypatch):
        spec = small_spec()
        baseline = serial_fingerprint(spec, tmp_path)
        cache = ResultCache(tmp_path / "fleet")
        monkeypatch.setenv(FAULT_ENV, "worker-kill:ctmc/db_decay=0.5,db_scv=4.0,population=3:1")
        result = run_fleet_campaign(
            cache, spec, fast_policy(lease_timeout=1.0)
        )
        assert len(result.rows) == len(spec.cells())
        assert not result.failures
        assert result.meta["cells_retried"] >= 1
        assert manifest_fingerprint(cache.manifest_path(spec)) == baseline

    def test_lease_stall_is_fenced_and_requeued(self, tmp_path, monkeypatch):
        spec = small_spec()
        baseline = serial_fingerprint(spec, tmp_path)
        cache = ResultCache(tmp_path / "fleet")
        monkeypatch.setenv(FAULT_ENV, "lease-stall:mva:1")
        result = run_fleet_campaign(
            cache, spec, fast_policy(lease_timeout=0.5)
        )
        assert len(result.rows) == len(spec.cells())
        assert not result.failures
        assert manifest_fingerprint(cache.manifest_path(spec)) == baseline

    def test_crash_retries_to_identical_result(self, tmp_path, monkeypatch):
        spec = small_spec()
        baseline = serial_fingerprint(spec, tmp_path)
        cache = ResultCache(tmp_path / "fleet")
        monkeypatch.setenv(FAULT_ENV, "crash:bounds:1")
        result = run_fleet_campaign(cache, spec, fast_policy())
        assert len(result.rows) == len(spec.cells())
        assert result.meta["cells_retried"] == 2  # two bounds cells, one retry each
        assert manifest_fingerprint(cache.manifest_path(spec)) == baseline

    def test_budget_exceeded_leaves_resumable_partial(self, tmp_path, monkeypatch):
        spec = small_spec()
        cache = ResultCache(tmp_path / "fleet")
        monkeypatch.setenv(FAULT_ENV, "error:mva")  # every attempt of mva fails
        with pytest.raises(FailureBudgetExceeded):
            run_fleet_campaign(cache, spec, fast_policy(max_attempts=2))
        manifest = json.loads(cache.manifest_path(spec).read_text())
        assert manifest["status"] == "partial"
        # Every lease was released by the drain.
        queue = FleetQueue(cache.path(spec))
        assert not list(queue.leases.glob("*.json"))
        # Resume semantics mirror the pool runner's: the partial entry's
        # recorded failures are *replayed* (the killed run already burned
        # their retry budget), so the next campaign completes with them on
        # record; the run after that retries exactly the failed cells.
        monkeypatch.delenv(FAULT_ENV)
        baseline = serial_fingerprint(spec, tmp_path)
        replay = run_fleet_campaign(cache, spec, fast_policy(max_failures=2))
        assert replay.failures
        assert all("mva" in f.key for f in replay.failures)
        retry = run_fleet_campaign(cache, spec, fast_policy())
        assert not retry.failures
        assert len(retry.rows) == len(spec.cells())
        assert retry.meta["cells_from_cache"] > 0
        assert manifest_fingerprint(cache.manifest_path(spec)) == baseline

    def test_failures_within_budget_finalize_with_records(self, tmp_path, monkeypatch):
        spec = small_spec()
        cache = ResultCache(tmp_path / "fleet")
        monkeypatch.setenv(FAULT_ENV, "error:mva")
        result = run_fleet_campaign(
            cache, spec, fast_policy(max_attempts=2, max_failures=2)
        )
        assert len(result.failures) == 2
        assert {f.kind for f in result.failures} == {"error"}
        assert all(f.attempts == 2 for f in result.failures)
        manifest = json.loads(cache.manifest_path(spec).read_text())
        assert manifest["status"] == "complete"
        assert len(manifest["failures"]) == 2
        # A finalized-with-failures entry is a partial *result*: the next
        # run retries exactly the failed cells.
        monkeypatch.delenv(FAULT_ENV)
        retried = run_fleet_campaign(cache, spec, fast_policy())
        assert not retried.failures
        assert retried.meta["cells_computed"] == 2
        assert retried.meta["cells_from_cache"] == 4


_DRAIN_SCRIPT = """
import json, sys
from repro.experiments import run_fleet_campaign, CampaignInterrupted, FleetPolicy, ScenarioSpec
from repro.experiments.cache import ResultCache

spec = ScenarioSpec.from_dict(json.loads(sys.argv[1]))
cache = ResultCache(sys.argv[2])
policy = FleetPolicy(workers=2, lease_timeout=60.0, poll_interval=0.02,
                     drain_grace=5.0, backoff_base=0.01, backoff_cap=0.05)
try:
    run_fleet_campaign(cache, spec, policy)
except CampaignInterrupted:
    sys.exit(1)
sys.exit(0)
"""


class TestGracefulShutdown:
    def test_sigterm_supervisor_writes_partial_and_releases_leases(self, tmp_path):
        spec = small_spec()
        cache = ResultCache(tmp_path / "fleet")
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
        # Exactly one cell stalls forever (lease_timeout is 60s, far beyond
        # the test horizon), the other five complete; SIGTERM must merge the
        # committed units and release the stalled lease.
        env[FAULT_ENV] = "lease-stall:mva/db_decay=0.5,db_scv=4.0,population=3"
        process = subprocess.Popen(
            [sys.executable, "-c", _DRAIN_SCRIPT,
             json.dumps(spec.to_dict()), str(cache.directory)],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        try:
            queue = FleetQueue(cache.path(spec))
            deadline = time.time() + 60.0
            while time.time() < deadline:
                if queue.exists() and queue.load_campaign():
                    done = queue.status()["done"]
                    if done >= 5:
                        break
                time.sleep(0.05)
            else:
                pytest.fail("campaign never computed its non-stalled cells")
            process.send_signal(signal.SIGTERM)
            assert process.wait(timeout=30.0) == 1  # CampaignInterrupted
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=10.0)
        manifest = json.loads(cache.manifest_path(spec).read_text())
        assert manifest["status"] == "partial"
        assert len(manifest["rows"]) >= 5  # committed units were merged
        assert not list(queue.leases.glob("*.json"))  # all leases released
        # The partial entry resumes: a fault-free campaign finishes only the
        # stalled cell and fingerprints identical to a serial run.
        baseline = serial_fingerprint(spec, tmp_path)
        result = run_fleet_campaign(cache, spec, fast_policy())
        assert len(result.rows) == len(spec.cells())
        assert result.meta["cells_from_cache"] >= 5
        assert result.meta["cells_computed"] <= 1
        assert manifest_fingerprint(cache.manifest_path(spec)) == baseline


class TestGcLeaseAwareness:
    def _live_lease(self, entry_dir: Path) -> Path:
        leases = entry_dir / FLEET_DIRNAME / "leases"
        leases.mkdir(parents=True, exist_ok=True)
        path = leases / "u0.json"
        path.write_text(json.dumps({
            "owner": "w", "pid": os.getpid(), "host": "h", "attempt": 1,
            "heartbeat": time.time(), "lease_timeout": 30.0,
        }))
        return path

    def _age_lease(self, path: Path) -> None:
        payload = json.loads(path.read_text())
        payload["heartbeat"] = time.time() - 7200.0
        path.write_text(json.dumps(payload))
        os.utime(path, (time.time() - 7200.0,) * 2)

    def test_fleet_activity_distinguishes_live_and_stale(self, tmp_path):
        entry = tmp_path / "scn-0123456789abcdef"
        entry.mkdir()
        assert not fleet_activity(entry)
        lease = self._live_lease(entry)
        assert fleet_activity(entry)
        self._age_lease(lease)
        assert not fleet_activity(entry)

    def test_gc_skips_entries_with_live_leases(self, tmp_path):
        spec = small_spec()
        cache = ResultCache(tmp_path / "c")
        ExperimentRunner(cache_dir=cache.directory, jobs=1).run(spec)
        entry = cache.path(spec)
        # An orphan side-file gc would normally prune, plus a live lease.
        orphan = entry / "orphan-deadbeef.json"
        orphan.write_text("{}")
        lease = self._live_lease(entry)
        report = cache.gc()
        assert report.removed_entries == ()
        assert orphan.exists()  # nothing inside the entry was touched
        # Once the lease is stale the campaign is dead: gc prunes the
        # orphan and sweeps the whole .fleet queue of the complete entry.
        self._age_lease(lease)
        report = cache.gc()
        assert report.removed_entries == ()
        assert not orphan.exists()
        assert not (entry / FLEET_DIRNAME).exists()
        assert cache.load(spec) is not None  # still servable

    def test_gc_never_prunes_corrupt_looking_entry_with_live_lease(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        cache.directory.mkdir(parents=True)
        # Manifest-less directory, mtime far past the 1h corrupt grace —
        # gc would prune it, but a worker is mid-write under a live lease.
        entry = cache.directory / "scn-0123456789abcdef"
        entry.mkdir()
        (entry / "half-written.npz").write_text("x")
        self._live_lease(entry)
        old = time.time() - 7200.0
        os.utime(entry, (old, old))
        report = cache.gc()
        assert report.removed_entries == ()
        assert (entry / "half-written.npz").exists()

    def test_completed_fleet_run_survives_gc_and_replays(self, tmp_path):
        spec = small_spec()
        cache = ResultCache(tmp_path / "fleet")
        run_fleet_campaign(cache, spec, fast_policy())
        # Age every fleet heartbeat so the campaign reads as dead.
        fleet_dir = cache.path(spec) / FLEET_DIRNAME
        for sub in ("leases", "workers"):
            for path in (fleet_dir / sub).glob("*.json"):
                payload = json.loads(path.read_text())
                payload["heartbeat"] = time.time() - 7200.0
                path.write_text(json.dumps(payload))
                os.utime(path, (time.time() - 7200.0,) * 2)
        cache.gc()
        assert not fleet_dir.exists()  # queue swept, manifest kept
        replay = run_fleet_campaign(cache, spec, fast_policy())
        assert replay.from_cache


class TestFleetCli:
    def test_exit_code_contract(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        spec_args = ["--cache-dir", cache_dir]
        assert main(["fleet", "status", "smoke", *spec_args]) == 1
        assert main(["fleet", "fetch", "smoke", *spec_args]) == 1
        assert main(["fleet", "workers", "smoke", *spec_args]) == 1
        assert main(["fleet", "submit", "smoke", *spec_args]) == 0
        assert main(["fleet", "status", "smoke", *spec_args]) == 4
        assert main(["fleet", "fetch", "smoke", *spec_args]) == 4
        assert main(["fleet", "workers", "smoke", *spec_args]) == 0
        assert main([
            "fleet", "work", "smoke", "--workers", "2", *spec_args
        ]) == 0
        assert main(["fleet", "status", "smoke", *spec_args]) == 0
        assert main(["fleet", "fetch", "smoke", *spec_args]) == 0
        capsys.readouterr()

    def test_run_backend_fleet_and_cache_replay(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        assert main([
            "run", "smoke", "--backend", "fleet", "--workers", "2",
            "--cache-dir", cache_dir,
        ]) == 0
        capsys.readouterr()
        assert main([
            "run", "smoke", "--backend", "fleet", "--cache-dir", cache_dir,
        ]) == 0
        out = capsys.readouterr().out
        assert "(cache; 0 computed" in out

    def test_run_backend_fleet_rejects_no_cache(self, tmp_path, capsys):
        assert main([
            "run", "smoke", "--backend", "fleet", "--no-cache",
            "--cache-dir", str(tmp_path),
        ]) == 2
        assert "needs the cache" in capsys.readouterr().err

    def test_submit_on_complete_entry_is_a_noop(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        assert main(["fleet", "work", "smoke", "--workers", "2",
                     "--cache-dir", cache_dir]) == 0
        capsys.readouterr()
        assert main(["fleet", "submit", "smoke", "--cache-dir", cache_dir]) == 0
        assert "already complete" in capsys.readouterr().out


class TestQueueMechanics:
    def test_build_units_are_content_addressed(self):
        spec = small_spec()
        units = build_units(spec, spec.cells())
        again = build_units(spec, spec.cells())
        assert [u.id for u in units] == [u.id for u in again]
        assert len({u.id for u in units}) == len(units)
        covered = sorted(key for unit in units for key in unit.keys)
        assert covered == sorted(cell.key for cell in spec.cells())

    def test_reap_charges_attempt_exactly_once(self, tmp_path):
        spec = small_spec()
        cache = ResultCache(tmp_path / "c")
        submit_campaign(cache, spec, fast_policy(lease_timeout=0.1))
        queue = FleetQueue(cache.path(spec))
        claim, _busy = queue.claim_next("w1")
        assert claim is not None
        time.sleep(0.3)  # let the lease expire without heartbeats
        assert queue.reap_expired() == 1
        assert queue.reap_expired() == 0  # second reaper finds nothing
        state = queue._attempt_state(claim.unit.id)
        assert state["attempts"] == 1
        assert state["not_before"] > 0

    def test_reaped_attempt_is_never_claimed_twice(self, tmp_path):
        """A claim racing the reaper's charge never takes the reaped attempt.

        The wrapped charge runs a second owner's claim *before* it writes
        the count: the window in which a reaper has dropped the lease but
        not yet recorded the failed attempt.
        """
        base = small_spec()
        spec = replace(  # one cell, so one unit: the second owner can only race for it
            base,
            workload=replace(base.workload, populations=(1,)),
            solvers=base.solvers[:1],
        )
        cache = ResultCache(tmp_path / "c")
        submit_campaign(cache, spec, fast_policy(lease_timeout=0.1))
        queue = FleetQueue(cache.path(spec))
        claim, _busy = queue.claim_next("w1")
        assert claim is not None and len(queue.units) == 1
        attempts = []
        charge = queue.record_attempt_failure

        def racing_charge(unit_id, kind, message):
            racer, _busy = queue.claim_next("w2")
            if racer is not None:
                attempts.append(racer.attempt)
            charge(unit_id, kind, message)

        queue.record_attempt_failure = racing_charge
        time.sleep(0.3)  # let the lease expire without heartbeats
        assert queue.reap_expired() == 1
        del queue.record_attempt_failure
        assert claim.attempt not in attempts
        assert queue._attempt_state(claim.unit.id)["attempts"] == 1
        time.sleep(0.1)  # past the retry backoff
        racer, _busy = queue.claim_next("w2")
        assert racer is not None
        attempts.append(racer.attempt)
        assert attempts == [claim.attempt + 1]

    @pytest.mark.parametrize("charged", [False, True])
    def test_orphaned_tombstone_is_charged_once(self, tmp_path, charged):
        """A reaper that dies holding a tombstone stalls the unit for one
        lease timeout; then its attempt is charged exactly once."""
        base = small_spec()
        spec = replace(
            base, workload=replace(base.workload, populations=(1,)), solvers=base.solvers[:1]
        )
        cache = ResultCache(tmp_path / "c")
        submit_campaign(cache, spec, fast_policy(lease_timeout=0.2))
        queue = FleetQueue(cache.path(spec))
        claim, _busy = queue.claim_next("w1")
        unit_id = claim.unit.id
        os.rename(queue._lease_path(unit_id), queue._tombstone_path(unit_id))
        if charged:
            queue.record_attempt_failure(unit_id, "timeout", "reaper died after charging")
        assert queue.claim_next("w2") == (None, True)
        deadline = time.time() + 5.0
        racer = None
        while racer is None and time.time() < deadline:
            time.sleep(0.05)
            racer, _busy = queue.claim_next("w2")
        assert racer is not None and racer.attempt == claim.attempt + 1
        assert queue._attempt_state(unit_id)["attempts"] == 1
        assert not queue._tombstone_path(unit_id).exists()

    def test_campaign_attach_keeps_committed_units(self, tmp_path):
        spec = small_spec()
        cache = ResultCache(tmp_path / "c")
        policy = fast_policy()
        submit_campaign(cache, spec, policy)
        queue = FleetQueue(cache.path(spec))
        unit = queue.units[0]
        records = [{"key": key, "artifact": None} for key in unit.keys]
        assert queue.commit(unit, "w", records)
        # Re-attach (a new submit of the same pending set): the committed
        # unit keeps its done marker, so only the rest recomputes.
        status = submit_campaign(cache, spec, policy)
        assert status["done"] == 1
        assert status["pending"] == len(queue.units) - 1
        # --force resets everything.
        status = submit_campaign(cache, spec, policy, force=True)
        assert status["done"] == 0
