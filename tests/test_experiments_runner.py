"""Runner behaviour: cache hit/miss, determinism, parallel/serial parity."""

from __future__ import annotations

import json

import pytest

from repro.experiments import (
    ExperimentRunner,
    ExperimentResult,
    MapSpec,
    ReplicationPolicy,
    ScenarioSpec,
    SolverSpec,
    SyntheticWorkload,
    run_scenario,
    tpcw_sweep_scenario,
)


def analytic_spec(name="runner_unit", base_seed=3) -> ScenarioSpec:
    return ScenarioSpec(
        name=name,
        description="small analytic scenario for runner tests",
        workload=SyntheticWorkload(
            front=MapSpec(family="exponential", mean=0.05),
            db_mean=0.04,
            db_scv=(4.0,),
            db_decay=(0.5,),
            think_time=0.5,
            populations=(1, 3),
        ),
        solvers=(SolverSpec(kind="ctmc"), SolverSpec(kind="mva"), SolverSpec(kind="bounds")),
        replication=ReplicationPolicy(base_seed=base_seed),
    )


def simulation_spec(name="runner_sim", replications=2) -> ScenarioSpec:
    return ScenarioSpec(
        name=name,
        description="small stochastic scenario for determinism tests",
        workload=SyntheticWorkload(
            front=MapSpec(family="exponential", mean=0.05),
            db_mean=0.04,
            db_scv=(4.0,),
            db_decay=(0.9,),
            think_time=0.5,
            populations=(2,),
        ),
        solvers=(
            SolverSpec(kind="simulation", options={"horizon": 120.0, "warmup": 20.0}),
        ),
        replication=ReplicationPolicy(replications=replications, base_seed=5),
    )


def batched_spec(name="runner_batched", replications=3, backend="batched") -> ScenarioSpec:
    return ScenarioSpec(
        name=name,
        description="batched-simulation dispatch tests",
        workload=SyntheticWorkload(
            front=MapSpec(family="exponential", mean=0.05),
            db_mean=0.04,
            db_scv=(4.0,),
            db_decay=(0.9,),
            think_time=0.5,
            populations=(2,),
        ),
        solvers=(
            SolverSpec(
                kind="simulation",
                options={"horizon": 120.0, "warmup": 20.0, "sim_backend": backend},
            ),
        ),
        replication=ReplicationPolicy(replications=replications, base_seed=5),
    )


def rows_signature(result: ExperimentResult):
    return [(row.solver, tuple(sorted(row.params.items())), row.seed, row.metrics)
            for row in result.rows]


class TestCache:
    def test_miss_then_hit(self, tmp_path):
        runner = ExperimentRunner(cache_dir=tmp_path, jobs=1)
        spec = analytic_spec()
        first = runner.run(spec)
        assert not first.from_cache
        second = runner.run(spec)
        assert second.from_cache
        assert rows_signature(second) == rows_signature(first)

    def test_cache_entry_is_keyed_by_spec_hash(self, tmp_path):
        runner = ExperimentRunner(cache_dir=tmp_path, jobs=1)
        spec = analytic_spec()
        runner.run(spec)
        path = runner.cache.path(spec)
        assert path.is_dir()
        assert spec.hash() in path.name
        manifest = json.loads(runner.cache.manifest_path(spec).read_text())
        assert manifest["spec_hash"] == spec.hash()
        assert manifest["status"] == "complete"

    def test_spec_change_misses_cache(self, tmp_path):
        runner = ExperimentRunner(cache_dir=tmp_path, jobs=1)
        runner.run(analytic_spec())
        changed = runner.run(analytic_spec(base_seed=4))
        assert not changed.from_cache

    def test_force_bypasses_cache(self, tmp_path):
        runner = ExperimentRunner(cache_dir=tmp_path, jobs=1)
        spec = analytic_spec()
        runner.run(spec)
        forced = runner.run(spec, force=True)
        assert not forced.from_cache

    def test_corrupt_cache_entry_is_a_miss(self, tmp_path):
        runner = ExperimentRunner(cache_dir=tmp_path, jobs=1)
        spec = analytic_spec()
        runner.run(spec)
        runner.cache.manifest_path(spec).write_text("{not json")
        rerun = runner.run(spec)
        assert not rerun.from_cache

    def test_artifact_runs_are_cached_and_replayed(self, tmp_path):
        spec = tpcw_sweep_scenario(
            "artifact_cache", mixes=("browsing",), populations=(5,),
            duration=30.0, warmup=5.0, seed=7,
        )
        runner = ExperimentRunner(cache_dir=tmp_path, keep_artifacts=True, jobs=1)
        cold = runner.run(spec)
        assert not cold.from_cache
        assert cold.meta["artifacts_written"] == 1
        warm = runner.run(spec)
        assert warm.from_cache
        cold_run = cold.rows[0].load_artifact()
        warm_run = warm.rows[0].load_artifact()
        assert warm_run.throughput == cold_run.throughput
        assert (warm_run.front.utilization == cold_run.front.utilization).all()

    def test_no_cache_dir_always_computes(self):
        spec = analytic_spec()
        assert not run_scenario(spec, jobs=1).from_cache
        assert not run_scenario(spec, jobs=1).from_cache


class TestDeterminism:
    def test_same_spec_same_results(self):
        first = run_scenario(simulation_spec(), jobs=1)
        second = run_scenario(simulation_spec(), jobs=1)
        assert rows_signature(first) == rows_signature(second)

    def test_parallel_matches_serial(self):
        serial = run_scenario(simulation_spec(), jobs=1)
        parallel = run_scenario(simulation_spec(), jobs=2)
        assert rows_signature(serial) == rows_signature(parallel)

    def test_replications_differ_but_are_reproducible(self):
        result = run_scenario(simulation_spec(), jobs=1)
        throughputs = [row.metric("throughput") for row in result.rows]
        assert len(throughputs) == 2
        assert throughputs[0] != throughputs[1]
        again = run_scenario(simulation_spec(), jobs=2)
        assert [row.metric("throughput") for row in again.rows] == throughputs

    def test_cells_are_seeded_independently_of_grid_shape(self):
        # The same cell (same key) keeps its seed when the grid grows.
        small = simulation_spec(replications=1)
        large = simulation_spec(replications=2)
        small_seed = small.cells()[0].seed
        large_seeds = {cell.replication: cell.seed for cell in large.cells()}
        assert large_seeds[0] == small_seed


class TestBatchedSimulationDispatch:
    def test_cells_record_the_batched_backend(self):
        result = run_scenario(batched_spec(), jobs=1)
        assert all(row.meta["sim_batch_size"] == 3 for row in result.rows)

    def test_parallel_matches_serial(self):
        serial = run_scenario(batched_spec(), jobs=1)
        parallel = run_scenario(batched_spec(), jobs=2)
        assert rows_signature(serial) == rows_signature(parallel)

    def test_group_matches_single_cell_execution(self):
        """A cell computes the same values alone and inside its group."""
        from repro.experiments.solvers import execute_cell

        spec = batched_spec()
        grouped = run_scenario(spec, jobs=1)
        for cell, row in zip(spec.cells(), grouped.rows):
            alone = execute_cell(spec, cell)
            assert alone.metrics == row.metrics

    def test_legacy_sim_backend_is_ignored(self):
        """Specs written for the removed backend choice still load and run:
        the ``sim_backend`` option is an unknown option, so every value gives
        the same rows, bit for bit."""
        batched = run_scenario(batched_spec(), jobs=1)
        event = run_scenario(batched_spec(backend="event"), jobs=1)
        assert rows_signature(event) == rows_signature(batched)

    def test_resume_rebatches_bit_identically(self, tmp_path):
        """The remainder of a killed run re-batches to the original values."""
        runner = ExperimentRunner(cache_dir=tmp_path, jobs=1)
        spec = batched_spec()
        cold = runner.run(spec)
        manifest_path = runner.cache.manifest_path(spec)
        manifest = json.loads(manifest_path.read_text())
        manifest["status"] = "partial"
        del manifest["rows"][1]
        manifest_path.write_text(json.dumps(manifest))
        resumed = ExperimentRunner(cache_dir=tmp_path, jobs=1).run(spec)
        assert resumed.meta["cells_computed"] == 1
        assert resumed.rows == cold.rows


class TestPerCellTiming:
    def test_executed_cells_carry_elapsed_seconds(self):
        result = run_scenario(analytic_spec())
        assert all(row.elapsed_seconds > 0 for row in result.rows)

    def test_elapsed_survives_cache_round_trip(self, tmp_path):
        runner = ExperimentRunner(cache_dir=tmp_path, jobs=1)
        computed = runner.run(analytic_spec())
        cached = runner.run(analytic_spec())
        assert cached.from_cache
        for row, cached_row in zip(computed.rows, cached.rows):
            assert cached_row.elapsed_seconds == pytest.approx(row.elapsed_seconds)

    def test_elapsed_excluded_from_equality(self):
        first = run_scenario(analytic_spec())
        second = run_scenario(analytic_spec())
        # Wall-clock noise must not make otherwise-identical rows unequal.
        assert first.rows == second.rows

    def test_missing_elapsed_in_old_cache_documents_defaults_to_zero(self):
        from repro.experiments.results import CellResult

        row = CellResult.from_dict(
            {
                "solver": "ctmc", "kind": "ctmc", "params": {"population": 1},
                "replication": 0, "seed": 1, "metrics": {"throughput": 1.0},
            }
        )
        assert row.elapsed_seconds == 0.0


class TestResultQueries:
    def test_select_and_metric(self):
        result = run_scenario(analytic_spec(), jobs=1)
        ctmc_rows = result.select(solver="ctmc")
        assert len(ctmc_rows) == 2
        x = result.metric("throughput", solver="ctmc", population=3)
        assert x > 0
        assert result.metric("throughput_upper", solver="bounds", population=3) >= x - 1e-9

    def test_one_raises_on_ambiguity(self):
        result = run_scenario(analytic_spec(), jobs=1)
        with pytest.raises(LookupError):
            result.one(solver="ctmc")

    def test_missing_metric_raises_with_alternatives(self):
        result = run_scenario(analytic_spec(), jobs=1)
        with pytest.raises(KeyError, match="throughput"):
            result.one(solver="bounds", population=1).metric("nonexistent")

    def test_json_round_trip(self):
        result = run_scenario(analytic_spec(), jobs=1)
        restored = ExperimentResult.from_json(result.to_json())
        assert rows_signature(restored) == rows_signature(result)


class TestEngineMatchesDirectExecution:
    def test_testbed_sweep_identical_to_run_eb_sweep(self):
        from repro.tpcw import BROWSING_MIX, run_eb_sweep

        spec = tpcw_sweep_scenario(
            "engine_parity",
            mixes=("browsing",),
            populations=(20, 40),
            duration=90.0,
            warmup=15.0,
            seed=7,
        )
        engine = (
            ExperimentRunner(keep_artifacts=True, jobs=2).run(spec).sweep_points_by_mix()
        )["browsing"]
        direct = run_eb_sweep(BROWSING_MIX, [20, 40], duration=90.0, warmup=15.0, seed=7)
        assert [p.num_ebs for p in engine] == [p.num_ebs for p in direct]
        for engine_point, direct_point in zip(engine, direct):
            assert engine_point.throughput == direct_point.throughput
            assert engine_point.front_utilization == direct_point.front_utilization
            assert engine_point.db_utilization == direct_point.db_utilization
            assert engine_point.mean_response_time == direct_point.mean_response_time

    def test_ctmc_cell_matches_solver_call(self):
        from repro.maps import map2_exponential, map2_from_moments_and_decay
        from repro.queueing import solve_map_closed_network

        result = run_scenario(analytic_spec(), jobs=1)
        front = map2_exponential(0.05)
        db = map2_from_moments_and_decay(0.04, 4.0, 0.5)
        exact = solve_map_closed_network(front, db, 0.5, 3)
        assert result.metric("throughput", solver="ctmc", population=3) == pytest.approx(
            exact.throughput, rel=1e-12
        )


class TestPeakRssUnits:
    """``ru_maxrss`` is KiB on Linux but bytes on macOS — the divisor must
    match, or a Mac run reports memory inflated by 1024x (regression test
    for exactly that bug)."""

    class _Usage:
        ru_maxrss = 524_288  # 512 MiB in KiB, or 0.5 MiB in bytes

    def test_linux_interprets_kib(self, monkeypatch):
        from repro.experiments import solvers

        monkeypatch.setattr(
            solvers.resource, "getrusage", lambda who: self._Usage()
        )
        monkeypatch.setattr(solvers.sys, "platform", "linux")
        assert solvers._peak_rss_mb() == pytest.approx(512.0)

    def test_darwin_interprets_bytes(self, monkeypatch):
        from repro.experiments import solvers

        monkeypatch.setattr(
            solvers.resource, "getrusage", lambda who: self._Usage()
        )
        monkeypatch.setattr(solvers.sys, "platform", "darwin")
        assert solvers._peak_rss_mb() == pytest.approx(0.5)
