"""Spec round-trip, hash stability and grid expansion of the scenario engine."""

from __future__ import annotations

import json

import pytest

from repro.experiments import (
    EstimationSpec,
    MapSpec,
    ReplicationPolicy,
    ScenarioSpec,
    SolverSpec,
    SyntheticWorkload,
    TestbedWorkload,
    TraceWorkload,
)


def synthetic_spec(**overrides) -> ScenarioSpec:
    payload = dict(
        name="unit",
        description="unit-test scenario",
        workload=SyntheticWorkload(
            front=MapSpec(family="exponential", mean=0.05),
            db_mean=0.04,
            db_scv=(2.0, 8.0),
            db_decay=(0.0, 0.9),
            think_time=0.5,
            populations=(1, 5),
        ),
        solvers=(SolverSpec(kind="ctmc"), SolverSpec(kind="mva")),
        replication=ReplicationPolicy(replications=2, base_seed=11),
    )
    payload.update(overrides)
    return ScenarioSpec(**payload)


class TestRoundTrip:
    def test_synthetic_dict_round_trip(self):
        spec = synthetic_spec()
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_synthetic_json_round_trip(self):
        spec = synthetic_spec()
        assert ScenarioSpec.from_dict(json.loads(spec.canonical_json())) == spec

    def test_testbed_round_trip_with_estimation(self):
        spec = ScenarioSpec(
            name="tb",
            description="testbed",
            workload=TestbedWorkload(
                mixes=("browsing", "ordering"),
                populations=(25, 50),
                estimation=EstimationSpec(think_time=7.0, duration=2500.0),
            ),
            solvers=(SolverSpec(kind="testbed"), SolverSpec(kind="fitted_map")),
        )
        restored = ScenarioSpec.from_dict(json.loads(spec.canonical_json()))
        assert restored == spec
        assert restored.workload.estimation.think_time == 7.0

    def test_trace_round_trip(self):
        spec = ScenarioSpec(
            name="tr",
            description="trace",
            workload=TraceWorkload(traces=("a", "d"), utilizations=(0.5,)),
            solvers=(SolverSpec(kind="mtrace1"),),
        )
        assert ScenarioSpec.from_dict(json.loads(spec.canonical_json())) == spec

    def test_solver_options_survive(self):
        spec = synthetic_spec(
            solvers=(
                SolverSpec(kind="simulation", label="sim_short", options={"horizon": 100.0}),
            )
        )
        restored = ScenarioSpec.from_dict(json.loads(spec.canonical_json()))
        assert restored.solvers[0].option("horizon") == 100.0
        assert restored.solvers[0].label == "sim_short"


class TestHash:
    def test_hash_is_stable_across_constructions(self):
        assert synthetic_spec().hash() == synthetic_spec().hash()

    def test_hash_survives_round_trip(self):
        spec = synthetic_spec()
        assert ScenarioSpec.from_dict(json.loads(spec.canonical_json())).hash() == spec.hash()

    def test_hash_changes_with_any_field(self):
        base = synthetic_spec()
        changed_seed = synthetic_spec(replication=ReplicationPolicy(replications=2, base_seed=12))
        changed_solver = synthetic_spec(solvers=(SolverSpec(kind="ctmc"),))
        assert base.hash() != changed_seed.hash()
        assert base.hash() != changed_solver.hash()

    def test_hash_ignores_nothing_but_is_name_sensitive(self):
        assert synthetic_spec().hash() != synthetic_spec(name="other").hash()


class TestCells:
    def test_grid_size(self):
        spec = synthetic_spec()
        # 2 scv x 2 decay x 2 populations x 2 deterministic solvers (the
        # replication count applies to stochastic solvers only).
        assert len(spec.cells()) == 16

    def test_replications_apply_to_stochastic_solvers_only(self):
        spec = synthetic_spec(
            solvers=(SolverSpec(kind="ctmc"), SolverSpec(kind="simulation"))
        )
        cells = spec.cells()
        ctmc = [cell for cell in cells if cell.solver_kind == "ctmc"]
        simulation = [cell for cell in cells if cell.solver_kind == "simulation"]
        assert len(ctmc) == 8  # one per grid point
        assert len(simulation) == 16  # two replications per grid point

    def test_cells_deterministic(self):
        first = synthetic_spec().cells()
        second = synthetic_spec().cells()
        assert first == second

    def test_per_cell_seeds_unique_and_stable(self):
        cells = synthetic_spec().cells()
        seeds = [cell.seed for cell in cells]
        assert len(set(seeds)) == len(seeds)
        assert seeds == [cell.seed for cell in synthetic_spec().cells()]

    def test_changing_base_seed_changes_cell_seeds(self):
        base = synthetic_spec().cells()
        other = synthetic_spec(
            replication=ReplicationPolicy(replications=2, base_seed=99)
        ).cells()
        assert all(a.seed != b.seed for a, b in zip(base, other))

    def test_shared_policy_gives_every_cell_the_base_seed(self):
        spec = synthetic_spec(
            replication=ReplicationPolicy(replications=1, base_seed=7, policy="shared")
        )
        assert {cell.seed for cell in spec.cells()} == {7}

    def test_cell_key_contains_identity(self):
        cell = synthetic_spec().cells()[0]
        assert "unit/" in cell.key and "population=" in cell.key and "/rep0" in cell.key

    def test_cell_dict_round_trip(self):
        from repro.experiments import Cell

        cell = synthetic_spec().cells()[5]
        assert Cell.from_dict(json.loads(json.dumps(cell.to_dict()))) == cell


class TestValidation:
    def test_unknown_solver_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown solver kind"):
            SolverSpec(kind="quantum")

    def test_unknown_map_family_rejected(self):
        with pytest.raises(ValueError, match="unknown MAP family"):
            MapSpec(family="weibull", mean=1.0)

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="populations"):
            SyntheticWorkload(
                front=MapSpec(family="exponential", mean=0.1),
                db_mean=0.1,
                think_time=0.5,
                populations=(),
            )

    def test_unknown_mix_rejected(self):
        with pytest.raises(ValueError, match="unknown transaction mixes"):
            TestbedWorkload(mixes=("gaming",), populations=(10,))

    def test_duplicate_solver_labels_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            synthetic_spec(solvers=(SolverSpec(kind="ctmc"), SolverSpec(kind="ctmc")))

    def test_bad_replications_rejected(self):
        with pytest.raises(ValueError):
            ReplicationPolicy(replications=0)

    def test_bad_seed_policy_rejected(self):
        with pytest.raises(ValueError, match="seed policy"):
            ReplicationPolicy(policy="random")

    def test_shared_policy_with_replications_rejected(self):
        # Shared seeds + replications would yield bit-identical duplicate rows.
        with pytest.raises(ValueError, match="identical duplicate rows"):
            ReplicationPolicy(replications=3, policy="shared")

    def test_testbed_duration_may_be_shorter_than_warmup(self):
        # TestbedConfig measures `duration` seconds after the warmup, so a
        # short measurement after a long warmup is perfectly valid.
        workload = TestbedWorkload(mixes=("browsing",), populations=(10,),
                                   duration=30.0, warmup=60.0)
        assert workload.duration == 30.0

    def test_testbed_nonpositive_duration_rejected(self):
        with pytest.raises(ValueError, match="duration"):
            TestbedWorkload(mixes=("browsing",), populations=(10,), duration=0.0)

    def test_duplicate_axis_values_rejected(self):
        with pytest.raises(ValueError, match="duplicates"):
            TestbedWorkload(mixes=("browsing",), populations=(25, 25))

    def test_invalid_scv_propagates_instead_of_silently_defaulting(self):
        with pytest.raises(ValueError):
            MapSpec(family="hyperexp_renewal", mean=0.1, scv=0.0).build()

    def test_derive_seed_requires_concrete_seed(self):
        from repro.simulation import derive_seed

        with pytest.raises(ValueError, match="integer seed"):
            derive_seed(None, "cell")
        assert derive_seed(1, "cell") == derive_seed(1, "cell")
        assert derive_seed(1, "cell") != derive_seed(2, "cell")
        assert derive_seed(1, "cell") != derive_seed(1, "other")

    def test_trace_utilization_bounds(self):
        with pytest.raises(ValueError):
            TraceWorkload(utilizations=(1.5,))


class TestMapSpecBuild:
    def test_exponential_mean(self):
        assert MapSpec(family="exponential", mean=0.25).build().mean() == pytest.approx(0.25)

    def test_moments_decay_matches_targets(self):
        built = MapSpec(family="moments_decay", mean=1.0, scv=4.0, decay=0.9).build()
        assert built.mean() == pytest.approx(1.0, rel=1e-9)
        assert built.scv() == pytest.approx(4.0, rel=1e-9)

    def test_fitted_tracks_dispersion(self):
        built = MapSpec(family="fitted", mean=0.1, index_of_dispersion=50.0).build()
        assert built.index_of_dispersion() == pytest.approx(50.0, rel=0.25)
