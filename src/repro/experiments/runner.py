"""Streaming parallel experiment runner with supervision and resumable caching.

The runner expands a :class:`~repro.experiments.spec.ScenarioSpec` into its
grid of cells and executes them, fanning out over worker processes when the
grid is large enough to benefit.  Results are bit-identical whether cells run
serially or in parallel because every cell's seed is already fixed by the
spec (see :meth:`ScenarioSpec.cells`) — completion order does not matter, so
work units stream back as they finish and the final rows are re-assembled in
grid order.

Simulation cells of synthetic and timeline workloads are not dispatched as
``R`` separate one-replication tasks: the runner groups every pending
replication of a grid point into one work unit and executes the whole set in
one call (:func:`~repro.experiments.solvers.execute_simulation_group`).  A
seed's result does not depend on the set it runs in, so a resumed run —
whose groups contain only the replications a killed run did not finish —
still reproduces the original rows bit-identically.

Parallel execution runs under a **supervision envelope**
(:mod:`repro.experiments.supervision`): each work unit gets its own worker
process, an optional per-unit wall-clock timeout, and bounded retries with
backoff; a unit that exhausts its retries becomes a typed
:class:`~repro.experiments.results.CellFailure` recorded in the run manifest
instead of an exception that kills the campaign — until the ``max_failures``
budget is exceeded, at which point :class:`FailureBudgetExceeded` aborts the
run (completed rows remain cached and resumable).  Serial in-process runs
stay unsupervised — exceptions propagate directly — unless a
:class:`SupervisionPolicy` is configured or fault injection
(``REPRO_FAULT_INJECT``) is active.

With a cache directory configured, every completed cell is journaled in the
run directory *as it arrives* (artifact side-files included, see
:mod:`repro.experiments.cache`), and an exception leaving the run writes one
partial manifest before it propagates, so a killed run leaves a valid
partial entry; the next run of the same spec resumes from it, re-executing
only the missing cells, and produces results bit-identical to an
uninterrupted run.
Failure records resume too: a run killed *after* some cells burned their
retry budget replays those failures from the manifest instead of recomputing
cells that may hang or crash again, while a run whose previous pass
*finished* with failures retries exactly the failed cells — retry
determinism (seeds derive from the spec, never from attempt count) makes the
eventual success bit-identical to a run that never failed.

``keep_artifacts`` only controls whether *freshly computed* rows keep their
decoded artifact objects in memory; with a cache configured, artifacts are
always persisted and cache-served rows carry lazy refs, so
``ExperimentResult.testbed_runs_by_mix`` and friends work either way.

Execution backends are **pluggable**: the default ``"pool"`` backend fans
out over supervisor-owned worker processes as described above, while
``backend="fleet"`` routes the same load/resume/finalize contract through
the crash-tolerant distributed work queue of :mod:`repro.experiments.fleet`
— leased units run on the same worker pool, safe against SIGKILL of
workers *and* supervisor.  The fleet backend requires a cache directory
(the queue lives inside the run directory) and produces manifests whose
:func:`~repro.experiments.cache.manifest_fingerprint` is identical to a
serial pool run's.  Both backends share one copy of each step, defined
here: the resume plan (:func:`resume_plan` — cells, resumed rows, replayed
failures, pending cells), the work units (:func:`build_units`) and their
executor (:func:`execute_unit`), and the result assembly
(:func:`finish_run`).
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass
from typing import Any, Iterator

from repro.experiments.cache import CacheWriter, ResultCache
from repro.experiments.faults import FAULT_ENV
from repro.experiments.results import CellFailure, CellResult, ExperimentResult
from repro.experiments.solvers import (
    execute_cell,
    execute_simulation_group,
    simulation_batch_groups,
    warm_shared_inputs,
)
from repro.experiments.spec import Cell, ScenarioSpec
from repro.experiments.supervision import (
    FailureBudgetExceeded,
    SupervisedTask,
    SupervisionPolicy,
    run_supervised,
)

__all__ = [
    "EXECUTION_BACKENDS",
    "ExperimentRunner",
    "FailureBudgetExceeded",
    "ResumePlan",
    "WorkUnit",
    "build_units",
    "execute_unit",
    "finish_run",
    "resume_plan",
    "run_scenario",
]

_MAX_DEFAULT_JOBS = 8

#: Pluggable execution backends of :class:`ExperimentRunner`.
EXECUTION_BACKENDS = ("pool", "fleet")


@dataclass(frozen=True)
class ResumePlan:
    """What a run of one spec still has to do, given its cache entry.

    ``resumed`` holds the verified rows the entry already has, ``replayed``
    the failures a killed run recorded (they are carried over, not
    recomputed), and ``pending`` every other cell, in grid order.
    """

    cells: list[Cell]
    resumed: dict[str, CellResult]
    replayed: tuple[CellFailure, ...]
    pending: list[Cell]


def resume_plan(
    cache: ResultCache | None, spec: ScenarioSpec, force: bool = False
) -> ResumePlan:
    """The resume plan of ``spec``: everything is pending without a cache,
    with ``force`` or without a usable entry."""
    cells = spec.cells()
    state = None if cache is None or force else cache.load_resume_state(spec)
    resumed: dict[str, CellResult] = {}
    replayed: tuple[CellFailure, ...] = ()
    if state is not None:
        keys = {cell.key for cell in cells}
        resumed = {key: row for key, row in state.rows.items() if key in keys}
        if state.status == "partial":
            # The writing run was killed *after* these cells burned their
            # retry budget: replay the records instead of recomputing cells
            # that may well hang or crash again.  A run that *finished* with
            # failures is retried instead: its failed cells stay pending.
            replayed = tuple(f for f in state.failures if f.key in keys)
    settled = set(resumed) | {failure.key for failure in replayed}
    pending = [cell for cell in cells if cell.key not in settled]
    return ResumePlan(cells, resumed, replayed, pending)


def finish_run(
    spec: ScenarioSpec,
    plan: ResumePlan,
    writer: CacheWriter | None,
    computed: dict[str, CellResult],
    failures: dict[str, CellFailure],
    elapsed: float,
    cells_retried: int,
    **meta: Any,
) -> ExperimentResult:
    """Assemble the run's :class:`ExperimentResult` and finalize its manifest.

    Rows and failures come back in grid order; a computed row supersedes a
    failure of the same key.  ``meta`` adds backend-specific entries.
    """
    rows_by_key = {**plan.resumed, **computed}
    failures_by_key = {failure.key: failure for failure in plan.replayed}
    failures_by_key.update(failures)
    settled_failures = tuple(
        failures_by_key[cell.key] for cell in plan.cells
        if cell.key in failures_by_key and cell.key not in rows_by_key
    )
    result = ExperimentResult(
        name=spec.name,
        spec=spec.to_dict(),
        spec_hash=spec.hash(),
        rows=tuple(rows_by_key[c.key] for c in plan.cells if c.key in rows_by_key),
        elapsed_seconds=elapsed,
        meta={
            "cells_total": len(plan.cells),
            "cells_computed": len(computed),
            "cells_from_cache": len(plan.resumed),
            "cells_failed": len(settled_failures),
            "cells_retried": cells_retried,
            "artifacts_written": writer.artifacts_written if writer else 0,
            "artifact_bytes_written": writer.bytes_written if writer else 0,
            **meta,
        },
        failures=settled_failures,
    )
    if writer is not None:
        writer.finalize(elapsed)
    return result


@dataclass(frozen=True)
class WorkUnit:
    """One work unit: a single cell or a simulation replication group.

    The id is content-addressed (a digest of the covered cell keys), so the
    same pending set always yields the same fleet queue files — a resumed
    campaign recognises the previous campaign's commits.
    """

    id: str
    kind: str  # "cell" | "group"
    cells: tuple[Cell, ...]

    @property
    def keys(self) -> tuple[str, ...]:
        return tuple(cell.key for cell in self.cells)

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "kind": self.kind,
            "cells": [cell.to_dict() for cell in self.cells],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "WorkUnit":
        return cls(
            id=payload["id"],
            kind=payload["kind"],
            cells=tuple(Cell.from_dict(d) for d in payload["cells"]),
        )


def _unit_id(keys: tuple[str, ...]) -> str:
    return "u" + hashlib.sha256("\n".join(keys).encode("utf-8")).hexdigest()[:16]


def build_units(spec: ScenarioSpec, pending: list[Cell]) -> list[WorkUnit]:
    """Decompose pending cells into work units.

    Every pending replication of a simulation grid point is one unit (one
    replication-set call), everything else is a unit per cell.  A seed's
    result does not depend on its set, so resumed runs (whose groups hold
    only the replications a previous run did not finish) reproduce the
    original rows bit-identically.
    """
    groups, singles = simulation_batch_groups(spec, pending)
    units = []
    for group in groups:
        keys = tuple(cell.key for cell in group)
        units.append(WorkUnit(id=_unit_id(keys), kind="group", cells=tuple(group)))
    for cell in singles:
        units.append(WorkUnit(id=_unit_id((cell.key,)), kind="cell", cells=(cell,)))
    return units


def execute_unit(spec: ScenarioSpec, unit: WorkUnit) -> list[tuple[str, CellResult]]:
    """Compute one work unit's rows, keyed by cell key (every backend)."""
    if unit.kind == "group":
        return execute_simulation_group(spec, list(unit.cells))
    cell = unit.cells[0]
    return [(cell.key, execute_cell(spec, cell))]


def _execute_payload(payload) -> list[tuple[str, CellResult]]:
    """Pool worker entry point; reconstructs the spec and unit from plain dicts."""
    spec_dict, unit_dict, keep_artifacts = payload
    rows = execute_unit(ScenarioSpec.from_dict(spec_dict), WorkUnit.from_dict(unit_dict))
    return _strip(rows, keep_artifacts)


def _strip(rows: list[tuple[str, CellResult]], keep_artifacts: bool):
    if keep_artifacts:
        return rows
    return [(key, row.without_artifact()) for key, row in rows]


class ExperimentRunner:
    """Executes scenario grids; optionally parallel, supervised and cached.

    Parameters
    ----------
    cache_dir:
        Directory of the on-disk run-directory cache; ``None`` disables
        caching (and with it resume-from-partial).
    jobs:
        Worker processes for the fan-out.  ``None`` picks
        ``min(cpu_count, 8, number of work units)``; ``1`` forces serial
        execution in-process.
    keep_artifacts:
        Keep decoded per-cell artifacts (e.g. full testbed results) on
        freshly computed rows.  Independent of caching: artifact side-files
        are written whenever a cache is configured, and cache-served rows
        always carry lazy artifact refs.
    supervision:
        Knobs of the supervision envelope (per-cell timeout, retries,
        failure budget).  ``None`` uses the default
        :class:`SupervisionPolicy` for parallel runs and leaves serial runs
        unsupervised (exceptions propagate) unless ``REPRO_FAULT_INJECT``
        is set.
    backend:
        ``"pool"`` (default) — supervisor-owned worker processes;
        ``"fleet"`` — the distributed work-queue backend of
        :mod:`repro.experiments.fleet` (requires ``cache_dir``; the queue
        lives inside the run directory).  The per-cell timeout, retries and
        failure budget of ``supervision`` carry over unchanged.
    fleet:
        Full :class:`~repro.experiments.fleet.FleetPolicy` for the fleet
        backend; ``None`` derives one from ``jobs`` and ``supervision``
        (:meth:`~repro.experiments.fleet.FleetPolicy.from_supervision`).
    """

    def __init__(
        self,
        cache_dir: str | os.PathLike | None = None,
        jobs: int | None = None,
        keep_artifacts: bool = False,
        supervision: SupervisionPolicy | None = None,
        backend: str = "pool",
        fleet=None,
    ) -> None:
        if jobs is not None and jobs < 1:
            raise ValueError("jobs must be >= 1")
        if backend not in EXECUTION_BACKENDS:
            raise ValueError(
                f"unknown backend {backend!r}; expected one of {EXECUTION_BACKENDS}"
            )
        if backend == "fleet" and cache_dir is None:
            raise ValueError(
                "the fleet backend needs a cache directory: its work queue "
                "lives inside the run directory"
            )
        self.cache = ResultCache(cache_dir) if cache_dir is not None else None
        self.jobs = jobs
        self.keep_artifacts = keep_artifacts
        self.supervision = supervision
        self.backend = backend
        self.fleet = fleet

    def run(self, spec: ScenarioSpec, force: bool = False) -> ExperimentResult:
        """Run (or load, or resume) the scenario; ``force=True`` recomputes.

        Raises :class:`FailureBudgetExceeded` when more cells fail
        permanently than the policy's ``max_failures`` allows; the cache
        entry then stays ``partial`` with both the completed rows and the
        failure records persisted, so a later run resumes instead of
        starting over.
        """
        if self.backend == "fleet":
            return self._run_fleet(spec, force)
        if self.cache is not None and not force:
            cached = self.cache.load(spec)
            if cached is not None:
                return cached
        plan = resume_plan(self.cache, spec, force)
        started = time.perf_counter()
        writer = (
            self.cache.writer(spec, resumed=plan.resumed, failures=plan.replayed)
            if self.cache is not None else None
        )
        computed: dict[str, CellResult] = {}
        failures: dict[str, CellFailure] = {}
        retried = 0
        try:
            for event, body in self._stream(spec, plan.pending):
                if event == "rows":
                    for key, row in body:
                        if writer is not None:
                            row = writer.add(key, row, keep_in_memory=self.keep_artifacts)
                        computed[key] = row
                elif event == "retry":
                    retried += len(body)
                else:  # "failures"
                    for failure in body:
                        failures[failure.key] = failure
                        if writer is not None:
                            writer.add_failure(failure)
        except BaseException:
            # KeyboardInterrupt, FailureBudgetExceeded, ...: leave one
            # resumable partial manifest holding everything journaled so far.
            if writer is not None:
                writer.write_partial(time.perf_counter() - started)
            raise
        return finish_run(spec, plan, writer, computed, failures,
                          time.perf_counter() - started, cells_retried=retried)

    # ------------------------------------------------------------------
    def _run_fleet(self, spec: ScenarioSpec, force: bool) -> ExperimentResult:
        # Imported lazily: the fleet module builds on this one.
        from repro.experiments.fleet import FleetPolicy, run_fleet_campaign

        policy = self.fleet or FleetPolicy.from_supervision(self.supervision, self.jobs)
        return run_fleet_campaign(self.cache, spec, policy, force=force)

    # ------------------------------------------------------------------
    def _stream(
        self, spec: ScenarioSpec, cells: list[Cell]
    ) -> Iterator[tuple[str, Any]]:
        """Yield supervision events as work units settle (any order).

        Events mirror :func:`run_supervised`: ``("rows", [(key, row), ...])``,
        ``("retry", keys)``, ``("failures", [CellFailure, ...])``.  The
        unsupervised serial path only ever emits ``rows``.
        """
        # Persisting artifacts requires them to survive the worker boundary;
        # without a cache, stripping them early keeps serial runs lean.
        keep = self.keep_artifacts or self.cache is not None
        # Whole replication sets of simulation grid points are one work unit
        # each — one task instead of R.
        units = build_units(spec, cells)
        if not units:
            return
        jobs = self._effective_jobs(len(units))
        supervised = (
            self.supervision is not None
            or bool(os.environ.get(FAULT_ENV))
            or jobs > 1
        )
        if not supervised:
            for unit in units:
                yield "rows", _strip(execute_unit(spec, unit), keep)
            return
        # Build the expensive shared inputs once here; forked workers inherit
        # the warmed caches instead of recomputing them per process.
        warm_shared_inputs(
            spec, [cell for unit in units if unit.kind == "cell" for cell in unit.cells]
        )
        spec_dict = spec.to_dict()
        tasks = [
            SupervisedTask(
                payload=(spec_dict, unit.to_dict(), keep),
                keys=unit.keys,
                cells=tuple(
                    (cell.key, cell.solver_label, cell.seed, cell.replication)
                    for cell in unit.cells
                ),
            )
            for unit in units
        ]
        yield from run_supervised(
            tasks, _execute_payload, self.supervision or SupervisionPolicy(), jobs
        )

    def _effective_jobs(self, num_units: int) -> int:
        if self.jobs is not None:
            return min(self.jobs, num_units)
        return max(1, min(os.cpu_count() or 1, _MAX_DEFAULT_JOBS, num_units))


def run_scenario(
    spec: ScenarioSpec,
    cache_dir: str | os.PathLike | None = None,
    jobs: int | None = None,
    keep_artifacts: bool = False,
    force: bool = False,
    supervision: SupervisionPolicy | None = None,
    backend: str = "pool",
) -> ExperimentResult:
    """One-call convenience wrapper around :class:`ExperimentRunner`."""
    runner = ExperimentRunner(
        cache_dir=cache_dir,
        jobs=jobs,
        keep_artifacts=keep_artifacts,
        supervision=supervision,
        backend=backend,
    )
    return runner.run(spec, force=force)
