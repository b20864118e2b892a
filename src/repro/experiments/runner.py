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

With a cache directory configured, every completed cell is written to the
run directory *as it arrives* (artifact side-files included, see
:mod:`repro.experiments.cache`), so a killed run leaves a valid partial
entry; the next run of the same spec resumes from it, re-executing only the
missing cells, and produces results bit-identical to an uninterrupted run.
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
— leased stateless workers sharing the run directory, safe against SIGKILL
of workers *and* supervisor.  The fleet backend requires a cache directory
(the queue lives inside the run directory) and produces manifests whose
:func:`~repro.experiments.cache.manifest_fingerprint` is identical to a
serial pool run's.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from typing import Any, Iterator

from repro.experiments.cache import ResultCache
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

__all__ = ["EXECUTION_BACKENDS", "ExperimentRunner", "FailureBudgetExceeded", "run_scenario"]

_MAX_DEFAULT_JOBS = 8

#: Pluggable execution backends of :class:`ExperimentRunner`.
EXECUTION_BACKENDS = ("pool", "fleet")


def _execute_payload(payload) -> list[tuple[str, CellResult]]:
    """Worker entry point; reconstructs the spec and cell(s) from plain dicts.

    A payload is one work unit: either a single cell (``"cell"``) or every
    pending replication of one simulation grid point (``"group"``), which
    runs as one replication set.
    """
    kind, spec_dict, body, keep_artifacts = payload
    spec = ScenarioSpec.from_dict(spec_dict)
    if kind == "group":
        rows = execute_simulation_group(spec, [Cell.from_dict(d) for d in body])
    else:
        cell = Cell.from_dict(body)
        rows = [(cell.key, execute_cell(spec, cell))]
    return [
        (key, row if keep_artifacts else row.without_artifact()) for key, row in rows
    ]


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
        lives inside the run directory).  Retries and the failure budget of
        ``supervision`` carry over; the per-cell timeout maps onto the
        fleet's lease timeout.
    fleet:
        Full :class:`~repro.experiments.fleet.FleetPolicy` for the fleet
        backend; ``None`` derives one from ``jobs`` and ``supervision``.
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
        use_cache = self.cache is not None
        if use_cache and not force:
            cached = self.cache.load(spec)
            if cached is not None:
                return cached

        cells = spec.cells()
        keys = {cell.key for cell in cells}
        resumed: dict[str, CellResult] = {}
        replayed: tuple[CellFailure, ...] = ()
        if use_cache and not force:
            state = self.cache.load_resume_state(spec)
            if state is not None:
                resumed = {key: row for key, row in state.rows.items() if key in keys}
                recorded = tuple(f for f in state.failures if f.key in keys)
                if recorded and state.status == "partial":
                    # The writing run was killed *after* these cells burned
                    # their retry budget: replay the records instead of
                    # recomputing cells that may well hang or crash again.
                    # A run that *finished* with failures is retried instead:
                    # its failed cells stay pending below.
                    replayed = recorded
        replayed_keys = {failure.key for failure in replayed}
        pending = [
            cell for cell in cells
            if cell.key not in resumed and cell.key not in replayed_keys
        ]

        started = time.perf_counter()
        writer = (
            self.cache.writer(spec, resumed=resumed, failures=replayed)
            if use_cache else None
        )
        rows_by_key = dict(resumed)
        failures_by_key = {failure.key: failure for failure in replayed}
        retried = 0
        # On FailureBudgetExceeded the writer is deliberately NOT finalized:
        # the entry stays "partial" with every completed row and failure
        # record already persisted by the streaming writes below.
        for event, body in self._stream(spec, pending):
            if event == "rows":
                for key, row in body:
                    if writer is not None:
                        row = writer.add(key, row, keep_in_memory=self.keep_artifacts)
                    rows_by_key[key] = row
                    failures_by_key.pop(key, None)
            elif event == "retry":
                retried += len(body)
            else:  # "failures"
                for failure in body:
                    failures_by_key[failure.key] = failure
                    if writer is not None:
                        writer.add_failure(failure)
        elapsed = time.perf_counter() - started

        failures = tuple(
            failures_by_key[cell.key] for cell in cells if cell.key in failures_by_key
        )
        result = ExperimentResult(
            name=spec.name,
            spec=spec.to_dict(),
            spec_hash=spec.hash(),
            rows=tuple(
                rows_by_key[cell.key] for cell in cells if cell.key in rows_by_key
            ),
            elapsed_seconds=elapsed,
            meta={
                "cells_total": len(cells),
                "cells_computed": len(rows_by_key) - len(resumed),
                "cells_from_cache": len(resumed),
                "cells_failed": len(failures),
                "cells_retried": retried,
                "artifacts_written": writer.artifacts_written if writer else 0,
                "artifact_bytes_written": writer.bytes_written if writer else 0,
            },
            failures=failures,
        )
        if writer is not None:
            writer.finalize(elapsed)
        return result

    # ------------------------------------------------------------------
    def _run_fleet(self, spec: ScenarioSpec, force: bool) -> ExperimentResult:
        # Imported lazily: fleet pulls in this module's solver imports via
        # its own path, and most runs never need the distributed machinery.
        from repro.experiments.fleet import FleetPolicy, run_fleet_campaign

        policy = self.fleet
        if policy is None:
            supervision = self.supervision or SupervisionPolicy()
            defaults = FleetPolicy()
            policy = FleetPolicy(
                workers=self.jobs or defaults.workers,
                lease_timeout=supervision.cell_timeout or defaults.lease_timeout,
                max_attempts=1 + supervision.retries,
                max_failures=supervision.max_failures,
                backoff_base=supervision.backoff_base,
                backoff_cap=supervision.backoff_cap,
            )
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
        if not cells:
            return
        # Persisting artifacts requires them to survive the worker boundary;
        # without a cache, stripping them early keeps serial runs lean.
        keep = self.keep_artifacts or self.cache is not None
        # Whole replication sets of simulation grid points are one work unit
        # each — one task instead of R.
        groups, singles = simulation_batch_groups(spec, cells)
        jobs = self._effective_jobs(len(groups) + len(singles))
        supervised = (
            self.supervision is not None
            or bool(os.environ.get(FAULT_ENV))
            or jobs > 1
        )
        if not supervised:
            for group in groups:
                rows = execute_simulation_group(spec, group)
                yield "rows", [
                    (key, row if keep else row.without_artifact()) for key, row in rows
                ]
            for cell in singles:
                row = execute_cell(spec, cell)
                yield "rows", [(cell.key, row if keep else row.without_artifact())]
            return
        # Build the expensive shared inputs once here; forked workers inherit
        # the warmed caches instead of recomputing them per process.
        warm_shared_inputs(spec, singles)
        spec_dict = spec.to_dict()
        tasks = []
        for group in groups:
            tasks.append(SupervisedTask(
                payload=("group", spec_dict, [cell.to_dict() for cell in group], keep),
                keys=tuple(cell.key for cell in group),
                cells=tuple(
                    (cell.key, cell.solver_label, cell.seed, cell.replication)
                    for cell in group
                ),
            ))
        for cell in singles:
            tasks.append(SupervisedTask(
                payload=("cell", spec_dict, cell.to_dict(), keep),
                keys=(cell.key,),
                cells=((cell.key, cell.solver_label, cell.seed, cell.replication),),
            ))
        policy = self.supervision or SupervisionPolicy()
        yield from run_supervised(
            tasks, _execute_payload, policy, jobs, context=_pool_context()
        )

    def _effective_jobs(self, num_units: int) -> int:
        if self.jobs is not None:
            return min(self.jobs, num_units)
        return max(1, min(os.cpu_count() or 1, _MAX_DEFAULT_JOBS, num_units))


def _pool_context():
    """Prefer ``fork`` (cheap, inherits ``sys.path``) where available."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else None)


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
