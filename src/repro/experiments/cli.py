"""Command-line interface of the experiment engine.

::

    python -m repro.experiments list
    python -m repro.experiments show fig4
    python -m repro.experiments validate scenarios/flash_crowd.json [...]
    python -m repro.experiments run fig4 [--jobs N] [--force] [--no-cache]
                                         [--cache-dir DIR] [--json]
                                         [--cell-timeout S] [--retries N]
                                         [--max-failures N]
    python -m repro.experiments run scenarios/flash_crowd.json [...]
    python -m repro.experiments sweep fig9 --populations 50,100,200
                                         [--think-times 0.5,1.0]
                                         [--solvers ctmc,mva] [--tier TIER] [...]
    python -m repro.experiments export table1 [--format csv] [--output FILE]
                                         [--artifacts DIR] [--cache-dir DIR]
    python -m repro.experiments cache ls [--cache-dir DIR]
    python -m repro.experiments cache rm <scenario> [--cache-dir DIR]
    python -m repro.experiments cache gc [--max-age-days D] [--cache-dir DIR]
    python -m repro.experiments fleet submit fig4 [--force] [--workers N]
                                         [--lease-timeout S] [--retries N]
                                         [--max-failures N] [--cache-dir DIR]
    python -m repro.experiments fleet work fig4 [--workers N] [...]
    python -m repro.experiments fleet status fig4 [--cache-dir DIR]
    python -m repro.experiments fleet fetch fig4 [--json] [--cache-dir DIR]
    python -m repro.experiments fleet workers fig4 [--cache-dir DIR]
    python -m repro.experiments service run service.json [--cycles N]
                                         [--state-dir DIR] [--reset] [--json]
    python -m repro.experiments service status service.json [--json] [...]
    python -m repro.experiments service forecast service.json [--json] [...]

``show``, ``run`` and ``export`` accept either a registered scenario name or
a path to a *scenario pack* — a JSON spec file (anything containing a path
separator or ending in ``.json`` is treated as a path; see
:mod:`repro.experiments.packs`).  ``validate`` schema-checks pack files
without running them.  ``run`` executes (or loads from the cache) a
registered scenario and prints
one table per solver, with the per-cell wall-clock time and peak worker RSS
in the last columns; the summary line reports how many cells were computed
vs served from the cache, how many artifact bytes were written, and the
largest per-cell memory footprint.  ``sweep`` derives an ad-hoc grid from a
registered workload — overriding its population axis, think time, solver set
and (for exact-CTMC cells) the solver tier — and runs it through the same
engine (one derived scenario per requested think time).  ``export`` pulls a
*cached* run straight to CSV without re-solving anything: the scalar-metrics
table on stdout or ``--output``, and with ``--artifacts DIR`` one CSV per
artifact-bearing cell (e.g. the Table-1 response-time distributions).
``cache`` inspects and maintains the on-disk run-directory store: ``ls``
reports entry sizes and ages, ``rm`` drops every entry of one scenario, and
``gc`` prunes entries whose spec hash no longer matches the registered
scenario, corrupt remnants, orphan side-files, quarantined payloads and
(with ``--max-age-days``) old entries.  The cache lives in
``./.experiments-cache`` unless overridden by ``--cache-dir`` or the
``REPRO_EXPERIMENTS_CACHE`` environment variable.

``run`` and ``sweep`` expose the supervision envelope of the runner (see
:mod:`repro.experiments.supervision`): ``--cell-timeout`` kills a work
unit's worker after that many wall-clock seconds per attempt, ``--retries``
bounds the re-attempts of a crashed/hung/erroring unit, and
``--max-failures`` is the budget of cells allowed to fail permanently before
the run aborts.  **Exit-code contract**: ``0`` — every cell succeeded (fresh,
resumed or cache-served); ``3`` — the run finished but some cells failed
permanently within the ``--max-failures`` budget (a *partial result*; the
completed rows are cached and printed, the failures are listed and recorded
in the run manifest); ``1`` — the failure budget was exceeded and the run
aborted (completed rows remain cached for resume); ``2`` — usage errors.

``run --backend fleet`` routes the same contract through the
**crash-tolerant distributed backend** (:mod:`repro.experiments.fleet`):
``--workers`` leased stateless worker processes share the run directory
through an on-disk work queue, survive SIGKILL of any worker, and drain
gracefully (resumable ``status: "partial"`` manifest, leases released) when
the supervisor receives SIGINT/SIGTERM — which exits ``1`` like an exceeded
budget.  The ``fleet`` subcommands operate the queue asynchronously:
``submit`` enqueues a campaign without running anything, any number of
``work`` processes (possibly on other hosts sharing the cache directory)
drain it, ``status``/``workers`` observe progress and worker heartbeats,
and ``fetch`` merges committed shards into the manifest without a
supervisor.  ``status`` and ``fetch`` **extend the exit-code contract**
with ``4`` — the campaign exists but has unsettled units (in progress);
they exit ``1`` when no campaign (and no complete cached run) exists,
``0``/``3`` once results are merged, exactly like ``run``.

``service`` operates the **self-healing live what-if service**
(:mod:`repro.service`): ``run`` drives the ingest → fit → solve daemon
over streaming trace files (SIGTERM/SIGINT drain to a bit-identical
resumable checkpoint) and exits with the final health status, ``status``
reads the atomic health snapshot, and ``forecast`` prints the served
what-if table.  The health statuses map onto the same contract — ``0``
healthy / fresh, ``3`` degraded / serving a stale last-known-good
forecast, ``4`` stalled (no trace progress, mirroring fleet's
"in progress"), ``1`` nothing to report yet, ``2`` usage errors.
"""

from __future__ import annotations

import argparse
import csv
import sys
from dataclasses import replace

from repro.experiments.cache import ResultCache, default_cache_dir
from repro.experiments.fleet import (
    CampaignInterrupted,
    FleetPolicy,
    campaign_status,
    fetch_campaign,
    submit_campaign,
)
from repro.experiments.packs import (
    PackValidationError,
    load_pack,
    looks_like_pack_path,
)
from repro.experiments.registry import (
    get_scenario,
    list_scenarios,
    scenario_descriptions,
)
from repro.experiments.results import ExperimentResult
from repro.experiments.runner import (
    EXECUTION_BACKENDS,
    ExperimentRunner,
    FailureBudgetExceeded,
)
from repro.experiments.supervision import SupervisionPolicy
from repro.experiments.spec import (
    SOLVER_KINDS,
    ScenarioSpec,
    SolverSpec,
    SyntheticWorkload,
    TestbedWorkload,
)
from repro.queueing.ctmc import SOLVER_TIERS

__all__ = [
    "main",
    "format_table",
    "build_sweep_spec",
]

_PREFERRED_METRICS = (
    "throughput",
    "throughput_lower",
    "throughput_upper",
    "front_utilization",
    "db_utilization",
    "mean_response_time",
    "response_time",
    "p95_response_time",
)


def format_table(headers, rows) -> str:
    """Plain-text right-aligned table (shared with the benchmark output)."""
    rows = [[str(cell) for cell in row] for row in rows]
    widths = [
        max(len(str(header)), *(len(row[i]) for row in rows)) if rows else len(str(header))
        for i, header in enumerate(headers)
    ]
    lines = ["  ".join(str(h).rjust(w) for h, w in zip(headers, widths))]
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError("must be > 0")
    return value


def _int_list(text: str) -> tuple[int, ...]:
    try:
        values = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated integer list: {text!r}")
    if not values:
        raise argparse.ArgumentTypeError("expected at least one value")
    return values


def _float_list(text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated number list: {text!r}")
    if not values:
        raise argparse.ArgumentTypeError("expected at least one value")
    return values


def _solver_list(text: str) -> tuple[str, ...]:
    kinds = tuple(part.strip() for part in text.split(",") if part.strip())
    unknown = [kind for kind in kinds if kind not in SOLVER_KINDS]
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown solver kinds {unknown}; expected a subset of {SOLVER_KINDS}"
        )
    if not kinds:
        raise argparse.ArgumentTypeError("expected at least one solver kind")
    return kinds


def _add_runner_arguments(command) -> None:
    command.add_argument(
        "--jobs", type=_positive_int, default=None, help="worker processes (default: auto)"
    )
    command.add_argument("--force", action="store_true", help="re-run even on a cache hit")
    command.add_argument("--no-cache", action="store_true", help="disable the result cache")
    command.add_argument(
        "--cache-dir",
        default=None,
        help="cache directory (default: $REPRO_EXPERIMENTS_CACHE or ./.experiments-cache)",
    )
    command.add_argument("--json", action="store_true", help="print the raw result JSON")
    command.add_argument(
        "--cell-timeout",
        type=_positive_float,
        default=None,
        metavar="SECONDS",
        help="kill a work unit's worker after this many wall-clock seconds "
        "per attempt (default: no timeout)",
    )
    command.add_argument(
        "--retries",
        type=_nonnegative_int,
        default=None,
        help="re-attempts of a crashed/hung/erroring work unit before it "
        "becomes a permanent failure (default: 2)",
    )
    command.add_argument(
        "--max-failures",
        type=_nonnegative_int,
        default=None,
        help="cells allowed to fail permanently before the run aborts; "
        "within the budget the run degrades to a partial result and exits 3 "
        "(default: 0 — any permanent failure aborts)",
    )
    command.add_argument(
        "--backend",
        choices=EXECUTION_BACKENDS,
        default="pool",
        help="execution backend: 'pool' — supervisor-owned worker processes "
        "(default); 'fleet' — leased stateless workers over the on-disk "
        "work queue (crash-tolerant, requires the cache)",
    )
    _add_fleet_policy_arguments(command)


def _add_fleet_policy_arguments(command) -> None:
    command.add_argument(
        "--workers",
        type=_positive_int,
        default=None,
        help="fleet worker processes (fleet backend; default: 2)",
    )
    command.add_argument(
        "--lease-timeout",
        type=_positive_float,
        default=None,
        metavar="SECONDS",
        help="seconds without a lease heartbeat before a fleet unit is "
        "reaped and requeued (fleet backend; default: 30)",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Run declarative capacity-planning experiment scenarios.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("list", help="list registered scenarios")

    show = commands.add_parser("show", help="print a scenario spec as JSON")
    show.add_argument("scenario", help="registered scenario name or path to a pack .json file")

    validate = commands.add_parser(
        "validate", help="schema-validate scenario-pack JSON files"
    )
    validate.add_argument(
        "packs", nargs="+", metavar="PACK", help="path(s) to scenario-pack .json files"
    )

    run = commands.add_parser("run", help="run (or load from cache) a scenario")
    run.add_argument("scenario", help="registered scenario name or path to a pack .json file")
    _add_runner_arguments(run)

    sweep = commands.add_parser(
        "sweep", help="ad-hoc population/think-time grid over a registered workload"
    )
    sweep.add_argument("scenario", help="registered scenario providing the base workload")
    sweep.add_argument(
        "--populations",
        type=_int_list,
        required=True,
        help="comma-separated population axis, e.g. 50,100,200",
    )
    sweep.add_argument(
        "--think-times",
        type=_float_list,
        default=None,
        help="comma-separated think times; one derived scenario per value "
        "(default: the workload's own think time)",
    )
    sweep.add_argument(
        "--solvers",
        type=_solver_list,
        default=None,
        help="comma-separated solver kinds, e.g. ctmc,mva,bounds "
        "(default: the base scenario's solvers)",
    )
    sweep.add_argument(
        "--tier",
        choices=SOLVER_TIERS,
        default=None,
        help="force the exact-CTMC solver tier for ctmc cells "
        "(default: size-based selection)",
    )
    _add_runner_arguments(sweep)

    export = commands.add_parser(
        "export", help="export a cached run to CSV without re-solving"
    )
    export.add_argument("scenario", help="registered scenario name or path to a pack .json file")
    export.add_argument(
        "--format", choices=("csv",), default="csv", help="output format (csv)"
    )
    export.add_argument(
        "--output", default=None, help="metrics CSV path (default: stdout)"
    )
    export.add_argument(
        "--artifacts",
        default=None,
        metavar="DIR",
        help="also write one CSV per artifact-bearing cell into DIR "
        "(e.g. response-time distributions)",
    )
    export.add_argument(
        "--cache-dir",
        default=None,
        help="cache directory (default: $REPRO_EXPERIMENTS_CACHE or ./.experiments-cache)",
    )

    cache = commands.add_parser("cache", help="inspect and maintain the result cache")
    cache_commands = cache.add_subparsers(dest="cache_command", required=True)
    cache_ls = cache_commands.add_parser("ls", help="list cache entries with sizes and ages")
    cache_rm = cache_commands.add_parser("rm", help="remove every entry of one scenario")
    cache_rm.add_argument("scenario", help="scenario name whose entries to remove")
    cache_gc = cache_commands.add_parser(
        "gc", help="prune stale spec-hashes, corrupt entries and orphan side-files"
    )
    cache_gc.add_argument(
        "--max-age-days",
        type=float,
        default=None,
        help="additionally remove entries older than this many days",
    )
    for command in (cache_ls, cache_rm, cache_gc):
        command.add_argument(
            "--cache-dir",
            default=None,
            help="cache directory (default: $REPRO_EXPERIMENTS_CACHE or ./.experiments-cache)",
        )

    fleet = commands.add_parser(
        "fleet", help="crash-tolerant distributed campaigns over the shared cache"
    )
    fleet_commands = fleet.add_subparsers(dest="fleet_command", required=True)
    fleet_submit = fleet_commands.add_parser(
        "submit", help="enqueue a campaign (no workers are started)"
    )
    fleet_work = fleet_commands.add_parser(
        "work", help="run a supervisor with local leased workers until the "
        "campaign settles (attaches to a submitted campaign, or creates one)"
    )
    fleet_status = fleet_commands.add_parser(
        "status", help="campaign progress; exits 4 while units are unsettled"
    )
    fleet_fetch = fleet_commands.add_parser(
        "fetch", help="merge committed shards into the manifest without a "
        "supervisor; exits 4 while the campaign is in progress"
    )
    fleet_workers = fleet_commands.add_parser(
        "workers", help="list worker heartbeats of a campaign"
    )
    for command in (fleet_submit, fleet_work, fleet_status, fleet_fetch, fleet_workers):
        command.add_argument(
            "scenario", help="registered scenario name or path to a pack .json file"
        )
        command.add_argument(
            "--cache-dir",
            default=None,
            help="cache directory (default: $REPRO_EXPERIMENTS_CACHE or ./.experiments-cache)",
        )
    for command in (fleet_submit, fleet_work):
        command.add_argument(
            "--force", action="store_true",
            help="discard committed units and recompute the whole grid",
        )
        command.add_argument(
            "--retries",
            type=_nonnegative_int,
            default=None,
            help="re-attempts of a crashed/stalled/erroring unit (default: 2)",
        )
        command.add_argument(
            "--max-failures",
            type=_nonnegative_int,
            default=None,
            help="cells allowed to fail permanently before the campaign "
            "aborts (default: 0)",
        )
        _add_fleet_policy_arguments(command)
    fleet_work.add_argument(
        "--json", action="store_true", help="print the raw result JSON"
    )
    fleet_fetch.add_argument(
        "--json", action="store_true", help="print the raw result JSON"
    )

    service = commands.add_parser(
        "service",
        help="self-healing live what-if service over streaming traces",
    )
    service_commands = service.add_subparsers(dest="service_command", required=True)
    service_run = service_commands.add_parser(
        "run",
        help="run the ingest→fit→solve daemon; SIGTERM/SIGINT drain with a "
        "resumable checkpoint; exits with the final health status "
        "(0 healthy, 3 degraded, 4 stalled)",
    )
    service_status = service_commands.add_parser(
        "status",
        help="print the service health snapshot; exits 0 healthy, 3 "
        "degraded, 4 stalled, 1 when no snapshot exists",
    )
    service_forecast = service_commands.add_parser(
        "forecast",
        help="print the served what-if forecast; exits 0 fresh, 3 stale "
        "(last-known-good), 1 when nothing has been promoted yet",
    )
    for command in (service_run, service_status, service_forecast):
        command.add_argument("config", help="path to a service config .json file")
        command.add_argument(
            "--state-dir",
            default=None,
            help="service state directory (default: "
            "<cache-dir>/service-<name> beside the experiment cache)",
        )
        command.add_argument(
            "--cache-dir",
            default=None,
            help="cache directory anchoring the default state dir "
            "(default: $REPRO_EXPERIMENTS_CACHE or ./.experiments-cache)",
        )
        command.add_argument(
            "--json", action="store_true", help="print the raw JSON payload"
        )
    service_run.add_argument(
        "--cycles",
        type=_positive_int,
        default=None,
        help="stop after this many cycles (default: run until drained)",
    )
    service_run.add_argument(
        "--reset",
        action="store_true",
        help="discard the existing checkpoint, registry and health snapshot "
        "(required to run a changed config over old state)",
    )
    return parser


def _cmd_list() -> int:
    descriptions = scenario_descriptions()
    width = max(len(name) for name in descriptions)
    for name, description in descriptions.items():
        print(f"{name.ljust(width)}  {description}")
    return 0


def _cmd_show(spec) -> int:
    print(spec.canonical_json())
    print(f"# hash: {spec.hash()}  cells: {len(spec.cells())}", file=sys.stderr)
    return 0


def _metric_columns(result: ExperimentResult, solver: str) -> list[str]:
    produced: dict[str, None] = {}
    for row in result.select(solver=solver):
        for metric in row.metrics:
            produced.setdefault(metric, None)
    ordered = [metric for metric in _PREFERRED_METRICS if metric in produced]
    ordered += [metric for metric in produced if metric not in ordered]
    return ordered[:6]


def _print_result(result: ExperimentResult) -> None:
    axis_names: dict[str, None] = {}
    for row in result.rows:
        for name in row.params:
            axis_names.setdefault(name, None)
    axes = list(axis_names)
    replicated = any(row.replication > 0 for row in result.rows)
    show_rss = any(row.meta.get("peak_rss_mb") for row in result.rows)
    show_iters = any(
        row.meta.get("krylov_iterations") is not None for row in result.rows
    )
    for solver in result.solvers():
        metrics = _metric_columns(result, solver)
        headers = axes + (["rep"] if replicated else []) + metrics + ["seconds"]
        if show_iters:
            headers.append("iters")
        if show_rss:
            headers.append("peak MB")
        rows = []
        for row in result.select(solver=solver):
            line = [row.params.get(axis, "-") for axis in axes]
            if replicated:
                line.append(row.replication)
            line += [
                f"{row.metrics[m]:.4g}" if m in row.metrics else "-" for m in metrics
            ]
            line.append(f"{row.elapsed_seconds:.3f}")
            if show_iters:
                iterations = row.meta.get("krylov_iterations")
                line.append(str(iterations) if iterations is not None else "-")
            if show_rss:
                rss = row.meta.get("peak_rss_mb")
                line.append(f"{rss:.0f}" if rss is not None else "-")
            rows.append(line)
        print(f"--- solver: {solver} ---")
        print(format_table(headers, rows))
        print()


def _format_bytes(num_bytes: float) -> str:
    for unit in ("B", "KiB", "MiB", "GiB"):
        if num_bytes < 1024.0 or unit == "GiB":
            return f"{num_bytes:.1f} {unit}" if unit != "B" else f"{int(num_bytes)} B"
        num_bytes /= 1024.0
    return f"{num_bytes:.1f} GiB"  # pragma: no cover - loop always returns


def _supervision_from_args(args) -> SupervisionPolicy | None:
    """A policy when any supervision flag was given, else ``None`` (defaults)."""
    if args.cell_timeout is None and args.retries is None and args.max_failures is None:
        return None
    defaults = SupervisionPolicy()
    return SupervisionPolicy(
        cell_timeout=args.cell_timeout,
        retries=args.retries if args.retries is not None else defaults.retries,
        max_failures=(
            args.max_failures if args.max_failures is not None else defaults.max_failures
        ),
    )


def _fleet_policy_from_args(args) -> FleetPolicy:
    """Fleet knobs from CLI flags; unset flags keep the policy defaults.

    ``--jobs`` and ``--cell-timeout`` (present on ``run``/``sweep`` but not
    on the ``fleet`` subcommands) double as fallbacks for ``--workers`` and
    ``--lease-timeout``, so ``run --backend fleet --jobs 4`` does what it
    reads like.
    """
    defaults = FleetPolicy()
    retries = getattr(args, "retries", None)
    max_failures = getattr(args, "max_failures", None)
    workers = args.workers
    if workers is None:
        workers = getattr(args, "jobs", None) or defaults.workers
    lease_timeout = args.lease_timeout
    if lease_timeout is None:
        lease_timeout = getattr(args, "cell_timeout", None) or defaults.lease_timeout
    return FleetPolicy(
        workers=workers,
        lease_timeout=lease_timeout,
        max_attempts=1 + retries if retries is not None else defaults.max_attempts,
        max_failures=max_failures if max_failures is not None else defaults.max_failures,
    )


def _print_failures(result: ExperimentResult) -> None:
    if not result.failures:
        return
    print(f"--- failed cells ({len(result.failures)}) ---")
    rows = [
        (
            failure.key,
            failure.kind,
            failure.attempts,
            failure.message[:60] or "-",
        )
        for failure in result.failures
    ]
    print(format_table(["cell", "kind", "attempts", "message"], rows))
    print()


def _print_run_outcome(spec: ScenarioSpec, result: ExperimentResult, runner) -> None:
    source = "cache" if result.from_cache else f"computed in {result.elapsed_seconds:.1f}s"
    meta = result.meta
    accounting = ""
    if meta:
        accounting = (
            f"; {meta.get('cells_computed', 0)} computed, "
            f"{meta.get('cells_from_cache', 0)} cached"
        )
        if meta.get("cells_failed") or meta.get("cells_retried"):
            accounting += (
                f", {meta.get('cells_failed', 0)} failed, "
                f"{meta.get('cells_retried', 0)} retried"
            )
        accounting += (
            f", {_format_bytes(meta.get('artifact_bytes_written', 0))} of artifacts written"
        )
    peak = max(
        (row.meta.get("peak_rss_mb", 0.0) for row in result.rows), default=0.0
    )
    if peak:
        accounting += f"; peak worker RSS {peak:.0f} MB"
    print(f"scenario {spec.name} [{spec.hash()}]: {len(result.rows)} cells ({source}{accounting})")
    print()
    _print_result(result)
    _print_failures(result)
    if result.failures:
        print(
            f"partial result: {len(result.failures)} cell(s) failed permanently "
            "(recorded in the run manifest; re-running the scenario retries "
            "exactly those cells)"
        )
    if runner.cache is not None and not result.from_cache:
        print(f"cached at {runner.cache.path(spec)}")


def _runner_from_args(args) -> ExperimentRunner:
    """The runner of ``run``/``sweep``; ValueError when the flags conflict."""
    if args.backend == "fleet" and args.no_cache:
        raise ValueError(
            "--backend fleet needs the cache (its work queue lives in the run "
            "directory); drop --no-cache"
        )
    return ExperimentRunner(
        cache_dir=None if args.no_cache else (args.cache_dir or default_cache_dir()),
        jobs=args.jobs,
        supervision=_supervision_from_args(args),
        backend=args.backend,
        fleet=_fleet_policy_from_args(args) if args.backend == "fleet" else None,
    )


def _cmd_run(args, spec) -> int:
    try:
        runner = _runner_from_args(args)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    try:
        result = runner.run(spec, force=args.force)
    except FailureBudgetExceeded as error:
        print(f"error: {error}", file=sys.stderr)
        print(
            "aborted: completed cells remain cached; re-running the scenario "
            "resumes from them",
            file=sys.stderr,
        )
        return 1
    except CampaignInterrupted as error:
        print(f"interrupted: {error}", file=sys.stderr)
        return 1
    if args.json:
        print(result.to_json())
    else:
        _print_run_outcome(spec, result, runner)
    return 3 if result.failures else 0


def build_sweep_spec(
    base: ScenarioSpec,
    populations: tuple[int, ...],
    think_time: float | None = None,
    solvers: tuple[str, ...] | None = None,
    tier: str | None = None,
) -> ScenarioSpec:
    """Derive an ad-hoc sweep scenario from a registered one.

    The base workload keeps everything except the population axis (replaced
    by ``populations``), optionally the think time, and optionally the solver
    set (fresh default-option solvers of the requested kinds).  ``tier``
    forces the steady-state solver tier of every ``ctmc`` solver (stored in
    its options, so it participates in the spec hash).  The derived name
    encodes the overrides so cache entries of different sweeps never collide
    (the content hash would differ anyway — the name keeps the cache
    directory legible).
    """
    workload = base.workload
    if not isinstance(workload, (SyntheticWorkload, TestbedWorkload)):
        raise ValueError(
            f"scenario {base.name!r} has a {workload.kind!r} workload, which has no "
            "population axis to sweep"
        )
    if tier is not None and tier not in SOLVER_TIERS:
        raise ValueError(f"unknown solver tier {tier!r}; expected one of {SOLVER_TIERS}")
    populations = tuple(dict.fromkeys(int(n) for n in populations))
    if any(population < 1 for population in populations):
        raise ValueError(f"populations must be >= 1, got {populations}")
    changes: dict = {"populations": populations}
    name = f"{base.name}-sweep"
    if think_time is not None:
        changes["think_time"] = float(think_time)
        name += f"-z{think_time:g}"
    new_workload = replace(workload, **changes)
    if solvers is not None:
        solver_specs = tuple(SolverSpec(kind=kind) for kind in dict.fromkeys(solvers))
    else:
        solver_specs = base.solvers
    if tier is not None:
        solver_specs = tuple(
            replace(solver, options={**solver.options, "tier": tier})
            if solver.kind == "ctmc"
            else solver
            for solver in solver_specs
        )
        name += f"-{tier}"
    return ScenarioSpec(
        name=name,
        description=f"ad-hoc sweep derived from {base.name!r}",
        workload=new_workload,
        solvers=solver_specs,
        replication=base.replication,
    )


def _cmd_sweep(args, base: ScenarioSpec) -> int:
    think_times: tuple[float, ...] | None = args.think_times
    try:
        specs = [
            build_sweep_spec(base, args.populations, think_time, args.solvers, args.tier)
            for think_time in (think_times if think_times is not None else [None])
        ]
        runner = _runner_from_args(args)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    try:
        results = [runner.run(spec, force=args.force) for spec in specs]
    except FailureBudgetExceeded as error:
        print(f"error: {error}", file=sys.stderr)
        print(
            "aborted: completed cells remain cached; re-running the sweep "
            "resumes from them",
            file=sys.stderr,
        )
        return 1
    except CampaignInterrupted as error:
        print(f"interrupted: {error}", file=sys.stderr)
        return 1
    if args.json:
        if len(results) == 1:
            print(results[0].to_json())
        else:
            print("[" + ",\n".join(result.to_json() for result in results) + "]")
    else:
        for spec, result in zip(specs, results):
            _print_run_outcome(spec, result, runner)
    return 3 if any(result.failures for result in results) else 0


def _metric_union(result: ExperimentResult) -> list[str]:
    produced: dict[str, None] = {}
    for row in result.rows:
        for metric in row.metrics:
            produced.setdefault(metric, None)
    ordered = [metric for metric in _PREFERRED_METRICS if metric in produced]
    ordered += [metric for metric in produced if metric not in ordered]
    return ordered


def _export_metrics_csv(result: ExperimentResult, stream) -> int:
    """Write the scalar-metrics table of a cached run as CSV; returns rows."""
    axis_names: dict[str, None] = {}
    for row in result.rows:
        for name in row.params:
            axis_names.setdefault(name, None)
    axes = list(axis_names)
    metrics = _metric_union(result)
    writer = csv.writer(stream)
    writer.writerow(
        ["solver", "kind"] + axes + ["replication", "seed"] + metrics
        + ["elapsed_seconds", "peak_rss_mb"]
    )
    for row in result.rows:
        writer.writerow(
            [row.solver, row.kind]
            + [row.params.get(axis, "") for axis in axes]
            + [row.replication, row.seed]
            + [row.metrics.get(metric, "") for metric in metrics]
            + [row.elapsed_seconds, row.meta.get("peak_rss_mb", "")]
        )
    return len(result.rows)


def _artifact_series(artifact) -> dict[str, "list"]:
    """Flatten an artifact into named 1-D numeric series (columns)."""
    import numpy as np

    if isinstance(artifact, dict):
        series = {}
        for name, value in artifact.items():
            array = np.asarray(value)
            if array.ndim == 1 and array.dtype.kind in "fiu":
                series[name] = array.tolist()
        return series
    return {}


def _cell_slug(row) -> str:
    rendered = ",".join(f"{k}={row.params[k]}" for k in sorted(row.params))
    import re as _re

    return _re.sub(r"[^A-Za-z0-9._=,-]+", "_", f"{row.solver}_{rendered}_rep{row.replication}")


def _cmd_export(args, spec) -> int:
    from pathlib import Path

    from itertools import zip_longest

    cache = ResultCache(args.cache_dir or default_cache_dir())
    result = cache.load(spec)
    if result is None:
        print(
            f"error: no complete cached run for scenario {spec.name!r} "
            f"[{spec.hash()}] in {cache.directory}; run "
            f"`python -m repro.experiments run {spec.name}` first "
            "(export never re-solves)",
            file=sys.stderr,
        )
        return 1
    if args.output is None:
        rows = _export_metrics_csv(result, sys.stdout)
    else:
        with open(args.output, "w", newline="", encoding="utf-8") as stream:
            rows = _export_metrics_csv(result, stream)
        print(f"wrote {rows} rows to {args.output}", file=sys.stderr)
    if args.artifacts is not None:
        directory = Path(args.artifacts)
        directory.mkdir(parents=True, exist_ok=True)
        written = skipped = 0
        for row in result.rows:
            if not row.has_artifact:
                continue
            series = _artifact_series(row.load_artifact())
            if not series:
                skipped += 1
                continue
            path = directory / f"{_cell_slug(row)}.csv"
            with open(path, "w", newline="", encoding="utf-8") as stream:
                writer = csv.writer(stream)
                writer.writerow(series)
                for values in zip_longest(*series.values(), fillvalue=""):
                    writer.writerow(values)
            written += 1
        note = f" ({skipped} non-tabular artifacts skipped)" if skipped else ""
        print(f"wrote {written} artifact CSVs to {directory}{note}", file=sys.stderr)
    return 0


def _format_age(seconds: float) -> str:
    if seconds < 120:
        return f"{seconds:.0f}s"
    if seconds < 7200:
        return f"{seconds / 60:.0f}m"
    if seconds < 172800:
        return f"{seconds / 3600:.0f}h"
    return f"{seconds / 86400:.0f}d"


def _cmd_cache(args) -> int:
    cache = ResultCache(args.cache_dir or default_cache_dir())
    if args.cache_command == "ls":
        entries = cache.entries()
        if not entries:
            print(f"cache {cache.directory} is empty")
            return 0
        rows = [
            (
                info.name,
                info.spec_hash or "-",
                info.status,
                info.cells,
                info.artifacts,
                _format_bytes(info.total_bytes),
                _format_age(info.age_seconds),
            )
            for info in entries
        ]
        print(format_table(
            ["scenario", "spec hash", "status", "cells", "artifacts", "size", "age"], rows
        ))
        total = sum(info.total_bytes for info in entries)
        print(f"\n{len(entries)} entries, {_format_bytes(total)} in {cache.directory}")
        return 0
    if args.cache_command == "rm":
        removed = cache.remove(args.scenario)
        if not removed:
            print(f"no cache entries for scenario {args.scenario!r} in {cache.directory}")
            return 1
        freed = sum(info.total_bytes for info in removed)
        for info in removed:
            print(f"removed {info.path.name} ({_format_bytes(info.total_bytes)})")
        print(f"freed {_format_bytes(freed)}")
        return 0
    # gc: entries whose spec hash no longer matches the registered scenario
    # can never be served again — prune them along with corrupt remnants,
    # orphan side-files and (optionally) anything older than --max-age-days.
    current_hashes = {name: get_scenario(name).hash() for name in list_scenarios()}
    report = cache.gc(current_hashes=current_hashes, max_age_days=args.max_age_days)
    for name in report.removed_entries:
        print(f"removed {name}")
    print(
        f"gc: {len(report.removed_entries)} entries and {report.removed_orphans} orphan "
        f"side-files removed, {_format_bytes(report.freed_bytes)} freed"
    )
    return 0


def _print_campaign_status(status: dict) -> None:
    print(
        f"campaign at {status['entry']}: {status['done']}/{status['units']} "
        f"unit(s) done, {status['failed']} failed, {status['leased']} leased, "
        f"{status['pending']} pending"
    )


def _cmd_fleet(args, spec) -> int:
    """The async campaign verbs; see the module docstring's exit-code notes."""
    cache = ResultCache(args.cache_dir or default_cache_dir())
    if args.fleet_command == "submit":
        status = submit_campaign(
            cache, spec, _fleet_policy_from_args(args), force=args.force
        )
        if status.get("complete"):
            print(
                f"scenario {spec.name} [{spec.hash()}] is already complete in "
                f"the cache at {status['entry']}; nothing to enqueue "
                "(use --force to recompute)"
            )
            return 0
        _print_campaign_status(status)
        print(
            "drain it with `python -m repro.experiments fleet work "
            f"{args.scenario}` (repeatable, any host sharing the cache dir)"
        )
        return 0
    if args.fleet_command == "work":
        runner = ExperimentRunner(
            cache_dir=cache.directory,
            backend="fleet",
            fleet=_fleet_policy_from_args(args),
        )
        try:
            result = runner.run(spec, force=args.force)
        except FailureBudgetExceeded as error:
            print(f"error: {error}", file=sys.stderr)
            print(
                "aborted: committed units remain merged in the partial "
                "manifest; `fleet work` again to resume",
                file=sys.stderr,
            )
            return 1
        except CampaignInterrupted as error:
            print(f"interrupted: {error}", file=sys.stderr)
            return 1
        if args.json:
            print(result.to_json())
        else:
            _print_run_outcome(spec, result, runner)
        return 3 if result.failures else 0
    if args.fleet_command == "status":
        status = campaign_status(cache, spec)
        if status is None:
            if cache.load(spec) is not None:
                print(
                    f"scenario {spec.name} [{spec.hash()}] is complete in the "
                    f"cache at {cache.path(spec)} (no campaign queue)"
                )
                return 0
            print(
                f"error: no fleet campaign for scenario {spec.name!r} "
                f"[{spec.hash()}] in {cache.directory}",
                file=sys.stderr,
            )
            return 1
        _print_campaign_status(status)
        live = [w for w in status["workers"] if w.get("state") != "exited"]
        print(f"{len(live)} worker(s) with heartbeat files (see `fleet workers`)")
        return 0 if status["settled"] else 4
    if args.fleet_command == "fetch":
        try:
            state, result = fetch_campaign(cache, spec)
        except FileNotFoundError:
            cached = cache.load(spec)
            if cached is not None:
                if args.json:
                    print(cached.to_json())
                else:
                    print(
                        f"scenario {spec.name} [{spec.hash()}]: "
                        f"{len(cached.rows)} cells (cache; no campaign queue)"
                    )
                return 0
            print(
                f"error: no fleet campaign for scenario {spec.name!r} "
                f"[{spec.hash()}] in {cache.directory}",
                file=sys.stderr,
            )
            return 1
        if state == "in-progress":
            print(
                "campaign in progress: committed units merged into a "
                "resumable partial manifest; fetch again once settled"
            )
            return 4
        if args.json:
            print(result.to_json())
        else:
            print(
                f"scenario {spec.name} [{spec.hash()}]: {len(result.rows)} "
                f"cells merged from the campaign at {cache.path(spec)}"
            )
            _print_failures(result)
        return 3 if result.failures else 0
    # workers
    status = campaign_status(cache, spec)
    if status is None:
        print(
            f"error: no fleet campaign for scenario {spec.name!r} "
            f"[{spec.hash()}] in {cache.directory}",
            file=sys.stderr,
        )
        return 1
    if not status["workers"]:
        print("no worker heartbeat files")
        return 0
    rows = [
        (
            worker.get("owner", "-"),
            worker.get("host", "-"),
            worker.get("pid", "-"),
            worker.get("state", "-"),
            worker.get("unit") or "-",
            f"{worker.get('age_seconds', 0.0):.1f}s",
        )
        for worker in status["workers"]
    ]
    print(format_table(["owner", "host", "pid", "state", "unit", "last beat"], rows))
    return 0


_SERVICE_STATUS_EXIT = {"healthy": 0, "degraded": 3, "stalled": 4}


def _service_state_dir(args, config):
    from pathlib import Path

    if args.state_dir is not None:
        return Path(args.state_dir)
    return Path(args.cache_dir or default_cache_dir()) / f"service-{config.name}"


def _cmd_service(args) -> int:
    """The live what-if service verbs (see :mod:`repro.service`).

    Exit codes extend the experiment contract: ``run`` and ``status`` map
    the health status (``0`` healthy, ``3`` degraded, ``4`` stalled; ``1``
    when ``status`` finds no snapshot), ``forecast`` exits ``0`` for a
    fresh forecast, ``3`` for a stale last-known-good one and ``1`` when
    nothing has been promoted yet; ``2`` stays usage errors.
    """
    import json as json_module
    import signal

    from repro.service import CheckpointMismatchError, ServiceConfig, WhatIfService

    try:
        config = ServiceConfig.from_json(args.config)
    except (ValueError, TypeError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    state_dir = _service_state_dir(args, config)

    if args.service_command == "run":
        try:
            service = WhatIfService.open(
                config, state_dir, reset=getattr(args, "reset", False)
            )
        except CheckpointMismatchError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2

        def _drain(signum, frame):  # noqa: ARG001 - signal handler signature
            service.drain_requested = True

        previous = {
            sig: signal.signal(sig, _drain) for sig in (signal.SIGTERM, signal.SIGINT)
        }
        try:
            status = service.run(cycles=args.cycles)
        finally:
            for sig, handler in previous.items():
                signal.signal(sig, handler)
        payload = service.health_payload(heartbeat_unix=0.0)
        if args.json:
            print(json_module.dumps(payload, indent=2, sort_keys=True))
        else:
            drained = " (drained)" if service.drain_requested else ""
            print(
                f"service {config.name}: {status}{drained} after cycle "
                f"{service.cycle}; serving {service.serving}, "
                f"{service.events_total} events, "
                f"{service.complete_windows} complete windows, "
                f"staleness {service.staleness_windows}"
            )
        return _SERVICE_STATUS_EXIT[status]

    health_path = state_dir / "health.json"
    if args.service_command == "status":
        try:
            payload = json_module.loads(health_path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            print(
                f"error: no health snapshot at {health_path} "
                "(service never ran here?)",
                file=sys.stderr,
            )
            return 1
        if args.json:
            print(json_module.dumps(payload, indent=2, sort_keys=True))
        else:
            print(
                f"service {config.name}: {payload['status']} at cycle "
                f"{payload['cycle']}; serving {payload['serving']}, "
                f"staleness {payload['staleness_windows']}, "
                f"{payload['dropped_windows']} dropped window target(s)"
            )
            rows = [
                (
                    stage,
                    stats["breaker"],
                    stats["ok"],
                    stats["failed"],
                    stats["retried"],
                    stats["breaker_opens"],
                    (stats.get("last_error") or "-")[:60],
                )
                for stage, stats in payload["stages"].items()
            ]
            print(
                format_table(
                    ["stage", "breaker", "ok", "failed", "retried", "opens", "last error"],
                    rows,
                )
            )
        return _SERVICE_STATUS_EXIT.get(payload.get("status"), 1)

    # forecast
    from repro.service import ModelRegistry

    good = ModelRegistry(state_dir).load()
    if good is None:
        print(
            f"error: nothing promoted yet in {state_dir} (no last-known-good "
            "forecast)",
            file=sys.stderr,
        )
        return 1
    stale = False
    try:
        health = json_module.loads(health_path.read_text(encoding="utf-8"))
        stale = health.get("serving") == "last-known-good"
    except (OSError, ValueError):
        pass
    if args.json:
        payload = dict(good.forecast)
        payload["stale"] = stale
        print(json_module.dumps(payload, indent=2, sort_keys=True))
    else:
        freshness = "stale (last-known-good)" if stale else "fresh"
        print(
            f"service {config.name}: {freshness} forecast from cycle "
            f"{good.cycle}, windows "
            f"[{good.forecast['window_start']}, {good.window_end})"
        )
        rows = [
            (
                row["population"],
                f"{row['throughput']:.4f}",
                f"{row['response_time']:.4f}",
                f"{row['front_utilization']:.4f}",
                f"{row['db_utilization']:.4f}",
            )
            for row in good.forecast["rows"]
        ]
        print(
            format_table(
                ["population", "throughput", "response time", "front util", "db util"],
                rows,
            )
        )
    return 3 if stale else 0


def _cmd_validate(args) -> int:
    failures = 0
    for path in args.packs:
        try:
            spec = load_pack(path)
        except PackValidationError as error:
            print(f"FAIL {error}", file=sys.stderr)
            failures += 1
            continue
        print(f"ok   {path}: scenario {spec.name!r} [{spec.hash()}], {len(spec.cells())} cells")
    return 1 if failures else 0


def _resolve_scenario(name: str):
    """A registered scenario by name, or a pack spec by file path."""
    if looks_like_pack_path(name):
        return load_pack(name)
    return get_scenario(name)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "list":
        return _cmd_list()
    if args.command == "cache":
        return _cmd_cache(args)
    if args.command == "validate":
        return _cmd_validate(args)
    if args.command == "service":
        return _cmd_service(args)
    try:
        spec = _resolve_scenario(args.scenario)
    except KeyError as error:
        # Unknown scenario name: show the registry instead of a traceback.
        print(f"error: {error.args[0]}", file=sys.stderr)
        return 2
    except PackValidationError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.command == "show":
        return _cmd_show(spec)
    if args.command == "sweep":
        return _cmd_sweep(args, spec)
    if args.command == "export":
        return _cmd_export(args, spec)
    if args.command == "fleet":
        return _cmd_fleet(args, spec)
    return _cmd_run(args, spec)
