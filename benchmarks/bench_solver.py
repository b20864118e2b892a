"""Microbenchmark of the closed MAP network pipeline → ``BENCH_solver.json``.

Tracks the performance trajectory of the repository's hottest paths:

* ``generator_build`` — vectorised Kronecker assembly vs the retained naive
  per-state builder at N=100 with MAP(2) service at both stations,
* ``exact_solve`` — full ``MapClosedNetworkSolver.solve`` wall time at a
  ladder of populations.  Every point runs in a *fresh subprocess* so its
  peak RSS is an honest per-population measurement; each row records the
  solver tier that produced it and, next to the measured footprint, the
  bytes the materialized tier would have allocated for the same system
  (CSR + balance CSC + ILU fill).  The full grid reaches N=1000 and N=1500
  (~2M and ~4.5M states), which only the matrix-free tier can touch without
  gigabytes of fill,
* ``sweep`` — warm-started ``solve_sweep`` over the materialized ladder,
* ``simulation`` — completion rate of the simulation kernel,
* ``sim_loop`` — the two entries of the one simulation kernel on the bursty
  Figure-9 network (the fig4-scale sweep workload): the per-seed entry
  called once per replication (the ``scalar_*`` columns) and the
  replication-set entry called once per rung (the ``batched_*`` columns),
  with per-cell seconds and aggregate events/second for replication counts
  from 16 up.  Both run the same kernel once per seed, so ``speedup`` sits
  near 1 and measures the set entry's overhead.  Rungs marked
  ``scalar_extrapolated`` price the per-seed side from its measured
  per-replication seconds at the same horizon (replications are independent
  runs, so the cost is exactly linear in R); the set side is always
  measured, so the full grid's R=1024 rung takes minutes.

Run from the repository root::

    PYTHONPATH=src python benchmarks/bench_solver.py            # full grid
    PYTHONPATH=src python benchmarks/bench_solver.py --quick    # CI smoke

The output document is committed as ``BENCH_solver.json`` and is an
**append-only trajectory**: ``latest`` holds the full result of the newest
run, and ``history`` accumulates one compact entry per run, keyed by git SHA
and UTC date, so the perf trend across PRs stays visible in one file.

``--quick`` doubles as the CI regression gate: the fresh numbers are
compared against the newest history entry *from a comparable environment*
(same python major.minor and machine — wall-clock gates across machine
classes only produce noise) on the overlapping metrics (``exact_solve``
populations present in both, their Krylov iteration counts — a
deterministic canary for preconditioner regressions that wall-clock noise
would hide — and the ``generator_build`` Kronecker time), and
the script exits non-zero when any of them regressed by more than
``--gate-threshold`` (default 25%).  A gate-failing run is *not* appended to
the trajectory — a rerun would otherwise compare the regression against
itself and wave it through.  ``--no-gate`` records without gating.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import subprocess
import sys
import time

#: Populations of the ``exact_solve`` ladder.  The quick grid stays small
#: enough for CI; the full grid crosses the materialized/matrix-free tier
#: boundary (~600k states, between N=500 and N=1000).
QUICK_SOLVE_POPULATIONS = [50, 100]
FULL_SOLVE_POPULATIONS = [100, 200, 500, 1000, 1500]

#: ``sim_loop`` ladder: {key: (replications, horizon, measure scalar side)}.
#: Keys appearing in both the quick and full grids must describe identical
#: work, since the regression gate compares entries across grids (like the
#: ``exact_solve`` overlap at N=100).  Rungs with ``measure_scalar=False``
#: extrapolate the scalar cost linearly from the measured per-replication
#: seconds of the largest measured rung at the same horizon.
SIM_LOOP_POINTS = {
    "R16": (16, 2000.0, True),
    "R64": (64, 250.0, True),
    "R256": (256, 2000.0, False),
    "R1024": (1024, 2000.0, False),
}
QUICK_SIM_LOOP = ["R64"]
FULL_SIM_LOOP = ["R16", "R64", "R256", "R1024"]

#: Relative slowdown versus the previous trajectory entry that fails the
#: ``--quick`` gate.
GATE_THRESHOLD = 0.25


def _median_time(callable_, repeats: int) -> float:
    timings = []
    for _ in range(repeats):
        started = time.perf_counter()
        callable_()
        timings.append(time.perf_counter() - started)
    timings.sort()
    return timings[len(timings) // 2]


def bench_generator_build(population: int, repeats: int) -> dict:
    """Naive vs Kronecker generator assembly at MAP(2) x MAP(2)."""
    from repro.maps.map2 import map2_from_moments_and_decay
    from repro.queueing.map_network import MapClosedNetworkSolver

    front = map2_from_moments_and_decay(0.02, 4.0, 0.5)
    db = map2_from_moments_and_decay(0.015, 4.0, 0.95)
    solver = MapClosedNetworkSolver(front, db, 0.5)
    naive_seconds = _median_time(lambda: solver._build_generator_naive(population), repeats)
    kron_seconds = _median_time(lambda: solver._build_generator(population), repeats)
    return {
        "population": population,
        "num_states": solver.state_space(population).num_states,
        "naive_seconds": naive_seconds,
        "kron_seconds": kron_seconds,
        "speedup": naive_seconds / kron_seconds,
    }


#: Executed with ``python -c`` in a fresh interpreter per exact-solve point:
#: the reported ``ru_maxrss`` is then the high-water mark of that single
#: solve, not of every ladder rung before it.
_SOLVE_SNIPPET = """\
import json, resource, sys, time
from repro.maps.map2 import map2_from_moments_and_decay
from repro.queueing.map_network import MapClosedNetworkSolver

population = int(sys.argv[1])
front = map2_from_moments_and_decay(0.02, 4.0, 0.5)
db = map2_from_moments_and_decay(0.015, 4.0, 0.95)
solver = MapClosedNetworkSolver(front, db, 0.5)
started = time.perf_counter()
result = solver.solve(population)
elapsed = time.perf_counter() - started
# Read the high-water mark *before* building the accounting operator, so the
# recorded footprint is the solve's alone.  ru_maxrss is KiB on Linux but
# bytes on macOS (same quirk as repro.experiments.solvers._peak_rss_mb).
peak = float(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
peak_rss_mb = peak / (1024.0 * 1024.0) if sys.platform == "darwin" else peak / 1024.0
operator = solver._assembler.operator(solver.state_space(population))
print(json.dumps({
    "population": population,
    "num_states": result.num_states,
    "seconds": elapsed,
    "throughput": result.throughput,
    "solver_tier": result.solver_tier,
    "krylov_iterations": result.krylov_iterations,
    "precond_setup_seconds": result.precond_setup_seconds,
    "peak_rss_mb": peak_rss_mb,
    "materialized_estimate_mb": operator.materialized_bytes_estimate() / 1e6,
}))
"""


def bench_exact_solve(populations: list[int]) -> list[dict]:
    """Full solve wall time per population, one fresh subprocess each."""
    rows = []
    for population in populations:
        completed = subprocess.run(
            [sys.executable, "-c", _SOLVE_SNIPPET, str(population)],
            capture_output=True,
            text=True,
            env=os.environ.copy(),
        )
        if completed.returncode != 0:
            raise RuntimeError(
                f"exact-solve subprocess for N={population} failed "
                f"(exit {completed.returncode}):\n{completed.stderr}"
            )
        rows.append(json.loads(completed.stdout.splitlines()[-1]))
    return rows


def bench_sweep(populations: list[int]) -> dict:
    """Warm-started sweep over the whole ladder with one solver instance."""
    from repro.maps.map2 import map2_from_moments_and_decay
    from repro.queueing.map_network import MapClosedNetworkSolver

    front = map2_from_moments_and_decay(0.02, 4.0, 0.5)
    db = map2_from_moments_and_decay(0.015, 4.0, 0.95)
    solver = MapClosedNetworkSolver(front, db, 0.5)
    started = time.perf_counter()
    results = solver.solve_sweep(populations)
    elapsed = time.perf_counter() - started
    return {
        "populations": populations,
        "seconds": elapsed,
        "throughputs": [result.throughput for result in results],
    }


def bench_simulation(horizon: float) -> dict:
    """Scalar-kernel completion rate on the bursty Figure-9-style network."""
    import numpy as np

    from repro.maps.map2 import map2_exponential, map2_from_moments_and_decay
    from repro.simulation.closed_network import simulate_closed_map_network

    front = map2_exponential(0.02)
    db = map2_from_moments_and_decay(0.015, 4.0, 0.95)
    started = time.perf_counter()
    result = simulate_closed_map_network(
        front, db, 0.5, 50, horizon=horizon, warmup=horizon * 0.05,
        rng=np.random.default_rng(1),
    )
    elapsed = time.perf_counter() - started
    return {
        "horizon": horizon,
        "seconds": elapsed,
        "completed": result.completed,
        "completions_per_second": result.completed / elapsed,
    }


def bench_sim_loop(point_keys: list[str]) -> list[dict]:
    """Per-seed vs replication-set simulation entry on the Figure-9 network.

    One row per replication-count rung.  Both entries simulate the *same
    work* (R replications, same horizon/warmup, per-replication seeds) on
    the one kernel; ``events`` counts jump-chain transitions, the common
    work measure.
    """
    import numpy as np

    from repro.maps.map2 import map2_exponential, map2_from_moments_and_decay
    from repro.simulation.batched import simulate_closed_map_network_batch
    from repro.simulation.closed_network import simulate_closed_map_network

    front = map2_exponential(0.02)
    db = map2_from_moments_and_decay(0.015, 4.0, 0.95)
    think, population = 0.5, 50

    # horizon -> (measured seconds/rep, measured events/rep): extrapolated
    # rungs scale both linearly, so their reported rate stays consistent
    # with the measured rung at the same horizon.
    scalar_per_rep: dict[float, tuple[float, float]] = {}
    rows = []
    for key in point_keys:
        replications, horizon, measure_scalar = SIM_LOOP_POINTS[key]
        warmup = horizon * 0.05
        seeds = [1000 + index for index in range(replications)]

        if measure_scalar:
            started = time.perf_counter()
            scalar_events = 0
            for seed in seeds:
                result = simulate_closed_map_network(
                    front, db, think, population, horizon=horizon, warmup=warmup,
                    rng=np.random.default_rng(seed),
                )
                scalar_events += result.events
            scalar_seconds = time.perf_counter() - started
            scalar_per_rep[horizon] = (
                scalar_seconds / replications,
                scalar_events / replications,
            )
            scalar_extrapolated = False
        else:
            if horizon not in scalar_per_rep:
                probe = time.perf_counter()
                result = simulate_closed_map_network(
                    front, db, think, population, horizon=horizon, warmup=warmup,
                    rng=np.random.default_rng(seeds[0]),
                )
                scalar_per_rep[horizon] = (
                    time.perf_counter() - probe, float(result.events)
                )
            seconds_per_rep, events_per_rep = scalar_per_rep[horizon]
            scalar_seconds = seconds_per_rep * replications
            scalar_events = events_per_rep * replications
            scalar_extrapolated = True

        started = time.perf_counter()
        batched = simulate_closed_map_network_batch(
            front, db, think, population, horizon=horizon, warmup=warmup, seeds=seeds,
        )
        batched_seconds = time.perf_counter() - started
        batched_events = sum(result.events for result in batched)

        rows.append({
            "key": key,
            "replications": replications,
            "horizon": horizon,
            "scalar_seconds": scalar_seconds,
            "scalar_cell_seconds": scalar_seconds / replications,
            "scalar_extrapolated": scalar_extrapolated,
            "scalar_events_per_second": scalar_events / scalar_seconds,
            "batched_seconds": batched_seconds,
            "batched_cell_seconds": batched_seconds / replications,
            "batched_events_per_second": batched_events / batched_seconds,
            "speedup": scalar_seconds / batched_seconds,
        })
    return rows


def run_benchmarks(quick: bool) -> dict:
    import numpy
    import scipy

    solve_populations = QUICK_SOLVE_POPULATIONS if quick else FULL_SOLVE_POPULATIONS
    sweep_populations = [25, 50, 75, 100] if quick else [100, 200, 300, 400, 500]
    sim_horizon = 2000.0 if quick else 20000.0
    sim_loop_points = QUICK_SIM_LOOP if quick else FULL_SIM_LOOP
    build_repeats = 3 if quick else 5
    return {
        "benchmark": "closed MAP network solver + simulator",
        "generated_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        ),
        "quick": quick,
        "environment": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "machine": platform.machine(),
        },
        "results": {
            "generator_build": bench_generator_build(100, build_repeats),
            "exact_solve": bench_exact_solve(solve_populations),
            "sweep": bench_sweep(sweep_populations),
            "simulation": bench_simulation(sim_horizon),
            "sim_loop": bench_sim_loop(sim_loop_points),
        },
    }


# ----------------------------------------------------------------------
# Trajectory (append-only history) and the regression gate
# ----------------------------------------------------------------------
def git_sha() -> str:
    """Short SHA of HEAD, or ``"unknown"`` outside a work tree."""
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, check=True,
        )
        return completed.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def entry_environment(document_environment: dict) -> dict:
    """The slice of the environment that makes timings comparable."""
    python = str(document_environment.get("python", ""))
    return {
        "python": ".".join(python.split(".")[:2]),
        "machine": document_environment.get("machine", ""),
    }


def history_entry(document: dict, sha: str) -> dict:
    """Compact trajectory entry for one benchmark run."""
    results = document["results"]
    build = results["generator_build"]
    return {
        "sha": sha,
        "date_utc": document["generated_utc"],
        "quick": document["quick"],
        "environment": entry_environment(document.get("environment", {})),
        "generator_build": {
            "naive_seconds": build["naive_seconds"],
            "kron_seconds": build["kron_seconds"],
            "speedup": build["speedup"],
        },
        "exact_solve": {
            str(row["population"]): row["seconds"] for row in results["exact_solve"]
        },
        "exact_solve_iterations": {
            str(row["population"]): row["krylov_iterations"]
            for row in results["exact_solve"]
            if row.get("krylov_iterations") is not None
        },
        "sweep_seconds": results["sweep"]["seconds"],
        "simulation_rate": results["simulation"]["completions_per_second"],
        "sim_loop": {
            row["key"]: {
                "scalar_seconds": row["scalar_seconds"],
                "batched_seconds": row["batched_seconds"],
                "speedup": row["speedup"],
            }
            for row in results.get("sim_loop", [])
        },
    }


def load_trajectory(path: str) -> list[dict]:
    """History entries of an existing document (either format), oldest first.

    The pre-trajectory format (one flat result document) is absorbed as a
    single synthetic entry so the committed numbers keep anchoring the trend.
    """
    if not os.path.exists(path):
        return []
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except (OSError, json.JSONDecodeError):
        return []
    if not isinstance(document, dict):
        return []
    if "history" in document:
        history = document["history"]
        return list(history) if isinstance(history, list) else []
    if "results" in document:  # pre-trajectory single-run format
        return [history_entry(document, sha="pre-trajectory")]
    return []


def gate_baseline(entry: dict, history: list[dict]) -> dict | None:
    """The newest history entry whose environment makes timings comparable.

    Wall-clock gates are only meaningful within one machine class: a
    trajectory committed from a developer box must not fail (or pass) the
    gate on a CI runner with a different interpreter or architecture, so
    only entries matching ``entry``'s python major.minor + machine qualify.
    Entries written before environments were recorded never qualify.
    """
    wanted = entry.get("environment")
    for candidate in reversed(history):
        if candidate.get("environment") == wanted:
            return candidate
    return None


def check_regressions(
    entry: dict, baseline: dict, threshold: float = GATE_THRESHOLD
) -> list[str]:
    """Regression messages for ``entry`` vs ``baseline`` (empty = gate passes).

    Gated metrics: ``generator_build`` Kronecker assembly time, every
    ``exact_solve`` population present in *both* entries (quick and full
    grids overlap at N=100, so CI quick runs gate against committed full
    runs too), the Krylov iteration count of every such population that
    recorded one in both entries (iteration counts are deterministic, so
    this catches preconditioner-quality regressions that wall-clock noise
    would hide — the quick grid's N=100 runs the ILU'd BiCGSTAB), and both
    kernels' seconds of every ``sim_loop`` rung present in both entries
    (the grids overlap at R64).
    """
    messages = []

    def compare(label: str, current: float, previous: float) -> None:
        if previous > 0 and current > previous * (1.0 + threshold):
            messages.append(
                f"{label}: {current:.4f}s vs {previous:.4f}s "
                f"(+{(current / previous - 1.0) * 100.0:.0f}%, gate {threshold * 100:.0f}%)"
            )

    def compare_iterations(label: str, current: int, previous: int) -> None:
        # Integer counts at small values need absolute slack: 10 -> 12 is
        # within solver jitter across scipy versions, 10 -> 14 is not.
        allowed = previous + max(2, round(previous * threshold))
        if current > allowed:
            messages.append(
                f"{label}: {current} iterations vs {previous} "
                f"(gate {threshold * 100:.0f}% + 2)"
            )

    compare(
        "generator_build.kron_seconds",
        entry["generator_build"]["kron_seconds"],
        baseline.get("generator_build", {}).get("kron_seconds", 0.0),
    )
    baseline_solves = baseline.get("exact_solve", {})
    for population, seconds in entry["exact_solve"].items():
        if population in baseline_solves:
            compare(
                f"exact_solve[N={population}]", seconds, baseline_solves[population]
            )
    baseline_iterations = baseline.get("exact_solve_iterations", {})
    for population, iterations in entry.get("exact_solve_iterations", {}).items():
        if population in baseline_iterations:
            compare_iterations(
                f"exact_solve_iterations[N={population}]",
                iterations,
                baseline_iterations[population],
            )
    baseline_sim_loop = baseline.get("sim_loop", {})
    for key, point in entry.get("sim_loop", {}).items():
        if key in baseline_sim_loop:
            for kernel in ("scalar_seconds", "batched_seconds"):
                compare(
                    f"sim_loop[{key}].{kernel}",
                    point[kernel],
                    baseline_sim_loop[key].get(kernel, 0.0),
                )
    return messages


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--output", default="BENCH_solver.json", help="output document path"
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="small grid for the CI bench-smoke step (enables the regression gate)",
    )
    parser.add_argument(
        "--no-gate", action="store_true",
        help="record the trajectory entry without gating (e.g. on a known-slow box)",
    )
    parser.add_argument(
        "--gate-threshold", type=float, default=GATE_THRESHOLD,
        help="relative slowdown that fails the quick gate (default 0.25)",
    )
    args = parser.parse_args(argv)

    history = load_trajectory(args.output)
    document = run_benchmarks(quick=args.quick)
    entry = history_entry(document, sha=git_sha())

    regressions: list[str] = []
    baseline = None
    if args.quick and not args.no_gate and history:
        baseline = gate_baseline(entry, history)
        if baseline is None:
            print(
                "note: no trajectory entry from a comparable environment "
                f"({entry['environment']}); regression gate skipped"
            )
        else:
            regressions = check_regressions(entry, baseline, args.gate_threshold)

    # A gate-failing run is reported but NOT appended: otherwise one rerun
    # would compare the regression against itself and wave it through.
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(
            {
                "benchmark": document["benchmark"],
                "latest": document,
                "history": history if regressions else history + [entry],
            },
            handle, indent=2, sort_keys=True,
        )
        handle.write("\n")

    build = document["results"]["generator_build"]
    print(
        f"generator build N={build['population']}: "
        f"naive {build['naive_seconds']:.3f}s vs kron {build['kron_seconds']:.4f}s "
        f"({build['speedup']:.1f}x)"
    )
    for row in document["results"]["exact_solve"]:
        iterations = row.get("krylov_iterations")
        iteration_note = f", {iterations} Krylov iters" if iterations is not None else ""
        print(
            f"exact solve N={row['population']}: {row['seconds']:.2f}s "
            f"({row['num_states']} states, {row['solver_tier']}{iteration_note}, "
            f"peak {row['peak_rss_mb']:.0f} MB vs ~{row['materialized_estimate_mb']:.0f} MB materialized)"
        )
    sweep = document["results"]["sweep"]
    print(f"sweep {sweep['populations']}: {sweep['seconds']:.2f}s")
    sim = document["results"]["simulation"]
    print(f"simulation: {sim['completions_per_second']:,.0f} completions/s")
    for row in document["results"]["sim_loop"]:
        scalar_note = " (extrapolated)" if row["scalar_extrapolated"] else ""
        print(
            f"sim_loop R={row['replications']} horizon={row['horizon']:g}: "
            f"scalar {row['scalar_seconds']:.2f}s{scalar_note} vs "
            f"batched {row['batched_seconds']:.2f}s -> {row['speedup']:.1f}x "
            f"({row['batched_events_per_second']:,.0f} ev/s batched)"
        )
    entries = len(history) if regressions else len(history) + 1
    print(f"wrote {args.output} ({entries} trajectory entries)")

    if regressions:
        print(
            f"\nPERF REGRESSION GATE FAILED against trajectory entry "
            f"{baseline['sha']} ({baseline['date_utc']}); "
            "the regressed run was NOT appended:"
        )
        for message in regressions:
            print(f"  {message}")
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
