"""Run one benchmark workload and print its metrics.

Run from the root of a checkout::

    python3 perfbench/run.py --workload tpcw_model --seed 1 --seconds 15 --trace 0

``--trace 0`` repeats the workload's fixed work (a round), with no wrappers
installed, while the next round is expected to end within ``--seconds``, and
reports the end-to-end metrics.  ``--trace 1`` runs one untraced round and one traced round and
reports the per-layer metrics of the traced one, with the tracing overhead.
The next-to-last line of standard output is a JSON report (host, every
metric with its unit, sample counts, failures, span self times); the last
line is the result object.  Every output is checked; the exit code is 0
only when every check passed.  All files go under ``.perfbench/`` in the
checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
#: The benchmark measures the program in the current directory's ``src``.
ROOT = Path.cwd()
WORK_ROOT = ROOT / ".perfbench"
#: Fresh interpreters timed for ``setup_s``; the median is reported.
SETUP_REPEATS = 3
#: One BLAS thread per process unless the caller sets otherwise: the load is
#: one caller plus at most ``nproc`` program workers, and BLAS threads on
#: top of the workers would oversubscribe the cores.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MiB",
    "cycle_p50_s": "s",
    "cycle_p75_s": "s",
}


def _arguments(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-only", metavar="DIR",
                        help="only import and generate inputs into DIR (times setup_s)")
    return parser.parse_args(argv)


def _import_program():
    """Put the checkout's ``src`` and this package on ``sys.path``."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program at {ROOT / 'src' / 'repro'}; "
                         "run from the root of a checkout")
    sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR.parent)]
    from perfbench import workloads

    return workloads


def _setup_times(args, work: Path) -> list[float]:
    """Wall time of fresh interpreters that import and generate the inputs."""
    times = []
    for repeat in range(SETUP_REPEATS):
        target = work / f"setup-{repeat}"
        started = time.perf_counter()
        subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
             "--setup-only", str(target)],
            check=True, timeout=120,
        )
        times.append(time.perf_counter() - started)
        shutil.rmtree(target, ignore_errors=True)
    return times


def _peak_rss_mib() -> float:
    """Larger of this process's and its waited-for children's peak RSS."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def _run_rounds(workload, inputs, work: Path, ledger, seconds: float):
    """Rounds until the next one would end after ``seconds`` (at least one)."""
    rounds = []
    started = time.perf_counter()
    last = 0.0
    while not rounds or time.perf_counter() - started + last <= seconds:
        round_dir = work / f"round-{len(rounds)}"
        round_dir.mkdir()
        begun = time.perf_counter()
        rounds.append(workload.round(inputs, len(rounds), round_dir, ledger))
        last = time.perf_counter() - begun
        shutil.rmtree(round_dir, ignore_errors=True)
    return rounds


def _end_to_end(rounds, setup_times) -> tuple[dict, dict]:
    from perfbench.stats import percentile, tail_percentile

    latencies = [x for r in rounds for x in r.latencies]
    tail = tail_percentile(latencies)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(r.wall_s for r in rounds),
        "peak_rss_mb": _peak_rss_mib(),
        "cycle_p50_s": percentile(latencies, 50),
        "cycle_p75_s": percentile(latencies, 75),
    }
    samples = {
        "rounds": len(rounds),
        "round_wall_s": [r.wall_s for r in rounds],
        "setup_s": setup_times,
        "cycles": len(latencies),
        "cycle_tail": None if tail is None else {
            "percentile": tail, "value_s": percentile(latencies, tail)},
        "round_info": [r.info for r in rounds],
    }
    return metrics, samples


def _traced(workload, inputs, work: Path, ledger) -> tuple[dict, dict]:
    from perfbench.layers import TARGETS, layer_metrics
    from perfbench.tracing import Tracer, self_times

    (work / "untraced").mkdir()
    untraced = workload.round(inputs, 0, work / "untraced", ledger)
    tracer = Tracer(work / "spans")
    ledger.tracer = tracer
    tracer.install(TARGETS)
    try:
        (work / "traced").mkdir()
        traced = workload.round(inputs, 0, work / "traced", ledger)
    finally:
        tracer.uninstall()
        ledger.tracer = None
    spans, counts = tracer.collect()
    metrics = layer_metrics(spans, counts)
    metrics["trace.overhead_s"] = traced.wall_s - untraced.wall_s
    samples = {
        "untraced_wall_s": untraced.wall_s,
        "traced_wall_s": traced.wall_s,
        "spans": len(spans),
        "worker_processes": len({s.pid for s in spans} - {os.getpid()}),
        "self_time_s": self_times(spans),
        "counts": dict(counts),
    }
    with open(work.parent / f"{work.name}-spans.jsonl", "w", encoding="utf-8") as handle:
        for record in spans:
            handle.write(json.dumps(record.to_dict()) + "\n")
    return metrics, samples


def main(argv=None) -> int:
    args = _arguments(argv)
    for name, value in BLAS_THREADS.items():
        os.environ.setdefault(name, value)
    workloads = _import_program()
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    if args.setup_only:
        workload.prepare(args.seed, Path(args.setup_only))
        return 0

    from perfbench.hostenv import describe
    from perfbench.layers import LAYER_UNITS

    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(
        prefix=f"{args.workload}-s{args.seed}-t{args.trace}-", dir=WORK_ROOT))
    # Temporary files of the program and its workers stay in the checkout.
    os.environ["TMPDIR"] = str(work)
    tempfile.tempdir = str(work)
    ledger = workloads.Ledger()
    try:
        setup_times = [] if args.trace else _setup_times(args, work)
        inputs = workload.prepare(args.seed, work / "inputs")
        if args.trace:
            metrics, samples = _traced(workload, inputs, work, ledger)
            units = LAYER_UNITS
        else:
            rounds = _run_rounds(workload, inputs, work, ledger, args.seconds)
            metrics, samples = _end_to_end(rounds, setup_times)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)

    correct = ledger.failed == 0
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "cycle": workload.cycle,
        "host": describe(ROOT),
        "error_rate": ledger.failed / max(ledger.attempted, 1),
        "failures": ledger.failures[:50],
        "samples": samples,
    }
    for name, unit in units.items():
        print(f"{name:<44} {metrics[name]:>16.6g} {unit}")
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
