"""Run-to-run spread of the end-to-end metrics over several seeds.

Run from the root of a checkout::

    python3 perfbench/spread.py --workload tpcw_model --seeds 1-10 --seconds 15

Runs the benchmark once per seed, one after another, and prints for each
end-to-end metric the median and the distance between the first and third
quartile as a share of the median, next to the metric's bound from
``BENCHMARK.json``.  A workload is steady when every spread except that of
``setup_s`` is below a third of its bound.  ``--out`` keeps the raw results.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.stats import quartile_spread  # noqa: E402


def _seeds(text: str) -> list[int]:
    if "-" in text:
        first, last = (int(x) for x in text.split("-"))
        return list(range(first, last + 1))
    return [int(x) for x in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="'1-10' or '3,5,8'")
    parser.add_argument("--seconds", type=int, default=None,
                        help="run length (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--out", help="append each result line to this file")
    args = parser.parse_args(argv)
    bench = json.loads(Path("BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values: dict[str, list[float]] = {name: [] for name in bounds}
    for seed in _seeds(args.seeds):
        completed = subprocess.run(
            [sys.executable, *bench["command"][1:], "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, check=False,
        )
        lines = completed.stdout.strip().splitlines()
        if completed.returncode != 0 or not lines:
            print(f"seed {seed}: exit {completed.returncode}\n{completed.stderr[-2000:]}")
            return 1
        result = json.loads(lines[-1])
        if args.out:
            with open(args.out, "a", encoding="utf-8") as handle:
                handle.write(json.dumps({"workload": args.workload, "seed": seed,
                                         **result}) + "\n")
        for name in bounds:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + " ".join(
            f"{name}={result['metrics'][name]['value']:.4g}" for name in bounds), flush=True)
    for name, bound in bounds.items():
        spread = quartile_spread(values[name])
        verdict = "ok" if spread < bound / 3 else "WIDE"
        print(f"{name:<14} median {statistics.median(values[name]):10.4g}  "
              f"spread {spread:6.3f}  bound {bound:5.2f}  {verdict}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
