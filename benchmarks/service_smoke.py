"""End-to-end chaos smoke of the live what-if service (CI: ``service-smoke``).

Drives the real CLI (``python -m repro.experiments service ...``) as real
subprocesses through a scripted failure arc and asserts the self-healing
contract at every step:

* **A — clean start**: the daemon ingests streamed synthetic traces, fits,
  solves and promotes; health ``healthy``, forecast ``fresh`` (exit 0).
* **B1 — solver crashes**: ``solve-crash`` injection OOM-kills the solve
  worker; the service keeps serving the promoted forecast, health
  ``degraded`` (exit 3), forecast explicitly ``stale`` (exit 3).
* **B2 — fit divergence**: ``fit-diverge`` injection makes refits raise
  MapFitError until the fit breaker opens; still ``degraded``, still
  serving the last-known-good forecast — the service never stops answering.
* **C — recovery**: with the injection budget exhausted the breakers
  half-open, probe, re-close; health returns to ``healthy`` and the
  forecast to ``fresh``.
* **D — SIGTERM drain**: a run is SIGTERMed mid-flight; it finishes the
  cycle, checkpoints and exits.  A resumed run completing the same total
  cycle count produces a checkpoint and forecast **byte-identical** to an
  uninterrupted run — crash recovery loses nothing and changes nothing.
  Each station's ``base`` in the final checkpoint sits on the discard line
  (``fit_horizon_windows`` below the oldest queued or future fit target):
  the service keeps only the windows a fit can still read.

Run from the repository root::

    PYTHONPATH=src python benchmarks/service_smoke.py
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.service import synthesize_service_trace  # noqa: E402


def _run_cli(args, env_extra=None, expect=None):
    env = dict(os.environ)
    env.setdefault("PYTHONPATH", str(Path(__file__).resolve().parent.parent / "src"))
    env.pop("REPRO_FAULT_INJECT", None)
    if env_extra:
        env.update(env_extra)
    process = subprocess.run(
        [sys.executable, "-m", "repro.experiments", "service", *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=600,
    )
    label = " ".join(args[:1] + [a for a in args[1:] if not a.startswith("/")])
    print(f"$ service {label} -> exit {process.returncode}")
    for line in process.stdout.strip().splitlines():
        print(f"  {line}")
    if process.stderr.strip():
        print(f"  stderr: {process.stderr.strip()}")
    if expect is not None and process.returncode != expect:
        raise SystemExit(
            f"FAIL: `service {label}` exited {process.returncode}, expected {expect}"
        )
    return process


def main() -> int:
    root = Path(tempfile.mkdtemp(prefix="service-smoke-"))
    print(f"workspace: {root}")
    for name, seed in (("front", 11), ("db", 12)):
        synthesize_service_trace(
            root / f"{name}.trace",
            events=60000,
            mean_service=0.02,
            scv=4.0,
            utilization=0.5,
            seed=seed,
        )
    config_path = root / "service.json"
    config_path.write_text(
        json.dumps(
            {
                "name": "smoke",
                "traces": {"front": "front.trace", "db": "db.trace"},
                "think_time": 1.0,
                "populations": [1, 2, 4, 8],
                "chunk_events": 2000,
                "max_chunks_per_cycle": 2,
                "refit_windows": 80,
                "fit_horizon_windows": 400,
                "min_fit_windows": 120,
                "estimator": {"min_windows": 40},
                "stage_timeout_seconds": 60.0,
                "stage_retries": 1,
                "breaker_threshold": 2,
                "breaker_backoff_cycles": 2,
                "breaker_backoff_cap_cycles": 8,
                "queue_maxlen": 4,
                "stall_cycles": 30,
            }
        )
    )
    state = str(root / "state")
    config = str(config_path)

    print("\n=== phase A: clean start promotes and serves fresh ===")
    _run_cli(["run", config, "--cycles", "4", "--state-dir", state], expect=0)
    _run_cli(["status", config, "--state-dir", state], expect=0)
    _run_cli(["forecast", config, "--state-dir", state], expect=0)

    print("\n=== phase B1: solve workers crash; last-known-good keeps serving ===")
    _run_cli(
        ["run", config, "--cycles", "2", "--state-dir", state],
        env_extra={"REPRO_FAULT_INJECT": "solve-crash:service/solve:6"},
        expect=3,
    )
    _run_cli(["status", config, "--state-dir", state], expect=3)
    forecast = _run_cli(
        ["forecast", config, "--state-dir", state, "--json"], expect=3
    )
    payload = json.loads(forecast.stdout)
    if payload["stale"] is not True or not payload["rows"]:
        raise SystemExit("FAIL: degraded service must serve a stale forecast")

    print("\n=== phase B2: refits diverge until the fit breaker opens ===")
    _run_cli(
        ["run", config, "--cycles", "3", "--state-dir", state],
        env_extra={"REPRO_FAULT_INJECT": "fit-diverge:service/fit:9"},
        expect=3,
    )
    status = _run_cli(["status", config, "--state-dir", state, "--json"], expect=3)
    health = json.loads(status.stdout)
    if health["serving"] != "last-known-good":
        raise SystemExit("FAIL: expected the last-known-good forecast to be served")
    if health["stages"]["fit"]["breaker_opens"] < 1:
        raise SystemExit("FAIL: expected the fit breaker to have opened")

    print("\n=== phase C: injection budget exhausted; breakers re-close ===")
    _run_cli(["run", config, "--cycles", "6", "--state-dir", state], expect=0)
    _run_cli(["status", config, "--state-dir", state], expect=0)
    _run_cli(["forecast", config, "--state-dir", state], expect=0)

    print("\n=== phase D: SIGTERM drain resumes bit-identically ===")
    drained_state = root / "drained"
    straight_state = root / "straight"
    _run_cli(["run", config, "--cycles", "3", "--state-dir", str(drained_state)])
    env = dict(os.environ)
    env.setdefault("PYTHONPATH", str(Path(__file__).resolve().parent.parent / "src"))
    env.pop("REPRO_FAULT_INJECT", None)
    background = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.experiments",
            "service",
            "run",
            config,
            "--state-dir",
            str(drained_state),
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )
    time.sleep(3.0)
    background.send_signal(signal.SIGTERM)
    try:
        background.wait(timeout=120)
    except subprocess.TimeoutExpired:
        background.kill()
        raise SystemExit("FAIL: SIGTERM did not drain the running service")
    print(f"  drained run exited {background.returncode} after SIGTERM")
    if background.returncode not in (0, 3, 4):
        raise SystemExit("FAIL: drained run must exit with a health status code")
    drained_cycle = json.loads(
        (drained_state / "checkpoint.json").read_text()
    )["cycle"]
    print(f"  drained at cycle {drained_cycle}")
    target = drained_cycle + 3
    _run_cli(
        ["run", config, "--cycles", "3", "--state-dir", str(drained_state)]
    )
    _run_cli(
        ["run", config, "--cycles", str(target), "--state-dir", str(straight_state)]
    )
    drained_ckpt = (drained_state / "checkpoint.json").read_bytes()
    straight_ckpt = (straight_state / "checkpoint.json").read_bytes()
    if drained_ckpt != straight_ckpt:
        raise SystemExit(
            "FAIL: checkpoint after SIGTERM+resume differs from the "
            "uninterrupted run"
        )
    drained_forecast = max(drained_state.glob("forecast-*.json")).read_bytes()
    straight_forecast = max(straight_state.glob("forecast-*.json")).read_bytes()
    if drained_forecast != straight_forecast:
        raise SystemExit(
            "FAIL: forecast after SIGTERM+resume differs from the "
            "uninterrupted run"
        )
    print("  checkpoint and forecast bit-identical across drain + resume")

    # Bounded state: each station keeps only the windows a queued or future
    # fit can read, so its base sits on the discard line.
    checkpoint = json.loads(straight_ckpt)
    accumulators = checkpoint["accumulators"]
    horizon = json.loads(config_path.read_text())["fit_horizon_windows"]
    complete = min(a["max_end_ticks"] // a["window_ticks"] for a in accumulators.values())
    line = max(0, min([*checkpoint["fit_queue"]["items"], complete]) - horizon)
    bases = {name: a["base"] for name, a in accumulators.items()}
    if line <= 0 or any(base != line for base in bases.values()):
        raise SystemExit(
            f"FAIL: station bases {bases} must equal the discard line {line} > 0"
        )
    print(f"  station bases {bases} equal the discard line")

    print("\nservice smoke: all phases passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
