"""The live what-if service daemon: ingest → fit → solve → serve, forever.

:class:`WhatIfService` turns the paper's offline pipeline into a long-lived
loop.  Each *cycle*:

1. **ingest** — every station's trace file is tailed in bounded chunks by a
   supervised worker (one forked worker serves every stage of the service
   until an attempt fails, see :func:`~repro.service.pipeline.run_stage`);
   the worker returns an exact integer delta
   (:class:`~repro.service.streaming.WindowedTraceAccumulator` state of the
   windows it touched) that the daemon merges into its master accumulator —
   bit-identical to having ingested the whole trace in one batch;
2. **fit** — once ``refit_windows`` new complete windows have accumulated
   on every station, a refit target is queued; a supervised worker
   estimates *(mean, I, p95)* over the sliding ``fit_horizon_windows``
   slice and fits a MAP(2) per station (the paper's Figure-2 + fitting
   pipeline);
3. **solve** — a supervised worker solves the closed MAP network what-if
   sweep over the configured populations;
4. **promote / degrade** — a fit+solve success is promoted to the durable
   last-known-good registry; any failure leaves the previous forecast in
   service with an explicit, growing ``staleness_windows`` and flips the
   health to ``degraded``.  Per-stage circuit breakers stop hammering a
   failing stage and probe it again after a (cycle-denominated,
   deterministic) backoff;
5. **discard** — every station drops the windows no queued or future fit
   can read, so state and checkpoint stay O(fit horizon + lookahead)
   instead of growing with every window since tick 0.

Determinism contract: given the same config, trace files and fault spec,
the sequence of checkpoints is **bit-identical** — including across a
SIGTERM drain + restart at any cycle boundary.  Everything the loop
decides on is integer state (ticks, windows, cycles, lifetime invocation
counters); wall-clock only influences *when* things happen, never *what*.
The only timestamp anywhere is the advisory ``heartbeat_unix`` in
``health.json``, which is excluded from the contract.
"""

from __future__ import annotations

import hashlib
import json
import os
import weakref
from dataclasses import dataclass, field
from pathlib import Path

from repro.experiments.supervision import WorkerPool
from repro.service.pipeline import (
    BoundedWindowQueue,
    CircuitBreaker,
    StageOutcome,
    execute_fit,
    execute_ingest,
    execute_solve,
    run_stage,
)
from repro.service.registry import LastKnownGood, ModelRegistry
from repro.service.streaming import WindowedTraceAccumulator

__all__ = [
    "CheckpointMismatchError",
    "ServiceConfig",
    "WhatIfService",
]

_CHECKPOINT_NAME = "checkpoint.json"
_HEALTH_NAME = "health.json"

#: The two tiers of the paper's closed network (Figure 9).
_STATIONS = ("front", "db")
_STAGES = ("ingest", "fit", "solve")


class CheckpointMismatchError(RuntimeError):
    """A checkpoint written under a different config refuses to resume."""


def _atomic_write_text(path: Path, text: str) -> None:
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2)


# ----------------------------------------------------------------------
# Configuration
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ServiceConfig:
    """Validated what-if service configuration (loaded from JSON).

    ``traces`` maps the two stations of the paper's network (``front``,
    ``db``) to their trace file paths.  All windowing is integer-tick:
    ``window_seconds * ticks_per_second`` must be a whole number of ticks.
    """

    name: str
    traces: dict
    think_time: float
    populations: tuple
    ticks_per_second: int = 1_000_000
    window_seconds: float = 1.0
    chunk_events: int = 65536
    max_chunks_per_cycle: int = 4
    refit_windows: int = 60
    fit_horizon_windows: int = 300
    min_fit_windows: int = 100
    estimator: dict = field(default_factory=dict)
    stage_timeout_seconds: float | None = 30.0
    stage_retries: int = 1
    breaker_threshold: int = 2
    breaker_backoff_cycles: int = 2
    breaker_backoff_cap_cycles: int = 8
    queue_maxlen: int = 8
    stall_cycles: int = 10
    checkpoint_every: int = 1

    def __post_init__(self) -> None:
        if set(self.traces) != set(_STATIONS):
            raise ValueError(
                f"traces must name exactly the stations {_STATIONS}, "
                f"got {sorted(self.traces)}"
            )
        if self.think_time < 0:
            raise ValueError("think_time must be non-negative")
        if not self.populations or any(int(p) < 1 for p in self.populations):
            raise ValueError("populations must be a non-empty list of ints >= 1")
        window_ticks = self.window_seconds * self.ticks_per_second
        if self.ticks_per_second < 1 or abs(window_ticks - round(window_ticks)) > 1e-9 or round(window_ticks) < 1:
            raise ValueError(
                "window_seconds * ticks_per_second must be a positive whole "
                "number of ticks"
            )
        for knob in (
            "chunk_events",
            "max_chunks_per_cycle",
            "refit_windows",
            "fit_horizon_windows",
            "min_fit_windows",
            "queue_maxlen",
            "checkpoint_every",
        ):
            if int(getattr(self, knob)) < 1:
                raise ValueError(f"{knob} must be >= 1")
        if self.min_fit_windows > self.fit_horizon_windows:
            raise ValueError("min_fit_windows must not exceed fit_horizon_windows")
        if self.stage_retries < 0 or self.stall_cycles < 1:
            raise ValueError("stage_retries must be >= 0 and stall_cycles >= 1")

    @property
    def window_ticks(self) -> int:
        return int(round(self.window_seconds * self.ticks_per_second))

    def config_hash(self) -> str:
        """Digest of the determinism-relevant configuration.

        A checkpoint resumed under a different hash would silently change
        window geometry or pipeline decisions mid-stream, so resume refuses
        it (``--reset`` starts over instead).
        """
        payload = {k: v for k, v in self.to_dict().items()}
        return hashlib.sha256(_canonical(payload).encode("utf-8")).hexdigest()

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "traces": {name: str(path) for name, path in sorted(self.traces.items())},
            "think_time": self.think_time,
            "populations": [int(p) for p in self.populations],
            "ticks_per_second": self.ticks_per_second,
            "window_seconds": self.window_seconds,
            "chunk_events": self.chunk_events,
            "max_chunks_per_cycle": self.max_chunks_per_cycle,
            "refit_windows": self.refit_windows,
            "fit_horizon_windows": self.fit_horizon_windows,
            "min_fit_windows": self.min_fit_windows,
            "estimator": dict(self.estimator),
            "stage_timeout_seconds": self.stage_timeout_seconds,
            "stage_retries": self.stage_retries,
            "breaker_threshold": self.breaker_threshold,
            "breaker_backoff_cycles": self.breaker_backoff_cycles,
            "breaker_backoff_cap_cycles": self.breaker_backoff_cap_cycles,
            "queue_maxlen": self.queue_maxlen,
            "stall_cycles": self.stall_cycles,
            "checkpoint_every": self.checkpoint_every,
        }

    @classmethod
    def from_dict(cls, payload: dict, base_dir: Path | None = None) -> "ServiceConfig":
        if not isinstance(payload, dict):
            raise ValueError("service config must be a JSON object")
        unknown = set(payload) - {f.name for f in cls.__dataclass_fields__.values()}  # type: ignore[attr-defined]
        if unknown:
            raise ValueError(f"unknown service config keys: {sorted(unknown)}")
        for required in ("name", "traces", "think_time", "populations"):
            if required not in payload:
                raise ValueError(f"service config is missing required key {required!r}")
        payload = dict(payload)
        traces = {
            str(name): str(path) for name, path in dict(payload["traces"]).items()
        }
        if base_dir is not None:
            traces = {
                name: str(path if os.path.isabs(path) else Path(base_dir) / path)
                for name, path in traces.items()
            }
        payload["traces"] = traces
        payload["populations"] = tuple(int(p) for p in payload["populations"])
        return cls(**payload)

    @classmethod
    def from_json(cls, path) -> "ServiceConfig":
        """Load and validate a config file; relative traces resolve next to it."""
        path = Path(path)
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except OSError as error:
            raise ValueError(f"cannot read service config {path}: {error}") from error
        except json.JSONDecodeError as error:
            raise ValueError(f"service config {path} is not valid JSON: {error}") from error
        return cls.from_dict(payload, base_dir=path.parent)


# ----------------------------------------------------------------------
# The daemon
# ----------------------------------------------------------------------
@dataclass
class _StageStats:
    ok: int = 0
    failed: int = 0
    retried: int = 0

    def to_dict(self) -> dict:
        return {"ok": self.ok, "failed": self.failed, "retried": self.retried}

    @classmethod
    def from_dict(cls, payload: dict) -> "_StageStats":
        return cls(
            ok=int(payload["ok"]),
            failed=int(payload["failed"]),
            retried=int(payload["retried"]),
        )


class WhatIfService:
    """One service instance bound to a state directory.

    Construct with :meth:`open` — it warm-starts from the directory's
    checkpoint and last-known-good registry when present, cold-starts
    otherwise — then drive with :meth:`run` (or :meth:`run_cycle` in
    tests).  ``drain_requested`` may be flipped at any time (the CLI's
    SIGTERM handler does); the loop finishes the cycle in flight, writes a
    final checkpoint + health snapshot and returns.
    """

    def __init__(self, config: ServiceConfig, state_dir) -> None:
        self.config = config
        self.state_dir = Path(state_dir)
        self.state_dir.mkdir(parents=True, exist_ok=True)
        self.registry = ModelRegistry(self.state_dir)
        self.drain_requested = False
        self.cycle = 0
        self.accumulators = {
            name: WindowedTraceAccumulator(config.window_ticks, config.ticks_per_second)
            for name in _STATIONS
        }
        self.offsets = {name: 0 for name in _STATIONS}
        self.invocations = {f"ingest/{name}": 0 for name in _STATIONS}
        self.invocations.update({"fit": 0, "solve": 0})
        self.breakers = {
            stage: CircuitBreaker(
                threshold=config.breaker_threshold,
                backoff_cycles=config.breaker_backoff_cycles,
                backoff_cap_cycles=config.breaker_backoff_cap_cycles,
            )
            for stage in _STAGES
        }
        self.stats = {stage: _StageStats() for stage in _STAGES}
        self.fit_queue = BoundedWindowQueue(config.queue_maxlen)
        self.fitted_upto = 0
        self.last_good: LastKnownGood | None = None
        self.refits_failed_since_good = 0
        self.no_new_cycles = 0
        self.events_total = 0
        self.last_errors: dict = {}
        # The stage worker pool, made at the first stage; a finalizer stops
        # its worker when the service is dropped without close().
        self._workers: WorkerPool | None = None

    # ------------------------------------------------------------------
    # Construction / resume
    # ------------------------------------------------------------------
    @property
    def checkpoint_path(self) -> Path:
        return self.state_dir / _CHECKPOINT_NAME

    @property
    def health_path(self) -> Path:
        return self.state_dir / _HEALTH_NAME

    @classmethod
    def open(cls, config: ServiceConfig, state_dir, reset: bool = False) -> "WhatIfService":
        """Warm-start from the state directory, or cold-start it.

        A checkpoint written under a different config hash refuses to
        resume (:class:`CheckpointMismatchError`) unless ``reset`` wipes
        the checkpoint, registry and health snapshot first.
        """
        service = cls(config, state_dir)
        if reset:
            for name in (_CHECKPOINT_NAME, _HEALTH_NAME, "registry.json"):
                (service.state_dir / name).unlink(missing_ok=True)
            for pattern in ("model-*.json", "forecast-*.json"):
                for path in service.state_dir.glob(pattern):
                    path.unlink(missing_ok=True)
            return service
        if service.checkpoint_path.exists():
            service._load_checkpoint()
            service.last_good = service.registry.load()
        return service

    def _load_checkpoint(self) -> None:
        payload = json.loads(self.checkpoint_path.read_text(encoding="utf-8"))
        recorded = payload.get("config_hash")
        current = self.config.config_hash()
        if recorded != current:
            raise CheckpointMismatchError(
                f"checkpoint in {self.state_dir} was written under config hash "
                f"{recorded}, current config hashes to {current}; pass --reset "
                "to discard the old state"
            )
        self.cycle = int(payload["cycle"])
        self.offsets = {name: int(payload["offsets"][name]) for name in _STATIONS}
        self.accumulators = {
            name: WindowedTraceAccumulator.from_state(payload["accumulators"][name])
            for name in _STATIONS
        }
        for stage, breaker in self.breakers.items():
            breaker.load_state(payload["breakers"][stage])
        self.stats = {
            stage: _StageStats.from_dict(payload["stats"][stage]) for stage in _STAGES
        }
        self.fit_queue.load_state(payload["fit_queue"])
        self.invocations = {key: int(v) for key, v in payload["invocations"].items()}
        self.fitted_upto = int(payload["fitted_upto"])
        self.refits_failed_since_good = int(payload["refits_failed_since_good"])
        self.no_new_cycles = int(payload["no_new_cycles"])
        self.events_total = int(payload["events_total"])

    def checkpoint_payload(self) -> dict:
        """The exact-resume state (pure integers/strings — no clocks)."""
        return {
            "config_hash": self.config.config_hash(),
            "cycle": self.cycle,
            "offsets": dict(sorted(self.offsets.items())),
            "accumulators": {
                name: self.accumulators[name].state_dict() for name in _STATIONS
            },
            "breakers": {
                stage: self.breakers[stage].state_dict() for stage in _STAGES
            },
            "stats": {stage: self.stats[stage].to_dict() for stage in _STAGES},
            "fit_queue": self.fit_queue.state_dict(),
            "invocations": dict(sorted(self.invocations.items())),
            "fitted_upto": self.fitted_upto,
            "refits_failed_since_good": self.refits_failed_since_good,
            "no_new_cycles": self.no_new_cycles,
            "events_total": self.events_total,
        }

    def write_checkpoint(self) -> None:
        _atomic_write_text(self.checkpoint_path, _canonical(self.checkpoint_payload()))

    # ------------------------------------------------------------------
    # Health
    # ------------------------------------------------------------------
    @property
    def complete_windows(self) -> int:
        """Windows fully covered by *every* station's trace so far."""
        return min(acc.complete_windows for acc in self.accumulators.values())

    @property
    def staleness_windows(self) -> int | None:
        """How far the served model trails the data, in windows."""
        if self.last_good is None:
            return None
        return max(0, self.complete_windows - self.last_good.window_end)

    @property
    def forecast_stale(self) -> bool:
        """Whether the served forecast is degraded rather than fresh."""
        if self.last_good is None:
            return False
        if self.refits_failed_since_good > 0:
            return True
        staleness = self.staleness_windows
        return staleness is not None and staleness > 2 * self.config.refit_windows

    @property
    def serving(self) -> str:
        if self.last_good is None:
            return "none"
        return "last-known-good" if self.forecast_stale else "fresh"

    @property
    def status(self) -> str:
        """``healthy`` | ``degraded`` | ``stalled`` (worst condition wins)."""
        if (
            self.breakers["ingest"].state == "open"
            or self.no_new_cycles >= self.config.stall_cycles
        ):
            return "stalled"
        if (
            any(b.state != "closed" for b in self.breakers.values())
            or self.refits_failed_since_good > 0
            or self.forecast_stale
        ):
            return "degraded"
        return "healthy"

    def health_payload(self, heartbeat_unix: float) -> dict:
        return {
            "status": self.status,
            "serving": self.serving,
            "cycle": self.cycle,
            "heartbeat_unix": heartbeat_unix,
            "complete_windows": self.complete_windows,
            "events_total": self.events_total,
            "staleness_windows": self.staleness_windows,
            "refits_failed_since_good": self.refits_failed_since_good,
            "dropped_windows": self.fit_queue.dropped,
            "fit_backlog": len(self.fit_queue),
            "no_new_cycles": self.no_new_cycles,
            "last_good": None if self.last_good is None else self.last_good.to_meta(),
            "stages": {
                stage: {
                    **self.stats[stage].to_dict(),
                    "invocations": (
                        sum(
                            count
                            for key, count in self.invocations.items()
                            if key.startswith("ingest/")
                        )
                        if stage == "ingest"
                        else self.invocations[stage]
                    ),
                    "breaker": self.breakers[stage].state,
                    "breaker_opens": self.breakers[stage].opens,
                    "consecutive_failures": self.breakers[stage].consecutive_failures,
                    "last_error": self.last_errors.get(stage),
                }
                for stage in _STAGES
            },
        }

    def write_health(self) -> None:
        import time

        _atomic_write_text(
            self.health_path, _canonical(self.health_payload(time.time()))
        )

    # ------------------------------------------------------------------
    # The cycle
    # ------------------------------------------------------------------
    def run_cycle(self) -> str:
        """One ingest → (fit → solve) pass; returns the resulting status."""
        self.cycle += 1
        new_events = self._ingest_all()
        if new_events == 0:
            self.no_new_cycles += 1
        else:
            self.no_new_cycles = 0
        self._queue_refit_target()
        self._refit_and_solve()
        # Every fit reads from its target minus the horizon, and targets
        # only grow: nothing below this line is ever read again.
        oldest_target = min([*self.fit_queue.items, self.complete_windows])
        line = max(0, oldest_target - self.config.fit_horizon_windows)
        for accumulator in self.accumulators.values():
            accumulator.discard_before(line)
        if self.cycle % self.config.checkpoint_every == 0:
            self.write_checkpoint()
        self.write_health()
        return self.status

    def run(self, cycles: int | None = None, idle_sleep: float = 0.2) -> str:
        """Drive cycles until the budget runs out or a drain is requested."""
        import time

        done = 0
        try:
            while not self.drain_requested and (cycles is None or done < cycles):
                before = self.events_total
                self.run_cycle()
                done += 1
                if cycles is None and self.events_total == before and idle_sleep > 0:
                    time.sleep(idle_sleep)
            self.write_checkpoint()
            self.write_health()
        finally:
            self.close()
        return self.status

    def close(self) -> None:
        """Stop the stage worker (a later stage forks a new one)."""
        if self._workers is not None:
            self._workers.close()
            self._workers = None

    def _stage(self, key: str, execute, payload: dict) -> StageOutcome:
        """One supervised stage invocation on the service's stage worker."""
        if self._workers is None:
            self._workers = WorkerPool(1)
            weakref.finalize(self, self._workers.close)
        return run_stage(
            key,
            execute,
            payload,
            timeout=self.config.stage_timeout_seconds,
            retries=self.config.stage_retries,
            pool=self._workers,
        )

    # ------------------------------------------------------------------
    def _ingest_all(self) -> int:
        """Supervised tail of every station's trace; returns new event count."""
        breaker = self.breakers["ingest"]
        if not breaker.allow(self.cycle):
            return 0
        new_events = 0
        ok = True
        message = None
        for name in _STATIONS:
            key = f"service/ingest/{name}"
            counter = f"ingest/{name}"
            self.invocations[counter] += 1
            outcome = self._stage(
                key,
                execute_ingest,
                {
                    "key": key,
                    "invocation": self.invocations[counter],
                    "path": self.config.traces[name],
                    "offset": self.offsets[name],
                    "chunk_events": self.config.chunk_events,
                    "max_chunks": self.config.max_chunks_per_cycle,
                    "window_ticks": self.config.window_ticks,
                    "ticks_per_second": self.config.ticks_per_second,
                },
            )
            self.stats["ingest"].retried += outcome.retries
            if not outcome.ok:
                ok = False
                message = f"{name}: [{outcome.kind}] {outcome.message}"
                break
            delta = WindowedTraceAccumulator.from_state(outcome.value["state"])
            self.accumulators[name].merge(delta)
            self.offsets[name] = int(outcome.value["offset"])
            new_events += int(outcome.value["events"])
        if ok:
            self.stats["ingest"].ok += 1
            breaker.record_success()
            self.last_errors.pop("ingest", None)
        else:
            self.stats["ingest"].failed += 1
            breaker.record_failure(self.cycle)
            self.last_errors["ingest"] = message
        self.events_total += new_events
        return new_events

    def _queue_refit_target(self) -> None:
        """Queue a refit once every station has ``refit_windows`` new windows."""
        complete = self.complete_windows
        if complete - self.fitted_upto < self.config.refit_windows:
            return
        if complete < self.config.min_fit_windows:
            return
        if self.fit_queue.items and self.fit_queue.items[-1] >= complete:
            return
        self.fit_queue.push(complete)

    def _refit_and_solve(self) -> None:
        if not self.fit_queue.items:
            return
        fit_breaker = self.breakers["fit"]
        solve_breaker = self.breakers["solve"]
        if not fit_breaker.allow(self.cycle):
            return
        window_end = int(self.fit_queue.pop())
        # A trace that starts after window 0 is fitted from its first window.
        bases = [acc.base for acc in self.accumulators.values()]
        start = max(window_end - self.config.fit_horizon_windows, *bases)
        self.invocations["fit"] += 1
        fit_payload = {
            "key": "service/fit",
            "invocation": self.invocations["fit"],
            "estimator": dict(self.config.estimator),
            "stations": {},
        }
        try:
            for name in _STATIONS:
                snapshot = self.accumulators[name].snapshot(start, window_end)
                fit_payload["stations"][name] = {
                    "utilizations": snapshot.utilizations,
                    "completions": snapshot.completions,
                    "period": snapshot.period,
                    "mean_service": snapshot.mean_service_time(),
                }
        except ValueError as error:
            # A window slice the estimator cannot use (no completions, or
            # overlapping trace records) degrades exactly like a failed fit.
            self.stats["fit"].failed += 1
            fit_breaker.record_failure(self.cycle)
            self.refits_failed_since_good += 1
            self.last_errors["fit"] = f"[error] {error}"
            return
        outcome = self._stage("service/fit", execute_fit, fit_payload)
        self.stats["fit"].retried += outcome.retries
        if not outcome.ok:
            self.stats["fit"].failed += 1
            fit_breaker.record_failure(self.cycle)
            self.refits_failed_since_good += 1
            self.last_errors["fit"] = f"[{outcome.kind}] {outcome.message}"
            return
        self.stats["fit"].ok += 1
        fit_breaker.record_success()
        self.last_errors.pop("fit", None)
        model = {
            "stations": outcome.value["stations"],
            "think_time": float(self.config.think_time),
            "window_start": start,
            "window_end": window_end,
        }
        if not solve_breaker.allow(self.cycle):
            self.refits_failed_since_good += 1
            return
        self.invocations["solve"] += 1
        solve_outcome = self._stage(
            "service/solve",
            execute_solve,
            {
                "key": "service/solve",
                "invocation": self.invocations["solve"],
                "model": model,
                "populations": [int(p) for p in self.config.populations],
            },
        )
        self.stats["solve"].retried += solve_outcome.retries
        if not solve_outcome.ok:
            self.stats["solve"].failed += 1
            solve_breaker.record_failure(self.cycle)
            self.refits_failed_since_good += 1
            self.last_errors["solve"] = f"[{solve_outcome.kind}] {solve_outcome.message}"
            return
        self.stats["solve"].ok += 1
        solve_breaker.record_success()
        self.last_errors.pop("solve", None)
        forecast = {
            "model_cycle": self.cycle,
            "window_start": start,
            "window_end": window_end,
            "think_time": float(self.config.think_time),
            "rows": solve_outcome.value["rows"],
            "stations": {
                name: {
                    "mean_service": model["stations"][name]["mean_service"],
                    "dispersion": model["stations"][name]["dispersion"],
                    "p95": model["stations"][name]["p95"],
                }
                for name in _STATIONS
            },
        }
        good = LastKnownGood(
            cycle=self.cycle, window_end=window_end, model=model, forecast=forecast
        )
        self.registry.promote(good)
        self.last_good = good
        self.fitted_upto = window_end
        self.refits_failed_since_good = 0
