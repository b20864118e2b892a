"""Supervised service stages: breakers, bounded queues, worker functions.

Each pipeline stage of the live service (ingest → fit → solve) executes in
a forked worker process under the experiment framework's supervision
envelope (:func:`repro.experiments.supervision.run_supervised` — per-stage
wall-clock timeout, bounded retries with jittered backoff, crash
isolation).  The service does not duplicate that machinery; it wraps one
:class:`SupervisedTask` per stage invocation, passes its own row validator,
and sets the failure budget effectively infinite — a stage that exhausts
its retries becomes a :class:`StageOutcome` the daemon degrades on, never
an aborted run.  All stages of one service share a single-worker
:class:`~repro.experiments.supervision.WorkerPool`, so a healthy service
forks one worker for its lifetime; a failed attempt retires that worker
and the next attempt forks a fresh one.

Two small deterministic mechanisms complete the self-healing story:

* :class:`CircuitBreaker` — after ``threshold`` consecutive stage failures
  the breaker opens and the daemon stops attempting the stage for a number
  of *cycles* (not wall-clock — bit-identical across reruns), doubling the
  hold on every failed half-open probe up to a cap;
* :class:`BoundedWindowQueue` — inter-stage buffering with explicit
  backpressure: when the consumer falls behind, the *oldest* pending
  entries are shed (newest data wins for a live estimator) and every drop
  is counted for the health snapshot.

Fault injection: the service-specific kinds (``fit-diverge``,
``solve-crash``, ``ingest-stall``) are interpreted *inside* the stage
worker functions, each narrowed to the kinds that make sense for it, and
matched against the stage's **lifetime invocation counter** (persisted in
the service checkpoint) rather than the per-invocation retry attempt — so
``fit-diverge:*:2`` deterministically fails the first two refits ever and
lets later ones succeed, which is the degrade→recover arc the chaos smoke
drives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.core.dispersion import estimate_index_of_dispersion
from repro.core.map_fitting import MapFitError, fit_map2_from_measurements
from repro.core.percentiles import estimate_service_percentile
from repro.experiments.faults import active_directives, matching_directive
from repro.experiments.supervision import (
    SupervisedTask,
    SupervisionPolicy,
    WorkerPool,
    run_supervised,
)
from repro.service.registry import map_from_payload, map_to_payload
from repro.service.streaming import WindowedTraceAccumulator, read_trace_chunk

__all__ = [
    "BoundedWindowQueue",
    "CircuitBreaker",
    "StageOutcome",
    "execute_fit",
    "execute_ingest",
    "execute_solve",
    "run_stage",
]

_FIT_KINDS = frozenset({"fit-diverge"})
_SOLVE_KINDS = frozenset({"solve-crash"})
_INGEST_KINDS = frozenset({"ingest-stall"})

#: An injected stall sleeps this long; the stage timeout reaps the worker.
_STALL_SLEEP_SECONDS = 3600.0


# ----------------------------------------------------------------------
# Circuit breaker (cycle-denominated, hence deterministic)
# ----------------------------------------------------------------------
class CircuitBreaker:
    """Classic closed → open → half-open breaker, counted in service cycles.

    ``record_failure``/``record_success`` feed it per attempted invocation;
    ``allow(cycle)`` gates the next one.  While open, attempts are skipped
    until ``backoff_cycles`` cycles have passed, then one half-open probe is
    allowed; a failed probe re-opens with the hold doubled (capped at
    ``backoff_cap_cycles``), a successful probe closes and resets.
    """

    def __init__(
        self,
        threshold: int = 3,
        backoff_cycles: int = 2,
        backoff_cap_cycles: int = 16,
    ) -> None:
        if threshold < 1 or backoff_cycles < 1 or backoff_cap_cycles < backoff_cycles:
            raise ValueError(
                "breaker needs threshold >= 1 and 1 <= backoff_cycles <= cap"
            )
        self.threshold = threshold
        self.base_backoff = backoff_cycles
        self.backoff_cap = backoff_cap_cycles
        self.state = "closed"
        self.consecutive_failures = 0
        self.current_backoff = backoff_cycles
        self.open_until_cycle = 0
        self.opens = 0

    def allow(self, cycle: int) -> bool:
        """Whether the stage may be attempted at this cycle."""
        if self.state == "open":
            if cycle >= self.open_until_cycle:
                self.state = "half-open"
                return True
            return False
        return True

    def record_success(self) -> None:
        self.state = "closed"
        self.consecutive_failures = 0
        self.current_backoff = self.base_backoff

    def record_failure(self, cycle: int) -> None:
        self.consecutive_failures += 1
        if self.state == "half-open":
            # Failed probe: hold twice as long before the next one.
            self.current_backoff = min(self.current_backoff * 2, self.backoff_cap)
            self._open(cycle)
        elif self.consecutive_failures >= self.threshold:
            self._open(cycle)

    def _open(self, cycle: int) -> None:
        self.state = "open"
        self.open_until_cycle = cycle + self.current_backoff
        self.opens += 1

    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        return {
            "state": self.state,
            "consecutive_failures": self.consecutive_failures,
            "current_backoff": self.current_backoff,
            "open_until_cycle": self.open_until_cycle,
            "opens": self.opens,
        }

    def load_state(self, state: dict) -> None:
        if state["state"] not in ("closed", "open", "half-open"):
            raise ValueError(f"corrupt breaker state {state['state']!r}")
        self.state = state["state"]
        self.consecutive_failures = int(state["consecutive_failures"])
        self.current_backoff = int(state["current_backoff"])
        self.open_until_cycle = int(state["open_until_cycle"])
        self.opens = int(state["opens"])


# ----------------------------------------------------------------------
# Bounded inter-stage queue (sheds oldest, counts drops)
# ----------------------------------------------------------------------
class BoundedWindowQueue:
    """FIFO of pending work items with a hard bound and drop accounting.

    A live estimator prefers fresh windows over old ones, so overflow sheds
    the *oldest* entry.  Every shed is counted; the daemon surfaces the
    counter in the health snapshot so backpressure is visible instead of
    silent.  Items must be JSON-safe (they ride in the checkpoint).
    """

    def __init__(self, maxlen: int) -> None:
        if maxlen < 1:
            raise ValueError("queue maxlen must be >= 1")
        self.maxlen = maxlen
        self.items: list[Any] = []
        self.dropped = 0

    def push(self, item: Any) -> None:
        self.items.append(item)
        while len(self.items) > self.maxlen:
            self.items.pop(0)
            self.dropped += 1

    def pop(self) -> Any:
        return self.items.pop(0)

    def __len__(self) -> int:
        return len(self.items)

    def state_dict(self) -> dict:
        return {"maxlen": self.maxlen, "items": list(self.items), "dropped": self.dropped}

    def load_state(self, state: dict) -> None:
        self.maxlen = int(state["maxlen"])
        self.items = list(state["items"])
        self.dropped = int(state["dropped"])


# ----------------------------------------------------------------------
# Stage execution under the shared supervision envelope
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class StageOutcome:
    """Settled result of one supervised stage invocation."""

    ok: bool
    value: Any = None
    kind: str | None = None
    message: str | None = None
    retries: int = 0


def _service_rows_valid(rows, task: SupervisedTask) -> bool:
    """Service stage contract: exactly one ``(stage_key, dict)`` row."""
    return (
        isinstance(rows, list)
        and len(rows) == 1
        and isinstance(rows[0], tuple)
        and len(rows[0]) == 2
        and rows[0][0] == task.keys[0]
        and isinstance(rows[0][1], dict)
    )


def run_stage(
    key: str,
    execute: Callable[[Any], list],
    payload: dict,
    timeout: float | None,
    retries: int,
    pool: WorkerPool,
) -> StageOutcome:
    """Run one stage invocation under the shared supervision envelope.

    Reuses :func:`run_supervised` wholesale (worker process, timeout kill,
    retry backoff, crash classification); the effectively-infinite failure
    budget turns "retries exhausted" into a returned outcome instead of a
    raised :class:`FailureBudgetExceeded` — degrading is the daemon's job.
    The stage runs on ``pool``'s worker: the service passes its own
    single-worker pool, kept across stages and cycles.
    """
    task = SupervisedTask(payload=payload, keys=(key,), cells=((key, "service", 0, 0),))
    policy = SupervisionPolicy(
        cell_timeout=timeout,
        retries=retries,
        max_failures=1_000_000,
        backoff_base=0.01,
        backoff_cap=0.25,
    )
    value = None
    retried = 0
    failure = None
    for event, data in run_supervised(
        [task], execute, policy, jobs=1, validate_rows=_service_rows_valid, pool=pool
    ):
        if event == "rows":
            value = data[0][1]
        elif event == "retry":
            retried += 1
        elif event == "failures":
            failure = data[0]
    if failure is not None:
        return StageOutcome(
            ok=False, kind=failure.kind, message=failure.message, retries=retried
        )
    if value is None:
        return StageOutcome(
            ok=False, kind="corrupt", message="stage yielded no rows", retries=retried
        )
    return StageOutcome(ok=True, value=value, retries=retried)


def _injected(key: str, invocation: int, kinds: frozenset) -> Any:
    """The matching service fault directive for this stage invocation.

    ``invocation`` is the stage's lifetime counter, deliberately *not* the
    supervision retry attempt — retries of one invocation share the
    injection decision, so ``solve-crash:*:1`` crashes every retry of the
    first solve and the stage settles as a real permanent failure.
    """
    return matching_directive(active_directives(), key, invocation, kinds=kinds)


def execute_ingest(payload: dict) -> list:
    """Worker: read up to ``max_chunks`` trace chunks into a fresh delta.

    Returns the delta accumulator's exact integer state plus the advanced
    offset; the daemon merges the delta into its master accumulator —
    mergeability is what makes running ingest in a disposable worker safe.
    """
    key = payload["key"]
    directive = _injected(key, payload["invocation"], _INGEST_KINDS)
    if directive is not None:
        import time

        time.sleep(_STALL_SLEEP_SECONDS)
    delta = WindowedTraceAccumulator(
        payload["window_ticks"], payload["ticks_per_second"]
    )
    offset = int(payload["offset"])
    for _ in range(int(payload["max_chunks"])):
        records, offset = read_trace_chunk(
            payload["path"], offset, int(payload["chunk_events"])
        )
        if records.shape[0] == 0:
            break
        delta.ingest(records)
    return [
        (
            key,
            {
                "state": delta.state_dict(),
                "offset": offset,
                "events": delta.events,
            },
        )
    ]


def execute_fit(payload: dict) -> list:
    """Worker: estimate (mean, I, p95) per station and fit a MAP(2) each."""
    key = payload["key"]
    if _injected(key, payload["invocation"], _FIT_KINDS) is not None:
        raise MapFitError(
            "injected fit divergence",
            target_mean=float("nan"),
            target_dispersion=float("nan"),
        )
    estimator_kwargs = payload.get("estimator", {})
    stations = {}
    for name, data in payload["stations"].items():
        utilizations = np.asarray(data["utilizations"], dtype=float)
        completions = np.asarray(data["completions"], dtype=float)
        period = float(data["period"])
        mean_service = float(data["mean_service"])
        dispersion = estimate_index_of_dispersion(
            utilizations, completions, period, **estimator_kwargs
        )
        p95 = estimate_service_percentile(utilizations, completions, period)
        fitted = fit_map2_from_measurements(
            mean_service, dispersion.index_of_dispersion, p95
        )
        stations[name] = {
            "mean_service": mean_service,
            "dispersion": float(dispersion.index_of_dispersion),
            "dispersion_converged": bool(dispersion.converged),
            "p95": float(p95),
            "map": map_to_payload(fitted.map),
        }
    return [(key, {"stations": stations})]


def execute_solve(payload: dict) -> list:
    """Worker: solve the closed MAP network what-if sweep from a fitted model."""
    key = payload["key"]
    directive = _injected(key, payload["invocation"], _SOLVE_KINDS)
    if directive is not None:
        import os

        os._exit(73)
    from repro.queueing.map_network import MapClosedNetworkSolver

    model = payload["model"]
    solver = MapClosedNetworkSolver(
        front_service=map_from_payload(model["stations"]["front"]["map"]),
        db_service=map_from_payload(model["stations"]["db"]["map"]),
        think_time=float(model["think_time"]),
    )
    rows = []
    for population in payload["populations"]:
        result = solver.solve(int(population))
        rows.append(
            {
                "population": int(population),
                "throughput": float(result.throughput),
                "response_time": float(result.response_time),
                "front_utilization": float(result.front_utilization),
                "db_utilization": float(result.db_utilization),
            }
        )
    return [(key, {"rows": rows})]
