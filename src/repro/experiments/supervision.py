"""Per-cell supervision: timeouts, retries with backoff, crash isolation.

The bare ``multiprocessing.Pool`` the runner used to fan out with has a
production problem: one OOM-killed worker on a huge solve, or one hung
scipy call, poisons the whole campaign.  This module replaces it with a
*supervision envelope* around each work unit:

* units run in a :class:`WorkerPool` of up to ``jobs`` forked worker
  processes; each worker serves many units over its own pipe (receive a
  task, execute it, send the rows back), so a run forks once per worker
  rather than once per unit,
* a per-cell wall-clock timeout (``cell_timeout``) kills hung workers,
* crashed / timed-out / erroring / corrupt-returning units are retried up
  to ``retries`` times with exponential backoff and decorrelated jitter;
  the worker of a failed attempt is retired, so every retry starts in a
  fresh fork,
* a unit that exhausts its retries becomes a typed
  :class:`~repro.experiments.results.CellFailure` instead of an exception —
  until more than ``max_failures`` cells have failed, at which point
  :class:`FailureBudgetExceeded` aborts the run (the default budget of 0
  makes any post-retry failure fatal; raise it to degrade gracefully to
  partial results).

Workers are forked lazily, on the first task that needs one, so they
inherit whatever the caller warmed before dispatching (the runner's shared
inputs).  A pool lives as long as its owner decides: :func:`run_supervised`
opens and closes one per call unless it is handed one (the live service
keeps one single-worker pool across all its stage invocations).

Retry determinism: a work unit is a pure function of its payload (the cell
seed is derived from the spec and cell key, never from attempt count or
wall clock), so a cell that crashes twice and then succeeds returns rows
bit-identical to one that succeeded immediately.  Fault injection for tests
and chaos runs is read from ``REPRO_FAULT_INJECT``: each task carries the
dispatching process's value and the worker applies it before executing
(see :mod:`repro.experiments.faults`).
"""

from __future__ import annotations

import heapq
import itertools
import multiprocessing
import os
import random
import time
from dataclasses import dataclass
from multiprocessing import connection as mp_connection
from typing import Any, Callable, Iterator

from repro.experiments.faults import (
    FAULT_ENV,
    POOL_FAULT_KINDS,
    InjectedFault,
    active_directives,
    matching_directive,
)
from repro.experiments.results import CellFailure, CellResult

__all__ = [
    "FailureBudgetExceeded",
    "SupervisedTask",
    "SupervisionPolicy",
    "WorkerPool",
    "fork_context",
    "run_supervised",
]

#: Exit code of a worker killed by an injected crash (distinguishable from a
#: clean exit in supervisor logs; any non-zero exit is treated as a crash).
_CRASH_EXIT_CODE = 73

#: An injected hang sleeps this long; the per-cell timeout is expected to
#: reap the worker far earlier.
_HANG_SLEEP_SECONDS = 3600.0

#: Poll ceiling while waiting for a backoff window with no running workers.
_IDLE_WAIT_SECONDS = 0.5


class FailureBudgetExceeded(RuntimeError):
    """More cells failed than ``max_failures`` allows; the run is aborted."""

    def __init__(self, failures: list[CellFailure], budget: int) -> None:
        latest = ", ".join(failure.key for failure in failures[-3:])
        super().__init__(
            f"{len(failures)} cell(s) failed permanently, exceeding the "
            f"failure budget of {budget} (latest: {latest})"
        )
        self.failures = tuple(failures)
        self.budget = budget


@dataclass(frozen=True)
class SupervisionPolicy:
    """Knobs of the supervision envelope (CLI: ``--cell-timeout``,
    ``--retries``, ``--max-failures``)."""

    #: Wall-clock seconds one attempt of one work unit may take before its
    #: worker is killed; ``None`` disables the timeout.
    cell_timeout: float | None = None
    #: Retries after the first attempt (so a unit runs at most ``1+retries``
    #: times).
    retries: int = 2
    #: How many cells may fail permanently before the run aborts.
    max_failures: int = 0
    #: First retry backoff in seconds; later retries use decorrelated jitter
    #: (``sleep = min(cap, uniform(base, prev * 3))``).
    backoff_base: float = 0.05
    backoff_cap: float = 2.0

    def __post_init__(self) -> None:
        if self.cell_timeout is not None and self.cell_timeout <= 0:
            raise ValueError("cell_timeout must be positive when given")
        if self.retries < 0:
            raise ValueError("retries must be >= 0")
        if self.max_failures < 0:
            raise ValueError("max_failures must be >= 0")
        if self.backoff_base <= 0 or self.backoff_cap < self.backoff_base:
            raise ValueError("backoff must satisfy 0 < base <= cap")


@dataclass(frozen=True)
class SupervisedTask:
    """One supervised work unit (a single cell or a batched replication set).

    ``cells`` carries ``(key, solver_label, seed, replication)`` per covered
    cell so a permanent failure can be recorded per cell in the manifest.
    """

    payload: Any
    keys: tuple[str, ...]
    cells: tuple[tuple[str, str, int, int], ...]


def _run_task(conn, execute, payload, keys, attempt) -> None:
    """Apply fault injection, execute one task, ship the rows or the error."""
    directive = None
    for key in keys:
        directive = matching_directive(
            active_directives(), key, attempt, kinds=POOL_FAULT_KINDS
        )
        if directive is not None:
            break
    try:
        if directive is not None:
            if directive.kind == "crash":
                os._exit(_CRASH_EXIT_CODE)
            if directive.kind == "hang":
                time.sleep(_HANG_SLEEP_SECONDS)
                os._exit(_CRASH_EXIT_CODE)
            if directive.kind == "corrupt":
                conn.send(("rows", [("__corrupt__", None) for _ in keys]))
                return
            raise InjectedFault(
                f"injected error for {keys[0]!r} (attempt {attempt})"
            )
        rows = execute(payload)
    except BaseException as error:  # ship the failure; never die silently
        try:
            conn.send(("error", f"{type(error).__name__}: {error}"))
        except (BrokenPipeError, OSError):
            pass
        return
    conn.send(("rows", rows))


def _worker_main(conn, inherited) -> None:
    """Worker loop: receive a task, run it, send the result, repeat.

    ``inherited`` are the parent-side pipe ends the fork copied; closing
    them lets this worker see EOF (and exit) once its parent is gone.
    """
    for other in inherited:
        other.close()
    while True:
        try:
            task = conn.recv()
        except (EOFError, OSError):
            return
        fault_spec, execute, payload, keys, attempt = task
        if fault_spec:
            os.environ[FAULT_ENV] = fault_spec
        else:
            os.environ.pop(FAULT_ENV, None)
        _run_task(conn, execute, payload, keys, attempt)


def fork_context():
    """Multiprocessing context of every worker the engine starts: ``fork``
    where available (cheap, and children inherit ``sys.path`` and the
    warmed shared inputs)."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else None)


@dataclass(eq=False)
class _Worker:
    process: Any
    conn: Any
    #: Monotonic time past which the current task counts as hung (``None``:
    #: no bound), and the bound it came from.
    deadline: float | None = None
    timeout: float | None = None


class WorkerPool:
    """Up to ``size`` forked workers, each serving many tasks in turn.

    :meth:`submit` hands a task to an idle worker, forking one when none is
    idle; the caller keeps at most ``size`` tasks in flight and collects
    their outcomes with :meth:`wait`.  A worker whose task returned valid
    rows goes back to the idle list; any other outcome retires it
    (:meth:`retire` kills and joins it), so no task runs in a process a
    failed attempt may have left inconsistent.  :meth:`close` kills and
    joins every worker and may be called repeatedly.
    """

    def __init__(self, size: int) -> None:
        self.size = max(1, size)
        self._context = fork_context()
        self._idle: list[_Worker] = []
        self._workers: list[_Worker] = []

    def submit(self, task: tuple, timeout: float | None = None) -> _Worker:
        """Send ``(execute, payload, keys, attempt)`` to a worker; returns it.

        ``timeout`` bounds the task's wall clock: once that many seconds
        pass, :meth:`wait` retires the worker and reports a ``timeout``.
        """
        # The dispatcher's fault spec rides along, so a directive set after
        # the worker was forked still fires.
        message = (os.environ.get(FAULT_ENV, ""),) + task
        worker = None
        while self._idle and worker is None:
            candidate = self._idle.pop()
            try:
                candidate.conn.send(message)
                worker = candidate
            except OSError:  # it died while idle
                self.retire(candidate)
        if worker is None:
            parent_conn, child_conn = self._context.Pipe()
            inherited = [parent_conn] + [w.conn for w in self._workers]
            process = self._context.Process(
                target=_worker_main, args=(child_conn, inherited), daemon=True
            )
            process.start()
            child_conn.close()  # keep exactly one child end so EOF means death
            worker = _Worker(process, parent_conn)
            self._workers.append(worker)
            worker.conn.send(message)
        worker.timeout = timeout
        worker.deadline = time.monotonic() + timeout if timeout else None
        return worker

    def wait(
        self,
        busy,
        valid: Callable[[_Worker, Any], bool],
        timeout: float | None = None,
    ) -> list[tuple[_Worker, str, Any]]:
        """Settle the ``busy`` workers that finished or ran out of time.

        Blocks until one of them sends its result or passes its deadline,
        or ``timeout`` seconds pass.  Returns ``(worker, kind, body)`` per
        settled worker: ``("rows", rows)`` when ``valid(worker, rows)``
        accepts them (the worker goes back to the idle list); otherwise the
        worker is retired and ``kind`` classifies the failed attempt, with a
        message as ``body`` — ``crash`` (EOF: the worker died), ``error``
        (it shipped an exception), ``corrupt`` (any other message) or
        ``timeout`` (its deadline passed).
        """
        by_conn = {worker.conn: worker for worker in busy}
        now = time.monotonic()
        waits = [w.deadline - now for w in by_conn.values() if w.deadline is not None]
        if timeout is not None:
            waits.append(timeout)
        ready = mp_connection.wait(
            list(by_conn), timeout=max(0.0, min(waits)) if waits else None
        )
        settled = []
        for conn in ready:
            worker = by_conn.pop(conn)
            settled.append((worker, *self._collect(worker, valid)))
        now = time.monotonic()
        for worker in by_conn.values():
            if worker.deadline is not None and now >= worker.deadline:
                self.retire(worker)
                settled.append((
                    worker,
                    "timeout",
                    f"cell exceeded the {worker.timeout:g}s timeout; worker killed",
                ))
        return settled

    def _collect(self, worker: _Worker, valid) -> tuple[str, Any]:
        """Receive one finished task's message and classify it."""
        try:
            message = worker.conn.recv()
        except (EOFError, OSError):
            self.retire(worker, kill=False)
            return "crash", f"worker died with exit code {worker.process.exitcode}"
        tag = message[0] if isinstance(message, tuple) and len(message) == 2 else None
        if tag == "rows" and valid(worker, message[1]):
            self._idle.append(worker)
            return "rows", message[1]
        self.retire(worker)
        if tag == "error":
            return "error", str(message[1])
        if tag == "rows":
            detail = f"rows with unexpected keys or types, {len(message[1])} item(s)"
        else:
            detail = f"unexpected message of type {type(message).__name__}"
        return "corrupt", f"worker returned a corrupt payload ({detail})"

    def retire(self, worker: _Worker, kill: bool = True) -> None:
        """Drop a worker for good; ``kill=False`` for one already exiting."""
        self._workers.remove(worker)
        if kill:
            worker.process.kill()
        try:
            worker.conn.close()
        except OSError:
            pass
        worker.process.join()

    def close(self) -> None:
        # An idle worker has shipped its last result (and its spans), so
        # killing it loses nothing.
        for worker in list(self._workers):
            self.retire(worker)
        self._idle.clear()


@dataclass
class _Running:
    task: SupervisedTask
    attempt: int
    started: float
    prev_sleep: float


def run_supervised(
    tasks: list[SupervisedTask],
    execute: Callable[[Any], list],
    policy: SupervisionPolicy,
    jobs: int,
    validate_rows: Callable[[Any, SupervisedTask], bool] | None = None,
    pool: WorkerPool | None = None,
) -> Iterator[tuple[str, Any]]:
    """Execute tasks under supervision; yield events as units settle.

    Events: ``("rows", [(key, CellResult), ...])`` for a completed unit,
    ``("retry", keys)`` when an attempt failed and the unit was re-queued,
    ``("failures", [CellFailure, ...])`` when a unit exhausted its retries.
    Raises :class:`FailureBudgetExceeded` once permanent failures outnumber
    ``policy.max_failures`` (running workers are killed, completed rows have
    already been yielded).

    ``validate_rows`` decides whether a worker's payload is structurally
    acceptable (a rejected payload is classified as ``corrupt`` and retried).
    The default enforces the experiment runner's cell contract — one
    :class:`CellResult` per task key; other supervised pipelines (the live
    what-if service stages) pass their own validator instead of duplicating
    the envelope.

    Without ``pool`` the call runs on a :class:`WorkerPool` of ``jobs``
    workers that it closes before returning; a caller-owned ``pool`` stays
    open and caps the tasks in flight at ``min(jobs, pool.size)``.
    ``execute`` and every payload cross the pipe, so both must pickle
    (``execute`` by reference: a module-level function).
    """
    if validate_rows is None:
        validate_rows = _rows_valid
    owned = pool is None
    if pool is None:
        pool = WorkerPool(jobs)
    jobs = min(max(1, jobs), pool.size)
    max_attempts = 1 + policy.retries
    # Jitter only spaces out retry launches; results never depend on it.
    jitter = random.Random(0x5EED)
    sequence = itertools.count()
    # Heap of (not_before, tiebreak, task, attempt, prev_sleep).
    queue: list[tuple[float, int, SupervisedTask, int, float]] = []
    for task in tasks:
        heapq.heappush(queue, (0.0, next(sequence), task, 1, policy.backoff_base))
    running: dict[_Worker, _Running] = {}
    failures: list[CellFailure] = []

    def _valid(worker: _Worker, rows) -> bool:
        return validate_rows(rows, running[worker].task)

    def _settle(entry: _Running, kind: str, message: str):
        """Retry or record a failed attempt; returns the event to yield."""
        if entry.attempt < max_attempts:
            sleep = min(
                policy.backoff_cap,
                jitter.uniform(policy.backoff_base, max(policy.backoff_base, entry.prev_sleep * 3.0)),
            )
            heapq.heappush(
                queue,
                (time.monotonic() + sleep, next(sequence), entry.task, entry.attempt + 1, sleep),
            )
            return ("retry", entry.task.keys)
        elapsed = time.monotonic() - entry.started
        unit_failures = [
            CellFailure(
                key=key,
                solver=solver,
                kind=kind,
                attempts=entry.attempt,
                seed=seed,
                replication=replication,
                message=message,
                elapsed_seconds=elapsed,
            )
            for key, solver, seed, replication in entry.task.cells
        ]
        failures.extend(unit_failures)
        return ("failures", unit_failures)

    try:
        while queue or running:
            now = time.monotonic()
            while len(running) < jobs and queue and queue[0][0] <= now:
                _, _, task, attempt, prev_sleep = heapq.heappop(queue)
                worker = pool.submit(
                    (execute, task.payload, task.keys, attempt), policy.cell_timeout
                )
                running[worker] = _Running(task, attempt, time.monotonic(), prev_sleep)
            if not running:
                # Every unit is backing off; sleep until the earliest wakes.
                time.sleep(min(_IDLE_WAIT_SECONDS, max(0.0, queue[0][0] - now)))
                continue
            timeout = queue[0][0] - now if queue and len(running) < jobs else None
            # Pop every settled worker before yielding: the ``finally`` below
            # retires whatever is still in ``running``.
            settled = [
                (running.pop(worker), kind, body)
                for worker, kind, body in pool.wait(running, _valid, timeout)
            ]
            for entry, kind, body in settled:
                event = ("rows", body) if kind == "rows" else _settle(entry, kind, body)
                yield event
                if event[0] == "failures" and len(failures) > policy.max_failures:
                    raise FailureBudgetExceeded(failures, policy.max_failures)
    finally:
        for worker in running:
            pool.retire(worker)
        running.clear()
        if owned:
            pool.close()


def _rows_valid(rows, task: SupervisedTask) -> bool:
    """A worker result is accepted only if it covers exactly the task's cells.

    Only ``task.keys`` is read, so a fleet work unit serves as ``task`` too.
    """
    if not isinstance(rows, list) or len(rows) != len(task.keys):
        return False
    seen = set()
    for item in rows:
        if not (isinstance(item, tuple) and len(item) == 2):
            return False
        key, row = item
        if not isinstance(row, CellResult):
            return False
        seen.add(key)
    return seen == set(task.keys)
