"""Crash-tolerant distributed sweep orchestration over a shared run directory.

The pool backend (:mod:`repro.experiments.supervision`) supervises workers it
forked itself: state lives in the supervisor's memory, so a SIGKILLed
*supervisor* loses the in-flight bookkeeping and a second machine cannot help
drain a large campaign.  This module replaces that coupling with a
**file-backed work queue** kept inside the campaign's own cache run
directory::

    <cache-dir>/<scenario>-<spec-hash>/
        manifest.json            # merged result (the cache layer's document)
        <cell-slug>-<h>.npz      # artifact side-files, written by fleet workers
        .fleet/
            campaign.json        # unit list + policy, written by the supervisor
            leases/<unit>.json   # at most one per unit: owner, heartbeat, attempt
            leases/<unit>.reaped # a reaped lease, held until its charge is on disk
            done/<unit>.json     # exactly-once commit marker
            results/<unit>.json  # per-unit result shard (manifest row records)
            failed/<unit>.json   # per-unit permanent-failure record
            attempts/<unit>.json # failed-attempt count + retry backoff window
            workers/<owner>.json # worker heartbeats (for ``fleet workers``)

Everything is plain files with atomic writes, so the fleet needs no broker,
no sockets and no shared memory — any number of **fleet workers** (the
claim loop :func:`fleet_worker`, one per supervisor, local or on any host
that shares the cache directory) cooperate purely through the queue:

* a fleet worker *claims* a unit by creating ``leases/<unit>.json`` with
  ``O_CREAT | O_EXCL`` (+ fsync) — the filesystem arbitrates races — and
  runs it on a child of its :class:`~repro.experiments.supervision.WorkerPool`,
  the pool backend's executor: the child's death, error, corrupt payload or
  overrun of ``cell_timeout`` is a failed attempt, exactly as in the pool,
* the loop that waits on those children refreshes every held lease every
  ``lease_timeout / 4`` (no thread), so a lease goes stale only when its
  fleet worker stops or dies; the lease ``pid`` is the fleet worker's,
* a unit *commits* by writing its result shard and then creating the
  ``done/`` marker with ``O_EXCL`` — so even a forced double claim commits
  **exactly once** and the loser discards its result,
* every fleet worker *reaps* expired leases: a stale heartbeat becomes a
  ``timeout`` attempt, a dead same-host pid a ``crash`` attempt.
  The reaper renames the lease to a tombstone, charges the attempt, then
  drops the tombstone, so a claim never reads the count from before the
  charge;
  reaped units re-enter the queue with exponential backoff until
  ``max_attempts``, after which a typed per-cell failure record lands in
  ``failed/`` — PR 7's retry semantics, re-expressed as files.

Work units are the runner's content-addressed shapes
(:func:`~repro.experiments.runner.build_units`: single cells, or every
pending replication of a simulation grid point), and cell
seeds derive from the spec — never from attempt count, owner or wall clock —
so a SIGKILLed worker loses nothing but its in-flight attempt, and the fleet
converges on a manifest whose :func:`~repro.experiments.cache.manifest_fingerprint`
is identical to a serial run's.

The **supervisor** (:func:`run_fleet_campaign`) shares the pool runner's
cache semantics (load → resume → pending → execute → finalize) through the
runner's one copy of each step: the resume plan
(:func:`~repro.experiments.runner.resume_plan`, also behind
:func:`submit_campaign` and :func:`fetch_campaign`), the work units and
their executor, and the result assembly.  It builds the campaign, runs
:func:`fleet_worker` in-process until the campaign settles, and merges
committed shards into the manifest through
:meth:`~repro.experiments.cache.CacheWriter.absorb_record` — the same entry
the pool's journaled rows take.
On SIGINT/SIGTERM it drains gracefully: in-flight units get ``drain_grace``
seconds to finish and commit, committed shards are merged into a resumable
``status: "partial"`` manifest, every lease is released, and
:class:`CampaignInterrupted` propagates (CLI exit code 1).  Killing the
supervisor outright is also safe — the queue *is* the state, so a later
supervisor (or a bare :func:`fetch_campaign`) attaches and continues.

Fault injection: the pool children perform the pool kinds of
``REPRO_FAULT_INJECT`` (``crash``, ``hang``, ``error``, ``corrupt``) for
fleet units too; the fleet worker itself performs ``worker-kill``,
``lease-stall`` and ``double-claim`` (see :mod:`repro.experiments.faults`).
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import signal
import socket
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterator

from repro.experiments.cache import (
    CacheWriter,
    FLEET_DIRNAME,
    ResultCache,
    _write_json_atomic,
    manifest_record,
    persist_row,
    rows_from_records,
    source_fingerprint,
)
from repro.experiments.faults import (
    FLEET_FAULT_KINDS,
    FaultDirective,
    active_directives,
    matching_directive,
)
from repro.experiments.results import CellFailure
from repro.experiments.results.schema import ExperimentResult
from repro.experiments.runner import (
    ResumePlan,
    WorkUnit,
    _execute_payload,
    build_units,
    finish_run,
    resume_plan,
)
from repro.experiments.solvers import warm_shared_inputs
from repro.experiments.spec import ScenarioSpec
from repro.experiments.supervision import (
    FailureBudgetExceeded,
    SupervisionPolicy,
    WorkerPool,
    _rows_valid,
)

__all__ = [
    "CampaignInterrupted",
    "FleetPolicy",
    "FleetQueue",
    "campaign_status",
    "fetch_campaign",
    "fleet_worker",
    "run_fleet_campaign",
]

logger = logging.getLogger(__name__)

_CAMPAIGN = "campaign.json"
_CAMPAIGN_FORMAT = 1


class CampaignInterrupted(RuntimeError):
    """The supervisor was asked to stop (SIGINT/SIGTERM) and drained.

    The run directory holds a resumable ``status: "partial"`` manifest with
    every committed unit merged, and no leases — re-running the same spec
    picks up exactly where the fleet stopped.
    """

    def __init__(self, signum: int, settled: int, total: int) -> None:
        name = signal.Signals(signum).name if signum else "signal"
        super().__init__(
            f"fleet campaign interrupted by {name} with {settled}/{total} "
            "unit(s) settled; partial manifest written, leases released"
        )
        self.signum = signum
        self.settled = settled
        self.total = total


@dataclass(frozen=True)
class FleetPolicy:
    """Knobs of a fleet campaign (CLI: ``--workers``, ``--lease-timeout``,
    ``--cell-timeout``, ``--retries``, ``--max-failures``)."""

    #: Pool children each fleet worker runs units on, so also the most
    #: units one fleet worker keeps in flight.
    workers: int = 2
    #: Liveness bound: seconds without a lease heartbeat (the fleet worker
    #: renews its leases every ``lease_timeout / 4``) before the unit is
    #: reaped as ``timeout`` and requeued.
    lease_timeout: float = 30.0
    #: Compute bound: wall-clock seconds one attempt of one unit may take
    #: before its pool child is killed and the attempt settles as
    #: ``timeout``; ``None`` disables it (as in :class:`SupervisionPolicy`).
    cell_timeout: float | None = None
    #: Total attempts a unit may consume (first try included) before its
    #: cells become permanent failures — ``1 + retries`` in pool terms.
    max_attempts: int = 3
    #: How many cells may fail permanently before the campaign aborts.
    max_failures: int = 0
    #: First retry backoff in seconds; attempt ``n`` waits
    #: ``min(cap, base * 3**(n-1))``.
    backoff_base: float = 0.05
    backoff_cap: float = 2.0
    #: Longest wait of a fleet worker's loop between claim attempts.
    poll_interval: float = 0.05
    #: Seconds a draining fleet worker waits for its in-flight units to
    #: finish and commit before killing their pool children.
    drain_grace: float = 10.0

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.lease_timeout <= 0:
            raise ValueError("lease_timeout must be positive")
        if self.cell_timeout is not None and self.cell_timeout <= 0:
            raise ValueError("cell_timeout must be positive when given")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.max_failures < 0:
            raise ValueError("max_failures must be >= 0")
        if self.backoff_base <= 0 or self.backoff_cap < self.backoff_base:
            raise ValueError("backoff must satisfy 0 < base <= cap")
        if self.poll_interval <= 0:
            raise ValueError("poll_interval must be positive")
        if self.drain_grace < 0:
            raise ValueError("drain_grace must be >= 0")

    @classmethod
    def from_supervision(
        cls,
        supervision: SupervisionPolicy | None,
        workers: int | None = None,
        lease_timeout: float | None = None,
    ) -> "FleetPolicy":
        """The fleet policy of a run whose other knobs are the pool's.

        ``cell_timeout`` stays the per-attempt compute bound, ``retries``
        become ``max_attempts``; ``None`` leaves a policy default.
        """
        supervision = supervision or SupervisionPolicy()
        defaults = cls()
        return cls(
            workers=workers or defaults.workers,
            lease_timeout=lease_timeout or defaults.lease_timeout,
            cell_timeout=supervision.cell_timeout,
            max_attempts=1 + supervision.retries,
            max_failures=supervision.max_failures,
            backoff_base=supervision.backoff_base,
            backoff_cap=supervision.backoff_cap,
        )

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "FleetPolicy":
        return cls(**payload)


# ----------------------------------------------------------------------
# Low-level file helpers
# ----------------------------------------------------------------------
def _create_exclusive(path: Path, payload: dict) -> bool:
    """Create ``path`` with ``O_EXCL`` and fsync it; False if it exists."""
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644)
    except FileExistsError:
        return False
    try:
        os.write(fd, json.dumps(payload, sort_keys=True).encode("utf-8"))
        os.fsync(fd)
    finally:
        os.close(fd)
    return True


def _read_json(path: Path) -> dict | list | None:
    try:
        return json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return None


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except (PermissionError, OSError):
        return True
    return True


@dataclass
class _Claim:
    """A successful :meth:`FleetQueue.claim_next`."""

    unit: WorkUnit
    attempt: int
    #: A ``double-claim`` fault took the unit *despite* a foreign lease; the
    #: claimer holds no lease and must expect to lose the commit race.
    rogue: bool = False


class FleetQueue:
    """The on-disk work queue of one campaign (see the module docstring).

    Every method is safe to call from any process sharing the run directory;
    mutual exclusion comes from ``O_EXCL`` creates and atomic ``os.replace``,
    never from in-memory locks.  The read path (:meth:`status`,
    :meth:`committed_records`, …) takes no locks at all.
    """

    def __init__(self, entry_dir: str | os.PathLike) -> None:
        self.entry_dir = Path(entry_dir)
        self.root = self.entry_dir / FLEET_DIRNAME
        self.leases = self.root / "leases"
        self.done = self.root / "done"
        self.results = self.root / "results"
        self.failed = self.root / "failed"
        self.attempts = self.root / "attempts"
        self.workers = self.root / "workers"
        self.host = socket.gethostname()
        self._units: list[WorkUnit] | None = None
        self._policy: FleetPolicy | None = None

    # ------------------------------------------------------------------
    # Campaign document
    # ------------------------------------------------------------------
    @property
    def campaign_path(self) -> Path:
        return self.root / _CAMPAIGN

    def exists(self) -> bool:
        return self.campaign_path.is_file()

    def create_campaign(
        self,
        spec: ScenarioSpec,
        units: list[WorkUnit],
        policy: FleetPolicy,
        reset: bool = False,
    ) -> None:
        """Write (or attach to) the campaign document for ``units``.

        Attaching to an existing campaign of the same spec and source state
        keeps committed shards that still verify (they are merged, not
        recomputed) but gives every pending unit a fresh retry budget:
        ``failed/`` and ``attempts/`` records of the listed units are
        cleared, as are done markers whose result shard no longer loads or
        covers the wrong keys.  ``reset=True`` (``--force``) additionally
        discards every committed shard so the whole grid recomputes.
        """
        for directory in (self.root, self.leases, self.done, self.results,
                          self.failed, self.attempts, self.workers):
            directory.mkdir(parents=True, exist_ok=True)
        for unit in units:
            done = self.done / f"{unit.id}.json"
            if reset:
                done.unlink(missing_ok=True)
                (self.results / f"{unit.id}.json").unlink(missing_ok=True)
            elif done.exists() and self._load_shard(unit) is None:
                logger.warning(
                    "fleet: discarding unreadable result shard of unit %s; "
                    "the unit will recompute", unit.id,
                )
                done.unlink(missing_ok=True)
                (self.results / f"{unit.id}.json").unlink(missing_ok=True)
            (self.failed / f"{unit.id}.json").unlink(missing_ok=True)
            (self.attempts / f"{unit.id}.json").unlink(missing_ok=True)
        _write_json_atomic(self.campaign_path, {
            "format": _CAMPAIGN_FORMAT,
            "name": spec.name,
            "spec_hash": spec.hash(),
            "code_fingerprint": source_fingerprint(),
            "created": time.time(),
            "policy": policy.to_dict(),
            "units": [unit.to_dict() for unit in units],
        })
        self._units = list(units)
        self._policy = policy

    def load_campaign(self) -> bool:
        """Load units and policy from ``campaign.json``; False if absent/bad."""
        payload = _read_json(self.campaign_path)
        if not isinstance(payload, dict):
            return False
        try:
            self._units = [WorkUnit.from_dict(d) for d in payload["units"]]
            self._policy = FleetPolicy.from_dict(payload["policy"])
        except (KeyError, TypeError, ValueError) as error:
            logger.warning("fleet: unreadable campaign document %s: %s",
                           self.campaign_path, error)
            return False
        return True

    @property
    def units(self) -> list[WorkUnit]:
        if self._units is None:
            if not self.load_campaign():
                raise FileNotFoundError(f"no fleet campaign at {self.campaign_path}")
        return list(self._units)

    @property
    def policy(self) -> FleetPolicy:
        if self._policy is None:
            if not self.load_campaign():
                raise FileNotFoundError(f"no fleet campaign at {self.campaign_path}")
        return self._policy

    # ------------------------------------------------------------------
    # Claiming
    # ------------------------------------------------------------------
    def _lease_path(self, unit_id: str) -> Path:
        return self.leases / f"{unit_id}.json"

    def _tombstone_path(self, unit_id: str) -> Path:
        return self.leases / f"{unit_id}.reaped"

    def _settled(self, unit_id: str) -> bool:
        return (self.done / f"{unit_id}.json").exists() or (
            self.failed / f"{unit_id}.json").exists()

    def _attempt_state(self, unit_id: str) -> dict:
        payload = _read_json(self.attempts / f"{unit_id}.json")
        if not isinstance(payload, dict):
            return {"attempts": 0, "not_before": 0.0}
        return {
            "attempts": int(payload.get("attempts", 0)),
            "not_before": float(payload.get("not_before", 0.0)),
        }

    def claim_next(
        self, owner: str, exclude: frozenset[str] = frozenset()
    ) -> tuple[_Claim | None, bool]:
        """Try to claim one unit not in ``exclude``; returns ``(claim, campaign_busy)``.

        ``campaign_busy`` is True while any unit is unsettled — a worker
        that got no claim should poll again (units may be leased elsewhere
        or backing off) rather than exit.  Expired leases encountered during
        the scan are reaped opportunistically, so claiming makes progress
        even without a supervisor.  ``exclude`` holds the units the caller
        already has in flight, which a ``double-claim`` fault would
        otherwise take again.
        """
        directives = active_directives()
        busy = False
        # Rotate the scan so concurrent workers do not all hammer the same
        # next unit's lease create.
        units = self.units
        if units:
            offset = int(hashlib.sha256(owner.encode()).hexdigest(), 16) % len(units)
            units = units[offset:] + units[:offset]
        now = time.time()
        for unit in units:
            if self._settled(unit.id):
                continue
            busy = True
            if unit.id in exclude:
                continue
            self._reap_lease_if_expired(unit.id, now)
            # The lease, then the tombstone, then the count: a reaper drops
            # its tombstone only once the charge is on disk, so a unit found
            # with neither shows every charge.
            lease = self._lease_path(unit.id)
            held = lease.exists()
            if not held and self._tombstone_path(unit.id).exists():
                continue
            state = self._attempt_state(unit.id)
            if state["not_before"] > now:
                continue
            attempt = state["attempts"] + 1
            if held:
                if _fleet_fault(directives, unit, attempt) == "double-claim":
                    logger.warning(
                        "fleet: %s double-claiming unit %s despite a foreign "
                        "lease (injected fault)", owner, unit.id,
                    )
                    return _Claim(unit=unit, attempt=attempt, rogue=True), True
                continue
            if _create_exclusive(lease, self._lease_payload(owner, attempt)):
                if self._settled(unit.id):
                    # Lost a race with a commit that happened between our
                    # settled check and the lease create.
                    lease.unlink(missing_ok=True)
                    continue
                return _Claim(unit=unit, attempt=attempt), True
        return None, busy

    def _lease_payload(self, owner: str, attempt: int) -> dict:
        now = time.time()
        return {
            "owner": owner,
            "pid": os.getpid(),
            "host": self.host,
            "attempt": attempt,
            "acquired": now,
            "heartbeat": now,
            "lease_timeout": self.policy.lease_timeout,
        }

    def heartbeat_lease(self, unit_id: str, owner: str, attempt: int) -> None:
        """Refresh a held lease, if (best-effort) still ours.

        The lease is re-read first: a foreign owner or a missing file (the
        lease was reaped) is left alone.  The read-then-replace pair is not
        atomic, so the ``done/`` marker — not the lease — remains the only
        commit authority.
        """
        path = self._lease_path(unit_id)
        payload = _read_json(path)
        if not isinstance(payload, dict) or payload.get("owner") != owner:
            return
        payload["heartbeat"] = time.time()
        payload["attempt"] = attempt
        try:
            _write_json_atomic(path, payload)
        except OSError:
            pass

    def release_lease(self, unit_id: str, owner: str) -> None:
        """Drop a lease if (best-effort) still ours."""
        path = self._lease_path(unit_id)
        payload = _read_json(path)
        if isinstance(payload, dict) and payload.get("owner") == owner:
            path.unlink(missing_ok=True)

    def release_all_leases(self) -> int:
        """Remove every lease (the draining supervisor's last act)."""
        released = 0
        if not self.leases.is_dir():
            return 0
        for path in self.leases.glob("*.json"):
            try:
                path.unlink()
                released += 1
            except FileNotFoundError:
                pass
        return released

    # ------------------------------------------------------------------
    # Reaping
    # ------------------------------------------------------------------
    def reap_expired(self) -> int:
        """Requeue every unit whose lease expired or whose owner died."""
        if not self.leases.is_dir():
            return 0
        reaped = 0
        now = time.time()
        for path in self.leases.glob("*.json"):
            if path.name.endswith(".tmp"):
                continue
            reaped += self._reap_lease_if_expired(path.stem, now)
        return reaped

    def _reap_lease_if_expired(self, unit_id: str, now: float) -> int:
        path = self._lease_path(unit_id)
        payload = _read_json(path)
        if payload is None:
            if not path.exists():
                self._recover_tombstone(unit_id, now)
                return 0
            # Unreadable lease: fall back to its mtime.
            try:
                stale = now - path.stat().st_mtime > self.policy.lease_timeout
            except OSError:
                return 0
            kind, message = "crash", "unreadable lease file"
            if not stale:
                return 0
        else:
            heartbeat = float(payload.get("heartbeat", 0.0))
            timeout = float(payload.get("lease_timeout", self.policy.lease_timeout))
            if now - heartbeat > timeout:
                kind = "timeout"
                message = (
                    f"lease heartbeat from {payload.get('owner')} went stale "
                    f"({now - heartbeat:.1f}s > {timeout:g}s); unit requeued"
                )
            elif (
                payload.get("host") == self.host
                and isinstance(payload.get("pid"), int)
                and not _pid_alive(payload["pid"])
            ):
                kind = "crash"
                message = (
                    f"worker {payload.get('owner')} (pid {payload['pid']}) "
                    "died holding the lease; unit requeued"
                )
            else:
                return 0
            if (self.done / f"{unit_id}.json").exists():
                # Committed, but its holder died or went silent before the
                # release: just clean up, no attempt charged.  A live lease
                # of a committed unit is its holder's to release.
                path.unlink(missing_ok=True)
                return 0
        # Whoever wins the rename charges the failed attempt — losers of the
        # race find no lease and must not double-charge.  The tombstone keeps
        # the unit held until the charge is on disk.
        tombstone = self._tombstone_path(unit_id)
        try:
            os.rename(path, tombstone)
        except FileNotFoundError:
            return 0
        self.record_attempt_failure(unit_id, kind, message)
        tombstone.unlink(missing_ok=True)
        return 1

    def _recover_tombstone(self, unit_id: str, now: float) -> None:
        """Finish the reap of a reaper that died holding a tombstone.

        A live reaper drops its tombstone within milliseconds of the rename
        (which stamps the tombstone's ctime), so one older than the lease
        timeout is orphaned.  If its attempt was charged the tombstone just
        goes; otherwise it becomes the lease again and is reaped as usual.
        """
        tombstone = self._tombstone_path(unit_id)
        try:
            if now - tombstone.stat().st_ctime <= self.policy.lease_timeout:
                return
        except FileNotFoundError:
            return
        payload = _read_json(tombstone)
        attempt = payload.get("attempt") if isinstance(payload, dict) else None
        if not isinstance(attempt, int) or self._attempt_state(unit_id)["attempts"] < attempt:
            try:
                os.link(tombstone, self._lease_path(unit_id))
            except OSError:
                return
        tombstone.unlink(missing_ok=True)

    def record_attempt_failure(self, unit_id: str, kind: str, message: str) -> None:
        """Charge one failed attempt; at ``max_attempts`` settle as failed.

        Requeued units back off exponentially (``base * 3**(n-1)``, capped)
        — deterministic, since the retry *schedule* never influences the
        computed values.  A unit out of attempts writes one typed
        :class:`CellFailure` record per covered cell into ``failed/``.
        """
        policy = self.policy
        state = self._attempt_state(unit_id)
        attempts = state["attempts"] + 1
        if attempts >= policy.max_attempts:
            unit = next((u for u in self.units if u.id == unit_id), None)
            cells = unit.cells if unit is not None else ()
            _write_json_atomic(self.failed / f"{unit_id}.json", {
                "kind": kind,
                "message": message,
                "attempts": attempts,
                "cells": [
                    CellFailure(
                        key=cell.key,
                        solver=cell.solver_label,
                        kind=kind,
                        attempts=attempts,
                        seed=cell.seed,
                        replication=cell.replication,
                        message=message,
                        elapsed_seconds=0.0,
                    ).to_dict()
                    for cell in cells
                ],
            })
            _write_json_atomic(self.attempts / f"{unit_id}.json", {
                "attempts": attempts, "not_before": 0.0,
                "last_kind": kind, "last_message": message,
            })
            logger.warning("fleet: unit %s failed permanently after %d attempt(s): %s",
                           unit_id, attempts, message)
            return
        backoff = min(policy.backoff_cap,
                      policy.backoff_base * (3.0 ** (attempts - 1)))
        _write_json_atomic(self.attempts / f"{unit_id}.json", {
            "attempts": attempts, "not_before": time.time() + backoff,
            "last_kind": kind, "last_message": message,
        })
        logger.info("fleet: unit %s attempt %d failed (%s); retrying in %.2fs",
                    unit_id, attempts, kind, backoff)

    # ------------------------------------------------------------------
    # Committing
    # ------------------------------------------------------------------
    def commit(self, unit: WorkUnit, owner: str, records: list[dict]) -> bool:
        """Persist a unit's result shard and claim the exactly-once marker.

        The shard is written first (atomic replace), then the ``done/``
        marker is created with ``O_EXCL``: whichever writer creates the
        marker owns the commit; every other writer of the same unit —
        double-claimers, zombies that outlived their lease — gets ``False``
        and must discard.  Shard content is equivalent across writers
        (seeds derive from the spec), so a late overwrite of the shard by a
        loser is harmless.
        """
        _write_json_atomic(self.results / f"{unit.id}.json", records)
        committed = _create_exclusive(self.done / f"{unit.id}.json", {
            "owner": owner,
            "attempt": self._attempt_state(unit.id)["attempts"] + 1,
            "committed": time.time(),
        })
        if not committed:
            logger.warning(
                "fleet: %s lost the commit race for unit %s; result discarded "
                "(exactly-once marker already exists)", owner, unit.id,
            )
        return committed

    def _load_shard(self, unit: WorkUnit) -> list[dict] | None:
        payload = _read_json(self.results / f"{unit.id}.json")
        if not isinstance(payload, list):
            return None
        try:
            keys = {record["key"] for record in payload}
        except (TypeError, KeyError):
            return None
        if keys != set(unit.keys):
            return None
        return payload

    def committed_records(self) -> Iterator[tuple[WorkUnit, list[dict]]]:
        """Every committed unit's verified result shard."""
        for unit in self.units:
            if not (self.done / f"{unit.id}.json").exists():
                continue
            records = self._load_shard(unit)
            if records is None:
                logger.warning(
                    "fleet: committed unit %s has an unreadable result shard; "
                    "skipping it in the merge (it will recompute next run)",
                    unit.id,
                )
                continue
            yield unit, records

    def failure_records(self) -> Iterator[tuple[WorkUnit, list[dict]]]:
        """Every permanently failed unit's per-cell failure records."""
        for unit in self.units:
            payload = _read_json(self.failed / f"{unit.id}.json")
            if isinstance(payload, dict) and isinstance(payload.get("cells"), list):
                yield unit, payload["cells"]

    def failures(self) -> list[CellFailure]:
        """Every permanently failed cell of the campaign."""
        return [
            CellFailure.from_dict(record)
            for _unit, records in self.failure_records()
            for record in records
        ]

    # ------------------------------------------------------------------
    # Worker presence + status
    # ------------------------------------------------------------------
    def update_worker(self, owner: str, state: str, units: str | None = None) -> None:
        """Refresh this worker's heartbeat file (``fleet workers``, gc);
        ``units`` names the units in flight."""
        try:
            _write_json_atomic(self.workers / f"{owner}.json", {
                "owner": owner,
                "pid": os.getpid(),
                "host": self.host,
                "state": state,
                "unit": units,
                "heartbeat": time.time(),
                "lease_timeout": self.policy.lease_timeout,
            })
        except OSError:
            pass

    def worker_states(self) -> list[dict]:
        if not self.workers.is_dir():
            return []
        states = []
        now = time.time()
        for path in sorted(self.workers.glob("*.json")):
            payload = _read_json(path)
            if isinstance(payload, dict):
                payload["age_seconds"] = max(0.0, now - float(payload.get("heartbeat", now)))
                states.append(payload)
        return states

    def status(self) -> dict:
        """Campaign progress counters (lock-free snapshot)."""
        done = failed = leased = 0
        for unit in self.units:
            if (self.done / f"{unit.id}.json").exists():
                done += 1
            elif (self.failed / f"{unit.id}.json").exists():
                failed += 1
            elif self._lease_path(unit.id).exists():
                leased += 1
        total = len(self.units)
        return {
            "units": total,
            "done": done,
            "failed": failed,
            "leased": leased,
            "pending": total - done - failed,
            "settled": done + failed == total,
        }

    def settled(self) -> bool:
        return all(self._settled(unit.id) for unit in self.units)

    def retried_cells(self) -> int:
        """Cells that needed at least one retry (pool-meta compatible count)."""
        retried = 0
        for unit in self.units:
            attempts = self._attempt_state(unit.id)["attempts"]
            if (self.done / f"{unit.id}.json").exists():
                retried += attempts * len(unit.keys)
            elif (self.failed / f"{unit.id}.json").exists():
                retried += max(0, attempts - 1) * len(unit.keys)
        return retried


# ----------------------------------------------------------------------
# Worker
# ----------------------------------------------------------------------
def _fleet_fault(directives: tuple[FaultDirective, ...], unit: WorkUnit,
                 attempt: int) -> str | None:
    """The fleet fault kind injected into this attempt of ``unit``, if any."""
    for key in unit.keys:
        directive = matching_directive(directives, key, attempt, kinds=FLEET_FAULT_KINDS)
        if directive is not None:
            return directive.kind
    return None


def fleet_worker(
    entry_dir: str | os.PathLike,
    spec: ScenarioSpec,
    owner: str | None = None,
    drain: threading.Event | None = None,
) -> int:
    """Claim-execute-commit loop of one fleet worker; returns units committed.

    Claimed units run on a :class:`WorkerPool` of ``policy.workers``
    children, at most that many in flight.  Each turn reaps expired leases,
    claims while a child is free, then waits for a result, a cell deadline,
    the next lease heartbeat (every ``lease_timeout / 4``) or
    ``poll_interval``, whichever comes first.  Valid rows are persisted and
    committed; a crash, error, corrupt payload or timeout charges the
    attempt and releases the lease.  The loop ends when the campaign
    settles, or — after giving in-flight units ``drain_grace`` seconds to
    finish and commit — when ``drain`` is set or more cells failed than
    ``max_failures`` allows.  Safe to run many times concurrently, on any
    host sharing the run directory: all coordination goes through
    :class:`FleetQueue`.
    """
    queue = FleetQueue(entry_dir)
    policy = queue.policy
    owner = owner or f"{queue.host}-{os.getpid()}"
    drain = drain or threading.Event()
    directives = active_directives()
    spec_dict = spec.to_dict()
    beat = policy.lease_timeout / 4.0
    pool = WorkerPool(policy.workers)
    inflight: dict = {}  # pool worker -> _Claim
    committed = 0
    next_beat = time.monotonic() + beat
    stop_by = None

    def valid(worker, rows) -> bool:
        return _rows_valid(rows, inflight[worker].unit)

    queue.update_worker(owner, "idle")
    try:
        while True:
            queue.reap_expired()
            now = time.monotonic()
            if stop_by is None and (
                drain.is_set() or len(queue.failures()) > policy.max_failures
            ):
                stop_by = now + policy.drain_grace
            if stop_by is not None:
                if not inflight or now >= stop_by:
                    break
            else:
                busy = True
                while len(inflight) < policy.workers:
                    exclude = frozenset(c.unit.id for c in inflight.values())
                    claim, busy = queue.claim_next(owner, exclude)
                    if claim is None:
                        break
                    fault = _fleet_fault(directives, claim.unit, claim.attempt)
                    if fault == "lease-stall":
                        # Simulated hung host: hold the lease but never run,
                        # heartbeat or look at it again, so the reaper
                        # requeues the unit (a drain releases the lease).
                        logger.warning("fleet: %s stalling on unit %s (injected fault)",
                                       owner, claim.unit.id)
                        continue
                    worker = pool.submit(
                        (_execute_payload, (spec_dict, claim.unit.to_dict(), True),
                         claim.unit.keys, claim.attempt),
                        policy.cell_timeout,
                    )
                    if fault == "worker-kill":
                        # Simulated OOM kill: the wait below sees the EOF.
                        os.kill(worker.process.pid, signal.SIGKILL)
                    inflight[worker] = claim
                if not busy:
                    break
            if now >= next_beat:
                for claim in inflight.values():
                    if not claim.rogue:
                        queue.heartbeat_lease(claim.unit.id, owner, claim.attempt)
                units = " ".join(sorted(c.unit.id for c in inflight.values()))
                queue.update_worker(owner, "executing" if units else "idle", units or None)
                next_beat = now + beat
            timeout = min(policy.poll_interval, max(0.0, next_beat - now))
            for worker, kind, body in pool.wait(inflight, valid, timeout):
                claim = inflight.pop(worker)
                if kind == "rows":
                    records = [
                        manifest_record(key, persist_row(queue.entry_dir, key, row))
                        for key, row in body
                    ]
                    committed += queue.commit(claim.unit, owner, records)
                else:
                    queue.record_attempt_failure(claim.unit.id, kind, body)
                if not claim.rogue:
                    queue.release_lease(claim.unit.id, owner)
    finally:
        pool.close()
        for claim in inflight.values():
            if not claim.rogue:
                queue.release_lease(claim.unit.id, owner)
        queue.update_worker(owner, "exited")
    return committed


# ----------------------------------------------------------------------
# Supervisor
# ----------------------------------------------------------------------
def _merge_into_writer(writer: CacheWriter, queue: FleetQueue) -> list[dict]:
    """Absorb every committed shard and failure record; returns the shards' rows."""
    computed: list[dict] = []
    for _unit, records in queue.committed_records():
        for record in records:
            writer.absorb_record(record)
            computed.append(record)
    for _unit, records in queue.failure_records():
        for record in records:
            writer.absorb_failure_record(record)
    return computed


def run_fleet_campaign(
    cache: ResultCache,
    spec: ScenarioSpec,
    policy: FleetPolicy | None = None,
    force: bool = False,
) -> ExperimentResult:
    """Run ``spec`` to completion on an in-process :func:`fleet_worker`.

    Mirrors the pool runner's contract: serves/“resumes from” the cache
    exactly like :meth:`ExperimentRunner.run`, raises
    :class:`FailureBudgetExceeded` when permanent failures exceed the
    budget (partial manifest persisted), and raises
    :class:`CampaignInterrupted` after a graceful SIGINT/SIGTERM drain.
    """
    policy = policy or FleetPolicy()
    if not force:
        cached = cache.load(spec)
        if cached is not None:
            return cached
    plan = resume_plan(cache, spec, force)
    started = time.perf_counter()
    writer = cache.writer(spec, resumed=plan.resumed, failures=plan.replayed)
    queue = FleetQueue(cache.path(spec))
    units = build_units(spec, plan.pending)
    queue.create_campaign(spec, units, policy, reset=force)

    if not units:
        return _finalize(spec, plan, writer, queue, started, policy)

    # The pool children fork after this, so they inherit the warmed shared
    # inputs instead of recomputing them once per process.
    warm_shared_inputs(
        spec, [cell for unit in units if unit.kind == "cell" for cell in unit.cells]
    )
    drain = threading.Event()
    interrupted: list[int] = []

    def _on_signal(signum, frame):  # noqa: ARG001
        interrupted.append(signum)
        drain.set()

    previous_handlers = {}
    try:
        for signum in (signal.SIGINT, signal.SIGTERM):
            previous_handlers[signum] = signal.signal(signum, _on_signal)
    except ValueError:
        pass  # embedded in a non-main thread: drain only via settle/budget
    try:
        fleet_worker(queue.entry_dir, spec, drain=drain)
    finally:
        for signum, handler in previous_handlers.items():
            signal.signal(signum, handler)  # installed, so on the main thread
    failures = queue.failures()
    if interrupted or len(failures) > policy.max_failures:
        _drain(queue, writer, started)
        if interrupted:
            status = queue.status()
            raise CampaignInterrupted(
                interrupted[0], settled=status["done"] + status["failed"], total=len(units)
            )
        raise FailureBudgetExceeded(failures, policy.max_failures)
    return _finalize(spec, plan, writer, queue, started, policy)


def _drain(queue: FleetQueue, writer: CacheWriter, started: float) -> None:
    """Merge committed shards into a resumable partial manifest and release
    every lease."""
    _merge_into_writer(writer, queue)
    writer.write_partial(elapsed_seconds=time.perf_counter() - started)
    released = queue.release_all_leases()
    logger.info(
        "fleet: drained — partial manifest written (%d row(s), %d failure "
        "record(s)), %d lease(s) released",
        len(writer.records), len(writer.failures), released,
    )


def _finalize(spec: ScenarioSpec, plan: ResumePlan, writer: CacheWriter,
              queue: FleetQueue, started: float, policy: FleetPolicy) -> ExperimentResult:
    """Merge every settled unit and finish the run like the pool does."""
    computed = _merge_into_writer(writer, queue)
    failures = {key: CellFailure.from_dict(r) for key, r in writer.failures.items()}
    return finish_run(
        spec, plan, writer, rows_from_records(writer.directory, computed), failures,
        time.perf_counter() - started, cells_retried=queue.retried_cells(),
        backend="fleet", workers=policy.workers,
    )


# ----------------------------------------------------------------------
# Supervisor-less operations (async CLI verbs)
# ----------------------------------------------------------------------
def submit_campaign(
    cache: ResultCache,
    spec: ScenarioSpec,
    policy: FleetPolicy | None = None,
    force: bool = False,
) -> dict:
    """Create (or attach to) a campaign without running any worker.

    The async half of the CLI: ``fleet submit`` enqueues, any number of
    ``fleet work`` processes — possibly on other hosts sharing the cache
    directory — drain the queue, and ``fleet status`` / ``fleet fetch``
    observe and merge.  Returns a status snapshot.
    """
    policy = policy or FleetPolicy()
    if not force and cache.load(spec) is not None:
        return {"entry": str(cache.path(spec)), "units": 0, "done": 0,
                "failed": 0, "leased": 0, "pending": 0, "settled": True,
                "complete": True}
    pending = resume_plan(cache, spec, force).pending
    queue = FleetQueue(cache.path(spec))
    queue.create_campaign(spec, build_units(spec, pending), policy, reset=force)
    status = queue.status()
    status["entry"] = str(cache.path(spec))
    status["complete"] = False
    return status


def campaign_status(cache: ResultCache, spec: ScenarioSpec) -> dict | None:
    """Status snapshot of an existing campaign, or ``None`` if there is none."""
    queue = FleetQueue(cache.path(spec))
    if not queue.exists() or not queue.load_campaign():
        return None
    status = queue.status()
    status["entry"] = str(cache.path(spec))
    status["workers"] = queue.worker_states()
    return status


def fetch_campaign(
    cache: ResultCache, spec: ScenarioSpec
) -> tuple[str, ExperimentResult | None]:
    """Merge a campaign's committed shards into the manifest, supervisor-free.

    Returns ``("complete", result)`` when every unit is settled (the
    manifest is finalized; ``result.failures`` carries any permanent
    failures), or ``("in-progress", None)`` after merging what exists into
    a resumable partial manifest.  Raises :class:`FileNotFoundError` when
    no campaign exists.
    """
    queue = FleetQueue(cache.path(spec))
    if not queue.exists() or not queue.load_campaign():
        raise FileNotFoundError(f"no fleet campaign at {queue.campaign_path}")
    plan = resume_plan(cache, spec)
    writer = cache.writer(spec, resumed=plan.resumed, failures=plan.replayed)
    started = time.perf_counter()
    if not queue.settled():
        _merge_into_writer(writer, queue)
        writer.write_partial()
        return "in-progress", None
    return "complete", _finalize(spec, plan, writer, queue, started, queue.policy)
