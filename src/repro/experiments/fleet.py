"""Crash-tolerant distributed sweep orchestration over a shared run directory.

The pool backend (:mod:`repro.experiments.supervision`) supervises workers it
forked itself: state lives in the supervisor's memory, so a SIGKILLed
*supervisor* loses the in-flight bookkeeping and a second machine cannot help
drain a large campaign.  This module replaces that coupling with a
**file-backed work queue** kept inside the campaign's own cache run
directory::

    <cache-dir>/<scenario>-<spec-hash>/
        manifest.json            # merged result (the cache layer's document)
        <cell-slug>-<h>.npz      # artifact side-files, written by workers
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
no sockets and no shared memory — N **stateless worker processes** (local,
or on any host that shares the cache directory) cooperate purely through the
queue:

* a worker *claims* a unit by creating ``leases/<unit>.json`` with
  ``O_CREAT | O_EXCL`` (+ fsync) — the filesystem arbitrates races,
* a heartbeat thread refreshes the lease while the unit computes; the
  heartbeat re-reads the lease first and treats a foreign owner as a fence,
* a unit *commits* by writing its result shard and then creating the
  ``done/`` marker with ``O_EXCL`` — so even a forced double claim commits
  **exactly once** and the loser discards its result,
* anyone (worker or supervisor) *reaps* expired leases: a stale heartbeat
  becomes a ``timeout`` attempt, a dead same-host pid a ``crash`` attempt.
  The reaper renames the lease to a tombstone, charges the attempt, then
  drops the tombstone, so a claim never reads the count from before the
  charge;
  reaped units re-enter the queue with exponential backoff until
  ``max_attempts``, after which a typed per-cell failure record lands in
  ``failed/`` — PR 7's retry semantics, re-expressed as files.

Work units are the runner's existing content-addressed shapes (single cells,
or every pending replication of a simulation grid point), and cell
seeds derive from the spec — never from attempt count, owner or wall clock —
so a SIGKILLed worker loses nothing but its in-flight attempt, and the fleet
converges on a manifest whose :func:`~repro.experiments.cache.manifest_fingerprint`
is identical to a serial run's.

The **supervisor** (:func:`run_fleet_campaign`) mirrors the pool runner's
cache semantics (load → resume → pending → execute → finalize): it builds the
campaign, spawns the local workers, reaps and respawns, and merges committed
shards into the manifest through :class:`~repro.experiments.cache.CacheWriter`.
On SIGINT/SIGTERM it drains gracefully: workers are asked to finish their
current unit, committed shards are merged into a resumable
``status: "partial"`` manifest, every lease is released, and
:class:`CampaignInterrupted` propagates (CLI exit code 1).  Killing the
supervisor outright is also safe — the queue *is* the state, so a later
supervisor (or a bare :func:`fetch_campaign`) attaches and continues.

Fault injection: fleet workers honour the ``worker-kill``, ``lease-stall``
and ``double-claim`` kinds of ``REPRO_FAULT_INJECT`` (plus ``crash`` and
``error``) — see :mod:`repro.experiments.faults` for why ``hang`` and
``corrupt`` stay pool-only.
"""

from __future__ import annotations

import hashlib
import json
import logging
import multiprocessing
import os
import signal
import socket
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

from repro.experiments.cache import (
    CacheWriter,
    FLEET_DIRNAME,
    ResultCache,
    _artifact_stem,
    manifest_record,
    source_fingerprint,
)
from repro.experiments.faults import (
    FLEET_FAULT_KINDS,
    InjectedFault,
    active_directives,
    matching_directive,
)
from repro.experiments.results import ArtifactRef, CellFailure, CellResult, write_artifact
from repro.experiments.results.schema import ExperimentResult
from repro.experiments.solvers import (
    execute_cell,
    execute_simulation_group,
    simulation_batch_groups,
    warm_shared_inputs,
)
from repro.experiments.spec import Cell, ScenarioSpec
from repro.experiments.supervision import FailureBudgetExceeded

__all__ = [
    "CampaignInterrupted",
    "FleetPolicy",
    "FleetQueue",
    "WorkUnit",
    "build_units",
    "campaign_status",
    "fetch_campaign",
    "fleet_worker",
    "run_fleet_campaign",
]

logger = logging.getLogger(__name__)

_CAMPAIGN = "campaign.json"
_CAMPAIGN_FORMAT = 1
#: Exit code of a worker killed by an injected ``crash`` (mirrors the pool's).
_CRASH_EXIT_CODE = 73
#: Safety ceiling for a fence-waiting stalled worker (``lease-stall``): if
#: nobody reaps the lease within this many timeouts, abandon anyway.
_STALL_TIMEOUTS = 20.0


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
    ``--retries``, ``--max-failures``)."""

    #: Local worker processes the supervisor spawns.
    workers: int = 2
    #: Seconds without a lease heartbeat before the unit is reaped as
    #: ``timeout`` and requeued.
    lease_timeout: float = 30.0
    #: Lease heartbeat period; ``None`` means ``lease_timeout / 4``.
    heartbeat_interval: float | None = None
    #: Total attempts a unit may consume (first try included) before its
    #: cells become permanent failures — ``1 + retries`` in pool terms.
    max_attempts: int = 3
    #: How many cells may fail permanently before the campaign aborts.
    max_failures: int = 0
    #: First retry backoff in seconds; attempt ``n`` waits
    #: ``min(cap, base * 3**(n-1))``.
    backoff_base: float = 0.05
    backoff_cap: float = 2.0
    #: Idle poll period of workers and supervisor.
    poll_interval: float = 0.05
    #: Seconds a draining supervisor waits for workers to finish their
    #: current unit before killing them.
    drain_grace: float = 10.0
    #: How many replacement workers the supervisor may spawn after deaths.
    max_respawns: int = 8

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.lease_timeout <= 0:
            raise ValueError("lease_timeout must be positive")
        if self.heartbeat_interval is not None and self.heartbeat_interval <= 0:
            raise ValueError("heartbeat_interval must be positive when given")
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
        if self.max_respawns < 0:
            raise ValueError("max_respawns must be >= 0")

    @property
    def effective_heartbeat(self) -> float:
        return self.heartbeat_interval or self.lease_timeout / 4.0

    def to_dict(self) -> dict:
        return {
            "workers": self.workers,
            "lease_timeout": self.lease_timeout,
            "heartbeat_interval": self.heartbeat_interval,
            "max_attempts": self.max_attempts,
            "max_failures": self.max_failures,
            "backoff_base": self.backoff_base,
            "backoff_cap": self.backoff_cap,
            "poll_interval": self.poll_interval,
            "drain_grace": self.drain_grace,
            "max_respawns": self.max_respawns,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "FleetPolicy":
        return cls(**payload)


@dataclass(frozen=True)
class WorkUnit:
    """One claimable unit: a single cell or a simulation replication group.

    The id is content-addressed (a digest of the covered cell keys), so the
    same pending set always yields the same queue files — a resumed campaign
    recognises the previous campaign's commits.
    """

    id: str
    kind: str  # "cell" | "group"
    cells: tuple[Cell, ...]

    @property
    def keys(self) -> tuple[str, ...]:
        return tuple(cell.key for cell in self.cells)

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "kind": self.kind,
            "cells": [cell.to_dict() for cell in self.cells],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "WorkUnit":
        return cls(
            id=payload["id"],
            kind=payload["kind"],
            cells=tuple(Cell.from_dict(d) for d in payload["cells"]),
        )


def _unit_id(keys: tuple[str, ...]) -> str:
    return "u" + hashlib.sha256("\n".join(keys).encode("utf-8")).hexdigest()[:16]


def build_units(spec: ScenarioSpec, pending: list[Cell]) -> list[WorkUnit]:
    """Decompose pending cells into claimable units.

    Uses the runner's existing shapes: every pending replication of a
    simulation grid point is one unit (one replication-set call), everything
    else is a unit per cell.  A seed's result does not depend on its set, so
    resumed campaigns (whose groups hold only the replications a previous
    run did not finish) reproduce the original rows bit-identically.
    """
    groups, singles = simulation_batch_groups(spec, pending)
    units = []
    for group in groups:
        keys = tuple(cell.key for cell in group)
        units.append(WorkUnit(id=_unit_id(keys), kind="group", cells=tuple(group)))
    for cell in singles:
        units.append(WorkUnit(id=_unit_id((cell.key,)), kind="cell", cells=(cell,)))
    return units


# ----------------------------------------------------------------------
# Low-level file helpers
# ----------------------------------------------------------------------
def _write_json_atomic(path: Path, payload: dict | list) -> None:
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    tmp.write_text(json.dumps(payload, sort_keys=True))
    os.replace(tmp, path)


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

    def claim_next(self, owner: str) -> tuple[_Claim | None, bool]:
        """Try to claim one unit; returns ``(claim, campaign_busy)``.

        ``campaign_busy`` is True while any unit is unsettled — a worker
        that got no claim should poll again (units may be leased elsewhere
        or backing off) rather than exit.  Expired leases encountered during
        the scan are reaped opportunistically, so claiming makes progress
        even without a supervisor.
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
                directive = None
                for key in unit.keys:
                    directive = matching_directive(
                        directives, key, attempt, kinds=FLEET_FAULT_KINDS
                    )
                    if directive is not None:
                        break
                if directive is not None and directive.kind == "double-claim":
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

    def heartbeat_lease(self, unit_id: str, owner: str, attempt: int) -> bool:
        """Refresh a held lease; False when fenced (lost / foreign owner).

        Best-effort fencing: the lease is re-read first and a foreign owner
        (or a missing file — the lease was reaped) stops the heartbeat.  The
        read-then-replace pair is not atomic, so the ``done/`` marker — not
        the lease — remains the only commit authority.
        """
        path = self._lease_path(unit_id)
        payload = _read_json(path)
        if not isinstance(payload, dict) or payload.get("owner") != owner:
            return False
        payload["heartbeat"] = time.time()
        payload["attempt"] = attempt
        try:
            _write_json_atomic(path, payload)
        except OSError:
            return False
        return True

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
            if (self.done / f"{unit_id}.json").exists():
                # Committed but the lease lingered (e.g. killed between
                # commit and release): just clean up, no attempt charged.
                self._unlink_once(path)
                return 0
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

    @staticmethod
    def _unlink_once(path: Path) -> bool:
        try:
            path.unlink()
        except FileNotFoundError:
            return False
        return True

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

    # ------------------------------------------------------------------
    # Worker presence + status
    # ------------------------------------------------------------------
    def update_worker(self, owner: str, state: str, unit_id: str | None = None) -> None:
        """Refresh this worker's heartbeat file (``fleet workers``, gc)."""
        try:
            _write_json_atomic(self.workers / f"{owner}.json", {
                "owner": owner,
                "pid": os.getpid(),
                "host": self.host,
                "state": state,
                "unit": unit_id,
                "heartbeat": time.time(),
                "lease_timeout": self.policy.lease_timeout,
            })
        except OSError:
            pass

    def remove_worker(self, owner: str) -> None:
        (self.workers / f"{owner}.json").unlink(missing_ok=True)

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
def _execute_unit(spec: ScenarioSpec, unit: WorkUnit) -> list[tuple[str, CellResult]]:
    if unit.kind == "group":
        return execute_simulation_group(spec, list(unit.cells))
    cell = unit.cells[0]
    return [(cell.key, execute_cell(spec, cell))]


def _persist_records(
    entry_dir: Path, rows: list[tuple[str, CellResult]]
) -> list[dict]:
    """Write artifact side-files into the run directory; return row records."""
    records = []
    for key, row in rows:
        if row.artifact is not None and not isinstance(row.artifact, ArtifactRef):
            ref = write_artifact(row.artifact, entry_dir, _artifact_stem(key))
            row = row.with_artifact(ref)
        records.append(manifest_record(key, row))
    return records


class _Heartbeat:
    """Background lease refresher; ``fenced`` is set when ownership is lost."""

    def __init__(self, queue: FleetQueue, unit_id: str, owner: str,
                 attempt: int, interval: float) -> None:
        self.fenced = threading.Event()
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, args=(queue, unit_id, owner, attempt, interval),
            daemon=True,
        )

    def start(self) -> "_Heartbeat":
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)

    def _run(self, queue, unit_id, owner, attempt, interval) -> None:
        while not self._stop.wait(interval):
            if not queue.heartbeat_lease(unit_id, owner, attempt):
                self.fenced.set()
                return


def fleet_worker(
    entry_dir: str | os.PathLike,
    spec: ScenarioSpec,
    owner: str | None = None,
    drain: threading.Event | None = None,
) -> int:
    """Claim-execute-commit loop of one stateless worker; returns units committed.

    Runs until the campaign settles (every unit done or failed) or ``drain``
    is set (the graceful-shutdown path: the current unit is finished and
    committed, the lease released, then the loop exits).  Safe to run many
    times concurrently — all coordination goes through :class:`FleetQueue`.
    """
    queue = FleetQueue(entry_dir)
    policy = queue.policy
    owner = owner or f"{queue.host}-{os.getpid()}"
    drain = drain or threading.Event()
    directives = active_directives()
    committed = 0
    queue.update_worker(owner, "idle")
    try:
        while not drain.is_set():
            claim, busy = queue.claim_next(owner)
            if claim is None:
                if not busy:
                    break
                queue.update_worker(owner, "idle")
                drain.wait(policy.poll_interval)
                continue
            unit, attempt = claim.unit, claim.attempt
            queue.update_worker(owner, "executing", unit.id)
            directive = None
            for key in unit.keys:
                directive = matching_directive(
                    directives, key, attempt, kinds=FLEET_FAULT_KINDS
                )
                if directive is not None:
                    break
            if directive is not None and directive.kind == "worker-kill":
                # Simulated OOM-kill / power loss: die without cleanup; the
                # lease goes stale and a reaper requeues the unit.
                os.kill(os.getpid(), signal.SIGKILL)
            if directive is not None and directive.kind == "crash":
                os._exit(_CRASH_EXIT_CODE)
            if directive is not None and directive.kind == "lease-stall":
                _stall_until_fenced(queue, unit.id, owner, policy, drain)
                continue
            heartbeat = None
            if not claim.rogue:
                heartbeat = _Heartbeat(
                    queue, unit.id, owner, attempt, policy.effective_heartbeat
                ).start()
            try:
                if directive is not None and directive.kind == "error":
                    raise InjectedFault(
                        f"injected error for {unit.keys[0]!r} (attempt {attempt})"
                    )
                rows = _execute_unit(spec, unit)
                records = _persist_records(queue.entry_dir, rows)
            except InjectedFault as error:
                if heartbeat is not None:
                    heartbeat.stop()
                queue.record_attempt_failure(unit.id, "error", str(error))
                queue.release_lease(unit.id, owner)
                continue
            except Exception as error:  # noqa: BLE001 — charge, don't die
                if heartbeat is not None:
                    heartbeat.stop()
                queue.record_attempt_failure(
                    unit.id, "error", f"{type(error).__name__}: {error}"
                )
                queue.release_lease(unit.id, owner)
                continue
            if heartbeat is not None:
                heartbeat.stop()
            if queue.commit(unit, owner, records):
                committed += 1
            if not claim.rogue:
                queue.release_lease(unit.id, owner)
    finally:
        queue.update_worker(owner, "exited")
    return committed


def _stall_until_fenced(queue: FleetQueue, unit_id: str, owner: str,
                        policy: FleetPolicy, drain: threading.Event) -> None:
    """``lease-stall``: hold the lease without heartbeating until reaped.

    Simulates a hung host.  Once the lease is no longer ours (a reaper
    expired it and another worker may already own the unit), abandon without
    committing and without charging an attempt — the reaper charged it.  A
    drain request un-hangs the simulation (releasing the lease) so graceful
    shutdown stays fast even mid-fault.
    """
    queue.update_worker(owner, "stalled", unit_id)
    logger.warning("fleet: %s stalling on unit %s (injected fault)", owner, unit_id)
    deadline = time.time() + _STALL_TIMEOUTS * policy.lease_timeout
    while time.time() < deadline and not drain.is_set():
        payload = _read_json(queue._lease_path(unit_id))
        if not isinstance(payload, dict) or payload.get("owner") != owner:
            return  # fenced — the unit belongs to someone else now
        time.sleep(policy.poll_interval)
    # Nobody reaped us (no supervisor, no peers) or we are draining:
    # release and move on.
    queue.release_lease(unit_id, owner)


def _worker_entry(entry_dir: str, spec_dict: dict, owner: str) -> None:
    """Process target for supervisor-spawned workers (SIGTERM drains)."""
    drain = threading.Event()

    def _on_sigterm(signum, frame):  # noqa: ARG001
        drain.set()

    try:
        signal.signal(signal.SIGTERM, _on_sigterm)
        signal.signal(signal.SIGINT, signal.SIG_IGN)  # the supervisor drains
    except ValueError:
        pass  # not the main thread of the process (embedded use)
    spec = ScenarioSpec.from_dict(spec_dict)
    fleet_worker(entry_dir, spec, owner=owner, drain=drain)


# ----------------------------------------------------------------------
# Supervisor
# ----------------------------------------------------------------------
def _fork_context():
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else None)


def _merge_into_writer(
    writer: CacheWriter, queue: FleetQueue
) -> tuple[list[dict], list[dict]]:
    """Absorb every committed shard and failure record; returns both lists."""
    computed: list[dict] = []
    failed: list[dict] = []
    for _unit, records in queue.committed_records():
        for record in records:
            writer.absorb_record(record)
            computed.append(record)
    for _unit, records in queue.failure_records():
        for record in records:
            writer.absorb_failure_record(record)
            failed.append(record)
    return computed, failed


def _rows_from_records(entry_dir: Path, records: list[dict]) -> dict[str, CellResult]:
    rows: dict[str, CellResult] = {}
    for record in records:
        row = CellResult.from_dict(record)
        if record.get("artifact") is not None:
            row = row.with_artifact(ArtifactRef.from_dict(record["artifact"], entry_dir))
        rows[record["key"]] = row
    return rows


def run_fleet_campaign(
    cache: ResultCache,
    spec: ScenarioSpec,
    policy: FleetPolicy | None = None,
    force: bool = False,
) -> ExperimentResult:
    """Run ``spec`` to completion on a fleet of leased local workers.

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

    cells = spec.cells()
    keys = {cell.key for cell in cells}
    resumed: dict[str, CellResult] = {}
    replayed: tuple[CellFailure, ...] = ()
    if not force:
        state = cache.load_resume_state(spec)
        if state is not None:
            resumed = {key: row for key, row in state.rows.items() if key in keys}
            recorded = tuple(f for f in state.failures if f.key in keys)
            if recorded and state.status == "partial":
                replayed = recorded
    replayed_keys = {failure.key for failure in replayed}
    pending = [
        cell for cell in cells
        if cell.key not in resumed and cell.key not in replayed_keys
    ]

    started = time.perf_counter()
    writer = cache.writer(spec, resumed=resumed, failures=replayed)
    queue = FleetQueue(cache.path(spec))
    units = build_units(spec, pending)
    queue.create_campaign(spec, units, policy, reset=force)

    if not units:
        computed, failed = _merge_into_writer(writer, queue)
        return _finalize(cache, spec, writer, queue, resumed, replayed,
                         computed, started, policy)

    # Forked workers inherit the warmed shared inputs instead of recomputing
    # them once per process.
    singles = [cell for unit in units if unit.kind == "cell" for cell in unit.cells]
    warm_shared_inputs(spec, singles)

    context = _fork_context()
    spec_dict = spec.to_dict()
    interrupted: list[int] = []

    def _on_signal(signum, frame):  # noqa: ARG001
        interrupted.append(signum)

    previous_handlers = {}
    try:
        for signum in (signal.SIGINT, signal.SIGTERM):
            previous_handlers[signum] = signal.signal(signum, _on_signal)
    except ValueError:
        pass  # embedded in a non-main thread: drain only via settle/budget

    processes: list = []
    spawned = 0

    def _spawn() -> None:
        nonlocal spawned
        spawned += 1
        owner = f"{queue.host}-{os.getpid()}-w{spawned}"
        process = context.Process(
            target=_worker_entry, args=(str(queue.entry_dir), spec_dict, owner),
            daemon=True,
        )
        process.start()
        processes.append(process)

    try:
        for _ in range(min(policy.workers, len(units))):
            _spawn()
        respawns = 0
        while True:
            if interrupted:
                _drain(processes, queue, writer, policy, started)
                status = queue.status()
                raise CampaignInterrupted(
                    interrupted[0],
                    settled=status["done"] + status["failed"],
                    total=len(units),
                )
            queue.reap_expired()
            status = queue.status()
            failure_cells = sum(
                len(records) for _u, records in queue.failure_records()
            )
            if failure_cells > policy.max_failures:
                _drain(processes, queue, writer, policy, started)
                failures = [
                    CellFailure.from_dict(record)
                    for _u, records in queue.failure_records()
                    for record in records
                ]
                raise FailureBudgetExceeded(failures, policy.max_failures)
            if status["settled"]:
                break
            alive = [p for p in processes if p.is_alive()]
            dead = len(processes) - len(alive)
            if dead and len(alive) < min(policy.workers, status["pending"] or 1):
                if respawns < policy.max_respawns:
                    respawns += 1
                    logger.warning(
                        "fleet: %d worker(s) died; respawning (%d/%d)",
                        dead, respawns, policy.max_respawns,
                    )
                    _spawn()
                elif not alive:
                    # Out of respawns with no worker left: drain what we
                    # have into a resumable partial manifest and give up.
                    _drain(processes, queue, writer, policy, started)
                    raise RuntimeError(
                        "fleet: every worker died and the respawn budget "
                        f"({policy.max_respawns}) is exhausted; partial "
                        "manifest written"
                    )
            time.sleep(policy.poll_interval)
        for process in processes:
            process.join(timeout=max(policy.drain_grace, 1.0))
            if process.is_alive():
                process.terminate()
                process.join(timeout=1.0)
    finally:
        for signum, handler in previous_handlers.items():
            try:
                signal.signal(signum, handler)
            except ValueError:
                pass
        for process in processes:
            if process.is_alive():
                process.kill()
                process.join(timeout=1.0)

    computed, _failed = _merge_into_writer(writer, queue)
    return _finalize(cache, spec, writer, queue, resumed, replayed,
                     computed, started, policy)


def _drain(processes, queue: FleetQueue, writer: CacheWriter,
           policy: FleetPolicy, started: float) -> None:
    """Graceful shutdown: drain workers, merge shards, write a resumable
    partial manifest, release every lease."""
    for process in processes:
        if process.is_alive():
            process.terminate()  # workers drain on SIGTERM
    deadline = time.time() + policy.drain_grace
    for process in processes:
        remaining = max(0.0, deadline - time.time())
        process.join(timeout=remaining)
        if process.is_alive():
            process.kill()
            process.join(timeout=1.0)
    _merge_into_writer(writer, queue)
    writer.write_partial(elapsed_seconds=time.perf_counter() - started)
    released = queue.release_all_leases()
    logger.info(
        "fleet: drained — partial manifest written (%d row(s), %d failure "
        "record(s)), %d lease(s) released",
        len(writer._records), len(writer._failures), released,
    )


def _finalize(cache, spec, writer, queue, resumed, replayed, computed,
              started, policy) -> ExperimentResult:
    elapsed = time.perf_counter() - started
    cells = spec.cells()
    rows_by_key = dict(resumed)
    rows_by_key.update(_rows_from_records(cache.path(spec), computed))
    failures_by_key = {failure.key: failure for failure in replayed}
    for _unit, records in queue.failure_records():
        for record in records:
            if record.get("key") not in rows_by_key:
                failures_by_key[record["key"]] = CellFailure.from_dict(record)
    failures = tuple(
        failures_by_key[cell.key] for cell in cells if cell.key in failures_by_key
    )
    artifacts = [
        record for record in computed if record.get("artifact") is not None
    ]
    result = ExperimentResult(
        name=spec.name,
        spec=spec.to_dict(),
        spec_hash=spec.hash(),
        rows=tuple(rows_by_key[c.key] for c in cells if c.key in rows_by_key),
        elapsed_seconds=elapsed,
        meta={
            "cells_total": len(cells),
            "cells_computed": len(computed),
            "cells_from_cache": len(resumed),
            "cells_failed": len(failures),
            "cells_retried": queue.retried_cells(),
            "artifacts_written": len(artifacts),
            "artifact_bytes_written": sum(
                int(r["artifact"].get("nbytes", 0)) for r in artifacts
            ),
            "backend": "fleet",
            "workers": policy.workers,
        },
        failures=failures,
    )
    writer.finalize(elapsed)
    return result


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
    cells = spec.cells()
    keys = {cell.key for cell in cells}
    resumed: dict[str, CellResult] = {}
    replayed_keys: set[str] = set()
    if not force:
        state = cache.load_resume_state(spec)
        if state is not None:
            resumed = {key: row for key, row in state.rows.items() if key in keys}
            if state.status == "partial":
                replayed_keys = {
                    f.key for f in state.failures if f.key in keys
                }
    pending = [
        cell for cell in cells
        if cell.key not in resumed and cell.key not in replayed_keys
    ]
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
    policy = queue.policy
    cells = spec.cells()
    keys = {cell.key for cell in cells}
    resumed: dict[str, CellResult] = {}
    replayed: tuple[CellFailure, ...] = ()
    state = cache.load_resume_state(spec)
    if state is not None:
        resumed = {key: row for key, row in state.rows.items() if key in keys}
        if state.status == "partial":
            replayed = tuple(f for f in state.failures if f.key in keys)
    writer = cache.writer(spec, resumed=resumed, failures=replayed)
    started = time.perf_counter()
    computed, _failed = _merge_into_writer(writer, queue)
    if not queue.settled():
        writer.write_partial()
        return "in-progress", None
    result = _finalize(cache, spec, writer, queue, resumed, replayed,
                       computed, started, policy)
    return "complete", result
