"""An exact processor-sharing (PS) server.

The server uses the classical *virtual time* construction: a virtual clock
advances at rate ``1 / n(t)`` while ``n(t) > 0`` jobs are present, and a job
with service requirement ``S`` arriving at virtual time ``V_a`` completes when
the virtual clock reaches ``V_a + S``.  This gives exact egalitarian
processor sharing with O(log n) work per event.
"""

from __future__ import annotations

import heapq
from typing import Any

__all__ = ["ProcessorSharingServer"]


class ProcessorSharingServer:
    """Egalitarian processor-sharing server with exact virtual-time dynamics."""

    def __init__(self, name: str = "server") -> None:
        self.name = name
        self._virtual_time = 0.0
        self._last_update = 0.0
        self._targets: dict[Any, float] = {}
        self._heap: list[tuple[float, Any]] = []

    # ------------------------------------------------------------------
    # State inspection
    # ------------------------------------------------------------------
    @property
    def num_jobs(self) -> int:
        """Number of jobs currently in service."""
        return len(self._targets)

    @property
    def is_busy(self) -> bool:
        """Whether at least one job is present."""
        return bool(self._targets)

    # ------------------------------------------------------------------
    # Dynamics
    # ------------------------------------------------------------------
    def advance(self, now: float) -> None:
        """Advance the server's virtual time to ``now``."""
        elapsed = now - self._last_update
        if elapsed < -1e-9:
            raise ValueError("time must not run backwards (%.6f < %.6f)" % (now, self._last_update))
        if elapsed > 0:
            n = len(self._targets)
            if n > 0:
                self._virtual_time += elapsed / n
            self._last_update = now

    def arrive(self, job_id: Any, demand: float, now: float) -> None:
        """Admit a job with the given service requirement at time ``now``."""
        if demand <= 0:
            raise ValueError("demand must be positive")
        if job_id in self._targets:
            raise ValueError("job %r is already in service" % (job_id,))
        self.advance(now)
        target = self._virtual_time + demand
        self._targets[job_id] = target
        heapq.heappush(self._heap, (target, job_id))

    def next_completion_time(self, now: float) -> float | None:
        """Absolute time of the next completion if no further arrivals occur."""
        self.advance(now)
        target = self._peek_valid_target()
        if target is None:
            return None
        n = len(self._targets)
        return self._last_update + (target - self._virtual_time) * n

    def complete_next(self, now: float) -> Any:
        """Complete the job with the smallest virtual finish time at ``now``."""
        self.advance(now)
        while self._heap:
            target, job_id = heapq.heappop(self._heap)
            current = self._targets.get(job_id)
            if current is None or abs(current - target) > 1e-12:
                continue  # stale heap entry
            del self._targets[job_id]
            return job_id
        raise RuntimeError("complete_next called on an idle server")

    def _peek_valid_target(self) -> float | None:
        while self._heap:
            target, job_id = self._heap[0]
            current = self._targets.get(job_id)
            if current is None or abs(current - target) > 1e-12:
                heapq.heappop(self._heap)
                continue
            return target
        return None
