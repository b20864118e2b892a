"""A minimal discrete-event queue.

Events are ``(time, payload)`` pairs in a binary heap; a monotonically
increasing sequence number breaks time ties in scheduling order, so payloads
never need to be comparable.  A simulator that must *reschedule* a pending
event tags the payload with a version counter and ignores stale versions
when they pop.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any

__all__ = ["EventQueue"]


class EventQueue:
    """Time-ordered event queue of arbitrary payloads at absolute times."""

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Any]] = []
        self._counter = itertools.count()

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    def schedule(self, time: float, payload: Any) -> None:
        """Schedule ``payload`` at ``time``."""
        heapq.heappush(self._heap, (time, next(self._counter), payload))

    def pop(self) -> tuple[float, Any]:
        """Pop and return the earliest event as ``(time, payload)``."""
        if not self._heap:
            raise IndexError("pop from an empty event queue")
        time, _, payload = heapq.heappop(self._heap)
        return time, payload
