"""Trace-driven simulation of a single-server FCFS queue (the M/Trace/1 queue).

Table 1 of the paper evaluates the response-time impact of burstiness by
feeding the four service-time traces of Figure 1 to a single FCFS server with
Poisson arrivals at 50 % and 80 % utilisation.  Because consecutive service
times are *not* independent, the Pollaczek–Khinchin formula does not apply
and the queue must be simulated; the Lindley recursion makes this exact and
fast:

    W_1 = 0,    W_{i+1} = max(0, W_i + S_i - A_{i+1})

where ``W_i`` is the waiting time of the i-th job, ``S_i`` its service time
(read from the trace in order) and ``A_{i+1}`` the inter-arrival time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["TraceQueueResult", "simulate_mtrace1", "simulate_gtrace1"]


@dataclass(frozen=True)
class TraceQueueResult:
    """Per-job response times of a trace-driven FCFS single-server queue."""

    response_times: np.ndarray
    waiting_times: np.ndarray
    utilization: float

    @property
    def mean_response_time(self) -> float:
        """Mean response time (waiting plus service)."""
        return float(self.response_times.mean())

    def response_time_percentile(self, q: float) -> float:
        """Empirical ``q``-quantile of the response time."""
        if not 0.0 < q < 1.0:
            raise ValueError("q must be in (0, 1)")
        return float(np.quantile(self.response_times, q))

    def summary(self) -> dict:
        """The columns reported in Table 1 of the paper."""
        return {
            "mean_response_time": self.mean_response_time,
            "p95_response_time": self.response_time_percentile(0.95),
            "utilization": self.utilization,
        }


def simulate_gtrace1(service_times, interarrival_times) -> TraceQueueResult:
    """Simulate a single-server FCFS queue from explicit arrival and service traces.

    Both traces are consumed in order; the number of simulated jobs is the
    shorter of the two lengths.
    """
    service = np.asarray(service_times, dtype=float).reshape(-1)
    interarrival = np.asarray(interarrival_times, dtype=float).reshape(-1)
    count = min(service.size, interarrival.size)
    if count < 1:
        raise ValueError("both traces must contain at least one sample")
    if np.any(service[:count] < 0) or np.any(interarrival[:count] < 0):
        raise ValueError("times must be non-negative")
    service = service[:count]
    interarrival = interarrival[:count]

    waiting = np.empty(count)
    waiting[0] = 0.0
    current = 0.0
    for i in range(1, count):
        current = max(0.0, current + service[i - 1] - interarrival[i])
        waiting[i] = current
    response = waiting + service
    total_time = float(interarrival.sum() + waiting[-1] + service[-1])
    utilization = float(service.sum() / total_time) if total_time > 0 else 0.0
    return TraceQueueResult(
        response_times=response, waiting_times=waiting, utilization=utilization
    )


def simulate_mtrace1(
    service_times,
    utilization: float,
    rng: np.random.Generator | None = None,
) -> TraceQueueResult:
    """Simulate the M/Trace/1 queue of Table 1.

    Arrivals are Poisson with rate ``utilization / mean(service_times)`` so
    that the long-run server utilisation equals ``utilization``; service
    times are consumed from the trace in their given order, preserving its
    burstiness.
    """
    service = np.asarray(service_times, dtype=float).reshape(-1)
    if service.size < 2:
        raise ValueError("the service trace must contain at least two samples")
    if not 0.0 < utilization < 1.0:
        raise ValueError("utilization must be in the open interval (0, 1)")
    if rng is None:
        rng = np.random.default_rng()
    mean_service = float(service.mean())
    arrival_rate = utilization / mean_service
    interarrival = rng.exponential(1.0 / arrival_rate, service.size)
    return simulate_gtrace1(service, interarrival)
