"""Discrete-event simulation substrate.

* :mod:`~repro.simulation.trace_queue` — the trace-driven open queue used for
  Table 1 (Poisson arrivals, service times read from a trace, FCFS),
* :mod:`~repro.simulation.closed_network` — the one jump-chain kernel of
  the abstract closed network of Figure 9 (delay station plus two servers
  whose service processes are MAPs), used to cross-validate the analytical
  solver, and its seed policy; a static network runs as a one-segment
  timeline,
* :mod:`~repro.simulation.timevarying` — the entry points for
  *time-varying* timelines (diurnal curves, flash crowds, regime-switching
  MAPs, outages), with per-segment statistics,
* :mod:`~repro.simulation.batched` — the replication-set entry of a static
  network: the kernel once per seed,
* :mod:`~repro.simulation.random_streams` — named seed derivation.
"""

from repro.simulation.trace_queue import TraceQueueResult, simulate_mtrace1
from repro.simulation.closed_network import (
    BATCH_RNG_CHUNK,
    ClosedNetworkSimResult,
    simulate_closed_map_network,
)
from repro.simulation.batched import simulate_closed_map_network_batch
from repro.simulation.timevarying import (
    SegmentSimStats,
    TimeVaryingSimResult,
    simulate_timevarying_closed_map_network,
    simulate_timevarying_closed_map_network_batch,
)
from repro.simulation.random_streams import derive_seed, named_seed_sequence

__all__ = [
    "TraceQueueResult",
    "simulate_mtrace1",
    "ClosedNetworkSimResult",
    "simulate_closed_map_network",
    "simulate_closed_map_network_batch",
    "BATCH_RNG_CHUNK",
    "SegmentSimStats",
    "TimeVaryingSimResult",
    "simulate_timevarying_closed_map_network",
    "simulate_timevarying_closed_map_network_batch",
    "derive_seed",
    "named_seed_sequence",
]
