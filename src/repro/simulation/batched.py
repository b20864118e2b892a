"""The replication-set entry of the static closed MAP network.

:func:`simulate_closed_map_network_batch` runs one network for a set of
seeds: the kernel of :mod:`repro.simulation.closed_network` once per seed,
each on ``numpy.random.default_rng(seed)``, with the network as a
one-segment timeline.  Under the seed policy documented there, each seed's
result ``==`` the per-seed entry's
(:func:`~repro.simulation.closed_network.simulate_closed_map_network`) on
``default_rng(seed)``, whatever other seeds share the set.  The timeline
counterpart is
:func:`~repro.simulation.timevarying.simulate_timevarying_closed_map_network_batch`.
"""

from __future__ import annotations

from typing import Sequence

from repro.maps.map_process import MAP
from repro.queueing.transient import NetworkSegment
from repro.simulation.closed_network import (
    BATCH_RNG_CHUNK,
    ClosedNetworkSimResult,
    _network_result,
    _validate_network,
    simulate_replications,
)

__all__ = [
    "BATCH_RNG_CHUNK",
    "ClosedNetworkSimResult",
    "simulate_closed_map_network_batch",
]


def simulate_closed_map_network_batch(
    front_service: MAP,
    db_service: MAP,
    think_time: float,
    population: int,
    horizon: float,
    warmup: float = 0.0,
    seeds: Sequence[int] = (),
) -> list[ClosedNetworkSimResult]:
    """Simulate ``len(seeds)`` replications of the closed network.

    Parameters mirror :func:`~repro.simulation.closed_network.
    simulate_closed_map_network`; instead of one ``rng`` the caller passes
    one integer seed per replication.  Returns one
    :class:`ClosedNetworkSimResult` per seed, in seed order.
    """
    _validate_network(think_time, population, horizon, warmup)
    segment = NetworkSegment(horizon, front_service, db_service, think_time, population)
    return [
        _network_result(sums, think_time, population, horizon, warmup)
        for sums in simulate_replications([segment], horizon, warmup, seeds)
    ]
