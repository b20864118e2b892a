"""The per-seed and replication-set entries of a static network agree draw for draw.

:func:`~repro.simulation.simulate_closed_map_network` runs the simulation
kernel on one generator; :func:`~repro.simulation.simulate_closed_map_network_batch`
runs it once per seed on ``default_rng(seed)``.  For every mix of MAP
orders 1 to 3 (each resolves its jumps through the CDF table), a long run
that crosses several ``BATCH_RNG_CHUNK`` refills gives, seed by seed, the
same result ``==`` from both entries.  The drawn-network property test of
the same identity is ``test_simulation_batched.py::TestReplicationSets``.
"""

from __future__ import annotations

import numpy as np

from repro.maps import MAP
from repro.simulation import (
    BATCH_RNG_CHUNK,
    simulate_closed_map_network,
    simulate_closed_map_network_batch,
)

ORDER_MIXES = [(front, db) for front in (1, 2, 3) for db in (1, 2, 3)]


def random_map(rng: np.random.Generator, order: int, mean: float) -> MAP:
    """A random irreducible MAP of ``order`` phases with the given mean."""
    D0 = rng.uniform(0.0, 4.0, (order, order))
    D1 = rng.uniform(0.1, 4.0, (order, order))
    np.fill_diagonal(D0, 0.0)
    np.fill_diagonal(D0, -(D0.sum(axis=1) + D1.sum(axis=1)))
    service = MAP(D0, D1)
    return service.scaled(mean / service.mean())


class TestStaticNetworks:
    def test_scalar_equals_batched(self):
        for front_order, db_order in ORDER_MIXES:
            rng = np.random.default_rng(10 * front_order + db_order)
            front = random_map(rng, front_order, 0.004)
            db = random_map(rng, db_order, 0.005)
            seeds = [front_order + db_order, 100 + 10 * front_order + db_order]
            per_seed = [
                simulate_closed_map_network(
                    front, db, 0.2, 25, horizon=90.0, warmup=10.0,
                    rng=np.random.default_rng(seed),
                )
                for seed in seeds
            ]
            results = simulate_closed_map_network_batch(
                front, db, 0.2, 25, horizon=90.0, warmup=10.0, seeds=seeds
            )
            assert results == per_seed, (front_order, db_order)
            assert min(result.events for result in results) > 3 * BATCH_RNG_CHUNK
