"""Named seed derivation for reproducible simulations.

Each logical source of randomness (a grid cell, a replication, ...) gets its
own independent seed derived from one root seed and the source's name, so
that changing how one source is consumed never perturbs the others — an
essential property for controlled experiments and variance reduction across
configurations.
"""

from __future__ import annotations

import numpy as np

__all__ = ["derive_seed", "named_seed_sequence"]


def named_seed_sequence(seed: int, name: str) -> np.random.SeedSequence:
    """Deterministic child seed sequence for a named stream.

    The child depends only on the root ``seed`` and the ``name`` (the name's
    bytes form the spawn key), never on creation order — the property that
    makes per-cell seeding in experiment grids reproducible and independent.
    ``seed`` must be a concrete integer: ``None`` would draw fresh OS entropy
    on every call, silently breaking the determinism promised here.
    """
    if seed is None:
        raise ValueError("named_seed_sequence requires an integer seed, not None")
    digest = np.frombuffer(name.encode("utf-8"), dtype=np.uint8)
    return np.random.SeedSequence(entropy=seed, spawn_key=tuple(int(b) for b in digest))


def derive_seed(seed: int, name: str) -> int:
    """Deterministic integer seed for the named stream (e.g. a grid cell)."""
    return int(named_seed_sequence(seed, name).generate_state(1, dtype=np.uint64)[0])
