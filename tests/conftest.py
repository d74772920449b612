"""Shared generators for randomized checks.

Everything is seeded explicitly so the whole suite is deterministic; the
helpers only wrap the package's own random constructors with convenient
sizing rules.
"""

from __future__ import annotations

import numpy as np

import qbc


def random_density_pair(dim: int, seed: int, rank0: int | None = None, rank1: int | None = None):
    """A pair of random density operators on the same space."""
    rng = np.random.default_rng(seed)
    r0 = rank0 if rank0 is not None else int(rng.integers(1, dim + 1))
    r1 = rank1 if rank1 is not None else int(rng.integers(1, dim + 1))
    return (
        qbc.random_density(dim, r0, rng),
        qbc.random_density(dim, r1, rng),
    )


def random_protocols(count: int, seed: int, max_dim: int = 4):
    """Random purification protocols with factor dims drawn from 2..max_dim."""
    rng = np.random.default_rng(seed)
    protocols = []
    for _ in range(count):
        dp = int(rng.integers(2, max_dim + 1))
        dt = int(rng.integers(2, max_dim + 1))
        protocols.append(qbc.random_protocol(dp, dt, rng))
    return protocols


# The engine's reference protocols: one of each family and a random 8x8.
ENGINE_PROTOCOLS = {
    "commuting3d": lambda: qbc.family_protocol(qbc.Commuting3D(0.3)),
    "qubit-pure-mixed": lambda: qbc.family_protocol(qbc.QubitPureMixed(0.4)),
    "pure-pair": lambda: qbc.family_protocol(qbc.PurePair(0.7)),
    "random8x8": lambda: qbc.random_protocol(8, 8, 88),
}
