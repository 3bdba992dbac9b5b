"""Deterministic RNG stream derivation for reproducible, shard-invariant runs.

Every stochastic routine in this package draws from a generator derived
from (master seed, integer key path). Streams with distinct key paths are
independent, and the mapping never depends on process or thread layout,
so re-running with a different shard count reproduces results bit for bit.
"""

from __future__ import annotations

import numpy as np

# Fixed top-level stream ids. Keeping them in one place avoids accidental
# stream collisions between subsystems that share a master seed.
STREAM_CODEBOOK = 0
STREAM_FRAMES = 1
STREAM_CHANNELS = 2
STREAM_MISC = 3


def _seed_sequence(seed: int, key: tuple) -> np.random.SeedSequence:
    """The SeedSequence of stream (seed, *key), after checking both are non-negative."""
    if seed < 0:
        raise ValueError("seed must be non-negative")
    if any(k < 0 for k in key):
        raise ValueError("stream key components must be non-negative")
    return np.random.SeedSequence(entropy=seed, spawn_key=key)


def derive_rng(seed: int, *key: int) -> np.random.Generator:
    """Return a Generator for the stream identified by (seed, *key).

    The key path is folded into a SeedSequence spawn key, so any two
    distinct paths yield statistically independent streams.
    """
    return np.random.default_rng(_seed_sequence(seed, key))


def derive_seed(seed: int, *key: int) -> int:
    """64-bit child seed for APIs that take an integer seed, not a Generator.

    Children with distinct key paths are independent of each other and of
    every derive_rng stream under the same master seed.
    """
    return int(_seed_sequence(seed, key).generate_state(1, np.uint64)[0])


def as_generator(seed_or_rng: int | np.random.Generator) -> np.random.Generator:
    """Accept either a seed or an existing Generator."""
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return derive_rng(int(seed_or_rng))
