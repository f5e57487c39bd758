"""Counter-based seeding helpers.

All randomness in the package flows through Philox generators keyed by an
explicit (seed, path) pair, so any stream can be re-opened at random access
without generating its predecessors.
"""

from __future__ import annotations

import numpy as np

# stream tags, fixed forever: changing one changes every derived stream
TAG_SAMPLE = 1
TAG_DATABASE = 2
TAG_TRAINING = 3
TAG_EVAL = 4
TAG_DISTANCE = 5
TAG_PROB = 6
TAG_TRIAL = 7
TAG_MDE = 8


def _seed_sequence(seed: int, path: tuple) -> np.random.SeedSequence:
    return np.random.SeedSequence(entropy=int(seed) & (2**64 - 1),
                                  spawn_key=tuple(int(p) for p in path))


def rng_for(seed: int, *path: int) -> np.random.Generator:
    """Deterministic generator for a (seed, path) key, random-access safe."""
    return np.random.Generator(np.random.Philox(_seed_sequence(seed, path)))


def derive_seed(seed: int, *path: int) -> int:
    """A well-separated 63-bit child seed for the same (seed, path) key."""
    return int(_seed_sequence(seed, path).generate_state(1, np.uint64)[0]) >> 1
