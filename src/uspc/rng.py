"""Deterministic, named random streams.

Every random draw in the model (weight init, dropout masks, data shuffling,
codebook re-seeding) comes from a counter-based Philox stream keyed by
(seed, stream name) with the step counter as the Philox counter.  Draws are
therefore reproducible from (seed, name, step) alone, independent of call
order, which is what makes training traces bitwise repeatable.
"""

from __future__ import annotations

import hashlib

import numpy as np


def _name_key(name: str) -> int:
    digest = hashlib.blake2b(name.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


class NamedRng:
    """Factory for independent Philox generators identified by name."""

    def __init__(self, seed: int):
        self.seed = int(seed) & 0xFFFFFFFFFFFFFFFF

    def generator(self, name: str, step: int = 0) -> np.random.Generator:
        bitgen = np.random.Philox(
            key=np.array([self.seed, _name_key(name)], dtype=np.uint64),
            counter=np.array([int(step), 0, 0, 0], dtype=np.uint64),
        )
        return np.random.Generator(bitgen)

    def normal(self, name: str, shape, std: float = 1.0, step: int = 0) -> np.ndarray:
        return self.generator(name, step).standard_normal(shape) * std
