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


# Streams kept for reuse; past this many names the cache starts over, so
# per-utterance dropout streams cannot grow it with the corpus (an entry is
# about 1.7 kB).
MAX_CACHED_STREAMS = 1 << 14


class NamedRng:
    """Factory for independent Philox generators identified by name."""

    def __init__(self, seed: int):
        self.seed = int(seed) & 0xFFFFFFFFFFFFFFFF
        # per stream name: its generator and the Philox state that resets it
        self._streams: dict[str, tuple[np.random.Generator, dict]] = {}

    def generator(self, name: str, step: int = 0) -> np.random.Generator:
        """Stream `name` at Philox counter `step`: draws equal those of a
        fresh Philox(key=(seed, hash(name)), counter=(step, 0, 0, 0)).

        One generator is kept per name and reset on every request (building
        a Philox costs about four times as much: its constructor draws OS
        entropy that the explicit key then replaces).  So a returned
        generator is valid only until the same stream is requested again;
        draw from it before that.
        """
        entry = self._streams.get(name)
        if entry is None:
            if len(self._streams) >= MAX_CACHED_STREAMS:
                self._streams.clear()
            key = np.array([self.seed, _name_key(name)], dtype=np.uint64)
            gen = np.random.Generator(np.random.Philox(key=key))
            entry = self._streams[name] = (gen, gen.bit_generator.state)
        gen, state = entry
        state["state"]["counter"][0] = step
        gen.bit_generator.state = state
        return gen

    def normal(self, name: str, shape, std: float = 1.0) -> np.ndarray:
        return self.generator(name).standard_normal(shape) * std
