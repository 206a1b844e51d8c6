"""Deterministic random-stream derivation.

All randomness in this package flows from a single 64-bit master seed
through two published constructions:

* ``splitmix64(seed, index)`` — the index-th output of the SplitMix64
  sequence seeded at ``seed`` (Steele, Lea & Flood's finalizer with the
  golden-gamma increment).  Used to derive per-trial seeds from an
  experiment master seed; O(1) random access.

* Philox-4x64 substreams keyed by ``(splitmix64(seed, a), splitmix64(seed ^
  STREAM_SALT, b))`` for a stream label ``(a, b)``.  Both key halves are
  injective in their label coordinate, so distinct labels are guaranteed
  distinct keys.  Philox is counter-based, so a substream's output depends
  only on its key — generation order cannot change the bytes produced.

Stream labels used by this package: the graph sampler owns ``(j, k)``
with height class j >= 1 and chunk index k, one stream for the height-j
blocks [k * C, (k + 1) * C) with C = ``generator._BLOCK_CHUNK`` (Salmon et
al., "Parallel random numbers: as easy as 1, 2, 3", SC 2011); label class
0 is reserved for auxiliary draws (the reference per-pair sampler,
candidate-set sampling).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN_GAMMA = 0x9E3779B97F4A7C15
STREAM_SALT = 0x5851F42D4C957F2D

MAX_SEED = _MASK64


def check_seed(seed: int) -> int:
    if not isinstance(seed, int) or not 0 <= seed <= MAX_SEED:
        raise ValueError(f"seed must be an integer in [0, 2**64), got {seed!r}")
    return seed


def splitmix64(seed: int, index: int = 0) -> int:
    """Output ``index`` of the SplitMix64 stream seeded with ``seed``."""
    z = (seed + (index + 1) * _GOLDEN_GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def substream(seed: int, a: int, b: int) -> np.random.Generator:
    """A fresh generator positioned at the start of stream label (a, b)."""
    return SubstreamSampler().reset(seed, a, b)


@lru_cache(maxsize=None)
def _any_seed() -> np.random.SeedSequence:
    # built on first use: importing cga does not import numpy.random
    return np.random.SeedSequence(0)


class SubstreamSampler:
    """A reusable Philox generator that can be repositioned to any stream.

    Repositioning rewrites the Philox key and zeroes the counter and output
    buffer, which reproduces exactly the stream of a freshly constructed
    generator with the same key, while avoiding per-stream object
    construction.  Not thread-safe; `sample_graph` builds one per graph and
    resets it for each chunk.
    """

    def __init__(self) -> None:
        # reset rewrites the key, so any start will do; a given seed
        # sequence spares the operating-system entropy that Philox(key=...)
        # draws for a seed sequence of its own
        self._bitgen = np.random.Philox(_any_seed())
        self.gen = np.random.Generator(self._bitgen)
        # a fresh generator's state (zero counter, empty output buffer);
        # only its key changes from one reset to the next
        self._state = self._bitgen.state
        self._key = self._state["state"]["key"]

    def reset(self, seed: int, a: int, b: int) -> np.random.Generator:
        # the key of the module docstring; numpy stores the low word first
        self._key[0] = splitmix64(seed ^ STREAM_SALT, b)
        self._key[1] = splitmix64(seed, a)
        self._bitgen.state = self._state
        return self.gen
