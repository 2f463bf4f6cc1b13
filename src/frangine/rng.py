"""Seed derivation for reproducible, independently streamed randomness.

Every random draw in the simulator comes from a generator derived as a pure
function of (master seed, purpose tags). Adding a new consumer of randomness
therefore never perturbs the draws of an existing one.
"""

from __future__ import annotations

import zlib

import numpy as np


def _tag_word(tag) -> int:
    if isinstance(tag, str):
        return zlib.crc32(tag.encode("utf-8"))
    return int(tag) % (1 << 32)


def derive_rng(master_seed: int, *tags) -> np.random.Generator:
    """Independent generator keyed by (master_seed, *tags); tags may be
    strings or ints."""
    entropy = [int(master_seed) % (1 << 64), *map(_tag_word, tags)]
    return np.random.default_rng(np.random.SeedSequence(entropy))
