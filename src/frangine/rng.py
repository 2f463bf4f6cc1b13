"""Seed derivation for reproducible, independently streamed randomness.

Every random draw in the simulator comes from a generator derived as a pure
function of (master seed, purpose tags). Adding a new consumer of randomness
therefore never perturbs the draws of an existing one.
"""

from __future__ import annotations

import functools
import zlib

import numpy as np

_MASK = 0xFFFFFFFF
# numpy's SeedSequence constants: its entropy pool holds 4 words, hashed
# and mixed as in Melissa O'Neill's seed_seq_fe (NEP 19 keeps them fixed).
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _tag_word(tag) -> int:
    if isinstance(tag, str):
        return zlib.crc32(tag.encode("utf-8"))
    return int(tag) % (1 << 32)


def _entropy(master_seed: int, tags) -> list:
    return [int(master_seed) % (1 << 64), *(_tag_word(t) for t in tags)]


def derive_seed_sequence(master_seed: int, *tags) -> np.random.SeedSequence:
    """SeedSequence for (master_seed, *tags); tags may be strings or ints."""
    return np.random.SeedSequence(_entropy(master_seed, tags))


def derive_rng(master_seed: int, *tags) -> np.random.Generator:
    """Independent generator keyed by (master_seed, *tags)."""
    return np.random.default_rng(derive_seed_sequence(master_seed, *tags))


@functools.cache
def _state_words():
    """An ISeedSequence that hands a PCG64 the four uint64 state words
    computed for it in advance. Made on first use: numpy imports
    numpy.random lazily, and importing frangine should not pay for it."""

    class StateWords(np.random.bit_generator.ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if (n_words, np.dtype(dtype)) != (4, np.dtype(np.uint64)):
                raise ValueError("only PCG64's four uint64 words are precomputed")
            return self.words

    return StateWords


def _hashmix(value: np.ndarray, const: int):
    """SeedSequence's hashmix on uint32 arrays: (hashed value, next const)."""
    value = value ^ const
    const = const * _MULT_A & _MASK
    value *= const
    return value ^ value >> 16, const


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = x * _MIX_L - y * _MIX_R
    return result ^ result >> 16


def derive_rngs(master_seed: int, n: int, *tags) -> list:
    """The generators derive_rng(master_seed, *tags, i) for i < n, bit for bit.

    Their SeedSequence hashes share every entropy word but the last, the
    index, so the hash runs once over uint32 arrays of n lanes, and each
    PCG64 is seeded from its row of the resulting state words. This skips
    numpy's per-call Python-level hashing, most of derive_rng's cost."""
    entropy = [np.full(n, w, np.uint32) for w in _uint32_words(_entropy(master_seed, tags))]
    entropy.append((np.arange(n, dtype=np.uint64) % (1 << 32)).astype(np.uint32))
    # SeedSequence.mix_entropy: fill the pool, mix every word into every
    # other, then mix in any entropy beyond the pool.
    const = _INIT_A
    pool = []
    for k in range(_POOL):
        word, const = _hashmix(entropy[k] if k < len(entropy) else np.zeros(n, np.uint32), const)
        pool.append(word)
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                word, const = _hashmix(pool[src], const)
                pool[dst] = _mix(pool[dst], word)
    for extra in entropy[_POOL:]:
        for dst in range(_POOL):
            word, const = _hashmix(extra, const)
            pool[dst] = _mix(pool[dst], word)
    # SeedSequence.generate_state(4, np.uint64): eight uint32 words from the
    # cycled pool, read in little-endian pairs.
    state = np.empty((n, 2 * _POOL), np.uint32)
    const = _INIT_B
    for k in range(2 * _POOL):
        word = pool[k % _POOL] ^ const
        const = const * _MULT_B & _MASK
        word *= const
        state[:, k] = word ^ word >> 16
    words = state.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)
    state_words = _state_words()
    return [np.random.Generator(np.random.PCG64(state_words(row))) for row in words]


def _uint32_words(entropy) -> list:
    """SeedSequence's uint32 entropy words for a list of nonnegative ints:
    each int in little-endian 32-bit words, 0 as one word."""
    words = []
    for value in entropy:
        words.append(value & _MASK)
        while value > _MASK:
            value >>= 32
            words.append(value & _MASK)
    return words
