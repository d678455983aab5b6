"""Seeded, purpose-tagged random substreams.

Every stochastic component of the library (data generation, missingness
masks, epoch shuffles, in-batch permutations, Monte-Carlo estimators,
bootstraps) draws from its own named substream derived from
``(seed, *tags)``.  Adding a new consumer therefore never perturbs the
stream of an existing one, and any single stream can be reproduced in
isolation.

Streams are backed by the counter-based Philox bit generator, keyed
through ``numpy.random.SeedSequence`` so that distinct tag tuples give
statistically independent streams.  The seed and each tag become
non-negative integers (a type discriminator, then the value), and the
entropy is passed as one pre-encoded ``uint32`` array: each integer as
little-endian 32-bit words, at least one.  Those are the words numpy's
own coercion makes from the integer list, so the pool and every stream
are the same, without numpy's per-integer conversion.
"""

from __future__ import annotations

import functools

import numpy as np

Tag = int | str

# Type discriminators keep e.g. the int 97 and the string "a" from
# colliding in the entropy pool.
_INT_TAG = 0
_STR_TAG = 1


_MASK32 = 0xFFFFFFFF


def _words(value: int) -> list[int]:
    """``value`` as little-endian 32-bit words, at least one."""
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


@functools.lru_cache(maxsize=1024)
def _str_words(tag: str) -> tuple[int, ...]:
    return (_STR_TAG, *_words(len(tag)), *_words(int.from_bytes(tag.encode("utf-8"), "little")))


def _encode(tag: Tag) -> tuple[int, ...]:
    """The entropy words of one tag: a type discriminator, then the value."""
    if isinstance(tag, (int, np.integer)):
        value = int(tag)
        if value < 0:
            raise ValueError(f"rng tags must be non-negative, got {value}")
        return (_INT_TAG, *_words(value))
    if isinstance(tag, str):
        return _str_words(tag)
    raise TypeError(f"rng tags must be int or str, got {type(tag).__name__}")


def _seed_sequence(seed: int, tags: tuple[Tag, ...]) -> np.random.SeedSequence:
    entropy = list(_encode(seed))
    for tag in tags:
        entropy.extend(_encode(tag))
    return np.random.SeedSequence(np.array(entropy, np.uint32))


def substream(seed: int, *tags: Tag) -> np.random.Generator:
    """Return the generator for the substream named by ``(seed, *tags)``."""
    return np.random.Generator(np.random.Philox(_seed_sequence(seed, tags)))


def derive_seed(seed: int, *tags: Tag) -> int:
    """Fold ``(seed, *tags)`` into a fresh 63-bit seed for a sub-component."""
    state = _seed_sequence(seed, tags).generate_state(1, np.uint64)[0]
    return int(state >> np.uint64(1))
