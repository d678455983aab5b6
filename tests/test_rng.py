"""RNG stream tests: the pre-encoded entropy words give the same
``SeedSequence`` pool as the integer entropy list they encode, and the
first draws of a permutation substream and two derived seeds are pinned,
since every trained model depends on them."""

import numpy as np
import pytest

from symile.rng import _seed_sequence, derive_seed, substream

SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63 - 1]
TAGS = [
    (),
    ("perm", "a", "b"),
    ("negatives", 3, 7),
    (np.int64(5), np.int64(2**40), np.uint32(7)),
    ("",),
    *[("abcdefghi"[:k],) for k in range(1, 10)],
    ("möbius ∞",),
    ("ab\x00",),
    ("\x00",),
    ("tight", 10**6, "", 0),
]


def integer_entropy(seed, tags):
    """The entropy as a list of integers, each tag a type discriminator (0
    for ints, 1 for strings) then its value; numpy coerces this list itself."""

    def encode(tag):
        if isinstance(tag, (int, np.integer)):
            return [0, int(tag)]
        return [1, len(tag), int.from_bytes(tag.encode("utf-8"), "little")]

    entropy = encode(seed)
    for tag in tags:
        entropy.extend(encode(tag))
    return entropy


@pytest.mark.parametrize("tags", TAGS, ids=repr)
@pytest.mark.parametrize("seed", SEEDS)
def test_pool_matches_the_integer_entropy_list(seed, tags):
    got = _seed_sequence(seed, tags)
    expected = np.random.SeedSequence(integer_entropy(seed, tags))
    np.testing.assert_array_equal(got.pool, expected.pool)
    np.testing.assert_array_equal(got.generate_state(4), expected.generate_state(4))


def test_permutation_substream_draws_are_pinned():
    assert substream(0, "perm", "a", "b").permutation(8).tolist() == [5, 1, 3, 4, 0, 7, 6, 2]
    words = substream(0, "perm", "a", "b").integers(0, 2**32, 4, dtype=np.uint64)
    assert words.tolist() == [1674733482, 529399246, 2393671530, 579372704]


def test_derived_seeds_are_pinned():
    assert derive_seed(0, "negatives", 3, 7) == 8966929337781114715
    assert derive_seed(2**40, "tight", 10**6) == 6665564791433326810


def test_bad_tags_rejected():
    with pytest.raises(ValueError):
        substream(0, "perm", -1)
    with pytest.raises(TypeError):
        substream(0, 1.5)
