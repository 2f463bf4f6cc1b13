import zlib

import numpy as np
import pytest

from frangine.rng import derive_rng


@pytest.mark.parametrize("tags", [(), ("cluster", 3, 4), ("a", 2**40)])
def test_derive_rngs_any_tags(tags):
    """derive_rng(master, *tags) seeds numpy's SeedSequence with the words
    [master mod 2^64, then per tag its CRC-32 (str) or its value mod 2^32
    (int)]. scenbench's layout search seeds from it, so this mapping must
    not move."""
    words = [zlib.crc32(t.encode("utf-8")) if isinstance(t, str) else t % 2**32 for t in tags]
    for master in (5, 2**64 - 1, -3):
        for i in range(9):
            expected = np.random.default_rng(np.random.SeedSequence([master % 2**64, *words, i]))
            assert np.array_equal(derive_rng(master, *tags, i).random(3), expected.random(3))
