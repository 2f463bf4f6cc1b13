import numpy as np
import pytest

from frangine.rng import derive_rng, derive_rngs

MASTERS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1, -3]


@pytest.mark.parametrize("master", MASTERS)
@pytest.mark.parametrize("tag", ["warmup", "traffic"])
@pytest.mark.parametrize("n", [0, 1, 257])
def test_derive_rngs_equals_derive_rng_per_index(master, tag, n):
    batch = derive_rngs(master, n, tag)
    assert len(batch) == n
    for i, rng in enumerate(batch):
        assert np.array_equal(rng.random(4), derive_rng(master, tag, i).random(4)), i


@pytest.mark.parametrize("tags", [(), ("cluster", 3, 4), ("a", 2**40)])
def test_derive_rngs_any_tags(tags):
    # A two-word master plus two tags fills numpy's 4-word pool before the
    # index: the hash then mixes the index in after the pool.
    for master in (5, 2**64 - 1):
        for i, rng in enumerate(derive_rngs(master, 9, *tags)):
            assert np.array_equal(rng.random(3), derive_rng(master, *tags, i).random(3))
