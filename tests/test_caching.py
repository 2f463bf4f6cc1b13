import numpy as np
import pytest

from frangine.caching import (
    ContentCatalog,
    ContentTier,
    EdgeCache,
    EvictionPolicy,
    content_available,
    zipf_stream,
)
from frangine.rng import derive_rng


class ReferenceCache:
    """Plain-list reference simulation used as the eviction oracle."""

    def __init__(self, capacity, policy):
        self.capacity = capacity
        self.policy = policy
        self.items = []  # insertion order
        self.last = {}
        self.freq = {}
        self.time = 0

    def request(self, item):
        self.time += 1
        if item in self.items:
            self.last[item] = self.time
            self.freq[item] += 1
            return True, None
        evicted = None
        if len(self.items) == self.capacity:
            if self.policy is EvictionPolicy.FIFO:
                evicted = self.items[0]
            elif self.policy is EvictionPolicy.LRU:
                evicted = min(self.items, key=lambda i: (self.last[i], i))
            else:
                evicted = min(self.items, key=lambda i: (self.freq[i], self.last[i], i))
            self.items.remove(evicted)
            del self.last[evicted], self.freq[evicted]
        self.items.append(item)
        self.last[item] = self.time
        self.freq[item] = 1
        return False, evicted


def test_fifo_hand_trace():
    cache = EdgeCache(2, EvictionPolicy.FIFO)
    results = [cache.request(x) for x in "ABAC"]
    assert [hit for hit, _ in results] == [False, False, True, False]
    assert results[3][1] == "A"  # C evicts A despite A's re-access


def test_lru_hand_trace():
    cache = EdgeCache(2, EvictionPolicy.LRU)
    results = [cache.request(x) for x in "ABAC"]
    assert results[3][1] == "B"  # A is most recent, B goes


def test_lfu_tie_breaks_by_recency_then_id():
    cache = EdgeCache(2, EvictionPolicy.LFU)
    cache.request(1)
    cache.request(2)
    cache.request(2)
    _, evicted = cache.request(3)  # freq: 1->1, 2->2
    assert evicted == 1
    cache = EdgeCache(2, EvictionPolicy.LFU)
    cache.request(1)
    cache.request(2)  # equal freq, 1 least recent
    _, evicted = cache.request(3)
    assert evicted == 1


@pytest.mark.parametrize("policy", list(EvictionPolicy))
def test_policies_match_reference_simulation(policy):
    rng = np.random.default_rng(17)
    for case in range(100):
        capacity = int(rng.integers(1, 11))
        n_items = int(rng.integers(1, 51))
        trace = rng.integers(0, n_items, size=int(rng.integers(1, 200)))
        cache = EdgeCache(capacity, policy)
        ref = ReferenceCache(capacity, policy)
        for item in trace:
            assert cache.request(int(item)) == ref.request(int(item)), (policy, case)
        assert cache.contents() == set(ref.items)


def test_capacity_never_exceeded():
    rng = np.random.default_rng(23)
    for policy in EvictionPolicy:
        cache = EdgeCache(4, policy)
        for item in rng.integers(0, 30, size=500):
            cache.request(int(item))
            assert len(cache.contents()) <= 4


def test_no_eviction_when_capacity_covers_catalog():
    for policy in EvictionPolicy:
        cache = EdgeCache(10, policy)
        trace = [0, 1, 2, 0, 1, 2, 2, 1, 0]
        for item in trace:
            cache.request(item)
        # After each item's first request, everything hits.
        assert cache.misses == 3
        assert cache.hits == len(trace) - 3


def test_lru_inclusion_property():
    rng = np.random.default_rng(31)
    for _ in range(30):
        trace = rng.integers(0, 20, size=300)
        small = EdgeCache(5, EvictionPolicy.LRU)
        large = EdgeCache(6, EvictionPolicy.LRU)
        for item in trace:
            small.request(int(item))
            large.request(int(item))
            assert small.contents() <= large.contents()


def _hit_ratio(cache):
    return cache.hits / (cache.hits + cache.misses)


def test_lru_hit_ratio_nondecreasing_in_capacity():
    rng = np.random.default_rng(37)
    trace = [int(x) for x in rng.integers(0, 30, size=1000)]
    ratios = []
    for capacity in (2, 4, 8, 16, 32):
        cache = EdgeCache(capacity, EvictionPolicy.LRU)
        for item in trace:
            cache.request(item)
        ratios.append(_hit_ratio(cache))
    assert all(a <= b + 1e-12 for a, b in zip(ratios, ratios[1:]))


def test_fifo_equals_lru_without_reuse():
    # Items never repeat, so recency never diverges from insertion order.
    trace = list(range(50))
    fifo = EdgeCache(7, EvictionPolicy.FIFO)
    lru = EdgeCache(7, EvictionPolicy.LRU)
    for item in trace:
        assert fifo.request(item) == lru.request(item)


def test_zipf_s0_is_uniform():
    catalog = ContentCatalog(10, zipf_exponent=0.0)
    draws = zipf_stream(catalog, 100_000, derive_rng(5, "zipf0"))
    counts = np.bincount(draws, minlength=10)
    p = 0.1
    sigma = np.sqrt(p * (1 - p) * draws.size)
    assert np.all(np.abs(counts - p * draws.size) < 3.5 * sigma)


def test_zipf_s1_rank_ratio():
    catalog = ContentCatalog(100, zipf_exponent=1.0)
    draws = zipf_stream(catalog, 1_000_000, derive_rng(6, "zipf1"))
    counts = np.bincount(draws, minlength=100)
    assert abs(counts[0] / counts[1] - 2.0) < 0.1  # p(1)/p(2) = 2 within 5%


def test_zipf_empty_stream():
    catalog = ContentCatalog(10)
    assert zipf_stream(catalog, 0, derive_rng(7)).size == 0


def test_zipf_deterministic_per_seed():
    catalog = ContentCatalog(50, zipf_exponent=0.8)
    a = zipf_stream(catalog, 1000, derive_rng(8, "det"))
    b = zipf_stream(catalog, 1000, derive_rng(8, "det"))
    assert np.array_equal(a, b)


def test_hit_ratio_trivials():
    cache = EdgeCache(4, EvictionPolicy.LRU)
    cache.request(1)
    cache.hits = cache.misses = 0  # count from the second request on
    for _ in range(4):
        cache.request(1)
    assert _hit_ratio(cache) == 1.0
    cold = EdgeCache(2, EvictionPolicy.LRU)
    for item in (1, 2, 3, 4):
        cold.request(item)
    assert _hit_ratio(cold) == 0.0


def test_lru_zipf_matches_reference_exactly():
    catalog = ContentCatalog(1000, zipf_exponent=0.8)
    trace = zipf_stream(catalog, 100_000, derive_rng(9, "ref"))
    cache = EdgeCache(10, EvictionPolicy.LRU)
    ref = ReferenceCache(10, EvictionPolicy.LRU)
    mismatches = sum(
        cache.request(int(i)) != ref.request(int(i)) for i in trace
    )
    assert mismatches == 0


def test_content_available_tiers():
    fue = EdgeCache(2, EvictionPolicy.LRU)
    fap = EdgeCache(2, EvictionPolicy.LRU)
    fue.request(1)
    fap.request(2)
    assert content_available(1, fue, fap) is ContentTier.AT_FUE
    assert content_available(2, fue, fap) is ContentTier.AT_FAP
    assert content_available(3, fue, fap) is ContentTier.CLOUD_ONLY
    peer = EdgeCache(2, EvictionPolicy.LRU)
    peer.request(3)
    assert content_available(3, fue, fap, [peer]) is ContentTier.AT_FAP
    assert content_available(3, None, None) is ContentTier.CLOUD_ONLY
