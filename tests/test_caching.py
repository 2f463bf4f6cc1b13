import tracemalloc

import numpy as np
import pytest

from frangine.caching import (
    ContentCatalog,
    ContentTier,
    EdgeCache,
    EvictionPolicy,
    content_available,
    replay_lanes,
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


class MinScanLFU:
    """LFU as a dict of item -> (count, last use) whose victim is found by
    scanning the whole store with `min`: the heap's oracle."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.store = {}
        self.clock = 0

    def request(self, item):
        self.clock += 1
        if item in self.store:
            self.store[item] = (self.store[item][0] + 1, self.clock)
            return True, None
        evicted = None
        if len(self.store) >= self.capacity:
            evicted = min(self.store, key=self.store.__getitem__)
            del self.store[evicted]
        self.store[item] = (1, self.clock)
        return False, evicted


def _oracle_streams():
    """(capacity, stream) cases: every capacity from 1 to 8 on random
    streams, streams of length 0 and 1, a one-item catalog, and capacities
    above the stream length."""
    rng = np.random.default_rng(43)
    cases = []
    for capacity in range(1, 9):
        cases += [(capacity, []), (capacity, [3]), (capacity, [0] * 9)]
        for _ in range(12):
            n_items = int(rng.integers(1, 16))
            cases.append((capacity, rng.integers(0, n_items, size=int(rng.integers(2, 60))).tolist()))
    cases += [(100, [5, 1, 5, 2, 9]), (10**12, rng.integers(0, 30, size=40).tolist())]
    return cases


@pytest.mark.parametrize("policy", list(EvictionPolicy))
def test_replay_equals_reference_hit_for_hit_and_victim_for_victim(policy):
    for capacity, stream in _oracle_streams():
        ref = ReferenceCache(capacity, policy)
        expected = [ref.request(item) for item in stream]
        cache = EdgeCache(capacity, policy)
        hits, evictions = cache.replay(stream)
        assert hits == [hit for hit, _ in expected], (capacity, stream)
        assert evictions == [(t, v) for t, (_, v) in enumerate(expected) if v is not None]
        # Replays continue where the last one stopped, as requests do.
        again = EdgeCache(capacity, policy)
        half = len(stream) // 2
        first, second = again.replay(stream[:half]), again.replay(stream[half:])
        assert first[0] + second[0] == hits
        assert first[1] + [(t + half, v) for t, v in second[1]] == evictions


@pytest.mark.parametrize("policy", list(EvictionPolicy))
def test_replay_lanes_equals_reference_hit_for_hit_and_victim_for_victim(policy):
    """All streams of a capacity in one call, padded with an item no stream
    holds; then what each cache holds after every step, read by one lane per
    (stream, prefix, item) that asks for the item right after the prefix."""
    by_capacity = {}
    for capacity, stream in _oracle_streams():
        by_capacity.setdefault(capacity, []).append(stream)
    for capacity, streams in by_capacity.items():
        n = max(map(len, streams))
        pad = 99
        lanes = np.array([stream + [pad] * (n - len(stream)) for stream in streams]).reshape(-1, n)
        hits = replay_lanes(lanes, capacity, policy)
        assert hits.shape == lanes.shape
        # No requests, or no lanes (a layout without F-UEs).
        assert replay_lanes(np.zeros((3, 0), dtype=np.int64), capacity, policy).shape == (3, 0)
        assert replay_lanes(np.zeros((0, n), dtype=np.int64), capacity, policy).shape == (0, n)
        for stream, row in zip(streams, hits):
            ref = ReferenceCache(capacity, policy)
            assert row[:len(stream)].tolist() == [ref.request(item)[0] for item in stream]
        for stream in filter(None, streams):
            items = range(max(stream) + 1)
            probes = np.array([
                stream[:t] + [x] + stream[t:] for t in range(len(stream) + 1) for x in items
            ])
            held = replay_lanes(probes, capacity, policy)[
                np.arange(len(probes)), np.repeat(np.arange(len(stream) + 1), len(items))
            ].reshape(len(stream) + 1, len(items))
            ref = ReferenceCache(capacity, policy)
            for t in range(len(stream) + 1):
                assert set(np.flatnonzero(held[t])) == set(ref.items), (capacity, stream, t)
                if t < len(stream):
                    ref.request(stream[t])


def test_heap_lfu_victims_equal_the_min_scan():
    rng = np.random.default_rng(47)
    for capacity in range(1, 9):
        for _ in range(25):
            n_items = int(rng.integers(1, 40))
            stream = (rng.zipf(1.3, size=int(rng.integers(1, 400))) % n_items).tolist()
            cache, scan = EdgeCache(capacity, EvictionPolicy.LFU), MinScanLFU(capacity)
            assert [cache.request(item) for item in stream] == list(map(scan.request, stream))
            assert set(cache._store) == set(scan.store)
            assert len(cache._heap) == len(cache._store)  # one entry per held item


def test_replay_lanes_allocates_for_the_stream_not_the_capacity():
    streams = derive_rng(53, "lanes").integers(0, 200, size=(300, 20))
    for policy in EvictionPolicy:
        tracemalloc.start()
        try:
            hits = replay_lanes(streams, 10**12, policy)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * streams.nbytes
        assert hits.sum() == sum(len(row) - len(set(row)) for row in streams.tolist())


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
        assert {i for i in range(n_items) if i in cache} == set(ref.items)


def test_capacity_never_exceeded():
    rng = np.random.default_rng(23)
    for policy in EvictionPolicy:
        cache = EdgeCache(4, policy)
        for item in rng.integers(0, 30, size=500):
            cache.request(int(item))
            assert len({i for i in range(30) if i in cache}) <= 4


def test_no_eviction_when_capacity_covers_catalog():
    for policy in EvictionPolicy:
        cache = EdgeCache(10, policy)
        trace = [0, 1, 2, 0, 1, 2, 2, 1, 0]
        hits = [cache.request(item) for item in trace]
        # After each item's first request, everything hits.
        assert hits == [(False, None)] * 3 + [(True, None)] * (len(trace) - 3)


def test_lru_inclusion_property():
    rng = np.random.default_rng(31)
    for _ in range(30):
        trace = rng.integers(0, 20, size=300)
        small = EdgeCache(5, EvictionPolicy.LRU)
        large = EdgeCache(6, EvictionPolicy.LRU)
        for item in trace:
            small.request(int(item))
            large.request(int(item))
            assert {i for i in range(20) if i in small} <= {i for i in range(20) if i in large}


def _hit_ratio(cache, trace):
    """The share of the trace's requests that hit the cache."""
    hits = [cache.request(item)[0] for item in trace]
    return sum(hits) / len(hits)


def test_lru_hit_ratio_nondecreasing_in_capacity():
    rng = np.random.default_rng(37)
    trace = [int(x) for x in rng.integers(0, 30, size=1000)]
    ratios = []
    for capacity in (2, 4, 8, 16, 32):
        ratios.append(_hit_ratio(EdgeCache(capacity, EvictionPolicy.LRU), trace))
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


def test_zipf_stream_equals_generator_choice():
    """The cached-CDF draw is `Generator.choice` with p, bit for bit and
    dtype included, for an int length or a shape, and leaves the generator
    in the same state. A (rows, n) draw fills row by row from one stream,
    so the first 50 rows of a (50, n) and an (80, n) draw are equal: F-UE i
    requests the same items at every point of a `lambda_d` sweep that has
    an F-UE i."""
    for n_items, s in ((1, 0.8), (10, 0.0), (100, 0.8), (200, 1.0)):
        catalog = ContentCatalog(n_items, zipf_exponent=s)
        for seed in range(50):
            for length in (1, 7, 1000, (50, 0), (50, 9), (80, 9)):
                ours, theirs = derive_rng(seed, "zipf"), derive_rng(seed, "zipf")
                draws = zipf_stream(catalog, length, ours)
                expected = theirs.choice(n_items, size=length, p=catalog.popularity())
                assert draws.dtype == expected.dtype
                assert np.array_equal(draws, expected)
                assert ours.random() == theirs.random()
            fifty, eighty = (
                zipf_stream(catalog, (rows, 9), derive_rng(seed, "zipf")) for rows in (50, 80)
            )
            assert np.array_equal(fifty, eighty[:50])


def test_zipf_empty_stream():
    catalog = ContentCatalog(10, zipf_exponent=0.8)
    assert zipf_stream(catalog, 0, derive_rng(7)).size == 0


def test_zipf_deterministic_per_seed():
    catalog = ContentCatalog(50, zipf_exponent=0.8)
    a = zipf_stream(catalog, 1000, derive_rng(8, "det"))
    b = zipf_stream(catalog, 1000, derive_rng(8, "det"))
    assert np.array_equal(a, b)


def test_hit_ratio_trivials():
    cache = EdgeCache(4, EvictionPolicy.LRU)
    cache.request(1)
    assert _hit_ratio(cache, [1] * 4) == 1.0  # counted from the second request on
    assert _hit_ratio(EdgeCache(2, EvictionPolicy.LRU), (1, 2, 3, 4)) == 0.0


def test_lru_zipf_matches_reference_exactly():
    catalog = ContentCatalog(1000, zipf_exponent=0.8)
    trace = zipf_stream(catalog, 100_000, derive_rng(9, "ref"))
    cache = EdgeCache(10, EvictionPolicy.LRU)
    ref = ReferenceCache(10, EvictionPolicy.LRU)
    mismatches = sum(
        cache.request(int(i)) != ref.request(int(i)) for i in trace
    )
    assert mismatches == 0


@pytest.mark.parametrize("policy", list(EvictionPolicy))
def test_large_cache_zipf_matches_reference(policy):
    """Capacity 50 of a 200-item catalog: LFU picks its victim among many
    held items with equal counts, and every policy evicts on most misses."""
    catalog = ContentCatalog(200, zipf_exponent=1.0)
    trace = zipf_stream(catalog, 5000, derive_rng(31, "ref", policy.value))
    cache = EdgeCache(50, policy)
    ref = ReferenceCache(50, policy)
    results = [cache.request(int(i)) for i in trace]
    assert results == [ref.request(int(i)) for i in trace]
    assert sum(evicted is not None for _, evicted in results) > 500
    assert {i for i in range(200) if i in cache} == set(ref.items)


def _characteristic_time(occupancy, capacity):
    """The T at which occupancy(T), the expected number of items held,
    equals the capacity; occupancy increases in T, so bisect."""
    lo, hi = 0.0, 1.0
    while occupancy(hi) < capacity:
        lo, hi = hi, 2 * hi
    for _ in range(100):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if occupancy(mid) < capacity else (lo, mid)
    return (lo + hi) / 2


# (catalog, Zipf exponent, capacity). Each policy serves the same i.i.d.
# (IRM) stream; hit ratios count only the requests after the warm-up.
IRM_CASES = [(200, 1.0, 50), (1000, 0.8, 50)]
IRM_WARMUP, IRM_REQUESTS = 20_000, 100_000


@pytest.mark.parametrize("n_items, s, capacity", IRM_CASES)
def test_caches_match_irm_approximations(n_items, s, capacity):
    """LRU's hit ratio is Che's approximation, h_i = 1 - exp(-p_i T), and
    FIFO's that of Martina, Garetto & Leonardi, h_i = p_i T / (1 + p_i T),
    each with T set so that sum_i h_i = C, within 0.01. LFU is in-cache LFU
    (an evicted item's count is forgotten): above LRU, and at or below
    perfect LFU, which holds the C most popular items."""
    catalog = ContentCatalog(n_items, zipf_exponent=s)
    p = catalog.popularity()
    trace = zipf_stream(catalog, IRM_WARMUP + IRM_REQUESTS, derive_rng(41, "irm", n_items)).tolist()
    measured = {}
    for policy in EvictionPolicy:
        cache = EdgeCache(capacity, policy)
        for item in trace[:IRM_WARMUP]:
            cache.request(item)
        measured[policy] = _hit_ratio(cache, trace[IRM_WARMUP:])

    t_lru = _characteristic_time(lambda t: -np.expm1(-p * t).sum(), capacity)
    t_fifo = _characteristic_time(lambda t: (p * t / (1 + p * t)).sum(), capacity)
    che = p @ -np.expm1(-p * t_lru)
    martina = p @ (p * t_fifo / (1 + p * t_fifo))
    top_c = p[:capacity].sum()  # popularity decreases with the item id
    assert abs(measured[EvictionPolicy.LRU] - che) < 0.01
    assert abs(measured[EvictionPolicy.FIFO] - martina) < 0.01
    assert measured[EvictionPolicy.LRU] < measured[EvictionPolicy.LFU] <= top_c


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
