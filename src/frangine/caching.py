"""Bounded edge caches (FIFO/LRU/LFU), Zipf workloads, and hit accounting.

Caches are cache-on-miss: a missed item is always inserted, evicting a
policy-chosen victim when full. LFU ties break by least-recent use; FIFO
evicts in insertion order regardless of re-access.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np


class EvictionPolicy(Enum):
    FIFO = "fifo"
    LRU = "lru"
    LFU = "lfu"


class ContentTier(Enum):
    AT_FUE = "at_fue"
    AT_FAP = "at_fap"
    CLOUD_ONLY = "cloud_only"


@dataclass(frozen=True)
class ContentCatalog:
    n_items: int
    zipf_exponent: float = 0.8

    def __post_init__(self):
        if self.n_items < 1:
            raise ValueError("catalog needs at least one item")
        if self.zipf_exponent < 0:
            raise ValueError("Zipf exponent must be nonnegative")

    def popularity(self) -> np.ndarray:
        """p(i) proportional to (i+1)^(-s) over item ids 0..n-1, summing to 1."""
        ranks = np.arange(1, self.n_items + 1, dtype=float)
        weights = ranks ** (-self.zipf_exponent)
        return weights / weights.sum()

    @cached_property
    def cdf(self) -> np.ndarray:
        """Cumulative popularity, normalized as `Generator.choice` does."""
        cdf = self.popularity().cumsum()
        cdf /= cdf[-1]
        return cdf


class EdgeCache:
    """Single-owner bounded cache; |store| <= capacity after every request.

    One dict maps each held item to (use count, last use). FIFO and LRU
    evict its first key (LRU re-inserts an item on each hit); last uses are
    unique, so LFU's (count, last use) minimum has no ties.
    """

    def __init__(self, capacity: int, policy: EvictionPolicy):
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.capacity = capacity
        self.policy = policy
        self.hits = 0
        self.misses = 0
        self._clock = 0
        self._store: dict[int, tuple[int, int]] = {}

    def __contains__(self, item: int) -> bool:
        return item in self._store

    def request(self, item: int) -> tuple[bool, int | None]:
        """Serve one request; returns (hit, evicted id or None)."""
        self._clock += 1
        store = self._store
        use = store.get(item)
        if use is not None:
            self.hits += 1
            if self.policy is EvictionPolicy.LRU:
                del store[item]
            store[item] = (use[0] + 1, self._clock)
            return True, None
        self.misses += 1
        evicted = None
        if len(store) >= self.capacity:
            if self.policy is EvictionPolicy.LFU:
                evicted = min(store, key=store.__getitem__)
            else:
                evicted = next(iter(store))
            del store[evicted]
        store[item] = (1, self._clock)
        return False, evicted


def zipf_stream(catalog: ContentCatalog, length, rng: np.random.Generator) -> np.ndarray:
    """i.i.d. content ids drawn from the catalog's Zipf popularity: by
    inverse CDF, the same draws as `rng.choice(n_items, length, p=...)`.

    `length` is an int or a shape. A (rows, n) shape fills row by row from
    the one stream, so the first k rows do not depend on how many follow."""
    return catalog.cdf.searchsorted(rng.random(length), side="right")


def content_available(
    item: int,
    fue_cache: EdgeCache | None,
    fap_cache: EdgeCache | None,
    peer_fap_caches=(),
) -> ContentTier:
    """First tier holding the item: F-UE, then F-AP, then cloud (which has
    everything). peer_fap_caches enables cooperative lookup in adjacent
    F-APs, counted as the F-AP tier."""
    if fue_cache is not None and item in fue_cache:
        return ContentTier.AT_FUE
    if fap_cache is not None and item in fap_cache:
        return ContentTier.AT_FAP
    for peer in peer_fap_caches:
        if item in peer:
            return ContentTier.AT_FAP
    return ContentTier.CLOUD_ONLY
