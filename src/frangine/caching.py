"""Bounded edge caches (FIFO/LRU/LFU), Zipf workloads, and hit accounting.

Caches are cache-on-miss: a missed item is always inserted, evicting a
policy-chosen victim when full. LFU ties break by least-recent use, then
lower id; FIFO evicts in insertion order regardless of re-access.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

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


class EdgeCache:
    """Single-owner bounded cache; |store| <= capacity after every request."""

    def __init__(self, capacity: int, policy: EvictionPolicy):
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.capacity = capacity
        self.policy = policy
        self.hits = 0
        self.misses = 0
        self._clock = 0
        self._insert_order: list[int] = []  # FIFO queue
        self._last_use: dict[int, int] = {}
        self._freq: dict[int, int] = {}

    def __contains__(self, item: int) -> bool:
        return item in self._last_use

    def contents(self) -> set[int]:
        return set(self._last_use)

    def _victim(self) -> int:
        if self.policy is EvictionPolicy.FIFO:
            return self._insert_order[0]
        if self.policy is EvictionPolicy.LRU:
            return min(self._last_use, key=lambda i: (self._last_use[i], i))
        # LFU: least frequency, then least recent use, then lower id.
        return min(self._freq, key=lambda i: (self._freq[i], self._last_use[i], i))

    def request(self, item: int) -> tuple[bool, int | None]:
        """Serve one request; returns (hit, evicted id or None)."""
        self._clock += 1
        evicted = None
        if item in self._last_use:
            self.hits += 1
            self._last_use[item] = self._clock
            self._freq[item] += 1
            hit = True
        else:
            self.misses += 1
            if len(self._last_use) >= self.capacity:
                evicted = self._victim()
                del self._last_use[evicted]
                del self._freq[evicted]
                self._insert_order.remove(evicted)
            self._last_use[item] = self._clock
            self._freq[item] = 1
            self._insert_order.append(item)
            hit = False
        return hit, evicted


def zipf_stream(
    catalog: ContentCatalog, length: int, rng: np.random.Generator
) -> np.ndarray:
    """i.i.d. content ids drawn from the catalog's Zipf popularity."""
    if length < 0:
        raise ValueError("length must be nonnegative")
    if length == 0:
        return np.empty(0, dtype=np.int64)
    return rng.choice(catalog.n_items, size=length, p=catalog.popularity())


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
