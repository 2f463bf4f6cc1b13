"""Bounded edge caches (FIFO/LRU/LFU), Zipf workloads, and hit accounting.

Caches are cache-on-miss: a missed item is always inserted, evicting a
policy-chosen victim when full. LFU ties break by least-recent use; FIFO
evicts in insertion order regardless of re-access.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from heapq import heappop, heappush, heappushpop

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
    zipf_exponent: float

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
    evict its first key (LRU re-inserts an item on each hit). LFU evicts the
    least (count, last use), from a heap with one (count, last use, item)
    entry per held item that a hit leaves as it was: a popped entry whose
    item has been used since goes back with its current key, so the first
    popped entry that is current is the least of all held items. Last uses
    are unique, so that minimum has no ties.
    """

    def __init__(self, capacity: int, policy: EvictionPolicy):
        self.capacity = capacity
        self.policy = policy
        self._clock = 0
        self._store: dict[int, tuple[int, int]] = {}
        self._heap: list[tuple[int, int, int]] = []

    def __contains__(self, item: int) -> bool:
        return item in self._store

    def request(self, item: int) -> tuple[bool, int | None]:
        """Serve one request; returns (hit, evicted id or None)."""
        hits, evictions = self.replay((item,))
        return hits[0], evictions[0][1] if evictions else None

    def replay(self, items) -> tuple[list[bool], list[tuple[int, int]]]:
        """Serve the items in order. Returns each request's hit flag and a
        (step, evicted id) pair per eviction, steps counted from 0 at the
        first of these items."""
        store, heap, capacity = self._store, self._heap, self.capacity
        lru, lfu = self.policy is EvictionPolicy.LRU, self.policy is EvictionPolicy.LFU
        start = self._clock + 1
        hits, evictions = [], []
        hit = hits.append
        for clock, item in enumerate(items, start):
            use = store.get(item)
            if use is not None:
                hit(True)
                if lru:
                    del store[item]
                store[item] = (use[0] + 1, clock)
                continue
            hit(False)
            if len(store) >= capacity:
                if lfu:
                    _, last, victim = heappop(heap)
                    while (use := store[victim])[1] != last:
                        _, last, victim = heappushpop(heap, (*use, victim))
                else:
                    victim = next(iter(store))
                del store[victim]
                evictions.append((clock - start, victim))
            store[item] = (1, clock)
            if lfu:
                heappush(heap, (1, clock, item))
        self._clock += len(hits)
        return hits, evictions


def replay_lanes(streams: np.ndarray, capacity: int, policy: EvictionPolicy) -> np.ndarray:
    """Hit flags of one fresh `EdgeCache` per row of a (L, n) array of
    nonnegative item ids, each serving its row in order: the same hits and
    victims, with all L caches stepped together, one numpy step per column.

    Row i's cache is W slots of held items and an int64 eviction key per
    slot, -1 when empty: the insertion step for FIFO, the last use for LRU,
    and count * (n + 1) + last use for LFU. A miss fills the slot of least
    key, so an empty slot first; keys are unique within a row, so the victim
    is `EdgeCache`'s. A row holds at most as many items as it has distinct
    ids, so W = min(capacity, n, largest id + 1) and any capacity fits in
    O(L * n) memory. L and n may be 0.
    """
    lanes, n = streams.shape
    width = min(capacity, n, int(streams.max(initial=0)) + 1)
    held = np.full((lanes, width), -1, dtype=streams.dtype)
    keys = np.full((lanes, width), -1, dtype=np.int64)
    hits = np.zeros((lanes, n), dtype=bool)
    rows = np.arange(lanes)
    for step, items in enumerate(np.ascontiguousarray(streams.T)):
        match = held == items[:, None]
        hit = hits[:, step] = match.any(axis=1)
        slot = np.where(hit, match.argmax(axis=1), keys.argmin(axis=1))
        if policy is EvictionPolicy.LRU:
            keys[rows, slot] = step
        elif policy is EvictionPolicy.FIFO:
            keys[rows, slot] = np.where(hit, keys[rows, slot], step)
        else:
            count = np.where(hit, keys[rows, slot] // (n + 1) + 1, 1)
            keys[rows, slot] = count * (n + 1) + step
        held[rows, slot] = items
    return hits


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
