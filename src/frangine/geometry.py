"""Spatial substrate: Poisson point process node layouts and F-AP topology.

The region is a flat rectangle with no wrap-around; edge effects are
accepted (experiments read interior statistics).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from enum import Enum

import numpy as np


class NodeKind(Enum):
    HPN = "hpn"
    FAP = "fap"
    FUE = "fue"


class FapTopology(Enum):
    MESH = "mesh"
    TREE = "tree"


@dataclass(frozen=True)
class Region:
    width: float
    height: float

    @property
    def area(self) -> float:
        return self.width * self.height


@dataclass
class NodeSet:
    positions: np.ndarray  # (n, 2) meters
    density: float  # nodes per square meter

    def __len__(self) -> int:
        return self.positions.shape[0]


@dataclass
class NetworkTopology:
    region: Region
    hpns: NodeSet
    faps: NodeSet
    fues: NodeSet
    fap_link_topology: FapTopology = FapTopology.TREE
    fap_adjacency: set = field(default_factory=set)  # frozenset of (i, j), i < j

    def fap_neighbors(self) -> list[list[int]]:
        """Each F-AP's linked F-APs, ascending."""
        neighbors = [[] for _ in range(len(self.faps))]
        for i, j in sorted(self.fap_adjacency):
            neighbors[i].append(j)
            neighbors[j].append(i)
        return neighbors


def sample_ppp(density: float, region: Region, rng: np.random.Generator) -> NodeSet:
    """Homogeneous PPP sample: Poisson(density*area) points, uniform i.i.d."""
    n = rng.poisson(density * region.area)
    xs = rng.uniform(0.0, region.width, size=n)
    ys = rng.uniform(0.0, region.height, size=n)
    return NodeSet(positions=np.column_stack([xs, ys]), density=density)


def distance(a, b) -> float:
    """Euclidean distance between two (x, y) positions, meters."""
    return float(np.hypot(a[0] - b[0], a[1] - b[1]))


def pairwise_distances(positions_a: np.ndarray, positions_b: np.ndarray) -> np.ndarray:
    """(len(a), len(b)) Euclidean distance matrix."""
    a = np.asarray(positions_a, dtype=float).reshape(-1, 2)
    b = np.asarray(positions_b, dtype=float).reshape(-1, 2)
    dx = np.subtract.outer(a[:, 0], b[:, 0])
    dy = np.subtract.outer(a[:, 1], b[:, 1])
    return np.hypot(dx, dy, out=dx)


def build_fap_adjacency(faps: NodeSet, mode: FapTopology) -> set:
    """Edges between F-APs: complete graph (mesh) or Euclidean MST (tree).

    Tree ties are broken toward the lower (i, j) index pair, making the MST
    deterministic even with equidistant nodes.
    """
    n = len(faps)
    if mode is FapTopology.MESH:
        return {(i, j) for i in range(n) for j in range(i + 1, n)}
    if n == 1:
        return set()
    # Prim's algorithm with (distance, i, j) lexicographic selection. Each
    # vertex outside the tree keeps its best key (dist, min, max) over the
    # tree's members; keys of distinct vertices never tie, because each one
    # names its own vertex.
    dist = pairwise_distances(faps.positions, faps.positions)
    ids = np.arange(n)
    outside = np.ones(n, dtype=bool)
    best_d = np.full(n, np.inf)
    best_lo = np.zeros(n, dtype=int)
    best_hi = np.zeros(n, dtype=int)
    edges = set()
    u = 0
    for _ in range(n - 1):
        outside[u] = False
        lo = np.minimum(ids, u)
        hi = np.maximum(ids, u)
        d = dist[u]
        better = outside & (
            (d < best_d)
            | ((d == best_d) & ((lo < best_lo) | ((lo == best_lo) & (hi < best_hi))))
        )
        best_d[better] = d[better]
        best_lo[better] = lo[better]
        best_hi[better] = hi[better]
        rest = np.flatnonzero(outside)
        u = int(rest[np.lexsort((best_hi[rest], best_lo[rest], best_d[rest]))[0]])
        edges.add((int(best_lo[u]), int(best_hi[u])))
    return edges


def pair_d2d(fues: NodeSet, d2d_capable: np.ndarray) -> list[tuple[int, int]]:
    """Greedy nearest-neighbor D2D pairing over capable F-UEs.

    Candidate pairs are taken in ascending distance order (ties by index);
    each F-UE joins at most one pair. A heap holds each unpaired F-UE's
    nearest unpaired neighbor, keyed (d, lo, hi); an entry whose neighbor was
    paired is refreshed when popped. Keys only grow, so a fresh entry popped
    is the least remaining candidate: no candidate list is sorted.
    """
    idx = np.flatnonzero(np.asarray(d2d_capable, dtype=bool))
    dist = pairwise_distances(fues.positions[idx], fues.positions[idx])
    np.fill_diagonal(dist, np.inf)

    def nearest(u):
        # The first index wins a distance tie: it has the least (lo, hi).
        v = int(dist[u].argmin())
        return (float(dist[u, v]), min(u, v), max(u, v), u)

    # Each unpaired F-UE has exactly one entry in the heap.
    heap = [nearest(u) for u in range(idx.size)]
    heapq.heapify(heap)
    paired = [False] * idx.size
    pairs = []
    left = idx.size
    while left > 1:
        _, lo, hi, u = heapq.heappop(heap)
        if paired[u]:
            continue
        if paired[lo + hi - u]:
            heapq.heappush(heap, nearest(u))
            continue
        pairs.append((int(idx[lo]), int(idx[hi])))
        paired[lo] = paired[hi] = True
        dist[:, [lo, hi]] = np.inf
        left -= 2
    return pairs


def adjacency_is_connected(edges: set, nodes: list[int]) -> bool:
    """Whether `nodes` induce a connected subgraph of the edge set."""
    nodes = list(nodes)
    if len(nodes) <= 1:
        return True
    node_set = set(nodes)
    neighbors = {v: set() for v in nodes}
    for i, j in edges:
        if i in node_set and j in node_set:
            neighbors[i].add(j)
            neighbors[j].add(i)
    seen = {nodes[0]}
    frontier = [nodes[0]]
    while frontier:
        v = frontier.pop()
        for w in neighbors[v]:
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return len(seen) == len(nodes)
