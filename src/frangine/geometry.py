"""Spatial substrate: Poisson point process node layouts and F-AP topology.

The region is a flat rectangle with no wrap-around; edge effects are
accepted (experiments read interior statistics).
"""

from __future__ import annotations

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

    @property
    def center(self) -> tuple[float, float]:
        """The middle of the region: where the typical D2D link and the
        cellular victim sit."""
        return (self.width / 2.0, self.height / 2.0)


@dataclass
class NetworkTopology:
    hpns: np.ndarray  # (n, 2) positions, meters
    faps: np.ndarray
    fues: np.ndarray
    fap_adjacency: set = field(default_factory=set)  # frozenset of (i, j), i < j

    def fap_neighbors(self) -> list[list[int]]:
        """Each F-AP's linked F-APs, ascending."""
        neighbors = [[] for _ in range(len(self.faps))]
        for i, j in sorted(self.fap_adjacency):
            neighbors[i].append(j)
            neighbors[j].append(i)
        return neighbors


def sample_ppp(density: float, region: Region, rng: np.random.Generator) -> np.ndarray:
    """Homogeneous PPP sample: the (n, 2) positions of Poisson(density*area)
    points, uniform i.i.d."""
    n = rng.poisson(density * region.area)
    xs = rng.uniform(0.0, region.width, size=n)
    ys = rng.uniform(0.0, region.height, size=n)
    return np.column_stack([xs, ys])


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


PAIR_CHUNK = 1 << 16  # candidate pairs held at once: O(n + PAIR_CHUNK) memory


def _pairs_within(xy: np.ndarray, r: float):
    """(d, lo, hi) arrays of every pair lo < hi of the n >= 1 rows of xy no
    more than r apart. The rows are sorted along their bounding box's longer
    side, and each one's candidates are the later rows at most r along it.
    d is `pairwise_distances`'s hypot of the same differences, bit for bit."""
    n = len(xy)
    span = xy.max(axis=0) - xy.min(axis=0)
    order = np.argsort(xy[:, int(span[1] > span[0])], kind="stable")
    px, py = np.ascontiguousarray(xy[order].T)
    xs = py if span[1] > span[0] else px
    end = np.searchsorted(xs, xs + r, side="right")
    # Rounding in xs + r may stop a window before a row whose gap is within r.
    while (short := np.append(xs, np.inf)[end] - xs <= r).any():
        end += short
    # Row k's candidates are rows k + 1 .. end[k] - 1, numbered from ends[k].
    ends = np.concatenate([[0], np.cumsum(end - np.arange(1, n + 1))])
    found, a = [], 0
    while a < n:
        b = max(a + 1, int(np.searchsorted(ends, ends[a] + PAIR_CHUNK, side="right")) - 1)
        i = np.repeat(np.arange(a, b), end[a:b] - np.arange(a + 1, b + 1))
        j = np.arange(ends[a], ends[b]) - ends[i] + i + 1
        d = np.hypot(px[i] - px[j], py[i] - py[j])  # hypot ignores the sign
        near = d <= r
        i, j = order[i[near]], order[j[near]]
        found.append((d[near], np.minimum(i, j), np.maximum(i, j)))
        a = b
    return tuple(np.concatenate(column) for column in zip(*found))


def _start_radius(xy: np.ndarray) -> float:
    """The mean spacing of the rows of xy over their bounding box's longer side."""
    return float(np.ptp(xy, axis=0).max()) / len(xy) ** 0.5 if len(xy) else 0.0


def build_fap_adjacency(xy: np.ndarray, mode: FapTopology) -> set:
    """Edges between F-APs: complete graph (mesh) or Euclidean MST (tree).

    The tree is Kruskal's over edges keyed (distance, lo, hi), a strict total
    order, so the MST is unique. Each round takes the edges within r that join
    two components, then doubles r: the shorter ones were all taken before.
    """
    n = len(xy)
    if mode is FapTopology.MESH:
        return {(i, j) for i in range(n) for j in range(i + 1, n)}
    root = list(range(n))

    def find(v):
        while root[v] != v:
            root[v] = v = root[root[v]]
        return v

    # Twice the mean spacing holds nearly every F-AP's nearest neighbour.
    edges, r = set(), 2.0 * _start_radius(xy)
    while len(edges) < n - 1:
        component = np.array([find(v) for v in range(n)])
        d, lo, hi = _pairs_within(xy, r)
        join = component[lo] != component[hi]
        order = np.lexsort((hi[join], lo[join], d[join]))
        for a, b in zip(lo[join][order].tolist(), hi[join][order].tolist()):
            if (u := find(a)) != (v := find(b)):
                root[u] = v
                edges.add((a, b))
        r *= 2.0
    return edges


def pair_d2d(xy: np.ndarray, d2d_capable: np.ndarray) -> np.ndarray:
    """Greedy nearest-neighbor D2D pairing over the capable F-UEs, rows of
    xy: pairs are taken in ascending (distance, lo, hi) order, each F-UE
    joining at most one. Returns the (P, 2) np.intp array of (lo, hi) rows
    in pairing order.

    The pairs within r are a prefix of that order, so a round matches over
    them alone, and the next takes the F-UEs left, all over r apart, with r
    doubled: the result is the same from any starting r > 0."""
    idx = np.flatnonzero(np.asarray(d2d_capable, dtype=bool))
    r, pairs = _start_radius(xy[idx]), []
    while idx.size > 2:
        d, lo, hi = _pairs_within(xy[idx], r)
        paired = [False] * idx.size
        order = np.lexsort((hi, lo, d))
        for a, b in zip(lo[order].tolist(), hi[order].tolist()):
            if not (paired[a] or paired[b]):
                paired[a] = paired[b] = True
                pairs += (idx[a], idx[b])
        idx, r = idx[np.logical_not(paired)], 2.0 * r
    if idx.size == 2:  # the last two pair at any distance
        pairs += idx.tolist()
    return np.array(pairs, dtype=np.intp).reshape(-1, 2)


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
