import itertools
import math
import tracemalloc

import numpy as np
import pytest

from frangine import geometry
from frangine.geometry import (
    FapTopology,
    Region,
    adjacency_is_connected,
    build_fap_adjacency,
    distance,
    pair_d2d,
    pairwise_distances,
    sample_ppp,
)
from frangine.rng import derive_rng
from test_coordination import _time_limit


def test_zero_density_gives_no_points():
    ns = sample_ppp(0.0, Region(1000.0, 1000.0), derive_rng(1))
    assert len(ns) == 0


def test_ppp_determinism_bitwise():
    region = Region(500.0, 400.0)
    a = sample_ppp(1e-4, region, derive_rng(42, "ppp"))
    b = sample_ppp(1e-4, region, derive_rng(42, "ppp"))
    assert np.array_equal(a, b)


def test_ppp_points_inside_region():
    region = Region(300.0, 200.0)
    xy = sample_ppp(1e-3, region, derive_rng(3))
    assert xy.shape == (len(xy), 2)
    assert np.all(xy[:, 0] >= 0) and np.all(xy[:, 0] <= 300.0)
    assert np.all(xy[:, 1] >= 0) and np.all(xy[:, 1] <= 200.0)


def test_ppp_count_mean_within_three_standard_errors():
    # lambda*A = 10; sample-mean oracle over 10000 seeds.
    region = Region(1000.0, 1000.0)
    counts = np.array(
        [len(sample_ppp(1e-5, region, derive_rng(seed, "mean"))) for seed in range(10_000)]
    )
    se = math.sqrt(10.0 / counts.size)
    assert abs(counts.mean() - 10.0) <= 3 * se


def test_ppp_poisson_moments_within_five_percent():
    region = Region(1000.0, 1000.0)
    counts = np.array(
        [len(sample_ppp(1e-5, region, derive_rng(seed, "mom"))) for seed in range(10_000)]
    )
    assert abs(counts.mean() - 10.0) / 10.0 < 0.05
    assert abs(counts.var() - 10.0) / 10.0 < 0.05


def test_single_fap_has_empty_edge_set():
    for mode in (FapTopology.MESH, FapTopology.TREE):
        assert build_fap_adjacency(np.zeros((1, 2)), mode) == set()


def test_mesh_is_complete():
    edges = build_fap_adjacency(np.array([[0, 0], [1, 0], [0, 1], [1, 1]]), FapTopology.MESH)
    assert edges == {(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)}


def _brute_force_mst_weight(points):
    n = len(points)
    all_edges = list(itertools.combinations(range(n), 2))
    best = None
    for subset in itertools.combinations(all_edges, n - 1):
        if not adjacency_is_connected(set(subset), list(range(n))):
            continue
        weight = sum(distance(points[i], points[j]) for i, j in subset)
        if best is None or weight < best:
            best = weight
    return best


def test_tree_matches_exhaustive_mst_oracle():
    rng = np.random.default_rng(7)
    for _ in range(10):
        points = rng.uniform(0, 100, size=(5, 2))
        edges = build_fap_adjacency(points, FapTopology.TREE)
        weight = sum(distance(points[i], points[j]) for i, j in edges)
        assert math.isclose(weight, _brute_force_mst_weight(points), rel_tol=1e-12)


def test_tree_connected_and_acyclic_random_instances():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 51))
        points = rng.uniform(0, 1000, size=(n, 2))
        edges = build_fap_adjacency(points, FapTopology.TREE)
        assert len(edges) == n - 1
        assert adjacency_is_connected(edges, list(range(n)))
        assert all(i < j for i, j in edges)


def test_distance_trivials():
    assert distance((0, 0), (0, 0)) == 0.0
    assert distance((0, 0), (3, 4)) == 5.0


def test_distance_double_evaluation_oracle():
    rng = np.random.default_rng(11)
    for _ in range(200):
        a, b = rng.uniform(-1e3, 1e3, size=(2, 2))
        expected = math.sqrt((a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2)
        assert math.isclose(distance(a, b), expected, rel_tol=1e-12)
        assert math.isclose(distance(a, b), distance(b, a), rel_tol=0)


def test_pairwise_distances_bit_equal_to_stacked_difference():
    """The two (m, n) coordinate differences give every bit of the
    hypot over one (m, n, 2) difference array, ties on a grid included."""
    rng = np.random.default_rng(5)
    for k in range(50):
        a, b = (rng.uniform(0.0, 3000.0, size=(int(rng.integers(0, 60)), 2)) for _ in "ab")
        if k % 3 == 0:
            a, b = 10.0 * np.round(a / 10.0), 10.0 * np.round(b / 10.0)
        diff = a[:, None, :] - b[None, :, :]
        expected = np.hypot(diff[..., 0], diff[..., 1])
        got = pairwise_distances(a, b)
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()
    a, b = rng.uniform(size=(600, 2)), rng.uniform(size=(500, 2))
    tracemalloc.start()
    try:
        got = pairwise_distances(a, b)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * got.nbytes  # dx and dy, not an (m, n, 2) difference too


def test_pair_d2d_greedy_nearest_first():
    fues = np.array([[0.0, 0.0], [1.0, 0.0], [10.0, 0.0], [10.5, 0.0]])
    pairs = pair_d2d(fues, np.array([True, True, True, True]))
    assert pairs.dtype == np.intp and pairs.tolist() == [[2, 3], [0, 1]]


def test_pair_d2d_returns_a_pair_per_row():
    """A (P, 2) index array in pairing order, (0, 2) when nothing pairs; the
    last two capable F-UEs pair at any distance."""
    xy = np.array([[0.0, 0.0], [5e3, 0.0], [1.0, 0.0]])
    for capable, want in (
        ([False] * 3, []), ([True, False, False], []), ([True, True, False], [[0, 1]]),
        ([True] * 3, [[0, 2]]),
    ):
        pairs = pair_d2d(xy, np.array(capable))
        assert pairs.dtype == np.intp and pairs.shape == (len(want), 2)
        assert pairs.tolist() == want
    assert pair_d2d(np.zeros((0, 2)), np.zeros(0, dtype=bool)).shape == (0, 2)


def test_pair_d2d_respects_capability_and_uniqueness():
    rng = np.random.default_rng(5)
    fues = rng.uniform(0, 100, size=(21, 2))
    capable = rng.random(21) < 0.7
    pairs = pair_d2d(fues, capable)
    seen = set()
    for i, j in pairs:
        assert capable[i] and capable[j]
        assert i not in seen and j not in seen
        seen.update((i, j))


def _prim_oracle(points):
    """Cubic pure-Python Prim: the lexicographically smallest
    (distance, min, max) edge leaving the tree joins it."""
    n = len(points)
    dist = pairwise_distances(points, points)
    in_tree = {0}
    edges = set()
    while len(in_tree) < n:
        best = None
        for i in sorted(in_tree):
            for j in range(n):
                if j in in_tree:
                    continue
                cand = (dist[i, j], min(i, j), max(i, j))
                if best is None or cand < best:
                    best = cand
        _, i, j = best
        edges.add((i, j))
        in_tree.update((i, j))
    return edges


def _pair_oracle(points, capable):
    """Greedy pairing over every candidate pair sorted as Python tuples, as
    [lo, hi] lists in pairing order."""
    idx = np.flatnonzero(capable)
    dist = pairwise_distances(points[idx], points[idx])
    candidates = sorted(
        (dist[a, b], int(idx[a]), int(idx[b]))
        for a in range(idx.size)
        for b in range(a + 1, idx.size)
    )
    paired, pairs = set(), []
    for _, i, j in candidates:
        if i in paired or j in paired:
            continue
        pairs.append([i, j])
        paired.update((i, j))
    return pairs


def _oracle_layouts():
    """Random layouts, then integer-grid layouts where distances tie exactly
    (and points coincide)."""
    for seed in range(12):
        rng = derive_rng(seed, "oracle-layout")
        n = int(rng.integers(2, 70))
        yield rng, rng.uniform(0.0, 500.0, size=(n, 2))
    for seed in range(12):
        rng = derive_rng(seed, "oracle-grid")
        n = int(rng.integers(2, 70))
        yield rng, rng.integers(0, 6, size=(n, 2)).astype(float)


def test_tree_matches_cubic_prim_oracle():
    for _, points in _oracle_layouts():
        edges = build_fap_adjacency(points, FapTopology.TREE)
        assert edges == _prim_oracle(points)


def test_pair_d2d_matches_tuple_sort_oracle():
    for rng, points in _oracle_layouts():
        for capable in (np.ones(len(points), dtype=bool), rng.random(len(points)) < 0.6):
            assert pair_d2d(points, capable).tolist() == _pair_oracle(points, capable)


def _pair_oracle_within(points, limit):
    """`_pair_oracle` over all-capable points, sorting only the candidates no
    longer than `limit`. Those are a prefix of the sorted list, and greedy
    accepts nothing after its longest pair, so with `limit` at least that
    long the result is the full greedy pairing; with a shorter one it is a
    prefix of it, which leaves more than one point unpaired."""
    dist = pairwise_distances(points, points)
    a, b = np.nonzero(np.triu(dist <= limit, 1))
    candidates = sorted(zip(dist[a, b].tolist(), a.tolist(), b.tolist()))
    paired, pairs = set(), []
    for _, i, j in candidates:
        if i in paired or j in paired:
            continue
        pairs.append([i, j])
        paired.update((i, j))
    return pairs


def _chain_of_growing_gaps(n):
    """Points on a line whose gaps grow left to right: every point but the
    first has its nearest neighbour on its left, so pairs form one at a time
    from the left end, and each pair's partner was another point's nearest."""
    x = np.concatenate([[0.0], np.cumsum(1.0 + 0.01 * np.arange(n - 1))])
    return np.column_stack([x, np.zeros(n)])


def _cluster_and_ring(n_cluster, n_twins):
    """A dense disc of radius 10 m inside a ring of radius 1 km that holds
    evenly spaced twins 1 m apart: near ties in the disc, ties up to
    rounding along the ring. Greedy pairs the twins, so its longest pair is
    in the disc and the oracle sorts few candidates."""
    rng = derive_rng(3, "cluster-ring")
    r = 10.0 * np.sqrt(rng.random(n_cluster))
    theta = 2 * np.pi * rng.random(n_cluster)
    phi = np.repeat(2 * np.pi * np.arange(n_twins) / n_twins, 2)
    phi[1::2] += 1.0 / 1000.0
    disc = np.column_stack([r * np.cos(theta), r * np.sin(theta)])
    ring = 1000.0 * np.column_stack([np.cos(phi), np.sin(phi)])
    return np.concatenate([disc, ring]) + 1000.0


@pytest.mark.parametrize(
    "name, points",
    [
        ("chain", _chain_of_growing_gaps(3000)),
        ("cluster-ring", _cluster_and_ring(600, 1200)),
    ],
)
def test_pair_d2d_large_layouts_match_oracle_in_time(name, points):
    with _time_limit(3.0, f"pair_d2d on the {len(points)}-point {name}"):
        pairs = pair_d2d(points, np.ones(len(points), dtype=bool))
    assert 2 * len(pairs) == len(points)
    dist = pairwise_distances(points, points)
    longest = max(dist[i, j] for i, j in pairs)
    assert pairs.tolist() == _pair_oracle_within(points, longest)


def _pairs_brute(points, r):
    """(d, lo, hi) of every pair no more than r apart, read off the dense
    distance matrix, sorted."""
    dist = pairwise_distances(points, points)
    lo, hi = np.nonzero(np.triu(dist <= r, 1))
    return sorted(zip(dist[lo, hi].tolist(), lo.tolist(), hi.tolist()))


def _radius_layouts():
    """(points, r): random layouts; a 10 m integer grid, where distances tie
    and many pairs lie exactly r apart; duplicate points; collinear points;
    tall-narrow and wide-flat regions."""
    rng = derive_rng(1, "pairs-within")
    for n in (1, 2, 5, 40, 300):
        yield rng.uniform(0.0, 1000.0, size=(n, 2)), 120.0
    grid = 10.0 * rng.integers(0, 12, size=(200, 2))
    for r in (0.0, 10.0, 20.0, float(np.hypot(10.0, 10.0)), 50.0):
        yield grid, r
    twins = np.repeat(rng.uniform(0.0, 100.0, size=(30, 2)), 3, axis=0)
    yield twins, 0.0
    yield twins, 15.0
    x = rng.uniform(0.0, 1000.0, 100)
    yield np.column_stack([x, np.zeros(100)]), 30.0
    yield np.column_stack([np.full(100, 5.0), x]), 30.0
    yield np.column_stack([x, 2.0 * x + 1.0]), 30.0
    yield np.column_stack([rng.uniform(0.0, 20.0, 200), rng.uniform(0.0, 5000.0, 200)]), 60.0
    yield np.column_stack([rng.uniform(0.0, 5000.0, 200), rng.uniform(0.0, 20.0, 200)]), 60.0


@pytest.mark.parametrize("chunk", [1, 7, geometry.PAIR_CHUNK])
def test_pairs_within_match_dense_matrix(monkeypatch, chunk):
    """Every pair no more than r apart, once, with the dense matrix's bits;
    chunks of any size give the same pairs."""
    monkeypatch.setattr(geometry, "PAIR_CHUNK", chunk)
    for points, r in _radius_layouts():
        d, lo, hi = geometry._pairs_within(points, r)
        assert sorted(zip(d.tolist(), lo.tolist(), hi.tolist())) == _pairs_brute(points, r)


@pytest.mark.parametrize("radius", [1e-3, 0.5, 7.0, 1e5])
def test_pair_d2d_same_from_any_starting_radius(monkeypatch, radius):
    monkeypatch.setattr(geometry, "_start_radius", lambda xy: radius)
    for rng, points in _oracle_layouts():
        capable = rng.random(len(points)) < 0.7
        assert pair_d2d(points, capable).tolist() == _pair_oracle(points, capable)


@pytest.mark.parametrize("radius", [None, 1e-3, 2.5])
def test_tree_with_duplicate_points_matches_prim(monkeypatch, radius):
    """Coincident F-APs are joined by d = 0 edges, which the first round
    must take like any other."""
    if radius is not None:
        monkeypatch.setattr(geometry, "_start_radius", lambda xy: radius)
    layouts = [np.zeros((5, 2))]
    for seed in range(100):
        rng = derive_rng(seed, "tree-duplicates")
        layouts.append(rng.integers(0, 4, size=(int(rng.integers(2, 40)), 2)).astype(float))
    for points in layouts:
        assert build_fap_adjacency(points, FapTopology.TREE) == _prim_oracle(points)


def test_tree_on_two_far_apart_clusters_matches_prim():
    """The rounds double r past each cluster's own edges until one edge
    bridges the gap."""
    rng = derive_rng(2, "two-clusters")
    for gap in (1e3, 1e6):
        points = np.concatenate(
            [rng.uniform(0.0, 10.0, size=(30, 2)), rng.uniform(0.0, 10.0, size=(30, 2)) + gap]
        )
        assert build_fap_adjacency(points, FapTopology.TREE) == _prim_oracle(points)


def _peak_bytes(call, seconds, what):
    """Run call() under `seconds` of wall time; return its result and the
    peak bytes it allocated."""
    tracemalloc.start()
    try:
        with _time_limit(seconds, what):
            result = call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def test_pair_d2d_scales_without_a_dense_matrix():
    """12,000 capable F-UEs at dense-20k density (0.6 x 5e-3 per m^2 on a
    2 km square): a tenth of one n x n float64 matrix bounds the memory."""
    n = 12_000
    points = derive_rng(1, "scale-pairs").uniform(0.0, 2000.0, size=(n, 2))
    pairs, peak = _peak_bytes(
        lambda: pair_d2d(points, np.ones(n, dtype=bool)), 2.0,
        "pair_d2d on 12,000 F-UEs",
    )
    assert peak < n * n * 8 / 10
    assert sorted(i for pair in pairs for i in pair) == list(range(n))


def test_tree_scales_without_a_dense_matrix():
    """4,000 F-APs at the default density on a 20 km square."""
    n = 4_000
    points = derive_rng(1, "scale-tree").uniform(0.0, 20_000.0, size=(n, 2))
    edges, peak = _peak_bytes(
        lambda: build_fap_adjacency(points, FapTopology.TREE), 1.0,
        "the tree of 4,000 F-APs",
    )
    assert peak < n * n * 8 / 10
    assert len(edges) == n - 1 and adjacency_is_connected(edges, list(range(n)))
