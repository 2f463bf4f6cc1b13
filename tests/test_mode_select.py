import itertools
import tracemalloc

import numpy as np
import pytest

from frangine.channel import LinkBudget, path_gain
from frangine.geometry import NodeKind, NodeSet, distance, pairwise_distances
from frangine.metrics_sim import _pair_relays
from frangine.mode_select import (
    MODES,
    Mode,
    ModeThresholds,
    associate_fap,
    select_mode,
)
from frangine.rng import derive_rng

TH = ModeThresholds(d1=50.0, d2=150.0, d3=500.0, speed_threshold=10.0)


def _decide(d, s_src, s_dst, cap_src, cap_dst, voice, relay_present, content, feasible, th=TH):
    """Mode codes of src at x = 0 towards dst at x = d, on scalars or arrays.
    A present relay sits at the pair midpoint; its flag comes from its hops."""
    mid = np.asarray(d) / 2.0
    relay = relay_present & (np.hypot(mid, 0.0) <= th.d1) & (np.hypot(mid - d, 0.0) <= th.d1)
    return select_mode(
        d, s_src, s_dst, voice, False, cap_src & cap_dst, relay, content & feasible, th
    )


def _mode(*case, th=TH):
    return MODES[int(_decide(*case, th=th))]


def _oracle(d, s_src, s_dst, cap_src, cap_dst, voice, relay_present, content, feasible):
    # Independently coded rule cascade; relay candidate sits at the midpoint.
    t = TH.speed_threshold
    if s_src > t or s_dst > t or voice:
        return Mode.HPN
    slow = abs(s_src - s_dst) <= t
    both = cap_src and cap_dst
    if d <= TH.d1 and both and slow:
        return Mode.D2D
    if TH.d1 < d <= TH.d2 and both and slow and relay_present and d / 2.0 <= TH.d1:
        return Mode.FUE_RELAY
    midband = TH.d2 < d <= TH.d3 or (d <= TH.d2 and not both)
    if midband and feasible and content:
        return Mode.LOCAL_COORDINATION
    return Mode.GLOBAL_CRAN


def test_exhaustive_truth_table_matches_oracle():
    distances = [15.0, 50.0, 60.0, 100.0, 150.0, 325.0, 500.0, 1000.0]
    speeds = [0.0, 20.0]
    caps = [(True, True), (True, False), (False, False)]
    cases = [
        (d, s_src, s_dst, c1, c2, voice, relay, content, feasible)
        for d, s_src, s_dst, (c1, c2), voice, relay, content, feasible in itertools.product(
            distances, speeds, speeds, caps, [False, True], [False, True],
            [False, True], [False, True],
        )
    ]
    got = _decide(*map(np.array, zip(*cases)))  # the whole table in one call
    for case, code in zip(cases, got.tolist()):
        assert MODES[code] is _oracle(*case), case
    assert len(cases) >= 500


def test_high_speed_forces_hpn_even_at_zero_distance():
    mode = _mode(0.1 * TH.d1, 2 * TH.speed_threshold, 0.0, True, True, False, True, True, True)
    assert mode is Mode.HPN


def test_zero_distance_slow_capable_is_d2d():
    assert _mode(0.0, 0.0, 0.0, True, True, False, False, True, True) is Mode.D2D


def test_relay_band_with_midpoint_relay():
    assert _mode(1.5 * TH.d1, 0.0, 0.0, True, True, False, True, True, True) is Mode.FUE_RELAY


def test_short_range_incapable_endpoint_goes_local():
    mode = _mode(0.5 * TH.d1, 0.0, 0.0, True, False, False, False, True, True)
    assert mode is Mode.LOCAL_COORDINATION


def test_far_beyond_d3_is_global_cran():
    assert _mode(2 * TH.d3, 0.0, 0.0, True, True, False, True, True, True) is Mode.GLOBAL_CRAN


def test_cloud_only_content_forces_global_cran():
    assert _mode(325.0, 0.0, 0.0, True, True, False, False, False, True) is Mode.GLOBAL_CRAN


def test_invalid_thresholds_rejected():
    with pytest.raises(ValueError, match="thresholds"):
        ModeThresholds(d1=100.0, d2=50.0, d3=500.0)
    for bad in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError, match="speed_threshold"):
            ModeThresholds(speed_threshold=bad)


def test_mode_sequence_monotone_in_distance():
    # Narrow relay band (D2 < 2*D1) keeps the midpoint relay feasible
    # throughout, so the band sequence is exact.
    th = ModeThresholds(d1=50.0, d2=90.0, d3=500.0, speed_threshold=10.0)
    expected = [Mode.D2D, Mode.FUE_RELAY, Mode.LOCAL_COORDINATION, Mode.GLOBAL_CRAN]
    for d, want in zip([25.0, 70.0, 300.0, 800.0], expected):
        assert _mode(d, 0.0, 0.0, True, True, False, True, True, True, th=th) is want, d


def test_speed_dominance_property():
    rng = np.random.default_rng(13)
    d = rng.uniform(0, 1000, size=50)
    s_src = 2 * TH.speed_threshold + rng.uniform(0, 5, size=50)
    s_dst = rng.uniform(0, 30, size=50)
    content, feasible = rng.random((2, 50)) < 0.5
    codes = select_mode(d, s_src, s_dst, False, False, True, False, content & feasible, TH)
    assert (codes == MODES.index(Mode.HPN)).all()


def _faps(xs):
    return NodeSet(NodeKind.FAP, np.array([[x, 0.0] for x in xs]), 0.0)


def _at(*xs):
    return np.array([[x, 0.0] for x in xs])


def test_associate_single_fap_with_capacity():
    assert associate_fap(_at(0.0), _faps([10.0]), LinkBudget(), capacity=[1]) == [0]


def test_associate_falls_back_when_nearest_full():
    faps = _faps([10.0, 50.0])
    assert associate_fap(_at(0.0), faps, LinkBudget(), capacity=[0, 1]) == [1]
    # The first F-UE takes F-AP 0's last block; the second falls back.
    assert associate_fap(_at(0.0, 0.0), faps, LinkBudget(), capacity=[1, 1]) == [0, 1]


def test_associate_all_full_returns_none():
    faps = _faps([10.0, 50.0])
    assert associate_fap(_at(0.0), faps, LinkBudget(), capacity=[0, 0]) == [None]
    assert associate_fap(_at(0.0, 0.0, 0.0), faps, LinkBudget(), capacity=[1, 1]) == [0, 1, None]


def test_associate_prefers_strongest_power():
    assert associate_fap(_at(30.0), _faps([0.0, 35.0, 100.0]), LinkBudget()) == [1]


def test_associate_interference_limit_blocks_admission():
    # Admission to F-AP 0 leaks into F-AP 1 at 20 m; a tight limit blocks it.
    faps = _faps([5.0, 20.0])
    budget = LinkBudget()
    assert associate_fap(_at(0.0), faps, budget, interference_limit=1e-30) == [None]


def _relay_oracle(points, i, j, th, relays):
    """Linear relay scan: is any relay other than i and j within D1 of both?"""
    return any(
        k not in (i, j)
        and distance(points[k], points[i]) <= th.d1
        and distance(points[k], points[j]) <= th.d1
        for k in relays
    )


def _oracle_layouts(tag, cells):
    """Random layouts, then 10 m integer grids of cells x cells points where
    distances tie exactly."""
    for seed in range(8):
        rng = derive_rng(seed, tag, "random")
        yield rng, rng.uniform(0.0, 10.0 * cells, size=(int(rng.integers(5, 60)), 2))
    for seed in range(8):
        rng = derive_rng(seed, tag, "grid")
        yield rng, 10.0 * rng.integers(0, cells, size=(int(rng.integers(5, 60)), 2))


def test_relay_search_matches_linear_scan_oracle():
    # `_pair_relays` flags the pairs in (D1, D2] that a willing, D2D-capable
    # F-UE bridges, and no other F-UE.
    bridged = 0
    for rng, points in _oracle_layouts("relay", 16):
        n = len(points)
        relay = (rng.random(n) < 0.5) & (rng.random(n) < 0.8)  # willing and capable
        for _ in range(10):
            order = rng.permutation(n).tolist()
            pairs = list(zip(order[0::2], order[1::2]))
            found = _pair_relays(points, pairs, points[relay], TH)
            want = np.zeros(n, dtype=bool)
            for i, j in pairs:
                if TH.d1 < distance(points[i], points[j]) <= TH.d2:
                    want[i] = want[j] = _relay_oracle(points, i, j, TH, np.flatnonzero(relay))
            assert found.tolist() == want.tolist()
            bridged += int(want.sum())
    assert bridged > 100


def _associate_oracle(ue, faps, budget, interference_limit, capacity):
    """Scalar distances and a Python sort; None when every F-AP is blocked."""
    dists = np.array([distance(ue, p) for p in faps.positions])
    rx_power = budget.tx_watts(NodeKind.FAP) * path_gain(dists, budget)
    for i in sorted(range(len(faps)), key=lambda i: (-rx_power[i], i)):
        if capacity is not None and capacity[i] <= 0:
            continue
        others = np.delete(dists, i)
        if others.size:
            leak = budget.tx_watts(NodeKind.FUE) * float(np.max(path_gain(others, budget)))
            if leak > interference_limit:
                continue
        return i
    return None


def test_associate_matches_scalar_distance_oracle():
    budget = LinkBudget()
    outcomes = set()
    for rng, points in _oracle_layouts("associate", 5):
        n_ues = max(1, len(points) // 3)
        ues = points[:n_ues]
        faps = NodeSet(NodeKind.FAP, points[n_ues:], 0.0)
        strongest = [_associate_oracle(ue, faps, budget, float("inf"), None) for ue in ues]
        # Limits at the leak levels the layout produces block some F-APs.
        leaks = budget.tx_watts(NodeKind.FUE) * path_gain(
            pairwise_distances(points[:n_ues], faps.positions), budget
        )
        for limit in (float("inf"), *rng.choice(leaks.ravel(), size=3)):
            for capacity in (None, rng.integers(0, 3, size=len(faps))):
                # The oracle F-UE by F-UE, each admission taking one block.
                free = None if capacity is None else list(capacity)
                want = []
                for ue in ues:
                    f = _associate_oracle(ue, faps, budget, limit, free)
                    if f is not None and free is not None:
                        free[f] -= 1
                    want.append(f)
                got = associate_fap(points[:n_ues], faps, budget, limit, capacity)
                assert got == want
                outcomes.update(
                    "blocked" if f is None else "strongest" if f == s else "fallback"
                    for f, s in zip(want, strongest)
                )
    assert outcomes == {"blocked", "strongest", "fallback"}


def test_associate_memory_is_bounded():
    # About two U x F arrays at once (the distances and the gains, then the
    # gains and their stable order), never a copy of either: 5,054 x 1,005
    # on a 10 km tree, 39 MiB each.
    rng = derive_rng(3, "associate", "memory")
    ues = rng.uniform(0.0, 3000.0, size=(2000, 2))
    faps = NodeSet(NodeKind.FAP, rng.uniform(0.0, 3000.0, size=(300, 2)), 0.0)
    budget = LinkBudget()
    tracemalloc.start()
    try:
        associate_fap(ues, faps, budget, 1e-9, [5] * len(faps))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3.2 * 8 * ues.shape[0] * len(faps)
