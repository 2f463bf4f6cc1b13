import itertools
import tracemalloc

import numpy as np
import pytest

from frangine.channel import LinkBudget, path_gain
from frangine.geometry import NodeKind, NodeSet, distance, pairwise_distances
from frangine.mode_select import (
    Mode,
    ModeThresholds,
    Qos,
    UeContext,
    associate_fap,
    select_mode,
)
from frangine.rng import derive_rng

TH = ModeThresholds(d1=50.0, d2=150.0, d3=500.0, speed_threshold=10.0)


def _ue(uid, x, speed=0.0, capable=True, voice=False, relay=False):
    return UeContext(
        id=uid,
        position=(x, 0.0),
        speed=speed,
        d2d_capable=capable,
        relay_willing=relay,
        qos=Qos.REAL_TIME_VOICE if voice else Qos.PACKET,
    )


def _decide(d, s_src, s_dst, cap_src, cap_dst, voice, relay_present, content, feasible):
    src = _ue(0, 0.0, speed=s_src, capable=cap_src, voice=voice)
    dst = _ue(1, d, speed=s_dst, capable=cap_dst)
    relays = [_ue(2, d / 2.0, capable=True, relay=True)] if relay_present else []
    return select_mode(
        src,
        dst,
        TH,
        relay_candidates=relays,
        content_available_locally=content,
        local_coordination_feasible=feasible,
    )


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
    cases = 0
    for d, s_src, s_dst, (c1, c2), voice, relay, content, feasible in itertools.product(
        distances, speeds, speeds, caps, [False, True], [False, True],
        [False, True], [False, True],
    ):
        got = _decide(d, s_src, s_dst, c1, c2, voice, relay, content, feasible).mode
        want = _oracle(d, s_src, s_dst, c1, c2, voice, relay, content, feasible)
        assert got is want, (d, s_src, s_dst, c1, c2, voice, relay, content, feasible)
        cases += 1
    assert cases >= 500


def test_high_speed_forces_hpn_even_at_zero_distance():
    d = _decide(0.1 * TH.d1, 2 * TH.speed_threshold, 0.0, True, True, False, True, True, True)
    assert d.mode is Mode.HPN


def test_zero_distance_slow_capable_is_d2d():
    assert _decide(0.0, 0.0, 0.0, True, True, False, False, True, True).mode is Mode.D2D


def test_relay_band_with_midpoint_relay():
    d = _decide(1.5 * TH.d1, 0.0, 0.0, True, True, False, True, True, True)
    assert d.mode is Mode.FUE_RELAY
    assert d.relay_id == 2


def test_short_range_incapable_endpoint_goes_local():
    d = _decide(0.5 * TH.d1, 0.0, 0.0, True, False, False, False, True, True)
    assert d.mode is Mode.LOCAL_COORDINATION


def test_far_beyond_d3_is_global_cran():
    assert _decide(2 * TH.d3, 0.0, 0.0, True, True, False, True, True, True).mode is Mode.GLOBAL_CRAN


def test_cloud_only_content_forces_global_cran():
    d = _decide(325.0, 0.0, 0.0, True, True, False, False, False, True)
    assert d.mode is Mode.GLOBAL_CRAN


def test_invalid_thresholds_rejected():
    with pytest.raises(ValueError, match="thresholds"):
        ModeThresholds(d1=100.0, d2=50.0, d3=500.0)


def test_relay_selection_minimizes_bottleneck_then_id():
    src = _ue(0, 0.0)
    dst = _ue(1, 80.0)
    near = _ue(5, 40.0, relay=True)  # hops 40/40
    skew = _ue(3, 45.0, relay=True)  # hops 45/35 -> bottleneck 45
    decision = select_mode(src, dst, TH, relay_candidates=[skew, near])
    assert decision.mode is Mode.FUE_RELAY and decision.relay_id == 5
    # Equal bottleneck: lower id wins.
    twin = _ue(2, 40.0, relay=True)
    decision = select_mode(src, dst, TH, relay_candidates=[near, twin])
    assert decision.relay_id == 2


def test_relay_candidate_order_never_changes_decision():
    src = _ue(0, 0.0)
    dst = _ue(1, 90.0)
    relays = [_ue(i, x, relay=True) for i, x in ((2, 44.0), (3, 46.0), (4, 45.0))]
    baseline = select_mode(src, dst, TH, relay_candidates=relays)
    for perm in itertools.permutations(relays):
        d = select_mode(src, dst, TH, relay_candidates=list(perm))
        assert (d.mode, d.relay_id) == (baseline.mode, baseline.relay_id)


def test_mode_sequence_monotone_in_distance():
    # Narrow relay band (D2 < 2*D1) keeps the midpoint relay feasible
    # throughout, so the band sequence is exact.
    th = ModeThresholds(d1=50.0, d2=90.0, d3=500.0, speed_threshold=10.0)
    expected = [Mode.D2D, Mode.FUE_RELAY, Mode.LOCAL_COORDINATION, Mode.GLOBAL_CRAN]
    for d, want in zip([25.0, 70.0, 300.0, 800.0], expected):
        src = _ue(0, 0.0)
        dst = _ue(1, d)
        relay = _ue(2, d / 2.0, relay=True)
        decision = select_mode(src, dst, th, relay_candidates=[relay])
        assert decision.mode is want, d


def test_speed_dominance_property():
    rng = np.random.default_rng(13)
    for _ in range(50):
        d = float(rng.uniform(0, 1000))
        src = _ue(0, 0.0, speed=2 * TH.speed_threshold + float(rng.uniform(0, 5)))
        dst = _ue(1, d, speed=float(rng.uniform(0, 30)))
        flags = rng.random(2) < 0.5
        decision = select_mode(
            src, dst, TH,
            content_available_locally=bool(flags[0]),
            local_coordination_feasible=bool(flags[1]),
        )
        assert decision.mode is Mode.HPN


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


def _relay_oracle(src, dst, th, candidates):
    """Linear relay scan: bottleneck hop first, then the lower id."""
    best = None
    for cand in candidates:
        if not cand.relay_willing or cand.id in (src.id, dst.id):
            continue
        hop_src = distance(cand.position, src.position)
        hop_dst = distance(cand.position, dst.position)
        if hop_src <= th.d1 and hop_dst <= th.d1:
            key = (max(hop_src, hop_dst), cand.id)
            if best is None or key < best:
                best = key
    return None if best is None else best[1]


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
    bridged = 0
    for rng, points in _oracle_layouts("relay", 16):
        ues = [
            UeContext(id=i, position=tuple(p), relay_willing=bool(w))
            for i, (p, w) in enumerate(zip(points, rng.random(len(points)) < 0.5))
        ]
        shuffled = [ues[k] for k in rng.permutation(len(ues))]
        for src, dst in itertools.combinations(ues, 2):
            if not TH.d1 < distance(src.position, dst.position) <= TH.d2:
                continue
            want = _relay_oracle(src, dst, TH, shuffled)
            decision = select_mode(src, dst, TH, relay_candidates=shuffled)
            assert decision.relay_id == want
            assert (decision.mode is Mode.FUE_RELAY) == (want is not None)
            bridged += want is not None
    assert bridged > 100


def _associate_oracle(ue, faps, budget, interference_limit, capacity):
    """Scalar distances and a Python sort; None when every F-AP is blocked."""
    dists = np.array([distance(ue.position, p) for p in faps.positions])
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
        ues = [UeContext(id=k, position=tuple(p)) for k, p in enumerate(points[:n_ues])]
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
