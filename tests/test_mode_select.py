import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest

from frangine.config import Architecture, path_gain
from frangine.geometry import distance, pairwise_distances
from frangine.metrics_sim import ScenarioConfig, _pair_relays
from frangine.mode_select import MODES, Mode, associate_fap, select_mode
from frangine.rng import derive_rng
from mc_oracle import associate
from request_oracle import decide

TH = ScenarioConfig(d1=50.0, d2=150.0, d3=500.0, speed_threshold=10.0)


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
    for bad in ({"d1": 100.0, "d2": 50.0}, {"d1": 0.0}, {"d2": 600.0}, {"d3": float("nan")}):
        with pytest.raises(ValueError, match="thresholds"):
            ScenarioConfig(**bad)
    for bad in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError, match="speed_threshold"):
            ScenarioConfig(speed_threshold=bad)


def test_mode_sequence_monotone_in_distance():
    # Narrow relay band (D2 < 2*D1) keeps the midpoint relay feasible
    # throughout, so the band sequence is exact.
    th = ScenarioConfig(d1=50.0, d2=90.0, d3=500.0, speed_threshold=10.0)
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


@pytest.mark.parametrize("architecture", list(Architecture))
def test_select_mode_applies_the_architecture_gate(architecture):
    cases = list(itertools.product(
        [15.0, 100.0, 325.0, 1000.0], [0.0, 20.0], [0.0, 20.0],
        *[[False, True]] * 5,
    ))
    config = dataclasses.replace(TH, architecture=architecture)
    d, speed, far_speed, voice, far_voice, paired, relay, local_ok = map(np.array, zip(*cases))
    codes = select_mode(d, speed, far_speed, voice, far_voice, paired, relay, local_ok, config)
    fast = (speed > TH.speed_threshold) | voice | (far_speed > TH.speed_threshold)
    if architecture is Architecture.CRAN:
        assert (codes == MODES.index(Mode.GLOBAL_CRAN)).all()
    elif architecture is Architecture.HCRAN:
        want = np.where(fast, MODES.index(Mode.HPN), MODES.index(Mode.GLOBAL_CRAN))
        assert (codes == want).all()
    else:
        assert [MODES[c] for c in codes.tolist()] == [decide(config, *case) for case in cases]


def _at(*xs):
    return np.array([[x, 0.0] for x in xs])


ONE_BLOCK = ScenarioConfig(fap_capacity=1)


def _associate(ues, faps, config):
    """`associate_fap` on the path gains of these positions, as a list."""
    return associate_fap(path_gain(pairwise_distances(ues, faps), config), config).tolist()


def test_associate_single_fap_with_capacity():
    assert _associate(_at(0.0), _at(10.0), ONE_BLOCK) == [0]


def test_associate_falls_back_when_nearest_full():
    # The first F-UE takes F-AP 0's last block; the second falls back.
    assert _associate(_at(0.0, 0.0), _at(10.0, 50.0), ONE_BLOCK) == [0, 1]


def test_associate_all_full_returns_minus_one():
    faps = _at(10.0, 50.0)
    assert _associate(_at(0.0), faps, ScenarioConfig(fap_capacity=0)) == [-1]
    assert _associate(_at(0.0, 0.0, 0.0), faps, ONE_BLOCK) == [0, 1, -1]


def test_associate_prefers_strongest_power():
    assert _associate(_at(30.0), _at(0.0, 35.0, 100.0), ONE_BLOCK) == [1]


def test_associate_interference_limit_blocks_admission():
    # Admission to F-AP 0 leaks into F-AP 1 at 20 m; a tight limit blocks it.
    config = ScenarioConfig(fap_capacity=1, interference_limit=1e-30)
    assert _associate(_at(0.0), _at(5.0, 20.0), config) == [-1]


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
            pairs = np.reshape(order[: n // 2 * 2], (-1, 2))
            found = _pair_relays(points, pairs, points[relay], TH)
            want = np.zeros(n, dtype=bool)
            for i, j in pairs:
                if TH.d1 < distance(points[i], points[j]) <= TH.d2:
                    want[i] = want[j] = _relay_oracle(points, i, j, TH, np.flatnonzero(relay))
            assert found.tolist() == want.tolist()
            bridged += int(want.sum())
    assert bridged > 100


def test_relay_search_with_relay_ends_and_coincident_relays():
    """Relays at the pair ends' own positions, each relay three times over,
    and relays exactly D1 from an end: a relay counts by position, within D1
    of both ends, and an end is never its own pair's relay."""
    bridged = 0
    for rng, points in _oracle_layouts("relay-ends", 16):
        n = len(points)
        order = rng.permutation(n).tolist()
        pairs = np.reshape(order[: n // 2 * 2], (-1, 2))
        ends = pairs.ravel()
        # Points D1 = 50 m east of some ends: 10 m grid points stay on the grid.
        shifted = points[ends[rng.random(ends.size) < 0.3]] + [TH.d1, 0.0]
        relay_xy = np.repeat(np.concatenate([points[ends], shifted]), 3, axis=0)
        found = _pair_relays(points, pairs, relay_xy, TH)
        want = np.zeros(n, dtype=bool)
        for i, j in pairs:
            if TH.d1 < distance(points[i], points[j]) <= TH.d2:
                want[i] = want[j] = any(
                    distance(p, points[i]) <= TH.d1 and distance(p, points[j]) <= TH.d1
                    for p in relay_xy
                )
        assert found.tolist() == want.tolist()
        bridged += int(want.sum())
    assert bridged > 20


def test_associate_matches_scalar_distance_oracle():
    outcomes = set()
    for rng, points in _oracle_layouts("associate", 5):
        n_ues = max(1, len(points) // 3)
        ues, faps = points[:n_ues], points[n_ues:]
        unlimited = ScenarioConfig(fap_capacity=n_ues)  # no F-AP fills
        strongest = associate(ues, faps, unlimited).tolist()
        # Limits at the leak levels the layout produces block some F-APs.
        leaks = unlimited.fue_watts * path_gain(pairwise_distances(ues, faps), unlimited)
        for limit in (float("inf"), *rng.choice(leaks.ravel(), size=3)):
            for capacity in (n_ues, int(rng.integers(0, 3))):
                config = ScenarioConfig(fap_capacity=capacity, interference_limit=float(limit))
                want = associate(ues, faps, config).tolist()
                gains = path_gain(pairwise_distances(ues, faps), config)
                given = gains.copy()
                got = associate_fap(gains, config)
                assert got.dtype == np.intp and got.tolist() == want
                assert np.array_equal(gains, given)  # read, not changed
                outcomes.update(
                    "blocked" if f < 0 else "strongest" if f == s else "fallback"
                    for f, s in zip(want, strongest)
                )
    assert outcomes == {"blocked", "strongest", "fallback"}


def test_associate_memory_is_bounded():
    # Beyond the gains it is given, two U x F arrays at once (the powers and
    # their stable order), never a copy of either: 5,054 x 1,005 on a 10 km
    # tree, 39 MiB each.
    rng = derive_rng(3, "associate", "memory")
    ues = rng.uniform(0.0, 3000.0, size=(2000, 2))
    faps = rng.uniform(0.0, 3000.0, size=(300, 2))
    config = ScenarioConfig(fap_capacity=5, interference_limit=1e-9)
    gains = path_gain(pairwise_distances(ues, faps), config)
    tracemalloc.start()
    try:
        associate_fap(gains, config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.2 * 8 * ues.shape[0] * len(faps)
