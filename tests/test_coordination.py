import contextlib
import itertools
import math
import signal
import tracemalloc

import numpy as np
import pytest

from frangine import _kernels
from frangine.channel import fading_sample
from frangine.config import db_to_linear, path_gain
from frangine.coordination import (
    AccessTable,
    SffrUe,
    _bipartitions,
    _tree_cuts,
    cellular_success_probability,
    cluster_power,
    cluster_utility,
    coac_assign,
    drac_assign,
    make_d2d_links,
    merge_and_split,
    round_half_away,
    served_fue_indices,
    sffr_allocate,
)
from frangine.geometry import (
    FapTopology,
    NetworkTopology,
    NodeKind,
    adjacency_is_connected,
    build_fap_adjacency,
    pairwise_distances,
)
from frangine.metrics_sim import ScenarioConfig, _build_topology, run_scenario
from frangine.rng import derive_rng
from mc_oracle import FadeTable, access_table, successful_access_probability, table_utility


def make_topology(fap_positions, fue_positions=(), hpn_positions=((500.0, 500.0),),
                  topo=FapTopology.MESH):
    """A layout on the default 1 km square, whose centre is (500, 500)."""
    hpns, faps, fues = (
        np.asarray(xy, float).reshape(-1, 2)
        for xy in (hpn_positions, fap_positions, fue_positions)
    )
    return NetworkTopology(hpns, faps, fues, build_fap_adjacency(faps, topo))


CONFIG = ScenarioConfig()
MESH = ScenarioConfig(fap_topology=FapTopology.MESH)


def test_success_probability_gamma_limits():
    common = dict(fap_positions=[[480, 500], [520, 500]], fue_positions=[[500, 500]],
                  mc_trials=2000)
    assert successful_access_probability(
        [0], config=ScenarioConfig(gamma_th_db=-300.0), rng=derive_rng(1), **common
    ) == 1.0
    assert successful_access_probability(
        [0], config=ScenarioConfig(gamma_th_db=300.0), rng=derive_rng(1), **common
    ) == 0.0


def test_success_probability_symmetric_half():
    # One signal F-AP and one interferer at equal distance, Rayleigh fading,
    # negligible noise, gamma = 0 dB: success iff X > Y for i.i.d.
    # exponentials, so probability 1/2.
    config = ScenarioConfig(noise_power_dbm=-250.0, gamma_th_db=0.0)
    p = successful_access_probability(
        [0], [[480, 500], [520, 500]], config, [[500, 500]], 100_000, derive_rng(2)
    )
    assert abs(p - 0.5) < 0.02


def test_success_probability_empty_served_set():
    assert successful_access_probability([0], [[100, 100]], CONFIG, [], 10, derive_rng(3)) == 0.0


def _reference_probability(mp, gains, cluster, theta, noise):
    """p(C) by partial fractions in 120-digit arithmetic. Tied gains are
    pulled apart by 1e-30 relative, which moves p by about as much; three
    tied gains cancel about 60 digits."""
    own = [mp.mpf(gains[j]) * (1 + mp.mpf(10) ** -30 * m) for m, j in enumerate(cluster)]
    others = [mp.mpf(gains[k]) for k in range(len(gains)) if k not in cluster]
    p = mp.mpf(0)
    for j, gj in enumerate(own):
        term = mp.exp(-mp.mpf(theta) * mp.mpf(noise) / gj)
        for i, gi in enumerate(own):
            if i != j:
                term *= gj / (gj - gi)
        for gk in others:
            term /= 1 + mp.mpf(theta) * gk / gj
        p += term
    return float(p)


def test_cluster_utility_recomputation_oracle():
    mp = pytest.importorskip("mpmath")
    topo = make_topology(
        [[400, 500], [600, 500], [500, 700]],
        fue_positions=[[405, 500], [610, 500], [500, 710]],
    )
    config = ScenarioConfig(tau=1.0, gamma_th_db=0.0)
    table = access_table(topo.faps, topo.fues, config)
    cluster = [0, 1]
    u = cluster_utility(cluster, config, table)
    # Recompute from the pieces: F-UEs 0 and 1 are served by the cluster.
    dists = pairwise_distances(topo.fues, topo.faps)
    gains = config.fap_watts * path_gain(dists, config)
    with mp.workdps(120):
        probs = [
            _reference_probability(mp, gains[f], cluster, 1.0, config.noise_watts)
            for f in (0, 1)
        ]
    assert table.success_probabilities(cluster) == pytest.approx(probs, rel=1e-12)
    expected = sum(probs) * math.log2(2.0) / cluster_power(2, config) ** 1.0
    assert u == pytest.approx(expected, rel=1e-12)


def test_utility_decreasing_in_tau_for_power_above_one():
    topo = make_topology([[400, 500], [600, 500]], fue_positions=[[405, 500]])
    table = access_table(topo.faps, topo.fues, CONFIG)
    values = []
    for tau in (0.1, 1.0, 10.0):
        values.append(cluster_utility([0, 1], ScenarioConfig(tau=tau), table))
    assert cluster_power(2, ScenarioConfig()) > 1.0
    assert values[0] > values[1] > values[2]


FOUR_FAPS = [[300, 300], [700, 300], [300, 700], [700, 700]]


def _nonempty_blocks(n):
    return [b for r in range(1, n + 1) for b in itertools.combinations(range(n), r)]


def test_success_probabilities_match_mpmath_reference():
    mp = pytest.importorskip("mpmath")
    rng = np.random.default_rng(21)
    kinds = {"random": 0, "near tie": 0, "exact tie": 0}
    for case in range(240):
        n_faps = int(rng.integers(2, 10))
        size = int(rng.integers(2, min(n_faps, 6) + 1))
        gains = 10.0 ** rng.uniform(-14, -9, size=n_faps)
        kind = list(kinds)[case % 3]
        if kind == "near tie":
            gains[1] = gains[0] * (1 + 1e-9)
        elif kind == "exact tie":
            gains[1:min(size, 3)] = gains[0]
        theta = db_to_linear(float(rng.uniform(-10, 15)))
        cluster = tuple(range(size))
        table = AccessTable(gains[None, :], [0], CONFIG.noise_watts, theta)
        (p,) = table.success_probabilities(cluster)
        with mp.workdps(120):
            expected = _reference_probability(mp, gains, cluster, theta, CONFIG.noise_watts)
        assert 0.0 <= p <= 1.0
        assert abs(p - expected) < 1e-9, (case, kind, p, expected)
        kinds[kind] += 0.0 < expected < 1.0
    assert min(kinds.values()) >= 60  # every kind met away from 0 and 1


def test_success_probability_erlang_two_at_midpoint():
    # The F-UE is 100 m from both cluster F-APs, so the signal is g times an
    # Erlang(2, 1) variable: P(S > x) = exp(-x/g) (1 + x/g), averaged over
    # the interference I: E[exp(-s I)] = prod 1/(1 + s g_k) and
    # E[I exp(-s I)] = that product times sum g_k/(1 + s g_k), at s = theta/g.
    faps = [[400, 500], [600, 500], [500, 800], [150, 250]]
    fue = [[500, 500]]
    gains = (CONFIG.fap_watts * path_gain(pairwise_distances(fue, faps), CONFIG))[0]
    assert gains[0] == gains[1]
    noise = CONFIG.noise_watts
    for gamma_db in (-10.0, 0.0, 10.0):
        theta = db_to_linear(gamma_db)
        table = access_table(faps, fue, ScenarioConfig(gamma_th_db=gamma_db))
        s = theta / gains[0]
        laplace = 1.0 / ((1 + s * gains[2]) * (1 + s * gains[3]))
        mean_term = gains[2] / (1 + s * gains[2]) + gains[3] / (1 + s * gains[3])
        expected = math.exp(-s * noise) * laplace * (1 + s * noise + s * mean_term)
        (p,) = table.success_probabilities((0, 1))
        assert p == pytest.approx(expected, rel=1e-12)


def test_success_probabilities_agree_with_monte_carlo_oracle():
    fues = np.random.default_rng(22).uniform(100, 900, size=(16, 2))
    trials = 20_000
    oracle = FadeTable(FOUR_FAPS, fues, CONFIG, trials, 23)
    worst = 0.0
    for gamma_db in (-5.0, 5.0):
        table = access_table(FOUR_FAPS, fues, ScenarioConfig(gamma_th_db=gamma_db))
        for block in _nonempty_blocks(4):
            p = table.success_probabilities(block)
            successes = oracle.success_counts(block, db_to_linear(gamma_db))
            variance = trials * float(np.sum(p * (1 - p)))
            assert variance > 0
            z = (float(np.sum(successes)) - trials * float(np.sum(p))) / math.sqrt(variance)
            worst = max(worst, abs(z))
    # 30 z-scores; |z| > 4.5 has probability below 1e-4 for all of them.
    assert worst < 4.5, worst


def test_fade_table_matches_slice_sum_oracle():
    fues = np.random.default_rng(12).uniform(100, 900, size=(24, 2))
    trials, seed = 400, 99
    table = FadeTable(FOUR_FAPS, fues, CONFIG, trials, seed)
    dists = np.linalg.norm(fues[:, None, :] - np.asarray(FOUR_FAPS, float)[None], axis=2)
    nearest = np.argmin(dists, axis=1)
    assert np.array_equal(table.serving, nearest)
    gains = CONFIG.fap_watts * path_gain(dists, CONFIG)
    # Every (group, F-AP) slab, regenerated from its own named stream.
    groups = {a: np.flatnonzero(nearest == a).tolist() for a in range(4)}
    slabs = {
        (a, j): derive_rng(seed, "cluster", a, j).standard_exponential(
            (len(groups[a]), trials)
        )
        for a in range(4)
        for j in range(4)
    }
    for gamma_db in (-5.0, 0.0, 5.0):
        gamma = 10 ** (gamma_db / 10.0)
        for block in _nonempty_blocks(4):
            expected = []
            for u in range(len(fues)):
                a = int(nearest[u])
                if a not in block:
                    continue
                row = groups[a].index(u)
                power = {j: gains[u, j] * slabs[(a, j)][row] for j in range(4)}
                signal = sum(power[j] for j in block)
                interference = sum((power[j] for j in range(4) if j not in block),
                                   np.zeros(trials))
                sinr = signal / (interference + CONFIG.noise_watts)
                expected.append(int(np.count_nonzero(sinr >= gamma)))
            assert table.success_counts(block, gamma).tolist() == expected, (gamma_db, block)
            assert served_fue_indices(block, table).size == len(expected)


def test_cluster_utilities_do_not_depend_on_evaluation_order():
    fues = np.random.default_rng(13).uniform(100, 900, size=(20, 2))
    config = ScenarioConfig()
    blocks = _nonempty_blocks(4)
    first = access_table(FOUR_FAPS, fues, config)
    forward = [cluster_utility(b, config, first) for b in blocks]
    again = [cluster_utility(b, config, first) for b in reversed(blocks)][::-1]
    fresh = access_table(FOUR_FAPS, fues, config)
    backward = [cluster_utility(b, config, fresh) for b in reversed(blocks)][::-1]
    assert forward == again == backward
    assert len(set(forward)) > 1


def test_access_table_builds_no_gain_tensor():
    n_fues, n_faps = 300, 60
    rng = np.random.default_rng(14)
    faps = rng.uniform(0, 2000, size=(n_faps, 2))
    fues = rng.uniform(0, 2000, size=(n_fues, 2))
    tracemalloc.start()
    try:
        table = access_table(faps, fues, CONFIG)
        for block in [tuple(range(n_faps))] + [(a,) for a in range(n_faps)]:
            table.success_probabilities(block)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert not np.isnan(table.log_products).any()  # every (F-UE, F-AP) pair filled
    held = sum(v.nbytes for v in vars(table).values() if isinstance(v, np.ndarray))
    assert held == 8 * n_fues * (2 * n_faps + 1)  # gains, log products, serving
    # Temporaries stay a few U x F arrays; the (U, F, F) tensor alone would
    # be 8 * n_fues * n_faps**2 = 8.6 MB.
    assert peak < 8 * n_fues * n_faps * 16


def test_merge_and_split_single_fap():
    topo = make_topology([[500, 500]])
    result = merge_and_split(topo, ScenarioConfig(), table_utility(topo, ScenarioConfig()))
    assert result.blocks == [(0,)]


def _all_partitions(items):
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _all_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [sorted(part[i] + [first])] + part[i + 1:]
        yield [[first]] + part


def _is_stable(blocks, utility, allowed):
    u = {frozenset(b): utility(tuple(sorted(b))) for b in blocks}
    # No beneficial merge.
    for a, b in itertools.combinations(blocks, 2):
        union = tuple(sorted(tuple(a) + tuple(b)))
        if allowed(union) and utility(union) > u[frozenset(a)] + u[frozenset(b)]:
            return False
    # No beneficial split.
    for block in blocks:
        block = sorted(block)
        rest = block[1:]
        for mask in range(2 ** len(rest) - 1):
            left = [block[0]]
            right = []
            for bit, item in enumerate(rest):
                (left if mask >> bit & 1 else right).append(item)
            if not right:
                continue
            if not (allowed(tuple(left)) and allowed(tuple(right))):
                continue
            if utility(tuple(left)) + utility(tuple(right)) > u[frozenset(block)]:
                return False
    return True


def test_two_faps_merge_iff_union_improves():
    topo = make_topology([[400, 500], [600, 500]])
    config = MESH
    merging = {(0,): 1.0, (1,): 1.0, (0, 1): 2.5}
    result = merge_and_split(topo, config, utility_fn=lambda b: merging[b])
    assert result.blocks == [(0, 1)]
    staying = {(0,): 1.0, (1,): 1.0, (0, 1): 1.9}
    result = merge_and_split(topo, config, utility_fn=lambda b: staying[b])
    assert result.blocks == [(0,), (1,)]


def test_merge_and_split_stable_against_bell_enumeration():
    config = MESH
    rng = np.random.default_rng(101)
    for case in range(50):
        n = int(rng.integers(1, 7))
        positions = rng.uniform(0, 1000, size=(n, 2))
        topo = make_topology(positions)
        table = {}

        def utility(block):
            key = tuple(sorted(block))
            if key not in table:
                table[key] = float(rng.uniform(0, 1)) * len(key)
            return table[key]

        result = merge_and_split(topo, config, utility_fn=utility)
        blocks = [list(b) for b in result.blocks]
        # Valid partition.
        flat = sorted(x for b in blocks for x in b)
        assert flat == list(range(n))
        assert all(b for b in blocks)
        # Merge-and-split stable versus exhaustive one-step moves.
        assert _is_stable(blocks, utility, lambda blk: True)
        # Sanity: the partition lattice really was enumerable (Bell(6)=203).
        assert sum(1 for _ in _all_partitions(range(n))) <= 203


def test_tree_topology_blocks_stay_connected():
    config = ScenarioConfig()
    rng = np.random.default_rng(55)
    for case in range(10):
        n = int(rng.integers(2, 7))
        positions = rng.uniform(0, 1000, size=(n, 2))
        topo = make_topology(positions, topo=FapTopology.TREE)
        table = {}

        def utility(block):
            key = tuple(sorted(block))
            if key not in table:
                table[key] = float(rng.uniform(0, 2)) * len(key)
            return table[key]

        result = merge_and_split(topo, config, utility_fn=utility)
        for block in result.blocks:
            assert adjacency_is_connected(topo.fap_adjacency, list(block))


def test_tree_cuts_equal_connected_bipartitions():
    """Oracle: a subtree's edge cuts are exactly the bipartitions into two
    connected parts, in the full scan's order."""
    rng = np.random.default_rng(77)
    for case in range(300):
        n = int(rng.integers(2, 13))
        label = rng.permutation(n)
        edges = {
            tuple(sorted((int(label[i]), int(label[rng.integers(i)])))) for i in range(1, n)
        }
        neighbors = {i: [] for i in range(n)}
        for i, j in edges:
            neighbors[i].append(j)
            neighbors[j].append(i)
        # A random connected block of 2..n F-APs, grown from a random F-AP.
        block = {int(rng.integers(n))}
        for _ in range(int(rng.integers(1, n))):
            block.add(int(rng.choice(sorted({w for v in block for w in neighbors[v]}))))
        expected = [
            (left, right) for left, right in _bipartitions(block)
            if adjacency_is_connected(edges, left) and adjacency_is_connected(edges, right)
        ]
        assert _tree_cuts(block, neighbors) == expected
        assert len(expected) == len(block) - 1


def _full_rescan(topology, tree, utility_fn):
    """Oracle: merge-and-split as it ran before merge candidates were read
    from the F-AP links. Every merge pass rescans all pairs of blocks, and
    in tree topology tests each union for connectivity."""
    cache = {}

    def utility(block):
        key = frozenset(block)
        if key not in cache:
            cache[key] = utility_fn(tuple(sorted(block)))
        return cache[key]

    neighbors = {i: [] for i in range(len(topology.faps))}
    for i, j in topology.fap_adjacency:
        neighbors[i].append(j)
        neighbors[j].append(i)
    blocks = [(i,) for i in range(len(topology.faps))]
    changed = True
    while changed:
        changed = False
        blocks.sort(key=lambda b: b[0])
        merged = None
        for a, b in itertools.combinations(range(len(blocks)), 2):
            union = tuple(sorted(blocks[a] + blocks[b]))
            if tree and not adjacency_is_connected(topology.fap_adjacency, union):
                continue
            if utility(union) > utility(blocks[a]) + utility(blocks[b]):
                merged = (a, b, union)
                break
        if merged:
            a, b, union = merged
            blocks = [blk for k, blk in enumerate(blocks) if k not in (a, b)] + [union]
            changed = True
            continue
        blocks.sort(key=lambda b: b[0])
        split = None
        for k, block in enumerate(blocks):
            if len(block) < 2:
                continue
            candidates = _tree_cuts(block, neighbors) if tree else _bipartitions(block)
            for left, right in candidates:
                if utility(left) + utility(right) > utility(block):
                    split = (k, left, right)
                    break
            if split:
                break
        if split:
            k, left, right = split
            blocks = [blk for i, blk in enumerate(blocks) if i != k] + [left, right]
            changed = True
    blocks.sort(key=lambda b: b[0])
    return blocks


@pytest.mark.parametrize("topo", list(FapTopology))
@pytest.mark.parametrize("tau", [0.1, 1.0, 10.0])
def test_merge_candidates_match_full_rescan(topo, tau):
    """Merging only blocks that an F-AP link joins gives the full rescan's
    partition, and passes it the same blocks to score in the same order."""
    # A 30 dB threshold and F-APs in tight clumps make merges pay at every
    # tau: a lone F-AP's F-UEs then see their clump's other F-APs as
    # interference. Low noise keeps the tied-gain fallback's steps few.
    config = ScenarioConfig(tau=tau, gamma_th_db=30.0, noise_power_dbm=-150.0, fap_topology=topo)
    rng = np.random.default_rng(int(tau * 10) + 7 * (topo is FapTopology.TREE))
    for case in range(6):
        n = int(rng.integers(2, 41))
        side = 1000.0 * math.sqrt(n / 10.0)  # about 10 F-APs per km^2, 5 F-UEs each
        clumps = rng.uniform(0, side, size=(max(1, n // 4), 2))
        faps = clumps[rng.integers(len(clumps), size=n)] + rng.normal(0, 10, size=(n, 2))
        fues = clumps[rng.integers(len(clumps), size=5 * n)] + rng.normal(0, 10, size=(5 * n, 2))
        topology = make_topology(faps, fues, topo=topo)
        table = access_table(faps, fues, config)
        calls = {"change": [], "oracle": []}
        scores = {}

        def scorer(log):
            def utility(block):
                log.append(block)
                if block not in scores:
                    scores[block] = cluster_utility(block, config, table)
                return scores[block]
            return utility

        result = merge_and_split(topology, config, utility_fn=scorer(calls["change"]))
        tree = topo is FapTopology.TREE
        assert result.blocks == _full_rescan(topology, tree, scorer(calls["oracle"])), (n, case)
        assert calls["change"] == calls["oracle"], (n, case)


@contextlib.contextmanager
def _time_limit(seconds, what):
    """Raise TimeoutError in the body once `seconds` of wall time pass."""

    def expire(signum, frame):
        raise TimeoutError(f"{what} ran past {seconds:g} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_small_tau_tree_run_finishes():
    """tau -> 0 favours the grand coalition of a 2 km tree's 41 F-APs; its
    split scan must not walk all 2^40 bipartitions."""
    with _time_limit(10.0, "2 km tree at tau = 0.01"):
        report = run_scenario(ScenarioConfig(region_width=2000.0, region_height=2000.0, tau=0.01))
    assert report.mean_cluster_size == report.n_faps == 41


def test_seven_km_tree_merge_and_split_finishes():
    """A 7 km tree has 493 F-APs. A merge pass that rescans every pair of
    blocks and tests each union for connectivity took 11-16 s on a 2 vCPU
    host; reading the candidates from the F-AP links takes about 0.2 s."""
    config = ScenarioConfig(region_width=7000.0, region_height=7000.0)
    topology = _build_topology(config)
    with _time_limit(5.0, "merge_and_split on the 7 km tree"):
        partition = merge_and_split(topology, config, table_utility(topology, config))
    assert len(topology.faps) == 493
    assert sorted(v for block in partition.blocks for v in block) == list(range(493))


def _assignment(epsilon, n_subchannels=16):
    """A config of the given subchannel share and count."""
    return ScenarioConfig(epsilon=epsilon, n_subchannels=n_subchannels)


def test_round_half_away():
    assert round_half_away(0.5) == 1
    assert round_half_away(1.5) == 2
    assert round_half_away(2.4) == 2
    assert round_half_away(-0.5) == -1


def test_coac_epsilon_zero_empty():
    assert not coac_assign(np.ones((3, 4)), _assignment(0.0)).any()


def test_coac_epsilon_one_full_and_equals_drac():
    coac = coac_assign(np.random.default_rng(1).uniform(size=(3, 4)), _assignment(1.0))
    drac = drac_assign(3, _assignment(1.0, 4), derive_rng(1))
    assert coac.shape == drac.shape == (3, 4)
    assert coac.all() and drac.all()


def test_coac_picks_least_interfering_subchannels():
    occupied = coac_assign(np.array([[0.4, 0.1, 0.3, 0.2]]), _assignment(0.5))
    assert np.array_equal(np.flatnonzero(occupied[0]), [1, 3])


def test_coac_ties_break_by_lower_subchannel_index():
    occupied = coac_assign(np.array([[0.5, 0.5, 0.5, 0.5]]), _assignment(0.5))
    assert np.array_equal(np.flatnonzero(occupied[0]), [0, 1])


def test_coac_matches_sort_oracle_random():
    rng = np.random.default_rng(77)
    gains = rng.uniform(size=(20, 8))
    occupied = coac_assign(gains, _assignment(0.5))
    for i in range(20):
        expected = np.sort(np.lexsort((np.arange(8), gains[i]))[:4])
        assert np.array_equal(np.flatnonzero(occupied[i]), expected)


def test_coac_and_drac_without_links():
    assert coac_assign(np.ones((0, 5)), _assignment(0.5)).shape == (0, 5)
    assert drac_assign(0, _assignment(0.5, 5), derive_rng(1)).shape == (0, 5)


def test_drac_one_permutation_per_link_in_link_order():
    rng = derive_rng(3, "drac-order")
    expected = [np.sort(rng.permutation(7)[:4]) for _ in range(6)]
    occupied = drac_assign(6, _assignment(0.5, 7), derive_rng(3, "drac-order"))
    for row, subs in zip(occupied, expected):
        assert np.array_equal(np.flatnonzero(row), subs)


def test_drac_uniform_occupation_frequency():
    occupied = drac_assign(100_000, _assignment(0.5, 10), derive_rng(9, "drac"))
    freq = occupied.sum(axis=0) / 100_000
    assert np.all(np.abs(freq - 0.5) < 0.01)


def test_drac_epsilon_extremes():
    assert not drac_assign(5, _assignment(0.0, 6), derive_rng(10)).any()
    assert drac_assign(5, _assignment(1.0, 6), derive_rng(10)).all()


def _victim_setup(n_links=50, n_sub=16, seed=21):
    topo = make_topology([[100, 100]], hpn_positions=[[500, 400]])
    rng = np.random.default_rng(seed)
    tx = rng.uniform(0, 1000, size=(n_links, 2))
    cross_gains = make_d2d_links(
        tx, ScenarioConfig(n_subchannels=n_sub), derive_rng(seed, "links")
    )
    return topo, cross_gains


def _analytic_success(interference_per_sub, config):
    # Rayleigh signal fading: P(success) = mean_s exp(-g (I_s + N) / S).
    signal = config.fue_watts * 100.0 ** (-4.0)  # victim 100 m from HPN
    g = config.theta
    return float(np.mean(np.exp(-g * (interference_per_sub + config.noise_watts) / signal)))


def test_cellular_success_epsilon_zero_matches_no_d2d_baseline():
    topo, cross_gains = _victim_setup()
    occupied = coac_assign(cross_gains, _assignment(0.0))
    trials = 100_000
    config = ScenarioConfig(mc_trials=trials)
    p = cellular_success_probability(occupied, cross_gains, topo.hpns, config, derive_rng(31))
    expected = _analytic_success(np.zeros(16), config)
    ci = 2.576 * math.sqrt(expected * (1 - expected) / trials)
    assert abs(p - expected) < 2 * ci + 1e-9


def test_cellular_success_epsilon_one_matches_all_d2d_baseline():
    topo, cross_gains = _victim_setup()
    occupied = coac_assign(cross_gains, _assignment(1.0))
    trials = 100_000
    config = ScenarioConfig(mc_trials=trials)
    p = cellular_success_probability(occupied, cross_gains, topo.hpns, config, derive_rng(32))
    interference = config.fue_watts * cross_gains.sum(axis=0)
    expected = _analytic_success(interference, config)
    ci = 2.576 * math.sqrt(max(expected * (1 - expected), 1e-12) / trials)
    assert abs(p - expected) < 2 * ci + 0.005


@pytest.mark.parametrize("n_links", [1, 50, 1000])
def test_cellular_interference_adds_links_as_the_per_link_loop(monkeypatch, n_links):
    # The axis-0 sum over the occupancy mask must add each subchannel's
    # occupied cross gains in link order, bit for bit as a loop over links.
    topo, cross_gains = _victim_setup(n_links=n_links, seed=n_links)
    seen = []
    monkeypatch.setattr(_kernels, "success_fraction", lambda sinr, gamma: seen.append(sinr) or 0.0)
    config = ScenarioConfig(mc_trials=500)
    p_fue = config.fue_watts
    hpn_dists = pairwise_distances([(500.0, 500.0)], topo.hpns)[0]
    signal_mean = p_fue * float(path_gain(hpn_dists.min(), config))
    for occupied in (
        coac_assign(cross_gains, _assignment(0.5)),
        drac_assign(n_links, _assignment(0.25), derive_rng(5)),
    ):
        cellular_success_probability(occupied, cross_gains, topo.hpns, config, derive_rng(6))
        interference = np.zeros(16)
        for i, row in enumerate(occupied):
            subs = np.flatnonzero(row)
            interference[subs] += p_fue * cross_gains[i, subs]
        rng = derive_rng(6)
        sub_choice = rng.integers(0, 16, size=500)
        fades = fading_sample(rng, size=500)
        expected = signal_mean * fades / (interference[sub_choice] + config.noise_watts)
        assert seen[-1].tobytes() == expected.tobytes()


def test_coac_dominates_drac_matched_seed():
    topo, cross_gains = _victim_setup(n_links=200, seed=41)
    trials = 50_000
    coac = coac_assign(cross_gains, _assignment(0.5))
    drac = drac_assign(200, _assignment(0.5), derive_rng(42))
    config = ScenarioConfig(mc_trials=trials)
    p_coac, p_drac = (
        cellular_success_probability(occ, cross_gains, topo.hpns, config, derive_rng(43))
        for occ in (coac, drac)
    )
    ci = 2.576 * math.sqrt(0.25 / trials)
    assert p_coac >= p_drac - ci


def _sffr_ues():
    return [
        SffrUe(0, True, NodeKind.FAP),
        SffrUe(1, True, NodeKind.FAP),
        SffrUe(2, False, NodeKind.FAP),
        SffrUe(3, False, NodeKind.HPN),
        SffrUe(4, False, NodeKind.HPN),
    ]


def test_sffr_eta_one_starves_hpn_users():
    plan = sffr_allocate(10, 1.0, _sffr_ues())
    assert plan.shared_blocks == []
    assert plan.assignment[3] is None and plan.assignment[4] is None


def test_sffr_eta_zero_all_shared():
    plan = sffr_allocate(10, 0.0, _sffr_ues())
    assert plan.reserved_blocks == []
    assert plan.shared_blocks == list(range(10))
    assert plan.assignment[0] is None  # no reserved pool for high-QoS F-AP UEs


def test_sffr_round_robin_enumeration():
    plan = sffr_allocate(10, 0.4, _sffr_ues())
    assert plan.reserved_blocks == [0, 1, 2, 3]
    assert plan.shared_blocks == [4, 5, 6, 7, 8, 9]
    assert plan.assignment[0] == 0 and plan.assignment[1] == 1
    assert plan.assignment[2] == 4 and plan.assignment[3] == 5 and plan.assignment[4] == 6


def test_sffr_isolation_invariant():
    rng = np.random.default_rng(61)
    for _ in range(100):
        n_blocks = int(rng.integers(1, 30))
        eta = float(rng.uniform(0, 1))
        ues = [
            SffrUe(
                i,
                bool(rng.random() < 0.5),
                NodeKind.FAP if rng.random() < 0.6 else NodeKind.HPN,
            )
            for i in range(int(rng.integers(1, 40)))
        ]
        plan = sffr_allocate(n_blocks, eta, ues)
        assert set(plan.reserved_blocks) | set(plan.shared_blocks) == set(range(n_blocks))
        assert not set(plan.reserved_blocks) & set(plan.shared_blocks)
        high_fap_blocks = {
            plan.assignment[u.id]
            for u in ues
            if u.high_qos and u.serving_kind is NodeKind.FAP
            and plan.assignment[u.id] is not None
        }
        hpn_blocks = {
            plan.assignment[u.id]
            for u in ues
            if u.serving_kind is NodeKind.HPN and plan.assignment[u.id] is not None
        }
        assert not high_fap_blocks & hpn_blocks
