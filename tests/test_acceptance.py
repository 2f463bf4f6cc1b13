"""End-to-end acceptance gate.

One test per headline property, each printing a single PASS line with the
measured evidence and checking its runtime budget. Tolerances are stated
inline; statistical checks use 99% Monte-Carlo confidence intervals.
"""

import csv
import dataclasses
import itertools
import math
import os
import time

import numpy as np
import pytest

from frangine.caching import ContentCatalog, EdgeCache, EvictionPolicy, zipf_stream
from frangine.cli import EXIT_OK, main
from frangine.coordination import (
    SffrUe,
    cellular_success_probability,
    cluster_power,
    coac_assign,
    drac_assign,
    make_d2d_links,
    merge_and_split,
    sffr_allocate,
)
from frangine.geometry import (
    FapTopology,
    NetworkTopology,
    NodeKind,
    Region,
    build_fap_adjacency,
    sample_ppp,
)
from frangine.metrics_sim import ScenarioConfig, spatial_average_rate
from frangine.mode_select import MODES, Mode, select_mode
from frangine.rng import derive_rng
from mc_oracle import successful_access_probability, table_utility

Z99 = 2.5758293035489004
CONFIG = ScenarioConfig()
CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


@pytest.fixture
def passline(capsys):
    # Bypass capture so the per-criterion verdict lands in the terminal
    # (and in any teed log) even without -s.
    def emit(label, detail):
        with capsys.disabled():
            print(f"\nPASS {label}: {detail}")

    return emit


def _elapsed_ok(t0, budget_s):
    elapsed = time.perf_counter() - t0
    assert elapsed < budget_s, f"runtime {elapsed:.1f}s exceeds {budget_s}s budget"
    return elapsed


# ---------------------------------------------------------------------------
# 1. Mode-selection truth table
# ---------------------------------------------------------------------------

TH = ScenarioConfig(d1=50.0, d2=150.0, d3=500.0, speed_threshold=10.0)


def _rule_table_oracle(d, s_src, s_dst, cap_src, cap_dst, voice, relay, content, feasible):
    # Independent recoding of the decision cascade; the relay candidate,
    # when present, sits at the pair midpoint.
    t = TH.speed_threshold
    if s_src > t or s_dst > t or voice:
        return Mode.HPN
    slow = abs(s_src - s_dst) <= t
    both = cap_src and cap_dst
    if d <= TH.d1 and both and slow:
        return Mode.D2D
    if TH.d1 < d <= TH.d2 and both and slow and relay and d / 2.0 <= TH.d1:
        return Mode.FUE_RELAY
    midband = TH.d2 < d <= TH.d3 or (d <= TH.d2 and not both)
    if midband and feasible and content:
        return Mode.LOCAL_COORDINATION
    return Mode.GLOBAL_CRAN


def test_acceptance_1_mode_truth_table(passline):
    t0 = time.perf_counter()
    distances = [10.0, 50.0, 75.0, 150.0, 151.0, 325.0, 500.0, 900.0]
    speeds = [0.0, 5.0, 20.0]
    grid = itertools.product(
        distances, speeds, speeds, [True, False], [True, False],
        [False, True], [False, True], [False, True], [False, True],
    )
    cases = list(grid)
    d, s1, s2, c1, c2, voice, relay, content, feasible = map(np.array, zip(*cases))
    # Src at x = 0, dst at x = d; the relay, when present, at the midpoint.
    mid = d / 2.0
    bridged = relay & (np.hypot(mid, 0.0) <= TH.d1) & (np.hypot(mid - d, 0.0) <= TH.d1)
    codes = select_mode(d, s1, s2, voice, False, c1 & c2, bridged, content & feasible, TH)
    for case, code in zip(cases, codes.tolist()):
        assert MODES[code] is _rule_table_oracle(*case), case
    assert len(cases) >= 500
    elapsed = _elapsed_ok(t0, 1.0)
    passline(
        "criterion 1 (mode truth table)",
        f"{len(cases)} grid cases, 100% oracle agreement, {elapsed:.2f}s",
    )


# ---------------------------------------------------------------------------
# 2. Rician-vs-Rayleigh rate ordering and density degradation
# ---------------------------------------------------------------------------


def _d2d_rate_config(interferer_density, k_db=6.0):
    """The 1 km default, with its 20 m D2D links, at the given D2D
    interferer density (the F-UE density) and K-factor in dB, None for
    Rayleigh."""
    return ScenarioConfig(lambda_fue=interferer_density, d2d_k_factor_db=k_db)


def test_acceptance_2_rician_rate_ordering(passline):
    t0 = time.perf_counter()
    lam_m = 1e-6
    rates = {
        label: spatial_average_rate(_d2d_rate_config(10 * lam_m, k_db))
        for label, k_db in (("K=6dB", 6.0), ("K=2dB", 2.0), ("Rayleigh", None))
    }
    # The rate is exact, so the ordering must hold by a margin that no
    # quadrature error could explain (the gaps are about 0.25 bit).
    ordering = ("K=6dB", "K=2dB", "Rayleigh")
    gaps = []
    for hi, lo in zip(ordering, ordering[1:]):
        gap = rates[hi] - rates[lo]
        assert gap > 0.1, f"{hi} vs {lo}: gap {gap:.4f} bit <= 0.1"
        gaps.append(gap)
    low = spatial_average_rate(_d2d_rate_config(10 * lam_m))
    high = spatial_average_rate(_d2d_rate_config(1000 * lam_m))
    assert high < low, f"dense-interferer rate {high:.3f} not below sparse {low:.3f}"
    elapsed = _elapsed_ok(t0, 120.0)
    passline(
        "criterion 2 (Rician ordering)",
        "rate(K=6dB) > rate(K=2dB) > rate(Rayleigh), exact, "
        f"gaps {gaps[0]:.3f}/{gaps[1]:.3f} bit (>0.1 required); "
        f"rate {low:.2f} -> {high:.2f} when interferer density x100, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 3. COAC/DRAC epsilon sweep against analytic endpoint baselines
# ---------------------------------------------------------------------------


def _analytic_cellular_success(interference_per_sub, signal_mean, gamma_db):
    # Rayleigh signal fading over a static interference profile:
    # P(success) = mean over subchannels of exp(-gamma (I_s + N) / S).
    g = 10 ** (gamma_db / 10.0)
    return float(np.mean(
        np.exp(-g * (interference_per_sub + CONFIG.noise_watts) / signal_mean)
    ))


def test_acceptance_3_coac_drac_epsilon_sweep(passline):
    t0 = time.perf_counter()
    region = Region(1000.0, 1000.0)
    lam_m = 2e-6
    hpns = np.array([[500.0, 400.0]])  # 100 m from the victim at the centre
    n_sub, trials = 16, 50_000
    config = ScenarioConfig(n_subchannels=n_sub, mc_trials=trials)
    signal_mean = config.fue_watts * 100.0 ** -config.path_loss_exponent
    eps_grid = (0.0, 0.25, 0.5, 0.75, 1.0)
    summary = []
    for ratio in (10, 100, 1000):
        txs = sample_ppp(ratio * lam_m, region, derive_rng(7, "tx", ratio))
        cross_gains = make_d2d_links(txs, config, derive_rng(7, "gains", ratio))
        curves = {}
        for kind in ("coac", "drac"):
            probs = []
            for eps in eps_grid:
                point = dataclasses.replace(config, epsilon=eps)
                if kind == "coac":
                    occupied = coac_assign(cross_gains, point)
                else:
                    # One stream per density: the random subsets are nested
                    # prefixes across epsilon, the matched-seed coupling.
                    occupied = drac_assign(len(cross_gains), point, derive_rng(9, "drac", ratio))
                p = cellular_success_probability(
                    occupied, cross_gains, hpns, point, derive_rng(11, "mc", ratio)
                )
                probs.append(p)
            half_width = Z99 * math.sqrt(0.25 / trials)
            for a, b in zip(probs, probs[1:]):
                assert a >= b - half_width, (kind, ratio, probs)
            curves[kind] = probs
        for i, eps in enumerate(eps_grid[1:-1], start=1):
            assert curves["coac"][i] >= curves["drac"][i] - Z99 * math.sqrt(0.5 / trials), (
                ratio, eps, curves
            )
        # Endpoint baselines computed analytically, not by simulation.
        upper = _analytic_cellular_success(np.zeros(n_sub), signal_mean, 0.0)
        full = config.fue_watts * cross_gains.sum(axis=0)
        lower = _analytic_cellular_success(full, signal_mean, 0.0)
        for kind in ("coac", "drac"):
            for got, want in ((curves[kind][0], upper), (curves[kind][-1], lower)):
                ci = Z99 * math.sqrt(max(want * (1 - want), 1e-12) / trials)
                assert abs(got - want) <= 2 * ci + 1e-9, (kind, ratio, got, want)
        summary.append(f"ratio {ratio}: coac {curves['coac'][2]:.3f} >= drac {curves['drac'][2]:.3f}")
    elapsed = _elapsed_ok(t0, 300.0)
    passline(
        "criterion 3 (COAC/DRAC epsilon sweep)",
        "monotone in epsilon, endpoints match analytic bounds within 2 CI; "
        + "; ".join(summary) + f", {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 4. Merge-and-split soundness, tau pressure, EE-rate proportionality
# ---------------------------------------------------------------------------


def _make_topology(fap_positions, fue_positions=(), topo_kind=FapTopology.MESH):
    faps = np.asarray(fap_positions, float).reshape(-1, 2)
    fues = np.asarray(fue_positions, float).reshape(-1, 2)
    return NetworkTopology(
        np.array([[500.0, 500.0]]), faps, fues, build_fap_adjacency(faps, topo_kind)
    )


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


def _is_merge_split_stable(blocks, utility):
    u = {frozenset(b): utility(tuple(sorted(b))) for b in blocks}
    for a, b in itertools.combinations(blocks, 2):
        union = tuple(sorted(tuple(a) + tuple(b)))
        if utility(union) > u[frozenset(a)] + u[frozenset(b)]:
            return False
    for block in blocks:
        block = sorted(block)
        rest = block[1:]
        for mask in range(2 ** len(rest) - 1):
            left, right = [block[0]], []
            for bit, item in enumerate(rest):
                (left if mask >> bit & 1 else right).append(item)
            if right and utility(tuple(left)) + utility(tuple(right)) > u[frozenset(block)]:
                return False
    return True


def _ppp_cluster_topology(seed):
    region = Region(1000.0, 1000.0)
    faps = sample_ppp(1e-5, region, derive_rng(seed, "fap"))
    fues = sample_ppp(5e-5, region, derive_rng(seed, "fue"))
    return NetworkTopology(
        np.array([[500.0, 500.0]]), faps, fues, build_fap_adjacency(faps, FapTopology.TREE)
    )


def test_acceptance_4_merge_and_split(passline):
    t0 = time.perf_counter()
    # (a) Stability versus exhaustive partition enumeration (Bell numbers
    # stay tiny for n <= 6) on 50 random utility instances, on F-AP meshes.
    config = ScenarioConfig(fap_topology=FapTopology.MESH)
    rng = np.random.default_rng(101)
    for case in range(50):
        n = int(rng.integers(1, 7))
        positions = rng.uniform(0, 1000, size=(n, 2))
        topo = _make_topology(positions)
        table = {}

        def utility(block):
            key = tuple(sorted(block))
            if key not in table:
                table[key] = float(rng.uniform(0, 1)) * len(key)
            return table[key]

        result = merge_and_split(topo, config, utility_fn=utility)
        blocks = [list(b) for b in result.blocks]
        assert sorted(x for b in blocks for x in b) == list(range(n))
        assert _is_merge_split_stable(blocks, utility), (case, blocks)
        assert sum(1 for _ in _all_partitions(range(n))) <= 203  # Bell(6)
    # (b) Energy exponent pressure: mean cluster size nonincreasing in tau.
    mean_sizes = {}
    for tau in (0.1, 1.0, 10.0):
        sizes = []
        for seed in range(5):
            topo = _ppp_cluster_topology(seed)
            if len(topo.faps) == 0:
                continue
            config = ScenarioConfig(tau=tau)  # a tree
            result = merge_and_split(topo, config, table_utility(topo, config))
            sizes.append(float(np.mean(result.block_sizes())))
        mean_sizes[tau] = float(np.mean(sizes))
    assert mean_sizes[0.1] >= mean_sizes[1.0] >= mean_sizes[10.0], mean_sizes
    # (c) At fixed cluster power the EE curve over the SINR-threshold grid
    # is the rate curve divided by a constant: correlation 1 up to rounding.
    topo = _ppp_cluster_topology(3)
    cluster = tuple(range(len(topo.faps)))
    power = cluster_power(len(cluster), config)
    gammas = [-5.0, 0.0, 5.0, 10.0, 15.0]
    rates, ees = [], []
    for g in gammas:
        prob = successful_access_probability(
            cluster, topo.faps, ScenarioConfig(gamma_th_db=g), topo.fues, 2000,
            derive_rng(17, "ee", int(g)),
        )
        rate = prob * math.log2(1.0 + 10 ** (g / 10.0)) * len(topo.fues)
        rates.append(rate)
        ees.append(rate / power)
    corr = float(np.corrcoef(rates, ees)[0, 1])
    assert corr > 0.99, corr
    elapsed = _elapsed_ok(t0, 300.0)
    passline(
        "criterion 4 (merge-and-split)",
        "stable vs Bell enumeration on 50 instances; mean cluster size "
        f"{mean_sizes[0.1]:.2f} >= {mean_sizes[1.0]:.2f} >= {mean_sizes[10.0]:.2f} "
        f"over tau 0.1/1/10; EE-rate correlation {corr:.6f} > 0.99, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 5. Cache correctness and Zipf hit-ratio band
# ---------------------------------------------------------------------------


class _ReferenceCache:
    """Plain-list reference simulation, coded independently of EdgeCache."""

    def __init__(self, capacity, policy):
        self.capacity = capacity
        self.policy = policy
        self.items = []
        self.last = {}
        self.freq = {}
        self.time = 0

    def request(self, item):
        self.time += 1
        if item in self.items:
            self.last[item] = self.time
            self.freq[item] += 1
            return True, None
        evicted = None
        if len(self.items) == self.capacity:
            if self.policy is EvictionPolicy.FIFO:
                evicted = self.items[0]
            elif self.policy is EvictionPolicy.LRU:
                evicted = min(self.items, key=lambda i: (self.last[i], i))
            else:
                evicted = min(self.items, key=lambda i: (self.freq[i], self.last[i], i))
            self.items.remove(evicted)
            del self.last[evicted], self.freq[evicted]
        self.items.append(item)
        self.last[item] = self.time
        self.freq[item] = 1
        return False, evicted


def test_acceptance_5_cache_correctness(passline):
    t0 = time.perf_counter()
    rng = np.random.default_rng(17)
    traces = 0
    for policy in EvictionPolicy:
        for case in range(100):
            capacity = int(rng.integers(1, 11))
            n_items = int(rng.integers(1, 51))
            trace = rng.integers(0, n_items, size=int(rng.integers(1, 200)))
            cache = EdgeCache(capacity, policy)
            ref = _ReferenceCache(capacity, policy)
            for item in trace:
                assert cache.request(int(item)) == ref.request(int(item)), (policy, case)
            assert {i for i in range(n_items) if i in cache} == set(ref.items)
            traces += 1
    # LRU inclusion: the capacity-k cache content is always a subset of the
    # capacity-(k+1) content over the same trace.
    for case in range(20):
        trace = rng.integers(0, 25, size=300)
        small, large = EdgeCache(5, EvictionPolicy.LRU), EdgeCache(6, EvictionPolicy.LRU)
        for item in trace:
            small.request(int(item))
            large.request(int(item))
            assert {i for i in range(25) if i in small} <= {i for i in range(25) if i in large}
    # Zipf(0.8) workload with cache capacity at 5% of the catalog.
    catalog = ContentCatalog(200, zipf_exponent=0.8)
    stream = zipf_stream(catalog, 100_000, derive_rng(29, "zipf-band"))
    cache = EdgeCache(10, EvictionPolicy.LRU)
    ratio = sum(cache.request(int(item))[0] for item in stream) / len(stream)
    assert 0.1 < ratio < 0.7, ratio
    elapsed = _elapsed_ok(t0, 30.0)
    passline(
        "criterion 5 (cache correctness)",
        f"{traces} random traces match the reference simulation exactly; "
        f"LRU inclusion holds; Zipf(0.8) hit ratio {ratio:.3f} in (0.1, 0.7), {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 6. Architecture fronthaul ordering with exact bit conservation
# ---------------------------------------------------------------------------


def test_acceptance_6_architecture_load_ordering(tmp_path, capsys, passline):
    t0 = time.perf_counter()
    out = tmp_path / "cmp"
    config = os.path.join(CONFIG_DIR, "default.ini")
    assert main(["compare-arch", "--config", config, "--out", str(out)]) == EXIT_OK
    loads = {}
    for line in capsys.readouterr().out.splitlines():
        parts = line.split()
        if parts and parts[0] in ("cran", "hcran", "fran"):
            loads[parts[0]] = float(parts[1])
    assert loads["fran"] < loads["hcran"] < loads["cran"], loads
    for arch in ("cran", "hcran", "fran"):
        with open(out / f"ledger_{arch}.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows, arch
        by_server = {"bbu": 0.0, "edge": 0.0, "hpn": 0.0}
        total = 0.0
        for row in rows:
            by_server[row["served_by"]] += float(row["payload_bits"])
            total += float(row["payload_bits"])
        assert sum(by_server.values()) == total, arch  # exact, constant payloads
    elapsed = _elapsed_ok(t0, 60.0)
    passline(
        "criterion 6 (architecture load ordering)",
        f"fronthaul fran {loads['fran']:.3g} < hcran {loads['hcran']:.3g} "
        f"< cran {loads['cran']:.3g} bits; every ledger conserves payload exactly, "
        f"{elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 7. Determinism and seed sensitivity of CSV outputs
# ---------------------------------------------------------------------------


def test_acceptance_7_determinism(tmp_path, passline):
    t0 = time.perf_counter()
    config = tmp_path / "scenario.ini"
    config.write_text(
        "[geometry]\nregion_width = 600.0\nregion_height = 600.0\n"
        "lambda_fap = 2e-5\nlambda_fue = 8e-5\n\n"
        "[coordination]\nmc_trials = 500\n\n"
        "[run]\nmaster_seed = 7\n"
    )
    out_a, out_b, out_c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    assert main(["run", "--config", str(config), "--out", str(out_a)]) == EXIT_OK
    assert main(["run", "--config", str(config), "--out", str(out_b)]) == EXIT_OK
    for name in ("metrics.csv", "ledger.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name
    assert main(["run", "--config", str(config), "--out", str(out_c), "--seed", "8"]) == EXIT_OK
    assert (out_a / "metrics.csv").read_bytes() != (out_c / "metrics.csv").read_bytes()
    elapsed = _elapsed_ok(t0, 60.0)
    passline(
        "criterion 7 (determinism)",
        "repeated runs byte-identical in metrics.csv and ledger.csv; "
        f"seed change alters output, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 8. Reserved-block isolation in soft fractional frequency reuse
# ---------------------------------------------------------------------------


def test_acceptance_8_sffr_isolation(passline):
    t0 = time.perf_counter()
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
        high_fap = {
            plan.assignment[u.id]
            for u in ues
            if u.high_qos and u.serving_kind is NodeKind.FAP
            and plan.assignment[u.id] is not None
        }
        hpn = {
            plan.assignment[u.id]
            for u in ues
            if u.serving_kind is NodeKind.HPN and plan.assignment[u.id] is not None
        }
        assert not high_fap & hpn, (eta, n_blocks)
    ues = [
        SffrUe(0, True, NodeKind.FAP),
        SffrUe(1, False, NodeKind.FAP),
        SffrUe(2, False, NodeKind.HPN),
    ]
    everything_reserved = sffr_allocate(8, 1.0, ues)
    assert everything_reserved.shared_blocks == []
    assert everything_reserved.assignment[0] is not None
    assert everything_reserved.assignment[1] is None
    assert everything_reserved.assignment[2] is None
    nothing_reserved = sffr_allocate(8, 0.0, ues)
    assert nothing_reserved.reserved_blocks == []
    assert nothing_reserved.assignment[0] is None
    assert nothing_reserved.assignment[1] is not None
    assert nothing_reserved.assignment[2] is not None
    elapsed = _elapsed_ok(t0, 30.0)
    passline(
        "criterion 8 (frequency-reuse isolation)",
        "no block shared between reserved-tier and macro-tier users over 100 "
        f"random scenarios; eta 0/1 degenerate pools behave as documented, {elapsed:.1f}s",
    )
