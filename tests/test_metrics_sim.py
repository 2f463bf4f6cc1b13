import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from frangine.channel import (
    RAYLEIGH,
    FadingKind,
    FadingModel,
    LinkBudget,
    db_to_linear,
    path_gain,
)
from frangine.geometry import (
    FapTopology,
    NetworkTopology,
    NodeKind,
    NodeSet,
    Region,
    pair_d2d,
    pairwise_distances,
)
from frangine import metrics_sim
from frangine.metrics_sim import (
    LEDGER_COLUMNS,
    METRICS_COLUMNS,
    Architecture,
    ScenarioConfig,
    UnknownParameter,
    ZeroPower,
    d2d_success_probability,
    energy_efficiency,
    fronthaul_load,
    ledger_rows,
    metrics_row,
    run_scenario,
    spatial_average_rate,
    sweep,
)
from frangine.caching import ContentTier, EvictionPolicy
from frangine.mode_select import MODES, Mode, associate_fap, select_mode
from frangine.rng import derive_rng
import mc_oracle
from mc_oracle import mc_d2d_success_probability, mc_spatial_average_rate
from request_oracle import request_loop
from test_coordination import _time_limit

FAST = ScenarioConfig(
    region_width=600.0,
    region_height=600.0,
    lambda_m=5e-6,
    lambda_fap=2e-5,
    lambda_fue=8e-5,
    mc_trials=300,
    requests_per_fue=3,
    warmup_requests=2,
    master_seed=11,
)


def test_run_determinism():
    a = run_scenario(FAST)
    b = run_scenario(FAST)
    assert metrics_row(a) == metrics_row(b)
    assert ledger_rows(a) == ledger_rows(b)


def test_changing_seed_changes_outputs():
    a = run_scenario(FAST)
    b = run_scenario(dataclasses.replace(FAST, master_seed=12))
    assert metrics_row(a) != metrics_row(b)


def test_zero_fues_empty_report():
    report = run_scenario(dataclasses.replace(FAST, lambda_fue=0.0))
    assert report.n_fues == 0
    assert report.load.total_payload_bits == 0.0
    assert report.load.fronthaul_bits == 0.0
    assert report.ledger == []


def test_report_ranges():
    report = run_scenario(FAST)
    for p in (
        report.cellular_success_probability,
        report.d2d_success_probability,
        report.fue_hit_ratio,
        report.fap_hit_ratio,
    ):
        assert 0.0 <= p <= 1.0
    assert report.spatial_average_rate >= 0.0
    assert report.energy_efficiency >= 0.0


def test_bit_conservation():
    for seed in (1, 2, 3):
        report = run_scenario(dataclasses.replace(FAST, master_seed=seed))
        assert report.load.conserved()


def test_ledger_rows_sum_to_totals():
    report = run_scenario(FAST)
    assert sum(r.fronthaul_bits for r in report.ledger) == pytest.approx(
        report.load.fronthaul_bits
    )
    assert sum(r.backhaul_bits for r in report.ledger) == pytest.approx(
        report.load.backhaul_bits
    )
    assert sum(r.payload_bits for r in report.ledger) == pytest.approx(
        report.load.total_payload_bits
    )


def test_cran_pays_full_iq_expansion():
    config = dataclasses.replace(FAST, architecture=Architecture.CRAN)
    report = run_scenario(config)
    assert report.load.fronthaul_bits == pytest.approx(
        report.load.total_payload_bits * config.iq_expansion_factor
    )


def test_architecture_fronthaul_ordering():
    loads = {}
    for arch in Architecture:
        report = run_scenario(dataclasses.replace(FAST, architecture=arch))
        loads[arch] = report.load.fronthaul_bits
    assert loads[Architecture.FRAN] <= loads[Architecture.HCRAN] <= loads[Architecture.CRAN]


def _codes(modes, tiers):
    """fronthaul_load's code arrays for lists of modes and tiers."""
    return (
        np.array([metrics_sim.MODES.index(m) for m in modes]),
        np.array([metrics_sim.TIERS.index(t) for t in tiers]),
    )


def test_fronthaul_load_single_rule_cases():
    modes, tiers = _codes([Mode.GLOBAL_CRAN] * 4, [ContentTier.CLOUD_ONLY] * 4)
    report, ledger = fronthaul_load(np.zeros(4, int), modes, tiers, 100.0, 16.0)
    assert report.fronthaul_bits == pytest.approx(4 * 100.0 * 16.0)
    assert report.conserved()
    modes, tiers = _codes([Mode.D2D] * 3, [ContentTier.CLOUD_ONLY] * 3)
    report, _ = fronthaul_load(np.zeros(3, int), modes, tiers, 100.0, 16.0)
    assert report.fronthaul_bits == 0.0
    assert report.edge_processed_bits == pytest.approx(300.0)


def test_fronthaul_local_coordination_miss_fetches_once():
    report, _ = fronthaul_load(
        [0], *_codes([Mode.LOCAL_COORDINATION], [ContentTier.CLOUD_ONLY]), 100.0, 16.0
    )
    assert report.fronthaul_bits == pytest.approx(100.0)
    report, _ = fronthaul_load(
        [0], *_codes([Mode.LOCAL_COORDINATION], [ContentTier.AT_FAP]), 100.0, 16.0
    )
    assert report.fronthaul_bits == 0.0


def test_fronthaul_load_totals_add_left_to_right():
    # 0.1-bit payloads over 10^4 requests: numpy's pairwise np.sum rounds
    # these totals differently from a left-to-right loop.
    n = 10_000
    rng = np.random.default_rng(4)
    modes = rng.choice([Mode.GLOBAL_CRAN, Mode.HPN, Mode.LOCAL_COORDINATION, Mode.D2D], n)
    tiers = rng.choice(list(ContentTier), n)
    report, ledger = fronthaul_load(np.arange(n), *_codes(modes, tiers), 0.1, 16.0)

    def loop_sum(values):
        total = 0.0
        for v in values:
            total += v
        return total

    assert loop_sum([0.1] * n) != float(np.sum(np.full(n, 0.1)))
    assert report.total_payload_bits == loop_sum(r.payload_bits for r in ledger)
    assert report.fronthaul_bits == loop_sum(r.fronthaul_bits for r in ledger)
    assert report.backhaul_bits == loop_sum(r.backhaul_bits for r in ledger)
    for served in ("bbu", "edge", "hpn"):
        assert getattr(report, f"payload_{served}_bits") == loop_sum(
            r.payload_bits for r in ledger if r.served_by == served
        )
    assert report.edge_processed_bits == loop_sum(
        r.payload_bits for r in ledger if r.served_by == "edge"
    )
    assert report.bbu_processed_bits == loop_sum(
        r.fronthaul_bits for r in ledger if r.served_by == "bbu"
    )
    assert report.fronthaul_bits != float(np.sum([r.fronthaul_bits for r in ledger]))


def _pipeline_config(case: int) -> ScenarioConfig:
    """Small random configs; the case number walks the cache policies,
    cooperative lookups and architectures."""
    rng = np.random.default_rng([2029, case])
    side = float(rng.choice([300.0, 500.0, 700.0]))
    return ScenarioConfig(
        region_width=side,
        region_height=float(rng.choice([side, 400.0])),
        lambda_fap=float(rng.uniform(1e-5, 4e-5)),
        lambda_fue=float(rng.uniform(5e-5, 3e-4)),
        fap_topology=list(FapTopology)[int(rng.integers(2))],
        fap_capacity=int(rng.integers(1, 12)),
        interference_limit=float(rng.choice([math.inf, 1e-9, 1e-10])),
        catalog_items=int(rng.integers(3, 40)),
        zipf_exponent=float(rng.uniform(0.3, 1.5)),
        cache_policy=list(EvictionPolicy)[case % 3],
        cooperative_caching=bool(case // 3 % 2),
        architecture=list(Architecture)[case // 6 % 3],
        fue_cache_capacity=int(rng.integers(1, 4)),
        fap_cache_capacity=int(rng.integers(1, 8)),
        warmup_requests=int(rng.choice([0, 1, 4])),
        requests_per_fue=int(rng.choice([1, 3, 6])) if case % 7 else 0,
        payload_bits=float(rng.choice([0.1, 1e6, 3.0])) if case % 4 else 3,
        iq_expansion_factor=float(rng.choice([16.0, 1.0])) if case % 5 else 2,
        master_seed=case,
        mc_trials=10,
    )


@pytest.mark.parametrize("case", range(18))
def test_request_pipeline_equals_the_request_loop(case):
    config = _pipeline_config(case)
    report = run_scenario(config)
    oracle = request_loop(config)
    assert report.n_fues > 0
    assert report.fue_hit_ratio == oracle.fue_hit_ratio
    assert report.fap_hit_ratio == oracle.fap_hit_ratio
    # repr also tells -0.0 from 0.0, an int payload from a float one, and
    # the mode_counts key order.
    assert repr(vars(report.load)) == repr(vars(oracle.load))
    assert repr(report.ledger) == repr(oracle.ledger)


@pytest.mark.parametrize("architecture", list(Architecture))
def test_request_pipeline_equals_the_request_loop_at_mobile_speeds(architecture):
    # Mean speed at the threshold: about a third of the F-UEs are fast, so
    # many pairs have exactly one fast end, which the H-CRAN gate and rule (1)
    # read from the partner.
    config = dataclasses.replace(
        _pipeline_config(5), lambda_fue=3e-4, speed_mean=10.0, d2d_fraction=1.0,
        architecture=architecture,
    )
    report = run_scenario(config)
    oracle = request_loop(config)
    assert report.n_d2d_pairs > 10
    assert repr(vars(report.load)) == repr(vars(oracle.load))
    assert repr(report.ledger) == repr(oracle.ledger)


def test_request_pipeline_covers_unadmitted_fues_and_no_warmup():
    configs = [_pipeline_config(case) for case in range(18)]
    assert any(c.warmup_requests == 0 for c in configs)
    assert any(c.requests_per_fue == 0 for c in configs)
    assert any(c.interference_limit < math.inf for c in configs)
    unadmitted = 0
    for config in configs:
        budget = config.budget()
        topology = metrics_sim._build_topology(config)
        serving = associate_fap(
            topology.fues.positions, topology.faps, budget, config.interference_limit,
            [config.fap_capacity] * len(topology.faps),
        )
        unadmitted += serving.count(None)
    assert unadmitted > 0


def test_energy_efficiency_linear_and_zero_power():
    assert energy_efficiency(10.0, 5.0) == pytest.approx(2.0)
    assert energy_efficiency(20.0, 5.0) == pytest.approx(4.0)
    with pytest.raises(ZeroPower):
        energy_efficiency(1.0, 0.0)


def _bare_topology():
    region = Region(1000.0, 1000.0)
    empty = np.empty((0, 2))
    return NetworkTopology(
        region=region,
        hpns=NodeSet(NodeKind.HPN, np.array([[500.0, 500.0]]), 0.0),
        faps=NodeSet(NodeKind.FAP, np.array([[100.0, 100.0]]), 0.0),
        fues=NodeSet(NodeKind.FUE, empty, 0.0),
    )


def _region_topology(width=1000.0, height=1000.0):
    return dataclasses.replace(_bare_topology(), region=Region(width, height))


def test_spatial_average_rate_no_fading_snr_one():
    # Huge-K Rician is effectively unfaded; tx power equal to noise at the
    # 1 m reference distance gives SNR = 1 and rate log2(2) = 1.
    budget = LinkBudget(
        tx_power_dbm={NodeKind.FAP: 30.0, NodeKind.FUE: -100.0},
        noise_power_dbm=-100.0,
    )
    fading = FadingModel(FadingKind.RICIAN, 80.0)
    rate = spatial_average_rate(
        _bare_topology(), fading, budget, link_distance=1.0, interferer_density=0.0
    )
    assert rate == pytest.approx(1.0, abs=1e-6)


def test_spatial_average_rate_degrades_with_interferer_density():
    budget = LinkBudget()
    fading = FadingModel(FadingKind.RICIAN, 6.0)
    low = spatial_average_rate(_bare_topology(), fading, budget, interferer_density=1e-5)
    high = spatial_average_rate(_bare_topology(), fading, budget, interferer_density=1e-3)
    assert high < low


@pytest.mark.parametrize("snr_db", [-20.0, 0.0, 30.0, 68.0])
def test_spatial_average_rate_without_interferers_is_the_rayleigh_closed_form(snr_db):
    # E log2(1 + snr X), X ~ Exp(1), is exp(1/snr) E1(1/snr) / ln 2. The
    # signal is 20 dBm at 1 m with unit gain.
    exp1 = pytest.importorskip("scipy.special").exp1
    budget = LinkBudget(noise_power_dbm=20.0 - snr_db)
    snr = budget.tx_watts(NodeKind.FUE) * float(path_gain(1.0, budget)) / budget.noise_watts
    rate = spatial_average_rate(
        _bare_topology(), RAYLEIGH, budget, link_distance=1.0, interferer_density=0.0
    )
    exact = math.exp(1.0 / snr) * exp1(1.0 / snr) / math.log(2.0)
    assert rate == pytest.approx(exact, rel=1e-12)


RATE_CASES = {
    "1 km, Rayleigh": ((1000.0, 1000.0), RAYLEIGH, 5e-5),
    "1 km, K = 10 dB": ((1000.0, 1000.0), FadingModel(FadingKind.RICIAN, 10.0), 5e-5),
    "2 km, K = 6 dB, dense": ((2000.0, 2000.0), FadingModel(FadingKind.RICIAN, 6.0), 2.5e-4),
    "3 x 1 km, K = 3 dB": ((3000.0, 1000.0), FadingModel(FadingKind.RICIAN, 3.0), 5e-5),
    "1 x 3 km, K = 0 dB": ((1000.0, 3000.0), FadingModel(FadingKind.RICIAN, 0.0), 1e-5),
    "1.6 x 1 m": ((1.6, 1.0), RAYLEIGH, 0.3),
}


@pytest.mark.parametrize("half_sides", [(500.0, 500.0), (1500.0, 500.0), (500.0, 1500.0),
                                        (0.75, 0.25), (0.5, 0.5), (1.0, 700.0)])
def test_region_area_nodes_integrate_the_rectangle(half_sides):
    a, b = half_sides
    r, area = metrics_sim._region_area_nodes(a, b)
    assert area.sum() == pytest.approx(4.0 * a * b, rel=1e-13)
    assert r.max() < math.hypot(a, b) and (area > 0).all()


@pytest.mark.parametrize("case", sorted(RATE_CASES))
def test_spatial_average_rate_fourfold_quadrature_agrees(monkeypatch, case):
    (width, height), fading, density = RATE_CASES[case]
    budget = LinkBudget()

    def rate():
        return spatial_average_rate(
            _region_topology(width, height), fading, budget, interferer_density=density
        )

    coarse = rate()
    monkeypatch.setattr(metrics_sim, "AREA_NODES", 4 * metrics_sim.AREA_NODES)
    monkeypatch.setattr(metrics_sim, "Z_NODES", 4 * metrics_sim.Z_NODES)
    assert coarse == pytest.approx(rate(), rel=1e-10)


def test_spatial_average_rate_is_finite_at_extremes():
    rates = [
        spatial_average_rate(
            _region_topology(1.5, 0.5), RAYLEIGH, LinkBudget(), interferer_density=1.0
        ),
        spatial_average_rate(_region_topology(3000.0, 1000.0), RAYLEIGH, LinkBudget()),
    ]
    for tx, noise in ((-150.0, -100.0), (150.0, -250.0), (20.0, 100.0), (-300.0, -300.0)):
        budget = LinkBudget(
            tx_power_dbm={NodeKind.FAP: 30.0, NodeKind.FUE: tx}, noise_power_dbm=noise
        )
        for density in (0.0, 5e-5):
            rates.append(spatial_average_rate(
                _bare_topology(), FadingModel(FadingKind.RICIAN, 6.0), budget,
                interferer_density=density,
            ))
    assert all(math.isfinite(r) and r >= 0.0 for r in rates), rates


def test_spatial_average_rate_memory_is_bounded():
    # The (z, r) arrays of the default case: 512 z nodes by 96 radii,
    # 384 KiB each, and two of them at once.
    config = ScenarioConfig()
    spatial_average_rate(_bare_topology(), config.d2d_fading(), config.budget())  # node tables
    tracemalloc.start()
    try:
        spatial_average_rate(
            _bare_topology(), config.d2d_fading(), config.budget(),
            interferer_density=config.lambda_fue,
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("density", [5e-5, 1e-6])  # default; most trials empty
def test_mc_spatial_average_rate_does_not_depend_on_chunk_size(monkeypatch, density):
    budget = ScenarioConfig().budget()
    fading = ScenarioConfig().d2d_fading()
    rates = []
    for chunk in (1, 7, mc_oracle.CHUNK, 10**9):
        monkeypatch.setattr(mc_oracle, "CHUNK", chunk)
        rates.append(mc_spatial_average_rate(
            _bare_topology(), fading, budget, 400, derive_rng(9, "rate"),
            interferer_density=density,
        ))
    assert rates[1:] == rates[:-1]


def test_mc_spatial_average_rate_memory_is_bounded():
    config = ScenarioConfig()
    tracemalloc.start()
    try:
        mc_spatial_average_rate(
            _bare_topology(), config.d2d_fading(), config.budget(), 100_000,
            derive_rng(1, "rate"), interferer_density=config.lambda_fue,
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # About 5M interferers, whose uniforms alone take 120 MB if drawn at once.
    assert peak < 16 * 2**20


def _gauss_legendre(lo, hi, n):
    x, w = np.polynomial.legendre.leggauss(n)
    return lo + (hi - lo) * (x + 1.0) / 2.0, w * (hi - lo) / 2.0


def _rayleigh_rate(budget, density, half_side, link_distance):
    """E log2(1 + SINR) of a Rayleigh-faded link at the centre of a square
    of the given half side, against a PPP of Rayleigh-faded interferers
    with path gains clamped at 1 m: the integral over t of
    P(SINR > theta) = exp(-theta N / S) L_I(theta / S), theta = 2^t - 1,
    where log L_I(s) = -density * int_square s g / (1 + s g) dA
    (Andrews, Baccelli & Ganti, IEEE TCOM 2011; Haenggi, ch. 5)."""
    p_fue = budget.tx_watts(NodeKind.FUE)
    signal = p_fue * float(path_gain(link_distance, budget))
    nodes = [_gauss_legendre(lo, lo + 4.0, 64) for lo in np.arange(0.0, 48.0, 4.0)]
    t = np.concatenate([x for x, _ in nodes])
    t_weights = np.concatenate([w for _, w in nodes])
    s = (2.0 ** t - 1.0)[:, None] / signal
    # Area elements: the clamped unit disc; full circles in log r up to the
    # half side; then arcs inside the square, in r = a + (R - a) w^2 so the
    # square-root kink of the arc angle at r = a is smooth in w.
    v, v_weights = _gauss_legendre(0.0, math.log(half_side), 512)
    circle_r = np.exp(v)
    corner = half_side * math.sqrt(2.0)
    w, w_weights = _gauss_legendre(0.0, 1.0, 256)
    arc_r = half_side + (corner - half_side) * w * w
    arc_angle = 2.0 * math.pi - 8.0 * np.arccos(half_side / arc_r)
    r = np.concatenate([[1.0], circle_r, arc_r])
    area = np.concatenate([
        [math.pi],
        v_weights * 2.0 * math.pi * circle_r**2,
        w_weights * arc_angle * arc_r * 2.0 * (corner - half_side) * w,
    ])
    g = p_fue * path_gain(r, budget)
    log_laplace = -density * ((s * g / (1.0 + s * g)) @ area)
    return float(np.exp(log_laplace - s[:, 0] * budget.noise_watts) @ t_weights)


def test_spatial_average_rate_matches_rayleigh_laplace_oracle():
    # The oracle's own accuracy is about 1e-5 relative at the densest case.
    config = ScenarioConfig(d2d_k_factor_db=None)
    for density, half_side in ((5e-5, 500.0), (2.5e-4, 1000.0), (1e-3, 500.0)):
        rate = spatial_average_rate(
            _region_topology(2 * half_side, 2 * half_side), RAYLEIGH, config.budget(),
            link_distance=config.d2d_link_distance, interferer_density=density,
        )
        exact = _rayleigh_rate(config.budget(), density, half_side, config.d2d_link_distance)
        assert rate == pytest.approx(exact, rel=2e-5), (density, half_side)


# (region, fading, interferer density, trials); seeds derive_rng(27,
# "rate-oracle", i) for case i, fixed before the cases were first run.
MC_RATE_CASES = [
    ((1000.0, 1000.0), RAYLEIGH, 5e-5, 200_000),
    ((1000.0, 1000.0), FadingModel(FadingKind.RICIAN, 6.0), 5e-5, 200_000),
    ((1000.0, 1000.0), FadingModel(FadingKind.RICIAN, 10.0), 1e-3, 10_000),
    ((2000.0, 2000.0), FadingModel(FadingKind.RICIAN, 0.0), 2.5e-4, 10_000),
    ((3000.0, 1000.0), FadingModel(FadingKind.RICIAN, 3.0), 5e-5, 50_000),
    ((1000.0, 1000.0), RAYLEIGH, 1e-6, 200_000),
]


@pytest.mark.parametrize("i", range(len(MC_RATE_CASES)))
def test_spatial_average_rate_matches_monte_carlo_oracle(i):
    (width, height), fading, density, trials = MC_RATE_CASES[i]
    topology, budget = _region_topology(width, height), LinkBudget()
    mean, ci = mc_spatial_average_rate(
        topology, fading, budget, trials, derive_rng(27, "rate-oracle", i),
        interferer_density=density,
    )
    exact = spatial_average_rate(topology, fading, budget, interferer_density=density)
    assert abs(mean - exact) < 4.0 * ci / metrics_sim.Z_99


def test_sweep_single_point_equals_plain_run():
    results = sweep(FAST, "epsilon", [FAST.epsilon])
    assert len(results) == 1
    value, report = results[0]
    assert value == FAST.epsilon
    assert metrics_row(report) == metrics_row(run_scenario(FAST))


def test_sweep_unknown_parameter():
    with pytest.raises(UnknownParameter):
        sweep(FAST, "bandwidth", [1.0])


def test_sweep_empty_grid():
    with pytest.raises(ValueError):
        sweep(FAST, "epsilon", [])


def test_sweep_deterministic():
    a = sweep(FAST, "epsilon", [0.0, 0.5, 1.0])
    b = sweep(FAST, "epsilon", [0.0, 0.5, 1.0])
    assert [(v, metrics_row(r)) for v, r in a] == [(v, metrics_row(r)) for v, r in b]


def test_config_validation():
    with pytest.raises(ValueError):
        ScenarioConfig(d1=200.0, d2=100.0)
    with pytest.raises(ValueError):
        ScenarioConfig(epsilon=1.5)
    with pytest.raises(ValueError):
        ScenarioConfig(mc_trials=0)


# dense-ue's 2 km layout: 12 F-APs, about 1,000 F-UEs.
DENSE = dict(region_width=2000.0, region_height=2000.0, lambda_fap=3e-6, lambda_fue=2.5e-4)


def _d2d_layout(config):
    """A run's topology and D2D pairs; the capable F-UEs come from a stream
    of this test's own."""
    topology = metrics_sim._build_topology(config)
    capable = derive_rng(config.master_seed, "test-capable").random(len(topology.fues))
    return topology, pair_d2d(topology.fues, capable < config.d2d_fraction)


def _d2d_gains(topology, pairs, budget, link_distance=20.0):
    """(mean signal power, mean power of each interferer) at the centre."""
    p_fue = budget.tx_watts(NodeKind.FUE)
    centre = np.array([topology.region.width, topology.region.height]) / 2.0
    gap = topology.fues.positions[[i for i, _ in pairs]].reshape(-1, 2) - centre
    gains = p_fue * path_gain(np.hypot(gap[:, 0], gap[:, 1]), budget)
    return p_fue * float(path_gain(link_distance, budget)), gains


# (config overrides, K in dB or None for Rayleigh, threshold in dB, trials);
# each oracle stream is derive_rng(2028, "d2d-oracle", case).
D2D_CASES = {
    "1 km, Rayleigh, 20 dB": ({}, None, 20.0, 200_000),
    "1 km, K = 0 dB, 30 dB": ({}, 0.0, 30.0, 200_000),
    "1 km, K = 10 dB, 20 dB": ({}, 10.0, 20.0, 200_000),
    "1 km, K = 30 dB, 25 dB": ({}, 30.0, 25.0, 200_000),
    "2 km dense, K = 6 dB, 0 dB": (DENSE, 6.0, 0.0, 20_000),
    "2 km dense, K = 3 dB, 10 dB": (DENSE, 3.0, 10.0, 20_000),
}


@pytest.mark.parametrize("case", sorted(D2D_CASES))
def test_d2d_success_matches_monte_carlo_oracle(case):
    overrides, k_db, gamma_db, trials = D2D_CASES[case]
    config = ScenarioConfig(**overrides, d2d_k_factor_db=k_db, gamma_th_db=gamma_db)
    args = (*_d2d_layout(config), config.d2d_fading(), config.budget(), gamma_db)
    exact = d2d_success_probability(*args)
    estimate, _ = mc_d2d_success_probability(
        *args, trials, derive_rng(2028, "d2d-oracle", case)
    )
    assert 0.001 < exact < 0.999
    assert abs(estimate - exact) <= 4.0 * math.sqrt(exact * (1.0 - exact) / trials)


@pytest.mark.parametrize("gamma_db", [-10.0, 0.0, 10.0, 20.0])
@pytest.mark.parametrize("overrides", [{}, DENSE], ids=["1 km", "2 km dense"])
def test_d2d_success_rayleigh_is_the_closed_form(overrides, gamma_db):
    # P = exp(-a N) prod_k 1 / (1 + a g_k), a = theta / S_bar.
    config = ScenarioConfig(**overrides, d2d_k_factor_db=None)
    topology, pairs = _d2d_layout(config)
    budget = config.budget()
    signal, gains = _d2d_gains(topology, pairs, budget)
    a = db_to_linear(gamma_db) / signal
    closed = math.exp(-a * budget.noise_watts) * float(np.prod(1.0 / (1.0 + a * gains)))
    got = d2d_success_probability(topology, pairs, RAYLEIGH, budget, gamma_db)
    assert got == pytest.approx(closed, rel=1e-12)


def _noise_only_margins(budget, margins):
    """Thresholds in dB at which theta N / S_bar takes each given value."""
    signal, _ = _d2d_gains(_bare_topology(), [], budget)
    return [10.0 * math.log10(x * signal / budget.noise_watts) for x in margins]


@pytest.mark.parametrize("k_db", [0.0, 6.0, 20.0, 30.0])
def test_d2d_success_without_interferers_is_the_rician_tail(k_db):
    # P(X >= x) for unit-mean Rician X: 2 (1 + K) X is noncentral chi-square
    # with 2 degrees of freedom and noncentrality 2K. At 30 dB and x = 0.9,
    # T_0 = exp(-901) underflows, and only the rescaled recursion gets 0.989.
    ncx2 = pytest.importorskip("scipy.stats").ncx2
    budget = LinkBudget()
    k = db_to_linear(k_db)
    margins = [0.2, 0.5, 0.9, 0.99, 1.1, 1.5]
    for x, gamma_db in zip(margins, _noise_only_margins(budget, margins)):
        got = d2d_success_probability(
            _bare_topology(), [], FadingModel(FadingKind.RICIAN, k_db), budget, gamma_db
        )
        assert got == pytest.approx(ncx2.sf(2.0 * (1.0 + k) * x, 2, 2.0 * k), abs=1e-12)


def test_d2d_success_edge_cases():
    config = ScenarioConfig()
    topology, pairs = _d2d_layout(config)
    rician = config.d2d_fading()
    # No interferers, Rayleigh: exp(-theta N / S_bar).
    budget = LinkBudget()
    for x, gamma_db in zip((0.1, 2.0), _noise_only_margins(budget, (0.1, 2.0))):
        got = d2d_success_probability(_bare_topology(), [], RAYLEIGH, budget, gamma_db)
        assert got == pytest.approx(math.exp(-x), rel=1e-12)
    # No noise: -4000 dBm is 0 W. Rayleigh is prod_k 1 / (1 + a g_k); with
    # no interferers either, the SINR is infinite.
    silent = LinkBudget(noise_power_dbm=-4000.0)
    assert silent.noise_watts == 0.0
    signal, gains = _d2d_gains(topology, pairs, silent)
    a = db_to_linear(10.0) / signal
    assert d2d_success_probability(topology, pairs, RAYLEIGH, silent, 10.0) == pytest.approx(
        float(np.prod(1.0 / (1.0 + a * gains))), rel=1e-12
    )
    assert 0.0 < d2d_success_probability(topology, pairs, rician, silent, 10.0) < 1.0
    assert d2d_success_probability(_bare_topology(), [], rician, silent, 10.0) == 1.0
    # A signal power that underflows to 0 W never succeeds, with or without
    # noise, interferers and fading; nothing is NaN.
    for noise_dbm in (-100.0, -4000.0):
        mute = LinkBudget(
            tx_power_dbm={NodeKind.FAP: 30.0, NodeKind.FUE: -4000.0}, noise_power_dbm=noise_dbm
        )
        for fading in (RAYLEIGH, rician):
            assert d2d_success_probability(topology, pairs, fading, mute, 0.0) == 0.0
            assert d2d_success_probability(_bare_topology(), [], fading, mute, 0.0) == 0.0
    # A K-factor that underflows to 0 is Rayleigh; an unreachable threshold
    # gives 0, and one that underflows to 0 gives 1.
    budget = config.budget()
    tiny = FadingModel(FadingKind.RICIAN, -4000.0)
    assert d2d_success_probability(topology, pairs, tiny, budget, 0.0) == (
        d2d_success_probability(topology, pairs, RAYLEIGH, budget, 0.0)
    )
    for fading in (RAYLEIGH, rician):
        assert d2d_success_probability(topology, pairs, fading, budget, 400.0) == 0.0
        assert d2d_success_probability(topology, pairs, fading, budget, -4000.0) == 1.0


def test_d2d_success_at_the_k_factor_ceiling_finishes():
    config = ScenarioConfig(
        **DENSE, fap_capacity=200, mc_trials=200,
        d2d_k_factor_db=metrics_sim.K_FACTOR_DB_MAX,
    )
    with _time_limit(10.0, "a 1,000-F-UE run at the K-factor ceiling"):
        report = run_scenario(config)
    assert report.n_fues > 900 and report.n_d2d_pairs > 250
    assert 0.0 < report.d2d_success_probability <= 1.0
    with pytest.raises(ValueError, match="d2d_k_factor_db"):
        dataclasses.replace(config, d2d_k_factor_db=metrics_sim.K_FACTOR_DB_MAX + 0.1)


_WRONG_TYPES = [
    (key, (getattr(ScenarioConfig(), key).value, "bogus", None))
    for key in ("fap_topology", "cache_policy", "scheduler", "architecture")
] + [
    ("requests_per_fue", (2.5,)),
    ("n_subchannels", (16.5,)),
    ("mc_trials", (100.5,)),
    ("catalog_items", (100.5,)),
    ("fap_capacity", (2.5, True)),
    ("master_seed", (1.5,)),
    ("cooperative_caching", ("no", 1)),
    ("region_width", ("1000", False)),
]


@pytest.mark.parametrize(
    "key,values", [pytest.param(key, values, id=key) for key, values in _WRONG_TYPES]
)
def test_config_rejects_values_of_the_wrong_type(key, values):
    for value in values:
        with pytest.raises(ValueError, match=key):
            ScenarioConfig(**{key: value})


def test_config_accepts_ints_numpy_scalars_and_none():
    config = ScenarioConfig(
        region_width=1000, fap_capacity=np.int64(3), tau=np.float32(0.5),
        cooperative_caching=True, d2d_k_factor_db=None,
    )
    assert (config.region_width, config.fap_capacity) == (1000, 3)


def test_csv_headers_are_pinned():
    assert METRICS_COLUMNS == [
        "spatial_average_rate", "rate_ci", "cellular_success_probability",
        "cellular_ci", "d2d_success_probability", "d2d_ci", "fue_hit_ratio",
        "fap_hit_ratio", "energy_efficiency", "mean_cluster_size", "n_hpns", "n_faps",
        "n_fues", "n_d2d_pairs", "fronthaul_bits", "backhaul_bits",
        "bbu_processed_bits", "edge_processed_bits", "total_payload_bits",
    ]
    assert LEDGER_COLUMNS == [
        "request_index", "fue_id", "mode", "tier", "payload_bits", "fronthaul_bits",
        "backhaul_bits", "served_by",
    ]


def _relay_layouts():
    """Random layouts, then 10 m integer grids where hops tie D1 exactly."""
    for seed in range(6):
        rng = derive_rng(seed, "pair-relays", "random")
        yield rng, rng.uniform(0.0, 300.0, size=(int(rng.integers(10, 80)), 2))
    for seed in range(6):
        rng = derive_rng(seed, "pair-relays", "grid")
        yield rng, 10.0 * rng.integers(0, 20, size=(int(rng.integers(10, 80)), 2))


def _full_relay_flags(xy, pairs, relay_xy, th):
    """Per F-UE: whether any relay of the full list lies within D1 of both
    ends of its pair, whatever the pair's distance. The ends may count as
    relays here, but rule (3) reads the flag only for ends over D1 apart."""
    near = pairwise_distances(xy, relay_xy) <= th.d1
    full = np.zeros(len(xy), dtype=bool)
    for i, j in pairs:
        full[i] = full[j] = (near[i] & near[j]).any()
    return full


def test_pair_relays_give_select_mode_decisions_of_full_list():
    th = ScenarioConfig().thresholds()
    bridged = 0
    for rng, points in _relay_layouts():
        relay_xy = points[rng.random(len(points)) < 0.5]
        for _ in range(5):
            order = rng.permutation(len(points))
            pairs = list(zip(order[0::2].tolist(), order[1::2].tolist()))
            found = metrics_sim._pair_relays(points, pairs, relay_xy, th)
            full = _full_relay_flags(points, pairs, relay_xy, th)
            i, j = np.array(pairs + [(j, i) for i, j in pairs]).T
            d = pairwise_distances(points, points)[i, j]
            want, got = (
                select_mode(d, 0.0, 0.0, False, False, True, flags[i], True, th)
                for flags in (full, found)
            )
            assert (got == want).all()
            bridged += np.count_nonzero(want == MODES.index(Mode.FUE_RELAY))
    assert bridged > 50


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_run_relay_decisions_equal_full_relay_list(monkeypatch, seed):
    config = ScenarioConfig(
        region_width=500.0, region_height=500.0, lambda_fue=4e-4,
        d2d_fraction=1.0, relay_fraction=0.5, mc_trials=50, master_seed=seed,
    )
    full = []
    pair_relays = metrics_sim._pair_relays
    select = metrics_sim.select_mode

    def recording(xy, pairs, relay_xy, th):
        full[:] = [_full_relay_flags(xy, pairs, relay_xy, th)]
        return pair_relays(xy, pairs, relay_xy, th)

    decisions = []

    def checking(*args):
        *rest, relay, local_ok, thresholds = args
        got = select(*args)
        want = select(*rest, full[0][:, None], local_ok, thresholds)
        assert (got == want).all()
        decisions.append(got)
        return got

    monkeypatch.setattr(metrics_sim, "_pair_relays", recording)
    monkeypatch.setattr(metrics_sim, "select_mode", checking)
    run_scenario(config)
    assert full[0].any() and MODES.index(Mode.FUE_RELAY) in decisions[0]


def test_mode_decided_once_per_fue_and_content_case(monkeypatch):
    select_mode = metrics_sim.select_mode
    shapes = []

    def counting(*args):
        codes = select_mode(*args)
        shapes.append(codes.shape)
        return codes

    for architecture in Architecture:
        config = ScenarioConfig(master_seed=3, architecture=architecture)
        expected = run_scenario(config)
        shapes.clear()
        with monkeypatch.context() as patch:
            patch.setattr(metrics_sim, "select_mode", counting)
            report = run_scenario(config)
        # One call per run, on one (F-UE, content held locally or cloud-only) grid.
        assert shapes == [(report.n_fues, 2)]
        assert metrics_row(report) == metrics_row(expected)
        assert ledger_rows(report) == ledger_rows(expected)


@pytest.mark.parametrize(
    "parameter,grid",
    [
        ("epsilon", [0.2, 0.9]),
        ("k_factor_db", [0.0, 10.0]),
        ("lambda_d", [5e-5, 8e-5]),
        ("tau", [0.5, 2.0]),
        ("gamma_th", [-3.0, 3.0]),
        ("cache_capacity", [1, 3]),
    ],
)
def test_sweep_points_equal_lone_runs(parameter, grid):
    field_name = metrics_sim._SWEEPABLE[parameter]
    for value, report in sweep(FAST, parameter, grid):
        lone = run_scenario(dataclasses.replace(FAST, **{field_name: value}))
        assert metrics_row(report) == metrics_row(lone)
        assert ledger_rows(report) == ledger_rows(lone)


def test_sweep_grid_values_of_an_integer_key(monkeypatch):
    runs = []
    monkeypatch.setattr(metrics_sim, "run_scenario", runs.append)
    for bad in (2.7, float("nan"), float("inf")):
        with pytest.raises(metrics_sim.InvalidGridValue, match="cache_capacity"):
            sweep(FAST, "cache_capacity", [2, bad])
    assert runs == []
    assert [v for v, _ in sweep(FAST, "cache_capacity", [2.0, 3])] == [2, 3]
    assert [c.fue_cache_capacity for c in runs] == [2, 3]
    with pytest.raises(metrics_sim.InvalidGridValue, match="d2d_k_factor_db must be at most"):
        sweep(FAST, "k_factor_db", [0.0, 1000.0])
    assert len(runs) == 2
