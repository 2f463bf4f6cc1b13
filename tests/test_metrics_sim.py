import dataclasses
import math
import sys
import tracemalloc

import numpy as np
import pytest

from frangine.config import K_FACTOR_DB_MAX, Architecture, db_to_linear, path_gain
from frangine.geometry import (
    FapTopology,
    NetworkTopology,
    build_fap_adjacency,
    pair_d2d,
    pairwise_distances,
)
from frangine import geometry, metrics_sim
from frangine.metrics_sim import (
    LEDGER_COLUMNS,
    METRICS_COLUMNS,
    ScenarioConfig,
    UnknownParameter,
    d2d_success_probability,
    fronthaul_load,
    ledger_rows,
    metrics_row,
    run_scenario,
    spatial_average_rate,
    sweep,
)
from frangine.caching import ContentTier, EvictionPolicy
from frangine.coordination import (
    AccessTable,
    cellular_success_probability,
    coac_assign,
    make_d2d_links,
    served_fue_indices,
)
from frangine.mode_select import MODES, Mode, select_mode
from frangine.rng import derive_rng
import mc_oracle
from mc_oracle import mc_d2d_success_probability, mc_spatial_average_rate
from request_oracle import request_loop, serving_faps
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
    config = dataclasses.replace(FAST, lambda_fue=0.0)
    report = run_scenario(config)
    assert report.n_fues == 0
    assert report.load.total_payload_bits == 0.0
    assert report.load.fronthaul_bits == 0.0
    assert len(report.ledger) == 0 and ledger_rows(report) == []
    # A layout without F-UEs takes the same path as any other: the metrics
    # that need no F-UE are the layer functions' values on no D2D links.
    no_tx = np.empty((0, 2))
    assert report.n_d2d_pairs == 0 and report.energy_efficiency == 0.0
    assert report.spatial_average_rate == spatial_average_rate(config) > 0.0
    assert report.d2d_success_probability == d2d_success_probability(no_tx, config) > 0.0
    seed = config.master_seed
    cross_gains = make_d2d_links(no_tx, config, derive_rng(seed, "crossgains"))
    assert report.cellular_success_probability == cellular_success_probability(
        coac_assign(cross_gains, config), cross_gains, metrics_sim._build_topology(config).hpns,
        config, derive_rng(seed, "cellular"),
    )
    assert report.mean_cluster_size == 1.0  # with no F-UE served, no merge pays


def _run_tables(monkeypatch, config):
    """The report of a run and every `AccessTable` it builds."""
    tables = []

    def recording(*args):
        tables.append(AccessTable(*args))
        return tables[-1]

    monkeypatch.setattr(metrics_sim, "AccessTable", recording)
    return run_scenario(config), tables


def _run_layout(monkeypatch, faps, fues, config):
    """`_run_tables` on a hand layout: one HPN far off, the given F-APs
    tree-linked, and the given F-UEs."""
    faps = np.array(faps, dtype=float)
    layout = NetworkTopology(
        np.array([[100.0, 100.0]]), faps, np.array(fues, dtype=float),
        build_fap_adjacency(faps, FapTopology.TREE),
    )
    monkeypatch.setattr(metrics_sim, "_build_topology", lambda config: layout)
    return _run_tables(monkeypatch, config)


def test_clustering_table_serves_the_associated_fap(monkeypatch):
    """One F-UE 0.6 m from F-AP 0 and 0.3 m from F-AP 1: both gains sit at
    the 1 m clamp and tie, so association takes F-AP 0, the first of the
    stable order, and so does the clustering table, though F-AP 1 is
    nearer."""
    associated = []
    associate = metrics_sim.associate_fap

    def recording(gains, config):
        associated.append(associate(gains, config))
        return associated[-1]

    monkeypatch.setattr(metrics_sim, "associate_fap", recording)
    report, (table,) = _run_layout(
        monkeypatch, [[500.6, 500.0], [499.7, 500.0]], [[500.0, 500.0]],
        ScenarioConfig(mc_trials=10),
    )
    assert report.n_fues == 1 and table.gains[0, 0] == table.gains[0, 1]
    assert associated[0].tolist() == [0] and table.serving.tolist() == [0]


# Two F-APs 200 m apart and F-UEs 50, 60 and 70 m from F-AP 0: F-AP 0 is
# every F-UE's nearest and strongest.
FULL_FAPS = [[400.0, 500.0], [600.0, 500.0]]
FULL_FUES = [[450.0, 500.0], [460.0, 500.0], [470.0, 500.0]]


def test_fue_past_a_full_fap_counts_toward_its_serving_block(monkeypatch):
    # One free block per F-AP: F-UE 0 takes F-AP 0's, so F-UE 1 falls back
    # to F-AP 1 and counts toward F-AP 1's block, not its nearest F-AP's.
    _, (table,) = _run_layout(
        monkeypatch, FULL_FAPS, FULL_FUES[:2], ScenarioConfig(mc_trials=10, fap_capacity=1)
    )
    assert table.serving.tolist() == [0, 1]
    assert served_fue_indices((0,), table).tolist() == [0]
    assert served_fue_indices((1,), table).tolist() == [1]
    assert table.success_probabilities((1,)).shape == (1,)


def test_unadmitted_fue_counts_toward_no_block(monkeypatch):
    # Both F-APs full after two admissions: F-UE 2 is served by none (-1),
    # and is in no block, not even one holding the last F-AP, which -1
    # would index in a mask with one slot per F-AP.
    _, (table,) = _run_layout(
        monkeypatch, FULL_FAPS, FULL_FUES, ScenarioConfig(mc_trials=10, fap_capacity=1)
    )
    assert table.serving.tolist() == [0, 1, -1]
    for block, served in (((0,), [0]), ((1,), [1]), ((0, 1), [0, 1])):
        assert served_fue_indices(block, table).tolist() == served
        assert table.success_probabilities(block).shape == (len(served),)


@pytest.mark.parametrize("topology", list(FapTopology))
def test_clustering_table_equals_the_positions_built_one(monkeypatch, topology):
    # The oracle table serves each F-UE where `mc_oracle.associate` puts it.
    unadmitted = 0
    for seed in range(1, 5):
        for overrides in ({}, {"lambda_fue": 2e-4}, {"interference_limit": 3e-10}):
            config = ScenarioConfig(
                fap_topology=topology, master_seed=seed, mc_trials=10, **overrides
            )
            _, (table,) = _run_tables(monkeypatch, config)
            layout = metrics_sim._build_topology(config)
            want = mc_oracle.access_table(layout.faps, layout.fues, config)
            assert table.gains.tobytes() == want.gains.tobytes()
            assert table.serving.tobytes() == want.serving.tobytes()
            assert (table.noise_watts, table.theta) == (want.noise_watts, want.theta)
            unadmitted += int(np.count_nonzero(want.serving < 0))
    assert unadmitted > 0


def test_run_builds_one_fue_by_fap_distance_matrix(monkeypatch):
    """Association, local coordination and clustering share one matrix."""
    shapes = []
    original = geometry.pairwise_distances

    def counting(a, b):
        shapes.append((len(a), len(b)))
        return original(a, b)

    for module in [m for name, m in sys.modules.items() if name.startswith("frangine")]:
        for name, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, name, counting)
    report = run_scenario(ScenarioConfig())
    assert report.n_fues > 1 and report.n_faps > 1 and report.n_d2d_pairs > 1
    assert shapes.count((report.n_fues, report.n_faps)) == 1


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
    columns = list(zip(*ledger_rows(report)))
    for column, total in (
        ("fronthaul_bits", report.load.fronthaul_bits),
        ("backhaul_bits", report.load.backhaul_bits),
        ("payload_bits", report.load.total_payload_bits),
    ):
        assert sum(columns[LEDGER_COLUMNS.index(column)]) == pytest.approx(total)


def test_ledger_holds_at_most_32_bytes_per_request():
    # The 1 km default at 2,000 requests per F-UE: about 112,000 requests.
    config = ScenarioConfig(requests_per_fue=2000)
    tracemalloc.start()
    try:
        report = run_scenario(config)
        requests = len(report.ledger)
        held, _ = tracemalloc.get_traced_memory()
        report.ledger = None
        released, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert requests == report.n_fues * config.requests_per_fue > 100_000
    assert (held - released) / requests <= 32


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


PAYLOAD_100 = ScenarioConfig(payload_bits=100.0, iq_expansion_factor=16.0)


def test_fronthaul_load_single_rule_cases():
    modes, tiers = _codes([Mode.GLOBAL_CRAN] * 4, [ContentTier.CLOUD_ONLY] * 4)
    report, ledger = fronthaul_load(np.zeros(4, int), modes, tiers, PAYLOAD_100)
    assert report.fronthaul_bits == pytest.approx(4 * 100.0 * 16.0)
    assert report.conserved()
    modes, tiers = _codes([Mode.D2D] * 3, [ContentTier.CLOUD_ONLY] * 3)
    report, _ = fronthaul_load(np.zeros(3, int), modes, tiers, PAYLOAD_100)
    assert report.fronthaul_bits == 0.0
    assert report.edge_processed_bits == pytest.approx(300.0)


def test_fronthaul_local_coordination_miss_fetches_once():
    report, _ = fronthaul_load(
        [0], *_codes([Mode.LOCAL_COORDINATION], [ContentTier.CLOUD_ONLY]), PAYLOAD_100
    )
    assert report.fronthaul_bits == pytest.approx(100.0)
    report, _ = fronthaul_load(
        [0], *_codes([Mode.LOCAL_COORDINATION], [ContentTier.AT_FAP]), PAYLOAD_100
    )
    assert report.fronthaul_bits == 0.0


def test_fronthaul_load_totals_add_left_to_right():
    # 0.1-bit payloads over 10^4 requests: numpy's pairwise np.sum rounds
    # these totals differently from a left-to-right loop.
    n = 10_000
    rng = np.random.default_rng(4)
    modes = rng.choice([Mode.GLOBAL_CRAN, Mode.HPN, Mode.LOCAL_COORDINATION, Mode.D2D], n)
    tiers = rng.choice(list(ContentTier), n)
    report, ledger = fronthaul_load(
        np.arange(n), *_codes(modes, tiers), ScenarioConfig(payload_bits=0.1)
    )
    rows = ledger_rows(metrics_sim.MetricsReport(ledger=ledger))
    ledger = [dict(zip(LEDGER_COLUMNS, row)) for row in rows]

    def loop_sum(values):
        total = 0.0
        for v in values:
            total += v
        return total

    assert loop_sum([0.1] * n) != float(np.sum(np.full(n, 0.1)))
    assert report.total_payload_bits == loop_sum(r["payload_bits"] for r in ledger)
    assert report.fronthaul_bits == loop_sum(r["fronthaul_bits"] for r in ledger)
    assert report.backhaul_bits == loop_sum(r["backhaul_bits"] for r in ledger)
    for served in ("bbu", "edge", "hpn"):
        assert getattr(report, f"payload_{served}_bits") == loop_sum(
            r["payload_bits"] for r in ledger if r["served_by"] == served
        )
    assert report.edge_processed_bits == loop_sum(
        r["payload_bits"] for r in ledger if r["served_by"] == "edge"
    )
    assert report.bbu_processed_bits == loop_sum(
        r["fronthaul_bits"] for r in ledger if r["served_by"] == "bbu"
    )
    assert report.fronthaul_bits != float(np.sum([r["fronthaul_bits"] for r in ledger]))


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
    assert repr(ledger_rows(report)) == repr(oracle.ledger)


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
    assert repr(ledger_rows(report)) == repr(oracle.ledger)


def test_request_pipeline_covers_unadmitted_fues_and_no_warmup():
    configs = [_pipeline_config(case) for case in range(18)]
    assert any(c.warmup_requests == 0 for c in configs)
    assert any(c.requests_per_fue == 0 for c in configs)
    assert any(c.interference_limit < math.inf for c in configs)
    unadmitted = 0
    for config in configs:
        topology = metrics_sim._build_topology(config)
        unadmitted += int(np.count_nonzero(serving_faps(topology, config) < 0))
    assert unadmitted > 0


def _cooperative_config(case: int) -> ScenarioConfig:
    """Random configs whose requests ask linked F-AP caches: every policy,
    F-AP caches of one item, of the whole catalog and above it, and mesh
    and tree links over more F-APs than `_pipeline_config` places."""
    rng = np.random.default_rng([2033, case])
    catalog = int(rng.integers(2, 30))
    return dataclasses.replace(
        _pipeline_config(case),
        lambda_fap=float(rng.uniform(3e-5, 8e-5)),
        fap_topology=list(FapTopology)[case // 12 % 2],
        cache_policy=list(EvictionPolicy)[case % 3],
        cooperative_caching=True,
        catalog_items=catalog,
        fap_cache_capacity=[1, 2, catalog, catalog + 5][case // 3 % 4],
        warmup_requests=int(rng.choice([0, 2, 5])),
        requests_per_fue=int(rng.choice([1, 4, 9])),
    )


@pytest.mark.parametrize("case", range(24))
def test_cooperative_caches_equal_the_request_loop(case):
    config = _cooperative_config(case)
    report = run_scenario(config)
    oracle = request_loop(config)
    assert report.n_fues > 0 and report.n_faps > 1
    assert report.fue_hit_ratio == oracle.fue_hit_ratio
    assert report.fap_hit_ratio == oracle.fap_hit_ratio
    assert repr(vars(report.load)) == repr(vars(oracle.load))
    assert repr(ledger_rows(report)) == repr(oracle.ledger)


def _hand_tiers(monkeypatch, config, serving, neighbors, warm, traffic):
    """`_content_tiers` over the given warm-up and traffic item arrays."""
    draws = iter((np.array(warm, dtype=np.int64), np.array(traffic, dtype=np.int64)))
    monkeypatch.setattr(metrics_sim, "zipf_stream", lambda catalog, shape, rng: next(draws))
    return metrics_sim._content_tiers(config, np.array(serving, dtype=np.intp), neighbors)


HAND_CACHES = ScenarioConfig(
    cache_policy=EvictionPolicy.LRU, fue_cache_capacity=1, fap_cache_capacity=1,
    cooperative_caching=True, warmup_requests=0, requests_per_fue=2,
)


def test_cooperative_lookup_hand_trace(monkeypatch):
    """F-APs 0 and 1 are linked, and so are 0 and 2, which admits no F-UE.
    F-AP 1 serves F-UEs 0 and 2, so F-UE 1 asks it after its first 2
    requests and F-UE 3 after 4. Item 8 is inserted at F-AP 1's step 1,
    evicted at step 2 and inserted again at step 3: both lookups find it.
    Item 7, evicted at step 1 and inserted again at step 2, is not there
    after 2 requests. F-UE 2 finds 7 at F-AP 0 after F-UE 1's requests."""
    serving = [1, 0, 1, 0, -1]
    traffic = [[7, 8], [8, 7], [7, 8], [8, 7], [8, 8]]
    fue, fap, cloud = (metrics_sim.TIERS.index(t) for t in ContentTier)
    tiers, fue_ratio, fap_ratio = _hand_tiers(
        monkeypatch, HAND_CACHES, serving, [[1, 2], [0], [0]], np.zeros((5, 0)), traffic
    )
    assert tiers.tolist() == [
        [cloud, cloud], [fap, cloud], [fap, cloud], [fap, cloud], [cloud, fue],
    ]
    assert (fue_ratio, fap_ratio) == (1 / 10, 0 / 8)
    # Without cooperation only the F-UE cache hit is local.
    tiers, _, _ = _hand_tiers(
        monkeypatch, dataclasses.replace(HAND_CACHES, cooperative_caching=False), serving,
        [[1, 2], [0], [0]], np.zeros((5, 0)), traffic,
    )
    assert tiers.tolist() == [[cloud, cloud]] * 4 + [[cloud, fue]]


def test_cooperative_lookup_counts_warmups_and_empty_traffic(monkeypatch):
    # F-AP 1 serves warm-ups 5 (F-UE 0) and 6 (F-UE 2), then F-UE 0's
    # traffic: F-UE 1 asks it after 2 + 2 requests and finds 9, not 6.
    config = dataclasses.replace(HAND_CACHES, warmup_requests=1)
    fue, fap, cloud = (metrics_sim.TIERS.index(t) for t in ContentTier)
    tiers, _, _ = _hand_tiers(
        monkeypatch, config, [1, 0, 1], [[1], [0]], [[5], [3], [6]], [[4, 9], [9, 6], [2, 2]]
    )
    assert tiers.tolist() == [[cloud, cloud], [fap, cloud], [cloud, fue]]
    tiers, fue_ratio, fap_ratio = _hand_tiers(
        monkeypatch, dataclasses.replace(config, requests_per_fue=0), [1, 0, 1], [[1], [0]],
        [[5], [3], [6]], np.zeros((3, 0)),
    )
    assert tiers.shape == (3, 0) and (fue_ratio, fap_ratio) == (0.0, 0.0)


def test_content_tiers_allocate_for_the_requests_not_the_capacities():
    config = dataclasses.replace(
        _cooperative_config(1), fue_cache_capacity=10**12, fap_cache_capacity=10**12
    )
    topology = metrics_sim._build_topology(config)
    serving = serving_faps(topology, config)
    requests = len(serving) * (config.warmup_requests + config.requests_per_fue)
    tracemalloc.start()
    try:
        metrics_sim._content_tiers(config, serving, topology.fap_neighbors())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0 < requests and peak < 2000 * requests + 100_000


class _HandAttributes:
    """A stand-in for the "ue_attrs" generator: the given speeds, then the
    given uniforms for D2D capability, relay willingness and voice."""

    def __init__(self, speeds, *uniforms):
        self.speeds, self.uniforms = np.array(speeds), iter(map(np.array, uniforms))

    def exponential(self, mean, size):
        return self.speeds

    def random(self, size):
        return next(self.uniforms)


@pytest.mark.parametrize(
    "partner_speed, partner_voice, fran, hcran",
    [
        (1.0, True, Mode.HPN, Mode.GLOBAL_CRAN),  # H-CRAN does not read the partner's voice
        (20.0, False, Mode.HPN, Mode.HPN),  # both read the partner's speed
        (1.0, False, Mode.D2D, Mode.GLOBAL_CRAN),
    ],
)
def test_hcran_gate_reads_the_partners_speed_but_not_its_voice(
    monkeypatch, partner_speed, partner_voice, fran, hcran
):
    """Two D2D-capable F-UEs 10 m apart beside one F-AP: F-UE 0 is slow and
    not on voice, and its partner, F-UE 1, has the given speed and voice."""
    topology = NetworkTopology(
        hpns=np.array([[100.0, 100.0]]),
        faps=np.array([[500.0, 500.0]]),
        fues=np.array([[500.0, 510.0], [500.0, 520.0]]),
    )
    monkeypatch.setattr(metrics_sim, "_build_topology", lambda config: topology)
    derive = metrics_sim.derive_rng
    modes = {}
    for architecture in (Architecture.FRAN, Architecture.HCRAN):
        attributes = _HandAttributes(
            [1.0, partner_speed], [0.0, 0.0], [0.99, 0.99], [0.99, 0.0 if partner_voice else 0.99]
        )
        monkeypatch.setattr(
            metrics_sim, "derive_rng",
            lambda seed, *tags: attributes if tags == ("ue_attrs",) else derive(seed, *tags),
        )
        report = run_scenario(ScenarioConfig(architecture=architecture, mc_trials=10))
        assert report.n_d2d_pairs == 1
        modes[architecture] = {Mode(row[2]) for row in ledger_rows(report) if row[1] == 0}
    assert modes == {Architecture.FRAN: {fran}, Architecture.HCRAN: {hcran}}


def _rate_config(width=1000.0, height=1000.0, lambda_fue=0.0, k_db=None, **keys):
    """A region, its D2D interferer density and the D2D link's K-factor in
    dB (None: Rayleigh), as the spatial average rate reads them."""
    return ScenarioConfig(region_width=width, region_height=height, lambda_fue=lambda_fue,
                          d2d_k_factor_db=k_db, **keys)


def test_spatial_average_rate_no_fading_snr_one():
    # The D2D transmit power equals the noise at the 1 m reference distance,
    # so the mean SNR is 1. Against the rate over the Rician law: 2 (1 + K)
    # X is noncentral chi-square with 2 degrees of freedom and noncentrality
    # 2K, for unit-mean X. At the K-factor ceiling the rate is nearly the
    # unfaded log2(2) = 1.
    stats = pytest.importorskip("scipy.stats")
    integrate = pytest.importorskip("scipy.integrate")
    k_db = K_FACTOR_DB_MAX
    config = _rate_config(k_db=k_db, tx_power_fue_dbm=-100.0, noise_power_dbm=-100.0,
                          d2d_link_distance=1.0)
    k = db_to_linear(k_db)
    law = stats.ncx2(2, 2.0 * k, scale=1.0 / (2.0 * (1.0 + k)))
    exact, _ = integrate.quad(lambda x: math.log2(1.0 + x) * law.pdf(x), 0.0, 3.0,
                              points=[1.0], epsabs=1e-14, epsrel=1e-13, limit=200)
    rate = spatial_average_rate(config)
    assert rate == pytest.approx(exact, rel=1e-12)
    assert rate == pytest.approx(1.0, abs=1e-3)


@pytest.mark.parametrize(
    "keys,rate",
    [
        ({}, 21.742682291482126),
        ({"k_db": 6.0}, 22.257705104800795),
        ({"k_db": K_FACTOR_DB_MAX}, 22.57398301621855),
        ({"width": 1.5, "height": 0.5, "d2d_link_distance": 1.0}, 39.0303909614119),
        ({"k_db": 6.0, "noise_power_dbm": -300.0}, 88.69626631833893),
    ],
)
def test_spatial_average_rate_at_zero_density_is_pinned(keys, rate):
    # With no interferer the density term subtracts 0.0 from each log
    # integrand, so the rate keeps every bit of the interference-free
    # integral; these are its values.
    assert spatial_average_rate(_rate_config(**keys)) == rate


def test_spatial_average_rate_degrades_with_interferer_density():
    low = spatial_average_rate(_rate_config(lambda_fue=1e-5, k_db=6.0))
    high = spatial_average_rate(_rate_config(lambda_fue=1e-3, k_db=6.0))
    assert high < low


@pytest.mark.parametrize("snr_db", [-20.0, 0.0, 30.0, 68.0])
def test_spatial_average_rate_without_interferers_is_the_rayleigh_closed_form(snr_db):
    # E log2(1 + snr X), X ~ Exp(1), is exp(1/snr) E1(1/snr) / ln 2. The
    # signal is 20 dBm at 1 m with unit gain.
    exp1 = pytest.importorskip("scipy.special").exp1
    config = _rate_config(noise_power_dbm=20.0 - snr_db, d2d_link_distance=1.0)
    snr = config.fue_watts * float(path_gain(1.0, config)) / config.noise_watts
    rate = spatial_average_rate(config)
    exact = math.exp(1.0 / snr) * exp1(1.0 / snr) / math.log(2.0)
    assert rate == pytest.approx(exact, rel=1e-12)


# (region sides, K in dB or None for Rayleigh, density, D2D link distance):
# a link is at most the region diagonal.
RATE_CASES = {
    "1 km, Rayleigh": ((1000.0, 1000.0), None, 5e-5, 20.0),
    "1 km, K = 10 dB": ((1000.0, 1000.0), 10.0, 5e-5, 20.0),
    "2 km, K = 6 dB, dense": ((2000.0, 2000.0), 6.0, 2.5e-4, 20.0),
    "3 x 1 km, K = 3 dB": ((3000.0, 1000.0), 3.0, 5e-5, 20.0),
    "1 x 3 km, K = 0 dB": ((1000.0, 3000.0), 0.0, 1e-5, 20.0),
    "1.6 x 1 m": ((1.6, 1.0), None, 0.3, 1.0),
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
    (width, height), k_db, density, link = RATE_CASES[case]
    config = _rate_config(width, height, density, k_db, d2d_link_distance=link)
    coarse = spatial_average_rate(config)
    monkeypatch.setattr(metrics_sim, "AREA_NODES", 4 * metrics_sim.AREA_NODES)
    monkeypatch.setattr(metrics_sim, "Z_NODES", 4 * metrics_sim.Z_NODES)
    assert coarse == pytest.approx(spatial_average_rate(config), rel=1e-10)


def test_spatial_average_rate_is_finite_at_extremes():
    rates = [
        spatial_average_rate(_rate_config(1.5, 0.5, 1.0, d2d_link_distance=1.0)),
        spatial_average_rate(_rate_config(3000.0, 1000.0)),
    ]
    for tx, noise in ((-150.0, -100.0), (150.0, -250.0), (20.0, 100.0), (-300.0, -300.0)):
        for density in (0.0, 5e-5):
            rates.append(spatial_average_rate(_rate_config(
                lambda_fue=density, k_db=6.0, tx_power_fue_dbm=tx, noise_power_dbm=noise
            )))
    assert all(math.isfinite(r) and r >= 0.0 for r in rates), rates


def test_spatial_average_rate_memory_is_bounded():
    # The (z, r) arrays of the default case: 512 z nodes by 96 radii,
    # 384 KiB each, and two of them at once.
    config = ScenarioConfig()
    spatial_average_rate(ScenarioConfig(lambda_fue=0.0))  # node tables
    tracemalloc.start()
    try:
        spatial_average_rate(config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("density", [5e-5, 1e-6])  # default; most trials empty
def test_mc_spatial_average_rate_does_not_depend_on_chunk_size(monkeypatch, density):
    config = ScenarioConfig(lambda_fue=density)
    rates = []
    for chunk in (1, 7, mc_oracle.CHUNK, 10**9):
        monkeypatch.setattr(mc_oracle, "CHUNK", chunk)
        rates.append(mc_spatial_average_rate(config, 400, derive_rng(9, "rate")))
    assert rates[1:] == rates[:-1]


def test_mc_spatial_average_rate_memory_is_bounded():
    config = ScenarioConfig()
    tracemalloc.start()
    try:
        mc_spatial_average_rate(config, 100_000, derive_rng(1, "rate"))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # About 5M interferers, whose uniforms alone take 120 MB if drawn at once.
    assert peak < 16 * 2**20


def _gauss_legendre(lo, hi, n):
    x, w = np.polynomial.legendre.leggauss(n)
    return lo + (hi - lo) * (x + 1.0) / 2.0, w * (hi - lo) / 2.0


def _rayleigh_rate(config, half_side):
    """E log2(1 + SINR) of a Rayleigh-faded link at the centre of a square
    of the given half side, against a PPP of Rayleigh-faded interferers
    at the F-UE density, with path gains clamped at 1 m: the integral over
    t of P(SINR > theta) = exp(-theta N / S) L_I(theta / S), theta = 2^t - 1,
    where log L_I(s) = -density * int_square s g / (1 + s g) dA
    (Andrews, Baccelli & Ganti, IEEE TCOM 2011; Haenggi, ch. 5)."""
    p_fue = config.fue_watts
    signal = p_fue * float(path_gain(config.d2d_link_distance, config))
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
    g = p_fue * path_gain(r, config)
    log_laplace = -config.lambda_fue * ((s * g / (1.0 + s * g)) @ area)
    return float(np.exp(log_laplace - s[:, 0] * config.noise_watts) @ t_weights)


def test_spatial_average_rate_matches_rayleigh_laplace_oracle():
    # The oracle's own accuracy is about 1e-5 relative at the densest case.
    for density, half_side in ((5e-5, 500.0), (2.5e-4, 1000.0), (1e-3, 500.0)):
        config = _rate_config(2 * half_side, 2 * half_side, density)
        rate = spatial_average_rate(config)
        exact = _rayleigh_rate(config, half_side)
        assert rate == pytest.approx(exact, rel=2e-5), (density, half_side)


# (region, K in dB or None for Rayleigh, interferer density, trials); seeds
# derive_rng(27, "rate-oracle", i) for case i, fixed before the cases were
# first run.
MC_RATE_CASES = [
    ((1000.0, 1000.0), None, 5e-5, 200_000),
    ((1000.0, 1000.0), 6.0, 5e-5, 200_000),
    ((1000.0, 1000.0), 10.0, 1e-3, 10_000),
    ((2000.0, 2000.0), 0.0, 2.5e-4, 10_000),
    ((3000.0, 1000.0), 3.0, 5e-5, 50_000),
    ((1000.0, 1000.0), None, 1e-6, 200_000),
]


@pytest.mark.parametrize("i", range(len(MC_RATE_CASES)))
def test_spatial_average_rate_matches_monte_carlo_oracle(i):
    (width, height), k_db, density, trials = MC_RATE_CASES[i]
    config = _rate_config(width, height, density, k_db)
    mean, ci = mc_spatial_average_rate(config, trials, derive_rng(27, "rate-oracle", i))
    exact = spatial_average_rate(config)
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


def test_config_bounds_tau_by_the_cluster_power():
    # At 1 km the size ceiling expects 10 F-APs, whose cluster power is
    # 155 W: 155^141 overflows. A lone F-AP at 0.01 W underflows: 0.01^200.
    with pytest.raises(ValueError, match="tau"):
        ScenarioConfig(tau=141.0)
    with pytest.raises(ValueError, match="tau"):
        ScenarioConfig(p_static=0.01, p_tx=0.0, tau=200.0)
    for config in (ScenarioConfig(tau=140.0), ScenarioConfig(p_static=0.01, p_tx=0.0, tau=150.0)):
        report = run_scenario(config)
        assert report.mean_cluster_size >= 1.0 and math.isfinite(report.energy_efficiency)


def test_config_bounds_the_path_loss_exponent_by_the_weakest_gain():
    # 0.1 W F-UEs across the 1,414 m diagonal of 1 km: 0.1 x 1414^-alpha
    # passes the smallest normal double between alpha = 97.3 and 97.4.
    with pytest.raises(ValueError, match="path_loss_exponent"):
        ScenarioConfig(path_loss_exponent=97.4)
    report = run_scenario(ScenarioConfig(path_loss_exponent=97.3))
    assert report.n_fues > 0
    assert all(math.isfinite(v) for v in metrics_row(report))


# dense-ue's 2 km layout: 12 F-APs, about 1,000 F-UEs.
DENSE = dict(region_width=2000.0, region_height=2000.0, lambda_fap=3e-6, lambda_fue=2.5e-4)


def _d2d_layout(config):
    """The D2D transmitters of a run's layout: the first F-UE of each pair.
    The capable F-UEs come from a stream of this test's own."""
    fues = metrics_sim._build_topology(config).fues
    capable = derive_rng(config.master_seed, "test-capable").random(len(fues))
    return fues[pair_d2d(fues, capable < config.d2d_fraction)[:, 0]]


NO_TX = np.empty((0, 2))


def _d2d_gains(tx_xy, config):
    """(mean signal power, mean power of each interferer) at the centre."""
    p_fue = config.fue_watts
    centre = np.array([config.region_width, config.region_height]) / 2.0
    gap = tx_xy - centre
    gains = p_fue * path_gain(np.hypot(gap[:, 0], gap[:, 1]), config)
    return p_fue * float(path_gain(config.d2d_link_distance, config)), gains


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
    tx_xy = _d2d_layout(config)
    exact = d2d_success_probability(tx_xy, config)
    estimate, _ = mc_d2d_success_probability(
        tx_xy, config, trials, derive_rng(2028, "d2d-oracle", case)
    )
    assert 0.001 < exact < 0.999
    assert abs(estimate - exact) <= 4.0 * math.sqrt(exact * (1.0 - exact) / trials)


def _d2d_success(tx_xy, config, **keys):
    """d2d_success_probability with the given config keys replaced."""
    return d2d_success_probability(tx_xy, dataclasses.replace(config, **keys))


@pytest.mark.parametrize("gamma_db", [-10.0, 0.0, 10.0, 20.0])
@pytest.mark.parametrize("overrides", [{}, DENSE], ids=["1 km", "2 km dense"])
def test_d2d_success_rayleigh_is_the_closed_form(overrides, gamma_db):
    # P = exp(-a N) prod_k 1 / (1 + a g_k), a = theta / S_bar.
    config = ScenarioConfig(**overrides, d2d_k_factor_db=None)
    tx_xy = _d2d_layout(config)
    signal, gains = _d2d_gains(tx_xy, config)
    a = db_to_linear(gamma_db) / signal
    closed = math.exp(-a * config.noise_watts) * float(np.prod(1.0 / (1.0 + a * gains)))
    got = _d2d_success(tx_xy, config, gamma_th_db=gamma_db)
    assert got == pytest.approx(closed, rel=1e-12)


def _noise_only_margins(config, margins):
    """Thresholds in dB at which theta N / S_bar takes each given value."""
    signal, _ = _d2d_gains(NO_TX, config)
    return [10.0 * math.log10(x * signal / config.noise_watts) for x in margins]


@pytest.mark.parametrize("k_db", [0.0, 6.0, 20.0, 30.0])
def test_d2d_success_without_interferers_is_the_rician_tail(k_db):
    # P(X >= x) for unit-mean Rician X: 2 (1 + K) X is noncentral chi-square
    # with 2 degrees of freedom and noncentrality 2K. At 30 dB and x = 0.9,
    # T_0 = exp(-901) underflows, and only the rescaled recursion gets 0.989.
    ncx2 = pytest.importorskip("scipy.stats").ncx2
    config = ScenarioConfig(d2d_k_factor_db=k_db)
    k = db_to_linear(k_db)
    margins = [0.2, 0.5, 0.9, 0.99, 1.1, 1.5]
    for x, gamma_db in zip(margins, _noise_only_margins(config, margins)):
        got = _d2d_success(NO_TX, config, gamma_th_db=gamma_db)
        assert got == pytest.approx(ncx2.sf(2.0 * (1.0 + k) * x, 2, 2.0 * k), abs=1e-12)


def test_d2d_success_edge_cases():
    config = ScenarioConfig()
    rayleigh = ScenarioConfig(d2d_k_factor_db=None)
    tx_xy = _d2d_layout(config)
    # No interferers, Rayleigh: exp(-theta N / S_bar).
    for x, gamma_db in zip((0.1, 2.0), _noise_only_margins(rayleigh, (0.1, 2.0))):
        got = _d2d_success(NO_TX, rayleigh, gamma_th_db=gamma_db)
        assert got == pytest.approx(math.exp(-x), rel=1e-12)
    # The least noise a config takes, -300 dBm, is 1e-33 W. Rayleigh is then
    # prod_k 1 / (1 + a g_k) to double precision; with no interferers
    # either, success is certain.
    silent = ScenarioConfig(noise_power_dbm=-300.0, gamma_th_db=10.0)
    signal, gains = _d2d_gains(tx_xy, silent)
    a = db_to_linear(10.0) / signal
    assert _d2d_success(tx_xy, silent, d2d_k_factor_db=None) == pytest.approx(
        float(np.prod(1.0 / (1.0 + a * gains))), rel=1e-12
    )
    assert 0.0 < d2d_success_probability(tx_xy, silent) < 1.0
    assert d2d_success_probability(NO_TX, silent) == 1.0
    # A link longer than the region diagonal is rejected, such as the 1e300 m
    # one whose signal power underflowed to 0 W. At the diagonal itself the
    # signal is a normal double, with or without noise, interferers and
    # fading, and success is a probability.
    diagonal = math.hypot(config.region_width, config.region_height)
    for link in (1e300, math.nextafter(diagonal, math.inf)):
        with pytest.raises(ValueError, match="d2d_link_distance must be at most"):
            ScenarioConfig(d2d_link_distance=link)
    for noise_dbm in (-100.0, -300.0):
        for k_db in (None, 6.0):
            far = ScenarioConfig(
                d2d_link_distance=diagonal, noise_power_dbm=noise_dbm, d2d_k_factor_db=k_db
            )
            assert _d2d_gains(NO_TX, far)[0] >= sys.float_info.min
            assert 0.0 <= d2d_success_probability(tx_xy, far) <= 1.0
            assert 0.0 < d2d_success_probability(NO_TX, far) <= 1.0
    # A K-factor that underflows to 0 is Rayleigh; the highest threshold a
    # config takes, 300 dB, is unreachable, and the lowest, -300 dB, is
    # always met.
    tiny = ScenarioConfig(d2d_k_factor_db=-4000.0)
    assert tiny.d2d_fading() == 0.0
    assert d2d_success_probability(tx_xy, tiny) == d2d_success_probability(tx_xy, rayleigh)
    for k_db in (None, 6.0):
        assert _d2d_success(tx_xy, config, d2d_k_factor_db=k_db, gamma_th_db=300.0) == 0.0
        assert _d2d_success(tx_xy, config, d2d_k_factor_db=k_db, gamma_th_db=-300.0) == 1.0


def test_d2d_success_at_the_k_factor_ceiling_finishes():
    config = ScenarioConfig(
        **DENSE, fap_capacity=200, mc_trials=200,
        d2d_k_factor_db=K_FACTOR_DB_MAX,
    )
    with _time_limit(10.0, "a 1,000-F-UE run at the K-factor ceiling"):
        report = run_scenario(config)
    assert report.n_fues > 900 and report.n_d2d_pairs > 250
    assert 0.0 < report.d2d_success_probability <= 1.0
    with pytest.raises(ValueError, match="d2d_k_factor_db"):
        dataclasses.replace(config, d2d_k_factor_db=K_FACTOR_DB_MAX + 0.1)


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
    th = ScenarioConfig()
    bridged = 0
    for rng, points in _relay_layouts():
        relay_xy = points[rng.random(len(points)) < 0.5]
        for _ in range(5):
            order = rng.permutation(len(points))
            pairs = order[: len(order) // 2 * 2].reshape(-1, 2)
            found = metrics_sim._pair_relays(points, pairs, relay_xy, th)
            full = _full_relay_flags(points, pairs, relay_xy, th)
            i, j = np.concatenate([pairs, pairs[:, ::-1]]).T
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
