import dataclasses

import numpy as np
import pytest

from frangine.channel import FadingKind, FadingModel, LinkBudget
from frangine.geometry import NetworkTopology, NodeKind, NodeSet, Region
from frangine import metrics_sim
from frangine.metrics_sim import (
    Architecture,
    ScenarioConfig,
    UnknownParameter,
    ZeroPower,
    energy_efficiency,
    fronthaul_load,
    ledger_rows,
    metrics_row,
    run_scenario,
    spatial_average_rate,
    sweep,
)
from frangine.caching import ContentTier
from frangine.mode_select import Mode
from frangine.rng import derive_rng

FAST = ScenarioConfig(
    region_width=600.0,
    region_height=600.0,
    lambda_m=5e-6,
    lambda_fap=2e-5,
    lambda_fue=8e-5,
    mc_trials=300,
    cluster_mc_trials=50,
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


def test_fronthaul_load_single_rule_cases():
    decisions = [(0, Mode.GLOBAL_CRAN)] * 4
    tiers = [ContentTier.CLOUD_ONLY] * 4
    report, ledger = fronthaul_load(decisions, tiers, 100.0, 16.0)
    assert report.fronthaul_bits == pytest.approx(4 * 100.0 * 16.0)
    assert report.conserved()
    decisions = [(0, Mode.D2D)] * 3
    report, _ = fronthaul_load(decisions, tiers[:3], 100.0, 16.0)
    assert report.fronthaul_bits == 0.0
    assert report.edge_processed_bits == pytest.approx(300.0)


def test_fronthaul_local_coordination_miss_fetches_once():
    report, _ = fronthaul_load(
        [(0, Mode.LOCAL_COORDINATION)], [ContentTier.CLOUD_ONLY], 100.0, 16.0
    )
    assert report.fronthaul_bits == pytest.approx(100.0)
    report, _ = fronthaul_load(
        [(0, Mode.LOCAL_COORDINATION)], [ContentTier.AT_FAP], 100.0, 16.0
    )
    assert report.fronthaul_bits == 0.0


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


def test_spatial_average_rate_no_fading_snr_one():
    # Huge-K Rician is effectively unfaded; tx power equal to noise at the
    # 1 m reference distance gives SNR = 1 and rate log2(2) = 1.
    budget = LinkBudget(
        tx_power_dbm={NodeKind.FAP: 30.0, NodeKind.FUE: -100.0},
        noise_power_dbm=-100.0,
    )
    fading = FadingModel(FadingKind.RICIAN, 80.0)
    mean, ci = spatial_average_rate(
        _bare_topology(), fading, budget, 20_000, derive_rng(5),
        link_distance=1.0, interferer_density=0.0,
    )
    assert mean == pytest.approx(1.0, abs=1e-3)


def test_spatial_average_rate_degrades_with_interferer_density():
    budget = LinkBudget()
    fading = FadingModel(FadingKind.RICIAN, 6.0)
    low, _ = spatial_average_rate(
        _bare_topology(), fading, budget, 3000, derive_rng(6), interferer_density=1e-5
    )
    high, _ = spatial_average_rate(
        _bare_topology(), fading, budget, 3000, derive_rng(6), interferer_density=1e-3
    )
    assert high < low


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


def test_mode_decided_once_per_fue_and_content_case(monkeypatch):
    config = ScenarioConfig(master_seed=3)
    expected = run_scenario(config)
    calls = []
    select_mode = metrics_sim.select_mode

    def counting(*args, **kwargs):
        calls.append(args[0].id)
        return select_mode(*args, **kwargs)

    monkeypatch.setattr(metrics_sim, "select_mode", counting)
    report = run_scenario(config)
    assert 0 < len(calls) <= 2 * report.n_fues
    assert len(calls) < len(report.ledger)
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


def test_sweep_shares_draws_only_within_one_call(monkeypatch):
    calls = []
    fading_sample = metrics_sim.fading_sample

    def counting(*args, **kwargs):
        calls.append(args[0])
        return fading_sample(*args, **kwargs)

    monkeypatch.setattr(metrics_sim, "fading_sample", counting)
    run_scenario(FAST)
    lone = len(calls)
    assert lone > 0

    calls.clear()
    sweep(FAST, "k_factor_db", [0.0, 10.0])
    assert len(calls) < 2 * lone  # the second point reused the first's fields
    assert metrics_sim._shared.get() is None

    run_point = metrics_sim.run_scenario
    points = []

    def second_point_fails(config):
        points.append(config)
        if len(points) == 2:
            raise RuntimeError("second point failed")
        return run_point(config)

    monkeypatch.setattr(metrics_sim, "run_scenario", second_point_fails)
    with pytest.raises(RuntimeError, match="second point"):
        sweep(FAST, "k_factor_db", [0.0, 10.0])
    assert metrics_sim._shared.get() is None

    calls.clear()
    run_point(FAST)
    assert len(calls) == lone


def test_sweep_holds_one_draw_per_site(monkeypatch):
    held = []
    run_point = metrics_sim.run_scenario

    def recording(config):
        report = run_point(config)
        held.append(sorted(metrics_sim._shared.get()))
        return report

    monkeypatch.setattr(metrics_sim, "run_scenario", recording)
    sweep(FAST, "lambda_d", [5e-5, 8e-5, 1e-4])  # every point misses
    assert held == [["d2d", "rate"]] * 3


def test_sweep_grid_values_of_an_integer_key(monkeypatch):
    runs = []
    monkeypatch.setattr(metrics_sim, "run_scenario", runs.append)
    for bad in (2.7, float("nan"), float("inf")):
        with pytest.raises(metrics_sim.InvalidGridValue, match="cache_capacity"):
            sweep(FAST, "cache_capacity", [2, bad])
    assert runs == []
    assert [v for v, _ in sweep(FAST, "cache_capacity", [2.0, 3])] == [2, 3]
    assert [c.fue_cache_capacity for c in runs] == [2, 3]
