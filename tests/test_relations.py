"""Metamorphic relations between whole runs: a change of one config key
whose effect on the outputs is known without an oracle. Each holds on
every layout, so each is checked over a few seeds of the default 1 km
region.
"""

import dataclasses

import numpy as np
import pytest

from frangine.caching import ContentTier
from frangine.config import ScenarioConfig
from frangine.coordination import cellular_success_probability
from frangine.geometry import FapTopology
from frangine.metrics_sim import _build_topology, ledger_rows, run_scenario
from frangine.mode_select import Mode
from frangine.rng import derive_rng

SEEDS = [1, 2, 3]


def _modes(report) -> set:
    return {Mode(row[2]) for row in ledger_rows(report)}


@pytest.mark.parametrize("seed", SEEDS)
def test_no_fap_capacity_admits_no_fue(seed):
    # With no free resource block no F-AP admits an F-UE: no F-AP cache
    # serves a request, no request is coordinated locally, and every F-AP
    # is asleep in the power total.
    config = ScenarioConfig(fap_capacity=0, master_seed=seed)
    report = run_scenario(config)
    assert report.n_fues > 0
    assert report.fap_hit_ratio == 0.0
    assert Mode.LOCAL_COORDINATION not in _modes(report)
    asleep = report.n_faps * config.sleep_power_fraction * config.p_static
    power = asleep + report.n_hpns * config.p_hpn
    assert report.energy_efficiency == pytest.approx(
        report.spatial_average_rate * report.n_fues / power, rel=1e-12
    )


@pytest.mark.parametrize("tau", [0.1, 1.0])
@pytest.mark.parametrize("seed", SEEDS)
def test_no_admitted_fue_makes_no_cluster(seed, tau):
    # A cluster's reward counts the F-UEs its F-APs serve. With no F-UE
    # admitted every reward is 0, so no merge pays and every block stays a
    # single F-AP, whatever the energy pressure tau.
    report = run_scenario(ScenarioConfig(fap_capacity=0, tau=tau, master_seed=seed))
    assert report.n_faps > 1
    assert report.mean_cluster_size == 1.0


@pytest.mark.parametrize("seed", SEEDS)
def test_no_d2d_capable_fue_makes_no_d2d_link(seed):
    # With no D2D-capable F-UE there is no pair, no request goes D2D or
    # through a relay, and the cellular victim sees no D2D interference:
    # its success is that of zero links on the same "cellular" stream.
    config = ScenarioConfig(d2d_fraction=0.0, master_seed=seed)
    report = run_scenario(config)
    assert report.n_d2d_pairs == 0
    assert not _modes(report) & {Mode.D2D, Mode.FUE_RELAY}
    no_links = np.zeros((0, config.n_subchannels))
    alone = cellular_success_probability(
        no_links.astype(bool), no_links, _build_topology(config).hpns, config,
        derive_rng(seed, "cellular"),
    )
    assert report.cellular_success_probability == alone


@pytest.mark.parametrize("seed", SEEDS)
def test_mesh_finds_every_item_the_tree_finds(seed):
    # The tree's F-AP links are a subset of the mesh's, and the links change
    # nothing but cooperative lookups. So a request that no linked F-AP
    # serves under mesh is served by none under tree either.
    tree = ScenarioConfig(cooperative_caching=True, master_seed=seed)
    mesh = dataclasses.replace(tree, fap_topology=FapTopology.MESH)
    cloud = ContentTier.CLOUD_ONLY.value
    tiers = [[row[3] == cloud for row in ledger_rows(run_scenario(c))] for c in (tree, mesh)]
    tree_cloud, mesh_cloud = np.array(tiers)
    assert not (mesh_cloud & ~tree_cloud).any()
    assert (tree_cloud & ~mesh_cloud).any()  # the mesh does find more
