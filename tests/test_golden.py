"""Golden output digests: every case in tests/golden/ reproduces its
recorded metrics bytes and ledger bytes, each against its own digest, and
shows the feature it is there for.
Every config key changes some case's output.

digests.json is written only by tests/golden/record.py.
"""

import dataclasses
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from frangine.caching import EvictionPolicy
from frangine.config import CONFIG_SCHEMA, Architecture, SchedulerKind
from frangine.geometry import FapTopology
from frangine.metrics_sim import ledger_rows, run_scenario

GOLDEN = Path(__file__).resolve().parent / "golden"


def _load_record():
    name = "golden_record"
    spec = importlib.util.spec_from_file_location(name, GOLDEN / "record.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


record = _load_record()
DIGESTS = json.loads(record.DIGESTS.read_text())


# case -> (feature, check on the report), so no case can quietly go degenerate.
FEATURES = {
    "default": (
        "D2D, local coordination, C-RAN and HPN modes",
        lambda r: {"d2d", "local_coordination", "global_cran", "hpn"} <= set(r.load.mode_counts),
    ),
    "mesh_2km": (
        "a mesh of 30+ F-APs with a multi-F-AP cluster",
        lambda r: r.n_faps >= 30 and r.mean_cluster_size > 1,
    ),
    "drac_seed2": (
        "a cellular success probability strictly inside (0, 1)",
        lambda r: 0 < r.cellular_success_probability < 1,
    ),
    "hcran": (
        "only HPN and C-RAN modes, both present",
        lambda r: set(r.load.mode_counts) == {"hpn", "global_cran"},
    ),
    "cran": (
        "only the C-RAN mode",
        lambda r: set(r.load.mode_counts) == {"global_cran"},
    ),
    "relay_heavy": (
        "F-UE relay requests",
        lambda r: "fue_relay" in r.load.mode_counts,
    ),
    "coop_lfu_blocked": (
        "more F-UEs than free F-AP blocks, and F-AP cache hits",
        lambda r: r.n_fues > 3 * r.n_faps and any(row[3] == "at_fap" for row in ledger_rows(r)),
    ),
    "sparse_fues": (
        "more F-APs than F-UEs, so some F-APs sleep",
        lambda r: r.n_faps > r.n_fues,
    ),
    "rayleigh_fifo_tau01": (
        "multi-F-AP clusters and D2D success below 1",
        lambda r: r.mean_cluster_size > 1 and r.d2d_success_probability < 1,
    ),
}


def test_every_case_is_recorded_and_checked():
    assert sorted(DIGESTS) == record.case_names() == sorted(FEATURES)


@pytest.mark.parametrize("name", record.case_names())
def test_golden_digest(name):
    report = run_scenario(record.load_case(name))
    got = record.digest(report)
    assert got["ledger"] == DIGESTS[name]["ledger"], f"{name}: ledger moved"
    assert got["metrics"] == DIGESTS[name]["metrics"], f"{name}: metrics moved"
    feature, shows = FEATURES[name]
    assert shows(report), f"{name} no longer shows {feature}"


# Config key -> (golden case, value that changes the case's output). Small
# changes often leave a 1 km output as it was (tau, epsilon, the scheduler
# and the F-AP topology among others), so each row names a case and a value
# that reach the output.
BITES = {
    "region_width": ("default", 800.0),
    "region_height": ("default", 800.0),
    "lambda_m": ("default", 1e-5),
    "lambda_fap": ("default", 2e-5),
    "lambda_fue": ("default", 6e-5),
    "d2d_fraction": ("default", 0.3),
    "fap_topology": ("coop_lfu_blocked", FapTopology.MESH),
    "path_loss_exponent": ("default", 3.5),
    "reference_gain_db": ("default", -10.0),
    "tx_power_fap_dbm": ("default", -20.0),
    "tx_power_fue_dbm": ("default", 0.0),
    "noise_power_dbm": ("default", -80.0),
    "gamma_th_db": ("default", 10.0),
    "d2d_k_factor_db": ("default", 0.0),
    "d2d_link_distance": ("default", 50.0),
    "d1": ("default", 30.0),
    "d2": ("default", 100.0),
    "d3": ("default", 200.0),
    "speed_threshold": ("default", 3.0),
    "speed_mean": ("default", 5.0),
    "voice_fraction": ("default", 0.5),
    "relay_fraction": ("relay_heavy", 0.0),
    "fap_capacity": ("default", 0),  # every F-UE blocked, still a legal config
    "interference_limit": ("default", 1e-10),
    "catalog_items": ("default", 50),
    "zipf_exponent": ("default", 1.2),
    "cache_policy": ("default", EvictionPolicy.LFU),
    "fue_cache_capacity": ("default", 4),
    "fap_cache_capacity": ("default", 10),
    "cooperative_caching": ("default", True),
    "tau": ("default", 0.1),
    "epsilon": ("drac_seed2", 0.9),
    "n_subchannels": ("drac_seed2", 8),
    "scheduler": ("drac_seed2", SchedulerKind.COAC),
    "p_static": ("default", 5.0),
    "p_tx": ("default", 5.0),
    "p_coord": ("rayleigh_fifo_tau01", 100.0),
    "p_hpn": ("default", 40.0),
    "sleep_power_fraction": ("sparse_fues", 0.5),
    "mc_trials": ("drac_seed2", 300),  # the D2D and cellular Monte-Carlo
    "requests_per_fue": ("default", 6),
    "warmup_requests": ("default", 0),
    "payload_bits": ("default", 2e6),
    "iq_expansion_factor": ("default", 8.0),
    "architecture": ("default", Architecture.HCRAN),
    "master_seed": ("default", 2),
}

CONFIG_KEYS = [key for keys in CONFIG_SCHEMA.values() for key in keys]


def test_bite_rows_name_config_keys():
    assert set(BITES) <= set(CONFIG_KEYS)


@pytest.mark.parametrize("key", CONFIG_KEYS)
def test_config_key_changes_output(key):
    assert key in BITES, f"no row shows that {key} changes any output"
    case, value = BITES[key]
    config = dataclasses.replace(record.load_case(case), **{key: value})
    assert record.digest(run_scenario(config)) != DIGESTS[case]
