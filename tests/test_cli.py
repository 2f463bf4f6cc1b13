import dataclasses
import math
import os

import pytest

from frangine.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    ParseError,
    ValidationError,
    canonical_config,
    main,
    parse_config,
)
from frangine import metrics_sim
from frangine.config import CONFIG_SCHEMA, CONFIG_TYPES, MAX_DENSE_ELEMENTS, RULES
from frangine.metrics_sim import ScenarioConfig

FAST_BODY = """\
[geometry]
region_width = 600.0
region_height = 600.0
lambda_fap = 2e-5
lambda_fue = 8e-5

[coordination]
mc_trials = 300

[traffic]
requests_per_fue = 3

[run]
master_seed = 11
"""


@pytest.fixture
def fast_config(tmp_path):
    path = tmp_path / "fast.ini"
    path.write_text(FAST_BODY)
    return str(path)


def test_minimal_config_applies_defaults(tmp_path):
    path = tmp_path / "minimal.ini"
    path.write_text("[geometry]\nlambda_fue = 5e-5\n\n[run]\nmaster_seed = 3\n")
    config = parse_config(str(path))
    assert config == ScenarioConfig(lambda_fue=5e-5, master_seed=3)


def test_invalid_thresholds_name_the_invariant(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[mode]\nd1 = 200.0\nd2 = 100.0\n")
    with pytest.raises(ValidationError, match="thresholds"):
        parse_config(str(path))


def test_schema_names_every_config_field_once_in_field_order():
    # The schema groups the fields by section, so this also pins that each
    # section's keys are contiguous in field order.
    keys = [key for keys in CONFIG_SCHEMA.values() for key in keys]
    assert keys == [f.name for f in dataclasses.fields(ScenarioConfig)]


# Values that fail each rule; a field's case is the first that passes its
# other rules, so the named rule is the only one it fails.
FAILING = {
    "fraction": [1.5, -0.5],
    "nonnegative": [-1],
    "positive": [0],
    "finite": [math.inf, -math.inf],
    "db": [300.5, -300.5],
    "k_factor": [31],
    "at_least_one": [0],
    "exponent": [2],
}


def _rule_cases():
    for f in dataclasses.fields(ScenarioConfig):
        kind = CONFIG_TYPES[f.name][0]
        for rule in f.metadata["rules"]:
            others = [RULES[r][0] for r in f.metadata["rules"] if r != rule]
            value = next(v for v in map(kind, FAILING[rule]) if all(ok(v) for ok in others))
            yield f.name, rule, value


@pytest.mark.parametrize("key,rule,value", list(_rule_cases()))
def test_each_field_rule_rejects_a_value_failing_only_it(key, rule, value):
    with pytest.raises(ValueError) as info:
        ScenarioConfig(**{key: value})
    assert str(info.value) == f"{key} {RULES[rule][1]}"


def test_unknown_key_rejected(tmp_path):
    path = tmp_path / "typo.ini"
    path.write_text("[geometry]\nlambda_feu = 5e-5\n")
    with pytest.raises(ParseError, match="lambda_feu"):
        parse_config(str(path))


def test_unknown_section_rejected(tmp_path):
    path = tmp_path / "sec.ini"
    path.write_text("[galaxy]\nstars = 4\n")
    with pytest.raises(ParseError, match="galaxy"):
        parse_config(str(path))


def test_canonical_round_trip(tmp_path, fast_config):
    config = parse_config(fast_config)
    canon = tmp_path / "canon.ini"
    canon.write_text(canonical_config(config))
    assert parse_config(str(canon)) == config


def test_shipped_default_config_parses():
    path = os.path.join(os.path.dirname(__file__), "..", "configs", "default.ini")
    config = parse_config(path)
    assert config.d2d_k_factor_db == 6.0


def test_validate_exit_zero_no_files(tmp_path, fast_config, capsys):
    assert main(["validate", "--config", fast_config]) == EXIT_OK
    assert "config ok" in capsys.readouterr().out
    assert not (tmp_path / "metrics.csv").exists()


def test_validate_show_defaults_prints_everything(fast_config, capsys):
    assert main(["validate", "--config", fast_config, "--show-defaults"]) == EXIT_OK
    out = capsys.readouterr().out
    for key in ("d1 =", "epsilon =", "iq_expansion_factor =", "master_seed = 11"):
        assert key in out


def test_validate_applies_seed_and_trials_overrides(fast_config, capsys):
    assert main(["validate", "--config", fast_config, "--trials", "0"]) == EXIT_CONFIG
    assert "mc_trials" in capsys.readouterr().err
    argv = ["validate", "--config", fast_config, "--seed", "7", "--show-defaults"]
    assert main(argv) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert "master_seed = 7" in lines and "master_seed = 11" not in lines


def test_validate_bad_config_exit_two(tmp_path, capsys):
    path = tmp_path / "bad.ini"
    path.write_text("[mode]\nd1 = 200.0\nd2 = 100.0\n")
    assert main(["validate", "--config", str(path)]) == EXIT_CONFIG
    assert "thresholds" in capsys.readouterr().err


@pytest.mark.parametrize(
    "section,key,value",
    [
        ("geometry", "d2d_fraction", "1.7"),
        ("geometry", "d2d_fraction", "nan"),
        ("mode", "relay_fraction", "-0.2"),
        ("mode", "voice_fraction", "nan"),
        ("coordination", "sleep_power_fraction", "-1"),
        ("coordination", "sleep_power_fraction", "nan"),
    ],
)
def test_out_of_range_fraction_exit_two(tmp_path, capsys, section, key, value):
    path = tmp_path / "fraction.ini"
    path.write_text(f"[{section}]\n{key} = {value}\n")
    assert main(["validate", "--config", str(path)]) == EXIT_CONFIG
    assert key in capsys.readouterr().err


@pytest.mark.parametrize(
    "section,key,value",
    [
        ("traffic", "warmup_requests", "-1"),
        ("traffic", "payload_bits", "-1"),
        ("mode", "speed_mean", "-1"),
        ("mode", "speed_threshold", "0"),
        ("mode", "speed_threshold", "nan"),
        ("mode", "interference_limit", "-1"),
        ("mode", "interference_limit", "nan"),
        ("coordination", "tau", "0"),
        ("coordination", "tau", "-1"),
        ("coordination", "tau", "nan"),
        ("caching", "fue_cache_capacity", "0"),
        ("caching", "fap_cache_capacity", "0"),
        ("geometry", "region_width", "0"),
        ("geometry", "region_height", "-5"),
        ("geometry", "lambda_fap", "-1e-5"),
        ("geometry", "lambda_fue", "nan"),
        ("caching", "catalog_items", "0"),
        ("caching", "zipf_exponent", "-0.5"),
        ("coordination", "n_subchannels", "0"),
        ("traffic", "requests_per_fue", "-1"),
        ("channel", "path_loss_exponent", "2"),
        ("channel", "d2d_link_distance", "-1"),
        ("coordination", "p_static", "-20"),
        ("coordination", "p_tx", "-5"),
        ("mode", "fap_capacity", "-1"),
        ("traffic", "iq_expansion_factor", "nan"),
        ("coordination", "mc_trials", "0"),
        ("channel", "noise_power_dbm", "nan"),
        ("channel", "noise_power_dbm", "inf"),
        ("geometry", "region_width", "inf"),
        ("geometry", "region_height", "inf"),
        ("geometry", "lambda_m", "inf"),
        ("geometry", "lambda_fap", "inf"),
        ("geometry", "lambda_fue", "inf"),
        ("channel", "gamma_th_db", "nan"),
        ("channel", "gamma_th_db", "inf"),
        ("channel", "d2d_k_factor_db", "nan"),
        ("channel", "tx_power_fue_dbm", "nan"),
        ("channel", "tx_power_fap_dbm", "inf"),
        ("channel", "reference_gain_db", "nan"),
        ("traffic", "requests_per_fue", "2.5"),
        ("coordination", "n_subchannels", "16.5"),
        ("coordination", "mc_trials", "100.5"),
        ("caching", "catalog_items", "100.5"),
        ("mode", "fap_capacity", "2.5"),
        ("run", "master_seed", "1.5"),
        ("caching", "cooperative_caching", "2"),
        ("channel", "tx_power_fap_dbm", "301"),
        ("channel", "tx_power_fue_dbm", "4000"),
        ("channel", "noise_power_dbm", "-4000"),
        ("channel", "reference_gain_db", "-300.5"),
        ("channel", "gamma_th_db", "4000"),
        ("channel", "d2d_k_factor_db", "1000"),
        ("geometry", "lambda_fue", "1e9"),
        ("geometry", "region_width", "1e7"),
        ("geometry", "region_height", "1e7"),
        ("geometry", "lambda_fap", "1e3"),
        ("geometry", "lambda_m", "1e3"),
        ("caching", "catalog_items", "1000000000000000"),
        ("coordination", "tau", "300"),
        ("channel", "path_loss_exponent", "1000"),
        ("coordination", "p_static", "inf"),
        ("coordination", "p_tx", "inf"),
        ("coordination", "p_coord", "inf"),
        ("coordination", "p_hpn", "inf"),
        ("traffic", "payload_bits", "inf"),
        ("traffic", "iq_expansion_factor", "inf"),
        # Finite, but the fronthaul total over them is not.
        ("traffic", "iq_expansion_factor", "1e300"),
        ("traffic", "payload_bits", "1e307"),
        ("mode", "d1", "0"),
        ("mode", "d2", "40"),
        ("mode", "d3", "nan"),
        ("coordination", "epsilon", "1.5"),
        ("coordination", "epsilon", "nan"),
        ("geometry", "lambda_m", "-1e-6"),
        ("channel", "d2d_link_distance", "inf"),
        # Finite, but longer than the 1 km region's 1,414 m diagonal.
        ("channel", "d2d_link_distance", "1e4"),
        ("mode", "speed_mean", "inf"),
    ],
)
def test_out_of_range_key_exit_two(tmp_path, capsys, section, key, value):
    path = tmp_path / "bad.ini"
    path.write_text(f"[{section}]\n{key} = {value}\n")
    assert main(["validate", "--config", str(path)]) == EXIT_CONFIG
    assert key in capsys.readouterr().err


DENSE = {"region_width": 2000.0, "region_height": 2000.0, "lambda_fap": 3e-6,
         "fap_capacity": 100_000}


@pytest.mark.parametrize(
    "overrides",
    [
        {"region_width": 10_000.0, "region_height": 10_000.0},  # 10 km tree
        {"region_width": 20_000.0, "region_height": 20_000.0},  # 20 km tree
        DENSE | {"lambda_fue": 1.25e-3},  # dense 5k
        DENSE | {"lambda_fue": 5e-3},  # dense 20k
        DENSE | {"lambda_fue": 7e-3},  # 16.8k capable F-UEs, no capable x capable array
        {"lambda_fap": 0.0058},  # 1 km tree of 5,800 F-APs, over the mesh's link ceiling
    ],
)
def test_size_ceiling_accepts_the_ladder(overrides):
    ScenarioConfig(**overrides)


def test_size_ceiling_bounds_the_largest_dense_array():
    # Dense at 2 km: lambda_fue * 4e6 F-UEs x 12 F-APs of gains.
    edge = MAX_DENSE_ELEMENTS / (4e6 * 12)
    ScenarioConfig(**DENSE, lambda_fue=edge * 0.99)
    with pytest.raises(ValueError, match="lambda_fue, lambda_fap"):
        ScenarioConfig(**DENSE, lambda_fue=edge * 1.01)
    # Every F-UE D2D capable: the ceiling does not count capable pairs.
    ScenarioConfig(**DENSE, lambda_fue=edge * 0.99, d2d_fraction=1.0)
    # 0 * an infinite area is NaN, which is not under the ceiling.
    with pytest.raises(ValueError, match="region_width"):
        ScenarioConfig(region_width=1e300, region_height=1e300, lambda_m=0.0, lambda_fap=0.0,
                       lambda_fue=0.0)


def test_mesh_links_over_the_ceiling_exit_two(tmp_path, capsys):
    # 5,800 F-APs at 1 km: a mesh links 1.68e7 pairs, 2.52e8 elements at
    # 15 per link. As a tree the same F-APs are 3.36e7 distances.
    path = tmp_path / "mesh.ini"
    path.write_text("[geometry]\nlambda_fap = 0.0058\nfap_topology = mesh\n")
    assert main(["validate", "--config", str(path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert all(name in err for name in ("lambda_fap", "fap_topology"))
    path.write_text("[geometry]\nlambda_fap = 0.0058\nfap_topology = tree\n")
    assert main(["validate", "--config", str(path)]) == EXIT_OK


@pytest.mark.parametrize("key", ["requests_per_fue", "warmup_requests"])
def test_request_arrays_over_the_ceiling_exit_two(tmp_path, capsys, key):
    # About 50 F-UEs at 1 km: 10**9 requests each would be a (U, n) draw of
    # 5e10 elements, refused before any output is made, not failed mid-run.
    path = tmp_path / "long.ini"
    path.write_text(f"[traffic]\n{key} = 1000000000\n")
    out = tmp_path / "out"
    for argv in (["validate"], ["run", "--out", str(out)]):
        assert main([*argv, "--config", str(path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert all(name in err for name in ("lambda_fue", "warmup_requests", "requests_per_fue"))
    assert not out.exists()
    path.write_text(f"[traffic]\n{key} = 100000\n")
    assert main(["validate", "--config", str(path)]) == EXIT_OK


@pytest.mark.parametrize(
    "section,key,value",
    [
        ("channel", "tx_power_hpn_dbm", "43.0"),
        ("mode", "high_qos_fraction", "1.01"),
        ("coordination", "eta", "0.5"),
        ("coordination", "n_resource_blocks", "16"),
        ("coordination", "cluster_mc_trials", "0"),
        ("coordination", "cluster_mc_trials", "100"),
    ],
)
def test_removed_key_exit_two(tmp_path, capsys, section, key, value):
    path = tmp_path / "old.ini"
    path.write_text(f"[{section}]\n{key} = {value}\n")
    assert main(["validate", "--config", str(path)]) == EXIT_CONFIG
    assert key in capsys.readouterr().err


def test_zero_single_fap_power_exit_two(tmp_path, capsys):
    # A lone F-AP's cluster power is p_static + p_tx; zero would divide by 0.
    path = tmp_path / "zero_power.ini"
    path.write_text("[coordination]\np_static = 0\np_tx = 0\n")
    assert main(["validate", "--config", str(path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "p_static" in err and "p_tx" in err
    path.write_text("[coordination]\np_static = 0\n")
    assert main(["validate", "--config", str(path)]) == EXIT_OK


def test_subnormal_cluster_power_exit_two(tmp_path, capsys):
    # cluster_power(1) ** tau = 0.001 ** 106 is a subnormal 1e-318: every
    # singleton utility would be inf, and no merge could ever win.
    path = tmp_path / "subnormal.ini"
    path.write_text("[coordination]\np_static = 0.001\np_tx = 0\np_coord = 0\ntau = 106\n")
    assert main(["validate", "--config", str(path)]) == EXIT_CONFIG
    assert "tau" in capsys.readouterr().err
    path.write_text("[coordination]\np_static = 0.001\np_tx = 0\np_coord = 0\ntau = 50\n")
    assert main(["validate", "--config", str(path)]) == EXIT_OK


def test_zero_total_power_exit_two(tmp_path, capsys):
    # Every F-AP asleep at zero power beside zero-power HPNs would divide by 0
    # mid-run; the config is refused before any output is made.
    path = tmp_path / "zero_power.ini"
    path.write_text(
        "[mode]\nfap_capacity = 0\n\n"
        "[coordination]\nsleep_power_fraction = 0.0\np_hpn = 0.0\n"
    )
    out = tmp_path / "out"
    for argv in (["validate"], ["run", "--out", str(out)]):
        assert main([*argv, "--config", str(path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert all(key in err for key in ("p_hpn", "sleep_power_fraction", "p_static"))
    assert not out.exists()
    path.write_text("[coordination]\np_hpn = 0.0\n")
    assert main(["validate", "--config", str(path)]) == EXIT_OK


def test_zero_payload_and_speed_stay_legal(tmp_path):
    path = tmp_path / "zero.ini"
    path.write_text("[mode]\nspeed_mean = 0\n\n[traffic]\npayload_bits = 0\n")
    assert main(["validate", "--config", str(path)]) == EXIT_OK


def test_run_twice_byte_identical(tmp_path, fast_config):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", fast_config, "--out", str(out1)]) == EXIT_OK
    assert main(["run", "--config", fast_config, "--out", str(out2)]) == EXIT_OK
    for name in ("metrics.csv", "ledger.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_seed_override_changes_output(tmp_path, fast_config):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["run", "--config", fast_config, "--out", str(out1)])
    main(["run", "--config", fast_config, "--out", str(out2), "--seed", "99"])
    assert (out1 / "metrics.csv").read_bytes() != (out2 / "metrics.csv").read_bytes()


def test_sweep_writes_csv(tmp_path, fast_config):
    out = tmp_path / "sweep"
    code = main([
        "sweep", "--config", fast_config, "--out", str(out),
        "--param", "epsilon", "--grid", "0,0.5,1",
    ])
    assert code == EXIT_OK
    text = (out / "sweep.csv").read_text().splitlines()
    assert text[0].startswith("epsilon,")
    assert len(text) == 4


def test_sweep_unknown_param_exit_two(tmp_path, fast_config, capsys):
    code = main([
        "sweep", "--config", fast_config, "--out", str(tmp_path / "x"),
        "--param", "bandwidth", "--grid", "1,2",
    ])
    assert code == EXIT_CONFIG
    assert "bandwidth" in capsys.readouterr().err


def test_trials_override_out_of_range_exit_two(tmp_path, fast_config, capsys):
    code = main(["run", "--config", fast_config, "--out", str(tmp_path / "x"), "--trials", "0"])
    assert code == EXIT_CONFIG
    assert "mc_trials" in capsys.readouterr().err


def test_compare_arch_prints_ordering(tmp_path, fast_config, capsys):
    out = tmp_path / "cmp"
    assert main(["compare-arch", "--config", fast_config, "--out", str(out)]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    loads = {}
    for line in lines:
        parts = line.split()
        if parts and parts[0] in ("cran", "hcran", "fran"):
            loads[parts[0]] = float(parts[1])
    assert loads["fran"] < loads["hcran"] < loads["cran"]
    for name in ("metrics.csv", "ledger_cran.csv", "ledger_hcran.csv", "ledger_fran.csv"):
        assert (out / name).exists()


def test_compare_arch_equals_three_lone_runs(tmp_path, fast_config):
    out = tmp_path / "cmp"
    assert main(["compare-arch", "--config", fast_config, "--out", str(out)]) == EXIT_OK
    rows = (out / "metrics.csv").read_text().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["cran", "hcran", "fran"]
    for arch, row in zip(("cran", "hcran", "fran"), rows):
        ini = tmp_path / f"{arch}.ini"
        ini.write_text(FAST_BODY + f"architecture = {arch}\n")  # [run] is the last section
        lone = tmp_path / arch
        assert main(["run", "--config", str(ini), "--out", str(lone)]) == EXIT_OK
        assert row == f"{arch}," + (lone / "metrics.csv").read_text().splitlines()[1]
        assert (out / f"ledger_{arch}.csv").read_bytes() == (lone / "ledger.csv").read_bytes()


def test_missing_config_file_exit_two(tmp_path, capsys):
    assert main(["validate", "--config", str(tmp_path / "nope.ini")]) == EXIT_CONFIG


@pytest.mark.parametrize(
    "param,grid",
    [("epsilon", "0.5,2"), ("cache_capacity", "2,2.7"), ("tau", "1,0"), ("k_factor_db", "10,31")],
)
def test_sweep_bad_grid_value_exit_two_before_any_point(
    tmp_path, fast_config, capsys, monkeypatch, param, grid
):
    runs = []
    monkeypatch.setattr(metrics_sim, "run_scenario", runs.append)
    out = tmp_path / "sweep"
    code = main([
        "sweep", "--config", fast_config, "--out", str(out),
        "--param", param, "--grid", grid,
    ])
    assert code == EXIT_CONFIG
    assert param in capsys.readouterr().err
    assert runs == []
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--param", "bandwidth", "--grid", "1,2"],
        ["sweep", "--param", "epsilon", "--grid", "0.5,x"],
        ["sweep", "--param", "epsilon", "--grid", ","],
        ["run", "--trials", "0"],
        ["compare-arch", "--trials", "0"],
    ],
    ids=["unknown-param", "unparsable-grid", "empty-grid", "run-trials", "compare-arch-trials"],
)
def test_rejected_command_leaves_no_output_directory(tmp_path, fast_config, argv):
    out = tmp_path / "out"
    command, *rest = argv
    assert main([command, "--config", fast_config, "--out", str(out), *rest]) == EXIT_CONFIG
    assert not out.exists()
