"""Command-line entry point: validate configs, run scenarios and sweeps,
compare architectures, and emit CSV.

Config files are sectioned key=value text (INI syntax). Unknown sections or
keys are rejected so a typo can never silently fall back to a default.
Exit codes: 0 ok, 2 config error, 3 runtime error.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import dataclasses
import os
import sys
import tempfile
from enum import Enum

from .metrics_sim import (
    CONFIG_TYPES,
    Architecture,
    InvalidGridValue,
    LEDGER_COLUMNS,
    METRICS_COLUMNS,
    ScenarioConfig,
    UnknownParameter,
    ledger_rows,
    metrics_row,
    run_scenario,
    sweep,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


class ParseError(Exception):
    pass


class ValidationError(Exception):
    pass


# The INI layout: each section and its keys, in canonical order. A key's
# type (`metrics_sim.CONFIG_TYPES`) drives its parsing.
CONFIG_SCHEMA = {
    "geometry": [
        "region_width", "region_height", "lambda_m", "lambda_fap", "lambda_fue",
        "d2d_fraction", "fap_topology",
    ],
    "channel": [
        "path_loss_exponent", "reference_gain_db", "tx_power_fap_dbm",
        "tx_power_fue_dbm", "noise_power_dbm", "gamma_th_db", "d2d_k_factor_db",
        "d2d_link_distance",
    ],
    "mode": [
        "d1", "d2", "d3", "speed_threshold", "speed_mean", "voice_fraction",
        "relay_fraction", "fap_capacity", "interference_limit",
    ],
    "caching": [
        "catalog_items", "zipf_exponent", "cache_policy", "fue_cache_capacity",
        "fap_cache_capacity", "cooperative_caching",
    ],
    "coordination": [
        "tau", "epsilon", "n_subchannels", "scheduler", "p_static", "p_tx", "p_coord",
        "p_hpn", "sleep_power_fraction", "mc_trials",
    ],
    "traffic": [
        "requests_per_fue", "warmup_requests", "payload_bits", "iq_expansion_factor",
    ],
    "run": ["architecture", "master_seed"],
}

def _parse_value(key: str, text: str):
    kind, optional = CONFIG_TYPES[key]
    word = text.strip().lower()
    if optional and word in ("none", "rayleigh"):
        return None
    if issubclass(kind, Enum):
        return kind(word)
    if kind is not bool:
        return kind(text)
    if word not in ("true", "yes", "on", "1", "false", "no", "off", "0"):
        raise ValueError(f"not a boolean: {text!r}")
    return word in ("true", "yes", "on", "1")


def parse_config(path: str) -> ScenarioConfig:
    """Load and fully validate a scenario config; unknown keys are errors."""
    parser = configparser.ConfigParser()
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ParseError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ParseError(f"malformed config {path}: {exc}") from exc

    overrides = {}
    for section in parser.sections():
        if section not in CONFIG_SCHEMA:
            raise ParseError(f"unknown config section [{section}]")
        for key, raw in parser.items(section):
            if key not in CONFIG_SCHEMA[section]:
                raise ParseError(f"unknown key {key!r} in section [{section}]")
            try:
                overrides[key] = _parse_value(key, raw)
            except ValueError as exc:
                raise ParseError(f"[{section}] {key}: {exc}") from exc
    try:
        return ScenarioConfig(**overrides)
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc


def _render_value(value) -> str:
    if value is None:
        return "none"
    if hasattr(value, "value"):
        return str(value.value)
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value) if isinstance(value, float) else str(value)


def canonical_config(config: ScenarioConfig) -> str:
    """Canonical text for a config; reparsing it reproduces the config."""
    lines = []
    for section, keys in CONFIG_SCHEMA.items():
        lines.append(f"[{section}]")
        for key in keys:
            lines.append(f"{key} = {_render_value(getattr(config, key))}")
        lines.append("")
    return "\n".join(lines)


def _write_csv(path: str, header: list, rows: list) -> None:
    """Write atomically: a partial file is never left behind on failure. The
    directory is made here, so a command that fails earlier leaves none."""
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _apply_overrides(config: ScenarioConfig, args) -> ScenarioConfig:
    changes = {}
    if args.seed is not None:
        changes["master_seed"] = args.seed
    if getattr(args, "trials", None) is not None:
        changes["mc_trials"] = args.trials
    try:
        return dataclasses.replace(config, **changes)
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc


def _cmd_validate(args) -> int:
    config = _apply_overrides(parse_config(args.config), args)
    if args.show_defaults:
        print(canonical_config(config))
    print(f"config ok: {args.config}")
    return EXIT_OK


def _cmd_run(args) -> int:
    config = _apply_overrides(parse_config(args.config), args)
    report = run_scenario(config)
    _write_csv(
        os.path.join(args.out, "metrics.csv"), METRICS_COLUMNS, [metrics_row(report)]
    )
    _write_csv(os.path.join(args.out, "ledger.csv"), LEDGER_COLUMNS, ledger_rows(report))
    print(f"run complete: {report.n_fues} F-UEs, {len(report.ledger)} requests")
    print(f"  fronthaul_bits={report.load.fronthaul_bits:.0f}"
          f" backhaul_bits={report.load.backhaul_bits:.0f}")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    config = _apply_overrides(parse_config(args.config), args)
    try:
        grid = [float(v) for v in args.grid.split(",") if v.strip()]
    except ValueError as exc:
        raise ParseError(f"bad --grid: {exc}") from exc
    if not grid:
        raise ParseError("--grid must list at least one value")
    results = sweep(config, args.param, grid)
    header = [args.param] + METRICS_COLUMNS
    rows = [[value] + metrics_row(report) for value, report in results]
    _write_csv(os.path.join(args.out, "sweep.csv"), header, rows)
    print(f"sweep complete: {len(rows)} points over {args.param}")
    return EXIT_OK


def _cmd_compare_arch(args) -> int:
    config = _apply_overrides(parse_config(args.config), args)
    rows = []
    loads = {}
    for arch in (Architecture.CRAN, Architecture.HCRAN, Architecture.FRAN):
        point = dataclasses.replace(config, architecture=arch)
        report = run_scenario(point)
        loads[arch] = report
        rows.append([arch.value] + metrics_row(report))
        _write_csv(
            os.path.join(args.out, f"ledger_{arch.value}.csv"),
            LEDGER_COLUMNS,
            ledger_rows(report),
        )
    _write_csv(
        os.path.join(args.out, "metrics.csv"), ["architecture"] + METRICS_COLUMNS, rows
    )
    print(f"{'architecture':<14}{'fronthaul_bits':>18}{'backhaul_bits':>18}"
          f"{'edge_bits':>18}")
    for arch in (Architecture.CRAN, Architecture.HCRAN, Architecture.FRAN):
        load = loads[arch].load
        print(f"{arch.value:<14}{load.fronthaul_bits:>18.0f}"
              f"{load.backhaul_bits:>18.0f}{load.edge_processed_bits:>18.0f}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="frangine", description="Seeded F-RAN Monte-Carlo simulator"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_out=True):
        p.add_argument("--config", required=True, help="scenario config file")
        if needs_out:
            p.add_argument("--out", required=True, help="output directory for CSVs")
        p.add_argument("--seed", type=int, default=None, help="master seed override")
        p.add_argument(
            "--trials", type=int, default=None,
            help="Monte-Carlo trials of the cellular success check (mc_trials)",
        )

    p_run = sub.add_parser("run", help="run one scenario")
    common(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a parameter sweep")
    common(p_sweep)
    p_sweep.add_argument("--param", required=True, help="parameter to sweep")
    p_sweep.add_argument("--grid", required=True, help="comma-separated grid values")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_cmp = sub.add_parser(
        "compare-arch", help="run C-RAN/H-CRAN/F-RAN on matched seeds"
    )
    common(p_cmp)
    p_cmp.set_defaults(func=_cmd_compare_arch)

    p_val = sub.add_parser("validate", help="check a config without simulating")
    common(p_val, needs_out=False)
    p_val.add_argument(
        "--show-defaults", action="store_true",
        help="print the fully resolved config, defaults included",
    )
    p_val.set_defaults(func=_cmd_validate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, ValidationError, InvalidGridValue, UnknownParameter) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime error ({args.command}): {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
