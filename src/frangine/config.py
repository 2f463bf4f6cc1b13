"""The scenario config: its keys, their INI format and the link budget.

`ScenarioConfig` declares every key once, as a field that carries its
default, its INI section and the names of the `RULES` it obeys, and it is
the only validator: every layer takes arrays and the config, and checks
nothing again. `parse_config` and `canonical_config` read and write the
INI format; `path_gain`, the dB conversions and `cluster_power` are the
link and power budget that the config's own checks share with the layers.
"""

from __future__ import annotations

import configparser
import dataclasses
import itertools
import math
import numbers
import sys
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .caching import EvictionPolicy
from .geometry import FapTopology, Region

# The widest powers, reference gain and SINR threshold a config takes, in
# dB(m): 10^(x/10) of each, and their products in a link budget, stay
# normal doubles.
DB_LIMIT = 300.0
# The largest D2D K-factor a config takes, in dB. The exact D2D success sums
# under K + 12 sqrt(K) + 60 terms (1,281 at 30 dB) in a Python loop.
K_FACTOR_DB_MAX = 30.0
# The most elements a config may expect in one dense array (2 GB of float64
# at this ceiling), such as the F-UE x F-AP gains or the mesh's edge set.
MAX_DENSE_ELEMENTS = 2.5e8
MESH_LINK_ELEMENTS = 15  # of 8 B: a mesh edge-set tuple is 119.5 B (tracemalloc, 1,000 F-APs)

# Each single-key rule a config field may name: the check its value must
# pass, and the message that follows the key when it fails. A field's rules
# run in this order, after the type and threshold checks, and comparisons
# are written so that NaN fails too.
RULES = {
    "fraction": (lambda v: 0.0 <= v <= 1.0, "must lie in [0, 1]"),
    "nonnegative": (lambda v: v >= 0, "must be nonnegative"),
    "positive": (lambda v: v > 0, "must be positive"),
    "finite": (lambda v: math.isfinite(v or 0.0), "must be finite"),  # None: Rayleigh
    "db": (lambda v: -DB_LIMIT <= v <= DB_LIMIT, f"must lie in [-{DB_LIMIT:g}, {DB_LIMIT:g}]"),
    "k_factor": (lambda v: (v or 0.0) <= K_FACTOR_DB_MAX,
                 f"must be at most {K_FACTOR_DB_MAX:g} (or none)"),
    "at_least_one": (lambda v: v >= 1, "must be at least 1"),
    "exponent": (lambda v: v > 2, "must exceed 2"),
}


def _key(default, section: str, *rules: str):
    """A config key: its default, its INI section and the `RULES` it obeys."""
    return field(default=default, metadata={"section": section, "rules": rules})


class Architecture(Enum):
    CRAN = "cran"
    HCRAN = "hcran"
    FRAN = "fran"


class SchedulerKind(Enum):
    COAC = "coac"
    DRAC = "drac"


def db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


def dbm_to_watts(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


def path_gain(d: float, config: ScenarioConfig) -> float:
    """Power-law path gain, clamped at 1 m to avoid the d -> 0 singularity."""
    # In place on one new array: a distance matrix needs no second copy.
    gain = np.maximum(d, 1.0)
    gain **= -config.path_loss_exponent
    gain *= db_to_linear(config.reference_gain_db)
    return gain


def cluster_power(cluster_size: int, config: ScenarioConfig) -> float:
    """Watts drawn by a cluster: p_static + p_tx per F-AP, and p_coord per
    ordered coordination pair."""
    return cluster_size * (config.p_static + config.p_tx) + config.p_coord * cluster_size * (
        cluster_size - 1
    )


@dataclass(frozen=True)
class ScenarioConfig:
    region_width: float = _key(1000.0, "geometry", "positive", "finite")
    region_height: float = _key(1000.0, "geometry", "positive", "finite")
    lambda_m: float = _key(2e-6, "geometry", "nonnegative", "finite")  # HPN density, /m^2
    lambda_fap: float = _key(1e-5, "geometry", "nonnegative", "finite")
    lambda_fue: float = _key(5e-5, "geometry", "nonnegative", "finite")
    d2d_fraction: float = _key(0.6, "geometry", "fraction")  # share of F-UEs D2D capable
    fap_topology: FapTopology = _key(FapTopology.TREE, "geometry")
    path_loss_exponent: float = _key(4.0, "channel", "exponent")
    reference_gain_db: float = _key(0.0, "channel", "db")
    tx_power_fap_dbm: float = _key(30.0, "channel", "db")
    tx_power_fue_dbm: float = _key(20.0, "channel", "db")
    noise_power_dbm: float = _key(-100.0, "channel", "db")
    gamma_th_db: float = _key(0.0, "channel", "db")
    d2d_k_factor_db: float | None = _key(6.0, "channel", "finite", "k_factor")  # None: Rayleigh
    d2d_link_distance: float = _key(20.0, "channel", "nonnegative", "finite")  # meters
    d1: float = _key(50.0, "mode")
    d2: float = _key(150.0, "mode")
    d3: float = _key(500.0, "mode")
    speed_threshold: float = _key(10.0, "mode", "positive")
    speed_mean: float = _key(2.0, "mode", "nonnegative", "finite")
    voice_fraction: float = _key(0.1, "mode", "fraction")
    relay_fraction: float = _key(0.5, "mode", "fraction")
    fap_capacity: int = _key(10, "mode", "nonnegative")  # free resource blocks per F-AP
    interference_limit: float = _key(float("inf"), "mode", "nonnegative")
    catalog_items: int = _key(100, "caching", "at_least_one")
    zipf_exponent: float = _key(0.8, "caching", "nonnegative")
    cache_policy: EvictionPolicy = _key(EvictionPolicy.LRU, "caching")
    fue_cache_capacity: int = _key(2, "caching", "at_least_one")
    fap_cache_capacity: int = _key(5, "caching", "at_least_one")
    cooperative_caching: bool = _key(False, "caching")
    tau: float = _key(1.0, "coordination", "positive")
    epsilon: float = _key(0.5, "coordination", "fraction")
    n_subchannels: int = _key(16, "coordination", "at_least_one")
    scheduler: SchedulerKind = _key(SchedulerKind.COAC, "coordination")
    p_static: float = _key(10.0, "coordination", "nonnegative", "finite")
    p_tx: float = _key(1.0, "coordination", "nonnegative", "finite")
    p_coord: float = _key(0.5, "coordination", "nonnegative", "finite")
    p_hpn: float = _key(20.0, "coordination", "nonnegative", "finite")
    sleep_power_fraction: float = _key(0.1, "coordination", "fraction")
    mc_trials: int = _key(2000, "coordination", "at_least_one")  # cellular success only
    requests_per_fue: int = _key(5, "traffic", "nonnegative")
    warmup_requests: int = _key(3, "traffic", "nonnegative")  # per F-UE, prime the caches
    payload_bits: float = _key(1e6, "traffic", "nonnegative", "finite")
    iq_expansion_factor: float = _key(16.0, "traffic", "finite", "at_least_one")
    architecture: Architecture = _key(Architecture.FRAN, "run")
    master_seed: int = _key(1, "run")

    def __post_init__(self):
        for name, (kind, optional) in CONFIG_TYPES.items():
            value = getattr(self, name)
            if issubclass(kind, Enum):
                if not isinstance(value, kind):
                    raise ValueError(f"{name} must be one of {[m.value for m in kind]}")
            elif not (
                isinstance(value, _ACCEPTS[kind]) and isinstance(value, bool) == (kind is bool)
                or optional and value is None
            ):
                raise ValueError(f"{name} must be of type {kind.__name__}")
        # Comparisons are written so that NaN fails too.
        if not 0 < self.d1 < self.d2 < self.d3:
            raise ValueError("thresholds must satisfy 0 < d1 < d2 < d3")
        for name, check, message in _KEY_RULES:
            if not check(getattr(self, name)):
                raise ValueError(f"{name} {message}")
        if not self.p_static + self.p_tx > 0:  # a single F-AP's cluster power
            raise ValueError("p_static + p_tx must be positive")
        # The least power a run draws: every layout has an HPN and an F-AP,
        # and an asleep F-AP draws no more than an active one.
        if not self.p_hpn + self.sleep_power_fraction * self.p_static > 0:
            raise ValueError("p_hpn + sleep_power_fraction * p_static must be positive")
        area = self.region_width * self.region_height
        faps = max(self.lambda_fap * area, 1.0)  # a layout without F-APs gets one
        fues = self.lambda_fue * area
        region = ", region_width and region_height"
        for keys, elements, array in (
            ("lambda_fue, lambda_fap" + region, fues * faps, "F-UE x F-AP gains"),
            ("lambda_fap, fap_topology" + region, faps * (faps - 1) / 2 * MESH_LINK_ELEMENTS,
             "mesh F-AP link elements") if self.fap_topology is FapTopology.MESH
            else ("lambda_fap" + region, faps * faps, "F-AP x F-AP distances"),
            ("lambda_m" + region, self.lambda_m * area, "HPN distances"),
            (
                "lambda_fue, warmup_requests, requests_per_fue" + region,
                fues * (self.warmup_requests + self.requests_per_fue), "F-UE requests",
            ),
            ("catalog_items", self.catalog_items, "content popularities"),
        ):
            if not elements <= MAX_DENSE_ELEMENTS:  # NaN from 0 * inf area fails too
                raise ValueError(
                    f"{keys} expect {elements:.3g} {array}, "
                    f"over the {MAX_DENSE_ELEMENTS:.3g} elements one dense array may hold"
                )
        # The fronthaul total, the largest load sum, adds at most payload_bits
        # * iq_expansion_factor (>= 1) per request; MAX_DENSE_ELEMENTS stands
        # in for the request count, so that no layout overflows it.
        if not self.payload_bits * self.iq_expansion_factor * MAX_DENSE_ELEMENTS < math.inf:
            raise ValueError(
                f"payload_bits * iq_expansion_factor over {MAX_DENSE_ELEMENTS:.3g} "
                "requests must be finite"
            )
        # No link of a layout is longer than the region's diagonal. Its mean
        # received power must stay a normal double: a gain that underflows to
        # 0 W stalls the exact evaluators.
        diagonal = math.hypot(self.region_width, self.region_height)
        weakest = min(self.fap_watts, self.fue_watts)
        if not weakest * float(path_gain(diagonal, self)) >= sys.float_info.min:
            raise ValueError(
                "path_loss_exponent leaves the weaker of tx_power_fap_dbm and "
                f"tx_power_fue_dbm below {sys.float_info.min:.3g} W at the "
                f"{diagonal:.3g} m region diagonal"
            )
        # Nor is the typical D2D link, so its mean received power is one too.
        if not self.d2d_link_distance <= diagonal:
            raise ValueError(
                f"d2d_link_distance must be at most the {diagonal:.3g} m region diagonal"
            )
        # Every cluster utility divides up to log2(1 + gamma) per served F-UE
        # (like the ceiling, take the expected count) by P(k)^tau, which grows
        # with the cluster size k from one F-AP to the expected F-AP count.
        reward = math.log2(1.0 + self.theta) * max(fues, 1.0)
        for k in (1.0, faps):
            try:
                scaled = cluster_power(k, self) ** self.tau
            except OverflowError:
                scaled = math.inf
            if not (0.0 < scaled < math.inf and reward / scaled < math.inf):
                raise ValueError(
                    f"tau: cluster_power(k = {k:.3g}) of p_static, p_tx and p_coord, "
                    f"raised to tau, is {scaled:g}; it must be finite and positive, and so "
                    f"must a utility of up to {reward:.3g} over it"
                )

    @property
    def fap_watts(self) -> float:
        return dbm_to_watts(self.tx_power_fap_dbm)

    @property
    def fue_watts(self) -> float:
        return dbm_to_watts(self.tx_power_fue_dbm)

    @property
    def noise_watts(self) -> float:
        return dbm_to_watts(self.noise_power_dbm)

    @property
    def theta(self) -> float:
        """The linear SINR threshold gamma."""
        return db_to_linear(self.gamma_th_db)

    def d2d_fading(self) -> float:
        """The D2D links' linear Rician K-factor; 0.0 (no key) is Rayleigh."""
        return 0.0 if self.d2d_k_factor_db is None else db_to_linear(self.d2d_k_factor_db)

    def region(self) -> Region:
        return Region(self.region_width, self.region_height)


# Each config key's type, read from its default, and whether its annotation
# also allows None (d2d_k_factor_db: None is Rayleigh). The CLI parses each
# key by this table and `ScenarioConfig` checks each value against it.
CONFIG_TYPES = {
    f.name: (type(f.default), f.type.endswith("| None"))
    for f in dataclasses.fields(ScenarioConfig)
}
# What a key of each non-enum type takes. bool is an int to Python, so the
# check above also keeps it out of the numeric keys.
_ACCEPTS = {bool: bool, int: numbers.Integral, float: numbers.Real}
# (key, check, message) of each rule a field names, in `RULES` order.
_KEY_RULES = [
    (f.name, check, message)
    for rule, (check, message) in RULES.items()
    for f in dataclasses.fields(ScenarioConfig)
    if rule in f.metadata["rules"]
]


class ParseError(Exception):
    pass


class ValidationError(Exception):
    pass


# The INI layout: each section and its keys, in field order. A key's section
# is on its `ScenarioConfig` field, and its type (`CONFIG_TYPES`)
# drives its parsing.
CONFIG_SCHEMA = {
    section: [f.name for f in fields]
    for section, fields in itertools.groupby(
        dataclasses.fields(ScenarioConfig), lambda f: f.metadata["section"]
    )
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
