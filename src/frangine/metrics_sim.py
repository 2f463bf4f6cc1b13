"""Scenario orchestration: topology, mode decisions, cache workloads,
coordination procedures, and fronthaul/backhaul load accounting.

A scenario is fully determined by its config (including the master seed):
every random stream is derived as a pure function of (seed, purpose tag),
one stream per purpose, so runs are reproducible byte for byte and adding a
consumer of randomness never perturbs another one.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
import numbers
import operator
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .caching import (
    ContentCatalog,
    ContentTier,
    EdgeCache,
    EvictionPolicy,
    zipf_stream,
)
from .channel import (
    RAYLEIGH,
    FadingKind,
    FadingModel,
    LinkBudget,
    db_to_linear,
    path_gain,
)
from .coordination import (
    ClusterUtilityParams,
    SchedulerKind,
    cellular_success_probability,
    coac_assign,
    drac_assign,
    make_d2d_links,
    merge_and_split,
)
from .geometry import (
    FapTopology,
    NetworkTopology,
    NodeKind,
    NodeSet,
    build_fap_adjacency,
    pair_d2d,
    pairwise_distances,
    sample_ppp,
    Region,
)
from .mode_select import MODES, Mode, ModeThresholds, associate_fap, select_mode
from .rng import derive_rng

Z_99 = 2.5758293035489004  # two-sided 99% normal quantile

# The widest powers, reference gain and SINR threshold a config takes, in
# dB(m): 10^(x/10) of each, and their products in a link budget, stay
# normal doubles.
DB_LIMIT = 300.0
# The largest D2D K-factor a config takes, in dB. The exact D2D success sums
# under K + 12 sqrt(K) + 60 terms (1,281 at 30 dB) in a Python loop.
K_FACTOR_DB_MAX = 30.0
# The most elements a config may expect in one dense array: today's geometry
# builds capable x capable, F-UE x F-AP and F-AP x F-AP matrices (2 GB of
# float64 at this ceiling). The 20 km tree and dense 20k layouts expect
# 1.44e8, pair_d2d's capable F-UEs squared.
MAX_DENSE_ELEMENTS = 2.5e8


class Architecture(Enum):
    CRAN = "cran"
    HCRAN = "hcran"
    FRAN = "fran"


class UnknownParameter(Exception):
    pass


class ZeroPower(Exception):
    pass


class InvalidGridValue(ValueError):
    """A sweep grid value that makes an invalid config."""


@dataclass(frozen=True)
class ScenarioConfig:
    # Geometry
    region_width: float = 1000.0
    region_height: float = 1000.0
    lambda_m: float = 2e-6  # HPN density, /m^2
    lambda_fap: float = 1e-5
    lambda_fue: float = 5e-5
    d2d_fraction: float = 0.6  # fraction of F-UEs that are D2D capable
    fap_topology: FapTopology = FapTopology.TREE
    # Channel
    path_loss_exponent: float = 4.0
    reference_gain_db: float = 0.0
    tx_power_fap_dbm: float = 30.0
    tx_power_fue_dbm: float = 20.0
    noise_power_dbm: float = -100.0
    gamma_th_db: float = 0.0
    d2d_k_factor_db: float | None = 6.0  # None -> Rayleigh D2D links
    d2d_link_distance: float = 20.0  # typical D2D link length, meters
    # Mode selection
    d1: float = 50.0
    d2: float = 150.0
    d3: float = 500.0
    speed_threshold: float = 10.0
    speed_mean: float = 2.0
    voice_fraction: float = 0.1
    relay_fraction: float = 0.5
    fap_capacity: int = 10  # free resource blocks per F-AP
    interference_limit: float = float("inf")
    # Caching
    catalog_items: int = 100
    zipf_exponent: float = 0.8
    cache_policy: EvictionPolicy = EvictionPolicy.LRU
    fue_cache_capacity: int = 2
    fap_cache_capacity: int = 5
    cooperative_caching: bool = False
    # Coordination
    tau: float = 1.0
    epsilon: float = 0.5
    n_subchannels: int = 16
    scheduler: SchedulerKind = SchedulerKind.COAC
    p_static: float = 10.0
    p_tx: float = 1.0
    p_coord: float = 0.5
    p_hpn: float = 20.0
    sleep_power_fraction: float = 0.1
    mc_trials: int = 2000  # cellular success; the rate and D2D success are exact
    # Traffic
    requests_per_fue: int = 5
    warmup_requests: int = 3  # per F-UE, primes caches before accounting
    payload_bits: float = 1e6
    iq_expansion_factor: float = 16.0
    # Run control
    architecture: Architecture = Architecture.FRAN
    master_seed: int = 1

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
        ModeThresholds(self.d1, self.d2, self.d3, self.speed_threshold)
        # Comparisons are written so that NaN fails too.
        for name in (
            "epsilon", "d2d_fraction", "relay_fraction", "voice_fraction",
            "sleep_power_fraction",
        ):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
        for name in (
            "lambda_m", "lambda_fap", "lambda_fue", "d2d_link_distance", "speed_mean",
            "fap_capacity", "interference_limit", "zipf_exponent", "p_static", "p_tx",
            "p_coord", "p_hpn", "requests_per_fue", "warmup_requests", "payload_bits",
        ):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be nonnegative")
        for name in ("region_width", "region_height", "tau"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        for name in (
            "region_width", "region_height", "lambda_m", "lambda_fap", "lambda_fue",
            "d2d_k_factor_db",  # None: Rayleigh
        ):
            if not math.isfinite(getattr(self, name) or 0.0):
                raise ValueError(f"{name} must be finite")
        for name in (
            "reference_gain_db", "tx_power_fap_dbm", "tx_power_fue_dbm", "noise_power_dbm",
            "gamma_th_db",
        ):
            if not -DB_LIMIT <= getattr(self, name) <= DB_LIMIT:
                raise ValueError(f"{name} must lie in [-{DB_LIMIT:g}, {DB_LIMIT:g}]")
        if not (self.d2d_k_factor_db or 0.0) <= K_FACTOR_DB_MAX:
            raise ValueError(f"d2d_k_factor_db must be at most {K_FACTOR_DB_MAX:g} (or none)")
        if not self.p_static + self.p_tx > 0:  # a single F-AP's cluster power
            raise ValueError("p_static + p_tx must be positive")
        # The least power a run draws: every layout has an HPN and an F-AP,
        # and an asleep F-AP draws no more than an active one.
        if not self.p_hpn + self.sleep_power_fraction * self.p_static > 0:
            raise ValueError("p_hpn + sleep_power_fraction * p_static must be positive")
        for name in (
            "catalog_items", "fue_cache_capacity", "fap_cache_capacity", "n_subchannels",
            "mc_trials", "iq_expansion_factor",
        ):
            if not getattr(self, name) >= 1:
                raise ValueError(f"{name} must be at least 1")
        if not self.path_loss_exponent > 2:
            raise ValueError("path_loss_exponent must exceed 2")
        area = self.region_width * self.region_height
        faps = max(self.lambda_fap * area, 1.0)  # a layout without F-APs gets one
        fues = self.lambda_fue * area
        capable = self.d2d_fraction * fues
        for keys, elements, array in (
            ("lambda_fue, d2d_fraction", capable * capable, "capable F-UE distances"),
            ("lambda_fue, lambda_fap", fues * faps, "F-UE x F-AP gains"),
            ("lambda_fap", faps * faps, "F-AP x F-AP distances"),
            ("lambda_m", self.lambda_m * area, "HPN distances"),
        ):
            if not elements <= MAX_DENSE_ELEMENTS:  # NaN from 0 * inf area fails too
                raise ValueError(
                    f"{keys}, region_width and region_height expect {elements:.3g} {array}, "
                    f"over the {MAX_DENSE_ELEMENTS:.3g} elements one dense array may hold"
                )

    def thresholds(self) -> ModeThresholds:
        return ModeThresholds(self.d1, self.d2, self.d3, self.speed_threshold)

    def budget(self) -> LinkBudget:
        return LinkBudget(
            path_loss_exponent=self.path_loss_exponent,
            reference_gain_db=self.reference_gain_db,
            tx_power_dbm={
                NodeKind.FAP: self.tx_power_fap_dbm,
                NodeKind.FUE: self.tx_power_fue_dbm,
            },
            noise_power_dbm=self.noise_power_dbm,
            sinr_threshold_db=self.gamma_th_db,
        )

    def d2d_fading(self) -> FadingModel:
        if self.d2d_k_factor_db is None:
            return RAYLEIGH
        return FadingModel(FadingKind.RICIAN, self.d2d_k_factor_db)

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


@dataclass(slots=True)
class LedgerRow:
    request_index: int
    fue_id: int
    mode: Mode
    tier: ContentTier
    payload_bits: float
    fronthaul_bits: float
    backhaul_bits: float
    served_by: str  # bbu | edge | hpn


@dataclass
class LoadReport:
    fronthaul_bits: float = 0.0
    backhaul_bits: float = 0.0
    bbu_processed_bits: float = 0.0
    edge_processed_bits: float = 0.0
    payload_bbu_bits: float = 0.0
    payload_edge_bits: float = 0.0
    payload_hpn_bits: float = 0.0
    total_payload_bits: float = 0.0
    mode_counts: dict = field(default_factory=dict)

    def conserved(self) -> bool:
        served = self.payload_bbu_bits + self.payload_edge_bits + self.payload_hpn_bits
        return math.isclose(served, self.total_payload_bits, rel_tol=1e-12, abs_tol=1e-9)


@dataclass
class MetricsReport:
    spatial_average_rate: float = 0.0
    rate_ci: float = 0.0
    cellular_success_probability: float = 0.0
    cellular_ci: float = 0.0
    d2d_success_probability: float = 0.0
    d2d_ci: float = 0.0
    fue_hit_ratio: float = 0.0
    fap_hit_ratio: float = 0.0
    energy_efficiency: float = 0.0
    mean_cluster_size: float = 0.0
    n_hpns: int = 0
    n_faps: int = 0
    n_fues: int = 0
    n_d2d_pairs: int = 0
    load: LoadReport = field(default_factory=LoadReport)
    ledger: list = field(default_factory=list)


# A request's content tier travels as a code, an index into TIERS, as its
# mode does into MODES.
TIERS = list(ContentTier)
_AT_FUE, _AT_FAP, _CLOUD_ONLY = map(TIERS.index, ContentTier)
_SERVERS = ("bbu", "edge", "hpn")


def _ordered_sum(values) -> float:
    """0.0 + v_0 + v_1 + ..., added left to right as a Python loop adds;
    np.sum adds pairwise, which rounds differently."""
    return float(np.cumsum(np.concatenate(([0.0], values)))[-1])


def fronthaul_load(fue_ids, mode_codes, tier_codes, payload_bits: float,
                   iq_expansion_factor: float):
    """Per-request fronthaul/backhaul accounting; one auditable ledger row
    per request. Request k is F-UE fue_ids[k] in mode MODES[mode_codes[k]]
    fetching content of tier TIERS[tier_codes[k]] (integer arrays). Payload
    is always served by exactly one of {bbu, edge, hpn}, so payload
    conservation holds by construction. Each (mode, tier) route is worked
    out once, and every total adds in request order.
    """
    routes = []  # (mode, tier, fronthaul, backhaul, served by, processed) by code
    for mode in MODES:
        for tier in TIERS:
            if mode is Mode.GLOBAL_CRAN:
                fh = payload_bits * iq_expansion_factor
                routes.append((mode, tier, fh, 0.0, "bbu", fh))
            elif mode is Mode.HPN:
                routes.append((mode, tier, 0.0, payload_bits, "hpn", 0.0))
            else:  # edge-served; local coordination fetches cloud-only items once
                fetch = mode is Mode.LOCAL_COORDINATION and tier is ContentTier.CLOUD_ONLY
                routes.append((mode, tier, payload_bits if fetch else 0.0, 0.0, "edge", payload_bits))
    mode_codes = np.asarray(mode_codes, dtype=np.intp)
    route_of = mode_codes * len(TIERS) + tier_codes
    fronthaul, backhaul, processed = (
        np.array([r[k] for r in routes], dtype=float)[route_of] for k in (2, 3, 5)
    )
    server = np.array([_SERVERS.index(r[4]) for r in routes])[route_of]
    payload = np.full(len(route_of), float(payload_bits))
    report = LoadReport(
        fronthaul_bits=_ordered_sum(fronthaul),
        backhaul_bits=_ordered_sum(backhaul),
        total_payload_bits=_ordered_sum(payload),
    )
    report.payload_bbu_bits, report.payload_edge_bits, report.payload_hpn_bits = (
        _ordered_sum(payload[server == k]) for k in range(3)
    )
    report.bbu_processed_bits, report.edge_processed_bits = (
        _ordered_sum(processed[server == k]) for k in range(2)
    )
    # Modes in order of first request, as a request loop adds them.
    counts = np.bincount(mode_codes, minlength=len(MODES)).tolist()
    for code in dict.fromkeys(mode_codes.tolist()):
        report.mode_counts[MODES[code].value] = counts[code]
    # Object arrays hand every row of a route, or of an F-UE, the same objects.
    mode, tier, fh, bh, served, _ = np.array(routes, dtype=object)[route_of].T.tolist()
    ids = np.asarray(fue_ids, dtype=np.intp)
    fue = np.arange(ids.max(initial=-1) + 1).astype(object)[ids].tolist()
    ledger = list(map(
        LedgerRow, range(len(route_of)), fue, mode, tier, itertools.repeat(payload_bits),
        fh, bh, served,
    ))
    return report, ledger


def energy_efficiency(rate_sum: float, total_power: float) -> float:
    """Total rate over total power; rejects zero or negative power."""
    if total_power <= 0:
        raise ZeroPower("total power must be positive")
    return rate_sum / total_power


@functools.cache
def _gauss_legendre(n: int):
    """n-point Gauss-Legendre nodes and weights on [0, 1], made on first use."""
    from numpy.polynomial.legendre import leggauss

    x, w = leggauss(n)
    nodes = ((x + 1.0) / 2.0, w / 2.0)
    for a in nodes:
        a.flags.writeable = False  # shared by every call
    return nodes


# Quadrature of `spatial_average_rate`: Gauss-Legendre nodes per panel of
# the radial area integral and of the log z integral, and the widest panel
# in log r and in log z.
AREA_NODES = 16
Z_NODES = 16
LOG_R_PANEL = 2.0
LOG_Z_PANEL = 2.0


def _region_area_nodes(half_width: float, half_height: float):
    """Radii r and weights w with sum w f(r) = the integral of f(|x|) over
    the rectangle of these half sides, centred on the origin.

    At radius r the rectangle holds the arc angle 2 pi - 4 acos(a/r)[r > a]
    - 4 acos(b/r)[r > b] out to the corner. The panels break at the 1 m path
    gain clamp and at both half sides. A panel from a half side takes r =
    lo + (hi - lo) u^2, which smooths the arc angle's square-root kink there;
    the panel from 0 is linear in r; the others are panels in log r. No
    panel spans more than LOG_R_PANEL in log r, except the one from 0."""
    a, b = half_width, half_height
    corner = math.hypot(a, b)
    spread = math.exp(LOG_R_PANEL)  # also the widest panel from a half side
    cuts = (1.0, a, b, a * spread, b * spread)
    edges = sorted({0.0, corner, *(e for e in cuts if e < corner)})
    x, w = _gauss_legendre(AREA_NODES)
    radii, weights = [], []
    for lo, hi in zip(edges, edges[1:]):
        if lo in (a, b):
            radii.append(lo + (hi - lo) * x * x)
            weights.append(2.0 * (hi - lo) * x * w)
        elif lo == 0.0:
            radii.append(hi * x)
            weights.append(hi * w)
        else:
            panels = math.ceil(math.log(hi / lo) / LOG_R_PANEL)
            logs = np.linspace(math.log(lo), math.log(hi), panels + 1)
            for v_lo, v_hi in zip(logs, logs[1:]):
                r = np.exp(v_lo + (v_hi - v_lo) * x)
                radii.append(r)
                weights.append((v_hi - v_lo) * w * r)
    r = np.concatenate(radii)
    outside = np.arccos(np.minimum(a / r, 1.0)) + np.arccos(np.minimum(b / r, 1.0))
    angle = 2.0 * math.pi - 4.0 * outside
    return r, np.concatenate(weights) * angle * r


def spatial_average_rate(
    topology: NetworkTopology,
    fading: FadingModel,
    budget: LinkBudget,
    link_distance: float = 20.0,
    interferer_density: float | None = None,
) -> float:
    """Mean Shannon rate E log2(1 + S/(I + N)) of the typical D2D link at the
    region centre, in bit/s/Hz, computed exactly by quadrature.

    The signal S fades per `fading` (unit mean, mean S_bar); the interferers
    are a PPP of D2D transmitters over the region, Rayleigh faded, with path
    gains clamped at 1 m. Hamdi's lemma (IEEE TCOM 2010) gives

        E ln(1 + S/(I + N)) = int_0^inf (1 - M_S(z)) M_I(z) exp(-zN) dz / z,

    with the Rician moment generating function M_S(z) = (1+K)/(1+K+z S_bar)
    exp(-K z S_bar/(1+K+z S_bar)) (K = 0 is Rayleigh) and the PPP Laplace
    functional log M_I(z) = -density * int_region z P g/(1 + z P g) dA
    (Andrews, Baccelli & Ganti, IEEE TCOM 2011). The z integral runs in log z
    from z S_bar = 1e-18 to z N = 800, beyond which the integrand is below
    double precision, in Gauss-Legendre panels; the area integral is radial
    (`_region_area_nodes`).
    """
    if interferer_density is None:
        interferer_density = topology.fues.density
    p_fue = budget.tx_watts(NodeKind.FUE)
    signal_mean = p_fue * float(path_gain(link_distance, budget))
    noise = budget.noise_watts
    if signal_mean == 0.0:
        return 0.0
    if noise == 0.0 or signal_mean == math.inf:  # I = 0 has P > 0 on a finite region
        return math.inf
    lo = math.log(1e-18) - math.log(signal_mean)
    hi = math.log(800.0) - math.log(noise)
    if hi <= lo:
        return 0.0
    x, w = _gauss_legendre(Z_NODES)
    edges = np.linspace(lo, hi, math.ceil((hi - lo) / LOG_Z_PANEL) + 1)
    width = edges[1] - edges[0]
    z = np.exp(edges[:-1, None] + width * x).ravel()
    # 1 - M_S(z), from log M_S(z) so that it keeps its digits at small z.
    k = fading.k_linear()
    zs = z * signal_mean
    log_m_s = -np.log1p(zs / (1.0 + k)) - k * zs / (1.0 + k + zs)
    log_integrand = -z * noise
    if interferer_density > 0:
        region = topology.region
        r, area = _region_area_nodes(region.width / 2.0, region.height / 2.0)
        zg = z[:, None] * (p_fue * path_gain(r, budget))
        zg /= zg + 1.0  # in place: under 1 MiB per (z, r) array by default
        log_integrand -= interferer_density * (zg @ area)
    integrand = -np.expm1(log_m_s) * np.exp(log_integrand)
    return float(integrand @ np.tile(width * w, len(edges) - 1)) / math.log(2.0)


def _prob_ci(p: float, n: int) -> float:
    return Z_99 * math.sqrt(max(p * (1.0 - p), 0.0) / n)


# Truncation of `d2d_success_probability`'s Poisson mixture: terms whose
# weight P(Poisson(K) >= m) is below POISSON_TAIL are dropped, which loses
# at most that much probability.
POISSON_TAIL = 1e-17
# Its recursion divides its running terms by _RESCALE whenever one passes
# it, and keeps the log of the scale apart, so no term under- or overflows.
_RESCALE = 1e250


def _poisson_tail(k: float) -> np.ndarray:
    """Q(m) = P(Poisson(k) >= m) for m = 0, 1, ... while Q(m) >= POISSON_TAIL.

    Each tail is summed from its small end over the pmf, taken from its log:
    1 - cdf would floor at about 1e-16. The pmf past k + 12 sqrt(k) + 60
    adds less than 1e-32 to any tail."""
    last = int(k + 12.0 * math.sqrt(k) + 60.0)
    log_k = math.log(k)
    log_pmf = np.array([j * log_k - k - math.lgamma(j + 1.0) for j in range(last + 1)])
    tail = np.cumsum(np.exp(log_pmf)[::-1])[::-1]
    return tail[: np.count_nonzero(tail >= POISSON_TAIL)]


def d2d_success_probability(
    topology: NetworkTopology,
    pairs,
    fading: FadingModel,
    budget: LinkBudget,
    gamma_th_db: float,
    link_distance: float = 20.0,
) -> float:
    """Probability that the typical D2D link at the region centre reaches
    SINR theta against the co-channel D2D transmitters (the first F-UE of
    each pair), computed exactly.

    The signal S fades per `fading` (unit mean, mean S_bar); interferer k
    has mean received power g_k and a Rayleigh fade. With a = (1 + K)
    theta / S_bar, success is (1 + K) S / S_bar >= y = a (I + N), and
    (1 + K) S / S_bar is a Poisson(K) mixture of Gamma(J + 1, 1) (Simon &
    Alouini, the Rician case; K = 0 is Rayleigh). So

        P = sum_m Q_K(m) T_m,  Q_K(m) = P(Poisson(K) >= m),

    where T_m = E[exp(-y) y^m / m!] is the u^m coefficient of
    G(u) = exp(-a N (1 - u)) prod_k 1 / (1 + b_k (1 - u)), b_k = a g_k (the
    Rayleigh Laplace transform; Andrews, Baccelli & Ganti, IEEE TCOM 2011).
    log G has the nonnegative coefficients H_1 = a N + sum_k rho_k and
    H_j = sum_k rho_k^j / j, rho_k = b_k / (1 + b_k), so T_0 =
    exp(-a N - sum_k log1p(b_k)) and m T_m = sum_j j H_j T_(m-j) sum only
    nonnegative terms. Rayleigh is T_0 alone. The T_m sum to 1, so the
    terms with Q_K(m) < POISSON_TAIL change P by at most that.
    """
    region = topology.region
    center = (region.width / 2.0, region.height / 2.0)
    p_fue = budget.tx_watts(NodeKind.FUE)
    signal_mean = p_fue * float(path_gain(link_distance, budget))
    noise = budget.noise_watts
    tx_positions = topology.fues.positions[[i for i, _ in pairs]].reshape(-1, 2)
    gains = p_fue * path_gain(pairwise_distances(tx_positions, [center])[:, 0], budget)
    if signal_mean == 0.0:
        return 0.0
    if noise == 0.0 and not gains.any():
        return 1.0  # nothing to beat: the SINR is infinite
    k = fading.k_linear()
    a = (1.0 + k) * db_to_linear(gamma_th_db) / signal_mean
    b = a * gains
    # By Markov's inequality on each term of y alone, P <= (1 + K) / max(a N,
    # b_k). Past that test every step of the recursion below grows its terms
    # by at most a N + sum_k b_k <= (n + 1)(1 + K) / POISSON_TAIL.
    if not max(a * noise, b.max(initial=0.0)) * POISSON_TAIL <= 1.0 + k:
        return 0.0
    log_scale = -a * noise - float(np.log1p(b).sum())  # log T_0
    if k == 0.0:
        return math.exp(log_scale)
    tail = _poisson_tail(k)
    rho = b / (1.0 + b)
    power = np.ones_like(rho)
    jh = np.zeros(len(tail))  # j H_j: the power sums of rho, plus a N at j = 1
    t = np.zeros(len(tail))  # T_m / exp(log_scale)
    t[0] = 1.0
    for m in range(1, len(tail)):
        power *= rho
        jh[m] = power.sum() + (a * noise if m == 1 else 0.0)
        t[m] = jh[1 : m + 1] @ t[m - 1 :: -1] / m
        if t[m] > _RESCALE:
            t[: m + 1] /= _RESCALE
            log_scale += math.log(_RESCALE)
    total = float(tail @ t)
    return min(1.0, math.exp(math.log(total) + log_scale)) if total > 0.0 else 0.0


def _build_topology(config: ScenarioConfig) -> NetworkTopology:
    region = config.region()
    hpns = sample_ppp(config.lambda_m, region, derive_rng(config.master_seed, "hpn"), NodeKind.HPN)
    faps = sample_ppp(config.lambda_fap, region, derive_rng(config.master_seed, "fap"), NodeKind.FAP)
    fues = sample_ppp(config.lambda_fue, region, derive_rng(config.master_seed, "fue"), NodeKind.FUE)
    center = np.array([[region.width / 2.0, region.height / 2.0]])
    # Guarantee coverage: desk-scale densities can sample zero nodes.
    if len(hpns) == 0:
        hpns = NodeSet(NodeKind.HPN, center.copy(), config.lambda_m)
    if len(faps) == 0:
        faps = NodeSet(NodeKind.FAP, center.copy(), config.lambda_fap)
    adjacency = build_fap_adjacency(faps, config.fap_topology)
    return NetworkTopology(
        region=region,
        hpns=hpns,
        faps=faps,
        fues=fues,
        fap_link_topology=config.fap_topology,
        fap_adjacency=adjacency,
    )


def _pair_relays(xy, pairs, relay_xy, th: ModeThresholds) -> np.ndarray:
    """One flag per F-UE: whether a relay (of those at relay_xy) lies within
    D1 of both ends of its pair, for the pairs whose ends lie in (D1, D2],
    the only ones `select_mode` rule (3) reads. Neither end of such a pair
    is within D1 of the other, so neither counts as its own relay."""
    found = np.zeros(len(xy), dtype=bool)
    for i, j in pairs:
        if th.d1 < np.hypot(xy[i, 0] - xy[j, 0], xy[i, 1] - xy[j, 1]) <= th.d2:
            near = (pairwise_distances(xy[[i, j]], relay_xy) <= th.d1).all(axis=0)
            found[i] = found[j] = near.any()
    return found


def _content_tiers(config: ScenarioConfig, serving, neighbors):
    """Replay every F-UE's warm-up and traffic requests through the caches.

    The warm-up requests are one (U, warmup_requests) draw from the
    "warmup" stream and the traffic one (U, requests_per_fue) draw from the
    "traffic" stream; row i is F-UE i's requests. Returns each traffic
    request's tier code as a (U, requests_per_fue) array, and the F-UE and
    F-AP hit ratios of the traffic. All warm-ups come first, in F-UE order,
    then all traffic; the warm-ups only prime the caches. An F-UE's cache
    sees only its own requests, so each is replayed over its own items; the
    F-AP caches are replayed in request order, which cooperative lookups
    read. A request's tier is what `content_available` gives just before
    it: the F-UE, then the F-AP hit flag of `EdgeCache.request`, then
    whether a linked F-AP holds the item (no request touches a linked F-AP's
    cache).
    """
    catalog = ContentCatalog(config.catalog_items, config.zipf_exponent)
    n_fues = len(serving)
    warm, traffic = (
        zipf_stream(catalog, (n_fues, length), derive_rng(config.master_seed, tag)).tolist()
        for tag, length in (("warmup", config.warmup_requests), ("traffic", config.requests_per_fue))
    )
    fue_hits = []
    for warm_items, items in zip(warm, traffic):
        request = EdgeCache(config.fue_cache_capacity, config.cache_policy).request
        for item in warm_items:
            request(item)
        fue_hits.append([request(item)[0] for item in items])

    fap_caches = [EdgeCache(config.fap_cache_capacity, config.cache_policy) for _ in neighbors]
    for s, items in zip(serving, warm):
        if s is not None:
            request = fap_caches[s].request
            for item in items:
                request(item)
    for cache in fap_caches:
        cache.hits = cache.misses = 0
    tiers = []
    for s, items, hits in zip(serving, traffic, fue_hits):
        if s is None:
            tiers.append([_AT_FUE if hit else _CLOUD_ONLY for hit in hits])
            continue
        request = fap_caches[s].request
        peers = [fap_caches[j] for j in neighbors[s]] if config.cooperative_caching else ()
        tiers.append([
            _AT_FUE if hit else _AT_FAP if fap_hit or any(item in p for p in peers)
            else _CLOUD_ONLY
            for item, hit, (fap_hit, _) in zip(items, hits, map(request, items))
        ])
    fue_requests = n_fues * config.requests_per_fue
    fap_requests = sum(c.hits + c.misses for c in fap_caches)
    return (
        np.array(tiers, dtype=np.int64).reshape(n_fues, config.requests_per_fue),
        sum(map(sum, fue_hits)) / fue_requests if fue_requests else 0.0,
        sum(c.hits for c in fap_caches) / fap_requests if fap_requests else 0.0,
    )


def run_scenario(config: ScenarioConfig) -> MetricsReport:
    """One full deterministic scenario run: place, pair, associate, decide
    modes, serve caches, coordinate, and aggregate metrics."""
    budget = config.budget()
    thresholds = config.thresholds()
    topology = _build_topology(config)
    n_fues = len(topology.fues)
    report = MetricsReport(
        n_hpns=len(topology.hpns), n_faps=len(topology.faps), n_fues=n_fues
    )
    if n_fues == 0:
        return report

    attr_rng = derive_rng(config.master_seed, "ue_attrs")
    speeds = attr_rng.exponential(config.speed_mean, size=n_fues)
    d2d_capable = attr_rng.random(n_fues) < config.d2d_fraction
    relay_willing = attr_rng.random(n_fues) < config.relay_fraction
    voice = attr_rng.random(n_fues) < config.voice_fraction

    xy = topology.fues.positions
    pairs = pair_d2d(topology.fues, d2d_capable)
    report.n_d2d_pairs = len(pairs)
    # An unpaired F-UE is its own far end: co-located and without a D2D
    # partner, so the rules route it through local coordination or C-RAN.
    partner = np.arange(n_fues)
    for i, j in pairs:
        partner[i], partner[j] = j, i

    serving = associate_fap(
        xy, topology.faps, budget, config.interference_limit,
        [config.fap_capacity] * len(topology.faps),
    )
    # Local coordination needs the serving F-AP's mean SNR to reach gamma.
    served = [i for i, s in enumerate(serving) if s is not None]
    gap = xy[served] - topology.faps.positions[[serving[i] for i in served]]
    snr = budget.tx_watts(NodeKind.FAP) * path_gain(np.hypot(gap[:, 0], gap[:, 1]), budget)
    lc_feasible = np.zeros(n_fues, dtype=bool)
    lc_feasible[served] = snr / budget.noise_watts >= budget.gamma_th_linear

    relays = _pair_relays(xy, pairs, xy[relay_willing & d2d_capable], thresholds)

    tiers, report.fue_hit_ratio, report.fap_hit_ratio = _content_tiers(
        config, serving, topology.fap_neighbors()
    )
    # A request reaches its F-UE's mode only through whether its content is
    # cloud-only. So every F-UE's two modes are decided in one call, on a
    # (U, 2) grid whose column 1 is cloud-only content.
    u, p = np.arange(n_fues)[:, None], partner[:, None]
    decided = select_mode(
        np.hypot(xy[u, 0] - xy[p, 0], xy[u, 1] - xy[p, 1]), speeds[u], speeds[p],
        voice[u], voice[p], u != p, relays[u], lc_feasible[u] & np.array([True, False]),
        thresholds,
    )
    # The architecture gates. C-RAN serves every request through the BBU
    # pool; H-CRAN sends a fast or voice F-UE, or one with a fast partner, to
    # the HPN and the rest through the BBU pool.
    t = thresholds.speed_threshold
    to_hpn = (config.architecture is Architecture.HCRAN) & (
        (speeds[u] > t) | voice[u] | (speeds[p] > t)
    )
    gated = np.where(to_hpn, MODES.index(Mode.HPN), MODES.index(Mode.GLOBAL_CRAN))
    decided = np.where(config.architecture is Architecture.FRAN, decided, gated)

    fue_ids = np.repeat(np.arange(n_fues), config.requests_per_fue)
    cloud = (tiers == _CLOUD_ONLY).astype(np.intp).ravel()
    report.load, report.ledger = fronthaul_load(
        fue_ids, decided[fue_ids, cloud], tiers.ravel(), config.payload_bits,
        config.iq_expansion_factor,
    )

    # Coalitional clustering of F-APs.
    params = ClusterUtilityParams(
        tau=config.tau,
        gamma_th_db=config.gamma_th_db,
        p_static=config.p_static,
        p_tx=config.p_tx,
        p_coord=config.p_coord,
    )
    partition = merge_and_split(topology, params, budget)
    report.mean_cluster_size = float(np.mean(partition.block_sizes()))

    # D2D subchannel scheduling and the cellular victim's success.
    center = (config.region_width / 2.0, config.region_height / 2.0)
    tx_positions = np.array(
        [topology.fues.positions[i] for i, _ in pairs], dtype=float
    ).reshape(-1, 2)
    links = make_d2d_links(
        tx_positions,
        center,
        config.n_subchannels,
        budget,
        derive_rng(config.master_seed, "crossgains"),
    )
    if config.scheduler is SchedulerKind.COAC:
        assignment = coac_assign(links, config.n_subchannels, config.epsilon)
    else:
        assignment = drac_assign(
            links, config.n_subchannels, config.epsilon,
            derive_rng(config.master_seed, "drac"),
        )
    report.cellular_success_probability = cellular_success_probability(
        assignment,
        topology,
        budget,
        config.gamma_th_db,
        config.mc_trials,
        derive_rng(config.master_seed, "cellular"),
    )
    report.cellular_ci = _prob_ci(report.cellular_success_probability, config.mc_trials)

    # Exact, so rate_ci and d2d_ci stay 0.0: neither has Monte-Carlo error.
    report.spatial_average_rate = spatial_average_rate(
        topology, config.d2d_fading(), budget, link_distance=config.d2d_link_distance
    )

    report.d2d_success_probability = d2d_success_probability(
        topology, pairs, config.d2d_fading(), budget, config.gamma_th_db,
        link_distance=config.d2d_link_distance,
    )

    # Energy efficiency: active F-APs at full power, idle ones asleep.
    active_faps = {s for s in serving if s is not None}
    n_sleep = len(topology.faps) - len(active_faps)
    total_power = (
        len(active_faps) * (config.p_static + config.p_tx)
        + n_sleep * config.sleep_power_fraction * config.p_static
        + len(topology.hpns) * config.p_hpn
    )
    rate_sum = report.spatial_average_rate * n_fues
    report.energy_efficiency = energy_efficiency(rate_sum, total_power)
    return report


_SWEEPABLE = {
    "epsilon": "epsilon",
    "k_factor_db": "d2d_k_factor_db",
    "lambda_d": "lambda_fue",
    "tau": "tau",
    "gamma_th": "gamma_th_db",
    "cache_capacity": "fue_cache_capacity",
}


def sweep(config: ScenarioConfig, parameter: str, grid):
    """One run per grid value, every run on the config's master seed, so
    grid points share their random streams (common random numbers) and a
    one-point grid reproduces a plain run exactly.

    Every point's config is built before any point runs, so a bad grid value
    fails with `InvalidGridValue`, naming the key, before any work is done.

    Each point still runs the whole of `run_scenario`, clustering included,
    even where the swept value cannot change the partition (`k_factor_db`):
    the scenario benchmark checks one `merge_and_split` partition per point.
    """
    if parameter not in _SWEEPABLE:
        raise UnknownParameter(
            f"unknown sweep parameter {parameter!r}; choose from {sorted(_SWEEPABLE)}"
        )
    grid = list(grid)
    if not grid:
        raise ValueError("sweep grid must be nonempty")
    field_name = _SWEEPABLE[parameter]
    points = []
    for value in grid:
        if CONFIG_TYPES[field_name][0] is int and isinstance(value, float) and value.is_integer():
            value = int(value)
        try:
            points.append((value, dataclasses.replace(config, **{field_name: value})))
        except ValueError as exc:
            raise InvalidGridValue(f"{parameter} grid value {value!r}: {exc}") from exc
    return [(value, run_scenario(point)) for value, point in points]


# ---------------------------------------------------------------------------
# CSV schemas
# ---------------------------------------------------------------------------

METRICS_COLUMNS = [
    "spatial_average_rate",
    "rate_ci",
    "cellular_success_probability",
    "cellular_ci",
    "d2d_success_probability",
    "d2d_ci",
    "fue_hit_ratio",
    "fap_hit_ratio",
    "energy_efficiency",
    "mean_cluster_size",
    "n_hpns",
    "n_faps",
    "n_fues",
    "n_d2d_pairs",
    "fronthaul_bits",
    "backhaul_bits",
    "bbu_processed_bits",
    "edge_processed_bits",
    "total_payload_bits",
]

LEDGER_COLUMNS = [f.name for f in dataclasses.fields(LedgerRow)]


def metrics_row(report: MetricsReport) -> list:
    values = vars(report) | vars(report.load)
    return [values[name] for name in METRICS_COLUMNS]


def ledger_rows(report: MetricsReport) -> list:
    values = operator.attrgetter(*LEDGER_COLUMNS)
    return [
        [v.value if isinstance(v, Enum) else v for v in values(row)] for row in report.ledger
    ]
