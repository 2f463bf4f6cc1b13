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
import math
from dataclasses import dataclass, field

import numpy as np

from .caching import (
    ContentCatalog,
    ContentTier,
    EdgeCache,
    replay_lanes,
    zipf_stream,
)
from .config import CONFIG_TYPES, ScenarioConfig, SchedulerKind, path_gain
from .coordination import (
    AccessTable,
    cellular_success_probability,
    cluster_utility,
    coac_assign,
    drac_assign,
    make_d2d_links,
    merge_and_split,
)
from .geometry import (
    NetworkTopology,
    _pairs_within,
    build_fap_adjacency,
    pair_d2d,
    pairwise_distances,
    sample_ppp,
)
from .mode_select import MODES, Mode, associate_fap, select_mode
from .rng import derive_rng

Z_99 = 2.5758293035489004  # two-sided 99% normal quantile


class UnknownParameter(Exception):
    pass


class InvalidGridValue(ValueError):
    """A sweep grid value that makes an invalid config."""


@dataclass
class Ledger:
    """The per-request audit trail, one entry per request: request k is
    F-UE fue_id[k] on route route[k], a row of `routes`. The 15 routes hold
    the CSV values (mode, tier, payload_bits, fronthaul_bits, backhaul_bits,
    served_by) of each (mode, tier) pair, by code mode * len(TIERS) + tier."""

    fue_id: np.ndarray
    route: np.ndarray
    routes: list

    def __len__(self) -> int:
        return len(self.route)


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
    ledger: Ledger = field(
        default_factory=lambda: Ledger(np.zeros(0, np.intp), np.zeros(0, np.intp), [])
    )


# A request's content tier travels as a code, an index into TIERS, as its
# mode does into MODES.
TIERS = list(ContentTier)
_AT_FUE, _AT_FAP, _CLOUD_ONLY = map(TIERS.index, ContentTier)
_SERVERS = ("bbu", "edge", "hpn")


def _ordered_sum(values) -> float:
    """0.0 + v_0 + v_1 + ..., added left to right as a Python loop adds;
    np.sum adds pairwise, which rounds differently."""
    return float(np.cumsum(np.concatenate(([0.0], values)))[-1])


def fronthaul_load(fue_ids, mode_codes, tier_codes, config: ScenarioConfig):
    """Per-request fronthaul/backhaul accounting, with the `Ledger` of every
    request. Request k is F-UE fue_ids[k] in mode MODES[mode_codes[k]]
    fetching content of tier TIERS[tier_codes[k]] (integer arrays), each of
    the config's payload_bits. Payload is always served by exactly one of
    {bbu, edge, hpn}, so payload conservation holds by construction. Each
    (mode, tier) route is worked out once, and every total adds in request
    order.
    """
    payload_bits = config.payload_bits
    routes = []  # by code: the ledger's CSV values, then the processed bits
    for mode in MODES:
        for tier in TIERS:
            if mode is Mode.GLOBAL_CRAN:
                fh = payload_bits * config.iq_expansion_factor
                route = (fh, 0.0, "bbu", fh)
            elif mode is Mode.HPN:
                route = (0.0, payload_bits, "hpn", 0.0)
            else:  # edge-served; local coordination fetches cloud-only items once
                fetch = mode is Mode.LOCAL_COORDINATION and tier is ContentTier.CLOUD_ONLY
                route = (payload_bits if fetch else 0.0, 0.0, "edge", payload_bits)
            routes.append((mode.value, tier.value, payload_bits, *route))
    mode_codes = np.asarray(mode_codes, dtype=np.intp)
    route_of = mode_codes * len(TIERS) + tier_codes
    fronthaul, backhaul, processed = (
        np.array([r[k] for r in routes], dtype=float)[route_of] for k in (3, 4, 6)
    )
    server = np.array([_SERVERS.index(r[5]) for r in routes])[route_of]
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
    return report, Ledger(np.asarray(fue_ids, dtype=np.intp), route_of, [r[:6] for r in routes])


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


def spatial_average_rate(config: ScenarioConfig) -> float:
    """Mean Shannon rate E log2(1 + S/(I + N)) of the typical D2D link at the
    region centre, in bit/s/Hz, computed exactly by quadrature.

    The signal S is Rician with the config's linear K-factor K (unit mean
    fade, mean S_bar at the D2D link distance); the interferers are a PPP of
    D2D transmitters over the region at the F-UE density, Rayleigh faded,
    with path gains clamped at 1 m. Hamdi's lemma (IEEE TCOM 2010) gives

        E ln(1 + S/(I + N)) = int_0^inf (1 - M_S(z)) M_I(z) exp(-zN) dz / z,

    with the Rician moment generating function M_S(z) = (1+K)/(1+K+z S_bar)
    exp(-K z S_bar/(1+K+z S_bar)) (K = 0 is Rayleigh) and the PPP Laplace
    functional log M_I(z) = -density * int_region z P g/(1 + z P g) dA
    (Andrews, Baccelli & Ganti, IEEE TCOM 2011). The z integral runs in log z
    from z S_bar = 1e-18 to z N = 800, beyond which the integrand is below
    double precision, in Gauss-Legendre panels; the area integral is radial
    (`_region_area_nodes`).
    """
    k_factor, p_fue, noise = config.d2d_fading(), config.fue_watts, config.noise_watts
    signal_mean = p_fue * float(path_gain(config.d2d_link_distance, config))
    lo = math.log(1e-18) - math.log(signal_mean)
    hi = math.log(800.0) - math.log(noise)
    if hi <= lo:
        return 0.0
    x, w = _gauss_legendre(Z_NODES)
    edges = np.linspace(lo, hi, math.ceil((hi - lo) / LOG_Z_PANEL) + 1)
    width = edges[1] - edges[0]
    z = np.exp(edges[:-1, None] + width * x).ravel()
    # 1 - M_S(z), from log M_S(z) so that it keeps its digits at small z.
    zs = z * signal_mean
    log_m_s = -np.log1p(zs / (1.0 + k_factor)) - k_factor * zs / (1.0 + k_factor + zs)
    r, area = _region_area_nodes(*config.region().center)
    zg = z[:, None] * (p_fue * path_gain(r, config))
    zg /= zg + 1.0  # in place: under 1 MiB per (z, r) array by default
    integrand = -np.expm1(log_m_s) * np.exp(-z * noise - config.lambda_fue * (zg @ area))
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


def d2d_success_probability(tx_xy, config: ScenarioConfig) -> float:
    """Probability that the typical D2D link at the region centre reaches
    SINR theta against the co-channel D2D transmitters at the rows of tx_xy
    (the first F-UE of each pair), computed exactly.

    The signal S is Rician with the config's linear K-factor K (unit mean
    fade, mean S_bar at the D2D link distance); interferer k has mean
    received power g_k and a Rayleigh fade. With a = (1 + K) theta / S_bar,
    success is (1 + K) S / S_bar >= y = a (I + N), and (1 + K) S / S_bar is
    a Poisson(K) mixture of Gamma(J + 1, 1) (Simon & Alouini, the Rician
    case; K = 0 is Rayleigh). So

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
    k_factor, p_fue, noise = config.d2d_fading(), config.fue_watts, config.noise_watts
    signal_mean = p_fue * float(path_gain(config.d2d_link_distance, config))
    dists = pairwise_distances(tx_xy, [config.region().center])[:, 0]
    gains = p_fue * path_gain(dists, config)
    a = (1.0 + k_factor) * config.theta / signal_mean
    b = a * gains
    # By Markov's inequality on each term of y alone, P <= (1 + K) / max(a N,
    # b_k). Past that test every step of the recursion below grows its terms
    # by at most a N + sum_k b_k <= (n + 1)(1 + K) / POISSON_TAIL.
    if not max(a * noise, b.max(initial=0.0)) * POISSON_TAIL <= 1.0 + k_factor:
        return 0.0
    log_scale = -a * noise - float(np.log1p(b).sum())  # log T_0
    if k_factor == 0.0:
        return math.exp(log_scale)
    tail = _poisson_tail(k_factor)
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
    hpns = sample_ppp(config.lambda_m, region, derive_rng(config.master_seed, "hpn"))
    faps = sample_ppp(config.lambda_fap, region, derive_rng(config.master_seed, "fap"))
    fues = sample_ppp(config.lambda_fue, region, derive_rng(config.master_seed, "fue"))
    # Guarantee coverage: desk-scale densities can sample zero nodes.
    if len(hpns) == 0:
        hpns = np.array([region.center])
    if len(faps) == 0:
        faps = np.array([region.center])
    return NetworkTopology(hpns, faps, fues, build_fap_adjacency(faps, config.fap_topology))


def _pair_relays(xy, pairs, relay_xy, config: ScenarioConfig) -> np.ndarray:
    """One flag per F-UE: whether a relay (of those at relay_xy) lies within
    D1 of both ends of its pair, for the pairs whose ends lie in (D1, D2],
    the only ones `select_mode` rule (3) reads. Neither end of such a pair
    is within D1 of the other, so neither counts as its own relay."""
    found = np.zeros(len(xy), dtype=bool)
    i, j = pairs.T
    d = np.hypot(xy[i, 0] - xy[j, 0], xy[i, 1] - xy[j, 1])
    ends = pairs[(config.d1 < d) & (d <= config.d2)]
    if ends.size and len(relay_xy):
        # Rows 2p and 2p + 1 hold pair p's ends, then the relays: a relay within D1
        # of both ends of pair p makes two end-relay hits with one key.
        _, lo, hi = _pairs_within(np.concatenate([xy[ends.ravel()], relay_xy]), config.d1)
        hit = (lo < ends.size) & (hi >= ends.size)
        keys = np.sort(lo[hit] // 2 * len(relay_xy) + hi[hit] - ends.size, kind="stable")
        found[ends[keys[1:][keys[1:] == keys[:-1]] // len(relay_xy)]] = True
    return found


def _content_tiers(config: ScenarioConfig, fap, neighbors):
    """Replay every F-UE's warm-up and traffic requests through the caches.

    The warm-up requests are one (U, warmup_requests) draw from the
    "warmup" stream and the traffic one (U, requests_per_fue) draw from the
    "traffic" stream; row i is F-UE i's requests. Returns each traffic
    request's tier code as a (U, requests_per_fue) array, and the F-UE and
    F-AP hit ratios of the traffic. fap holds each F-UE's serving F-AP, -1
    for none. All warm-ups come first, in F-UE order, then all traffic; the
    warm-ups only prime the caches. A request's tier is what
    `content_available` gives just before it: the F-UE cache, then the F-AP
    cache, then whether a linked F-AP holds the item.

    Each cache serves a stream of its own, so each is replayed over it
    whole: all F-UE caches at once by `replay_lanes`, and each F-AP cache by
    `EdgeCache.replay` over its admitted F-UEs' warm-up rows in F-UE order,
    then their traffic rows. No request touches a linked F-AP's cache, so
    when F-UE u asks a linked F-AP j, j has served its first
    m = warmup_requests * load_j + requests_per_fue * |{v < u served by j}|
    requests, and holds the item iff the item's last insertion or eviction
    before step m was an insertion. One `lexsort` of every F-AP's insertions
    and evictions with the lookups answers all of them. Only a request that
    misses both its F-UE and its F-AP cache asks.
    """
    catalog = ContentCatalog(config.catalog_items, config.zipf_exponent)
    n_fues, n_warm, n = len(fap), config.warmup_requests, config.requests_per_fue
    warm, traffic = (
        zipf_stream(catalog, (n_fues, length), derive_rng(config.master_seed, tag))
        for tag, length in (("warmup", n_warm), ("traffic", n))
    )
    fue_hit = replay_lanes(
        np.hstack((warm, traffic)), config.fue_cache_capacity, config.cache_policy
    )[:, n_warm:]

    admitted = np.flatnonzero(fap >= 0)
    members = admitted[np.argsort(fap[admitted], kind="stable")]  # by F-AP, then F-UE
    load = np.bincount(fap[admitted], minlength=len(neighbors))
    first = np.cumsum(load) - load
    fap_hit = np.zeros_like(fue_hit)
    events = []  # per F-AP: its id, time 2 * step + 1, item, and insertion flag
    for s in np.flatnonzero(load):
        ids = members[first[s]:first[s] + load[s]]
        stream = np.concatenate((warm[ids].ravel(), traffic[ids].ravel()))
        hits, evictions = EdgeCache(config.fap_cache_capacity, config.cache_policy).replay(
            stream.tolist()
        )
        hits = np.array(hits, dtype=bool)
        fap_hit[ids] = hits[n_warm * len(ids):].reshape(len(ids), n)
        if config.cooperative_caching:
            missed = np.flatnonzero(~hits)
            step, victim = np.array(evictions, dtype=np.int64).reshape(-1, 2).T
            step = np.concatenate((missed, step))
            events.append((
                np.full(step.size, s), 2 * step + 1, np.concatenate((stream[missed], victim)),
                np.arange(step.size) < missed.size,
            ))

    at_fap = fap_hit.copy()
    if config.cooperative_caching:
        # Each request that misses both caches asks every F-AP linked to its own.
        asking_u, asking_k = np.nonzero(~fue_hit & ~fap_hit & (fap >= 0)[:, None])
        degree = np.array([len(peers) for peers in neighbors], dtype=np.intp)
        links = np.array([j for peers in neighbors for j in peers], dtype=np.intp)
        asks = degree[fap[asking_u]]
        asker = np.repeat(np.arange(asking_u.size), asks)
        nth = np.arange(asker.size) - np.repeat(np.cumsum(asks) - asks, asks)
        u = asking_u[asker]
        peer = links[(np.cumsum(degree) - degree)[fap[u]] + nth]
        before = np.searchsorted(fap[members] * n_fues + members, peer * n_fues + u) - first[peer]
        served = n_warm * load[peer] + n * before
        # A lookup after m requests is at time 2m: it sorts after exactly the
        # events of steps before m.
        events.append((
            peer, 2 * served, traffic[u, asking_k[asker]], np.zeros(peer.size, dtype=bool)
        ))
        f, time, item, inserted = map(np.concatenate, zip(*events))
        order = np.lexsort((time, item, f))
        n_events = order.size - peer.size  # the lookups come after the events
        is_lookup = order >= n_events
        at = np.flatnonzero(is_lookup)
        last = np.maximum.accumulate(np.where(is_lookup, -1, np.arange(order.size)))[at]
        f, item, inserted = f[order], item[order], inserted[order]
        held = (last >= 0) & (f[last] == f[at]) & (item[last] == item[at]) & inserted[last]
        found = asker[order[at[held]] - n_events]
        at_fap[asking_u[found], asking_k[found]] = True
    fue_requests = n_fues * n
    fap_requests = admitted.size * n
    return (
        np.where(fue_hit, _AT_FUE, np.where(at_fap, _AT_FAP, _CLOUD_ONLY)),
        int(fue_hit.sum()) / fue_requests if fue_requests else 0.0,
        int(fap_hit.sum()) / fap_requests if fap_requests else 0.0,
    )


def run_scenario(config: ScenarioConfig) -> MetricsReport:
    """One full deterministic scenario run: place, pair, associate, decide
    modes, serve caches, coordinate, and aggregate metrics."""
    topology = _build_topology(config)
    n_fues = len(topology.fues)
    report = MetricsReport(
        n_hpns=len(topology.hpns), n_faps=len(topology.faps), n_fues=n_fues
    )

    attr_rng = derive_rng(config.master_seed, "ue_attrs")
    speeds = attr_rng.exponential(config.speed_mean, size=n_fues)
    d2d_capable = attr_rng.random(n_fues) < config.d2d_fraction
    relay_willing = attr_rng.random(n_fues) < config.relay_fraction
    voice = attr_rng.random(n_fues) < config.voice_fraction

    xy = topology.fues
    pairs = pair_d2d(xy, d2d_capable)
    report.n_d2d_pairs = len(pairs)
    # An unpaired F-UE is its own far end: co-located and without a D2D
    # partner, so the rules route it through local coordination or C-RAN.
    partner = np.arange(n_fues)
    partner[pairs] = pairs[:, ::-1]

    # One F-UE x F-AP gain matrix serves association, local coordination and
    # clustering; every later layer reads association's serving (-1: none).
    gains = path_gain(pairwise_distances(xy, topology.faps), config)
    serving = associate_fap(gains, config)
    gains *= config.fap_watts  # in place: the mean received powers
    # Local coordination needs the serving F-AP's mean SNR to reach gamma.
    rows = np.arange(n_fues)
    lc_feasible = (serving >= 0) & (gains[rows, serving] / config.noise_watts >= config.theta)

    relays = _pair_relays(xy, pairs, xy[relay_willing & d2d_capable], config)

    tiers, report.fue_hit_ratio, report.fap_hit_ratio = _content_tiers(
        config, serving, topology.fap_neighbors()
    )
    # A request reaches its F-UE's mode only through whether its content is
    # cloud-only. So every F-UE's two modes are decided in one call, on a
    # (U, 2) grid whose column 1 is cloud-only content, under the config's
    # architecture.
    u, p = rows[:, None], partner[:, None]
    decided = select_mode(
        np.hypot(xy[u, 0] - xy[p, 0], xy[u, 1] - xy[p, 1]), speeds[u], speeds[p],
        voice[u], voice[p], u != p, relays[u], lc_feasible[u] & np.array([True, False]),
        config,
    )

    fue_ids = np.repeat(np.arange(n_fues), config.requests_per_fue)
    cloud = (tiers == _CLOUD_ONLY).astype(np.intp).ravel()
    report.load, report.ledger = fronthaul_load(
        fue_ids, decided[fue_ids, cloud], tiers.ravel(), config
    )

    # Coalitional clustering of F-APs.
    table = AccessTable(gains, serving, config.noise_watts, config.theta)
    partition = merge_and_split(
        topology, config, lambda block: cluster_utility(block, config, table)
    )
    report.mean_cluster_size = float(np.mean(partition.block_sizes()))

    # D2D subchannel scheduling and the cellular victim's success. The
    # first F-UE of each pair transmits.
    tx_xy = xy[pairs[:, 0]]
    cross_gains = make_d2d_links(tx_xy, config, derive_rng(config.master_seed, "crossgains"))
    if config.scheduler is SchedulerKind.COAC:
        occupied = coac_assign(cross_gains, config)
    else:
        occupied = drac_assign(len(pairs), config, derive_rng(config.master_seed, "drac"))
    report.cellular_success_probability = cellular_success_probability(
        occupied, cross_gains, topology.hpns, config, derive_rng(config.master_seed, "cellular")
    )
    report.cellular_ci = _prob_ci(report.cellular_success_probability, config.mc_trials)

    # Exact, so rate_ci and d2d_ci stay 0.0: neither has Monte-Carlo error.
    report.spatial_average_rate = spatial_average_rate(config)
    report.d2d_success_probability = d2d_success_probability(tx_xy, config)

    # Energy efficiency: active F-APs at full power, idle ones asleep. The
    # config's power checks, with one HPN and one F-AP in every layout, make
    # the total positive.
    n_active = int(np.count_nonzero(np.bincount(serving + 1)[1:]))
    n_sleep = len(topology.faps) - n_active
    total_power = (
        n_active * (config.p_static + config.p_tx)
        + n_sleep * config.sleep_power_fraction * config.p_static
        + len(topology.hpns) * config.p_hpn
    )
    report.energy_efficiency = report.spatial_average_rate * n_fues / total_power
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

LEDGER_COLUMNS = [
    "request_index", "fue_id", "mode", "tier", "payload_bits", "fronthaul_bits",
    "backhaul_bits", "served_by",
]


def metrics_row(report: MetricsReport) -> list:
    values = vars(report) | vars(report.load)
    return [values[name] for name in METRICS_COLUMNS]


def ledger_rows(report: MetricsReport) -> list:
    ledger = report.ledger
    routes = ledger.routes
    return [
        [k, fue, *routes[r]]
        for k, (fue, r) in enumerate(zip(ledger.fue_id.tolist(), ledger.route.tolist()))
    ]
