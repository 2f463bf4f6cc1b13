"""Scenario orchestration: topology, mode decisions, cache workloads,
coordination procedures, and fronthaul/backhaul load accounting.

A scenario is fully determined by its config (including the master seed):
every random stream is derived as a pure function of (seed, purpose tag,
index), so runs are reproducible byte for byte and adding a consumer of
randomness never perturbs another one.
"""

from __future__ import annotations

import dataclasses
import math
from contextvars import ContextVar
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import _kernels
from .caching import (
    ContentCatalog,
    ContentTier,
    EdgeCache,
    EvictionPolicy,
    content_available,
    zipf_stream,
)
from .channel import (
    RAYLEIGH,
    FadingKind,
    FadingModel,
    LinkBudget,
    db_to_linear,
    fading_sample,
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
    distance,
    pair_d2d,
    pairwise_distances,
    sample_ppp,
    Region,
)
from .mode_select import (
    AllFapsBlocked,
    Mode,
    ModeThresholds,
    Qos,
    UeContext,
    associate_fap,
    select_mode,
)
from .rng import derive_rng

Z_99 = 2.5758293035489004  # two-sided 99% normal quantile

# Draws shared by the points of one `sweep` call, one per draw site (see
# `_shared_draw`); None outside a sweep. A context variable, so concurrent
# or nested sweeps never see each other's draws.
_shared: ContextVar[dict | None] = ContextVar("frangine_shared_draws", default=None)


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
    mc_trials: int = 2000
    cluster_mc_trials: int = 500
    # Traffic
    requests_per_fue: int = 5
    warmup_requests: int = 3  # per F-UE, primes caches before accounting
    payload_bits: float = 1e6
    iq_expansion_factor: float = 16.0
    # Run control
    architecture: Architecture = Architecture.FRAN
    master_seed: int = 1

    def __post_init__(self):
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
            "fap_capacity", "zipf_exponent", "p_static", "p_tx", "p_coord", "p_hpn",
            "requests_per_fue", "warmup_requests", "payload_bits",
        ):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be nonnegative")
        for name in ("region_width", "region_height", "tau"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        for name in (
            "catalog_items", "fue_cache_capacity", "fap_cache_capacity", "n_subchannels",
            "mc_trials", "cluster_mc_trials", "iq_expansion_factor",
        ):
            if not getattr(self, name) >= 1:
                raise ValueError(f"{name} must be at least 1")
        if not self.path_loss_exponent > 2:
            raise ValueError("path_loss_exponent must exceed 2")

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


@dataclass
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


def fronthaul_load(decisions, tiers, payload_bits: float, iq_expansion_factor: float):
    """Per-request fronthaul/backhaul accounting; one auditable ledger row
    per request. Payload is always served by exactly one of {bbu, edge, hpn},
    so payload conservation holds by construction.
    """
    report = LoadReport()
    ledger = []
    for idx, ((fue_id, mode), tier) in enumerate(zip(decisions, tiers)):
        fh = bh = 0.0
        if mode is Mode.GLOBAL_CRAN:
            fh = payload_bits * iq_expansion_factor
            report.bbu_processed_bits += fh
            report.payload_bbu_bits += payload_bits
            served = "bbu"
        elif mode is Mode.LOCAL_COORDINATION:
            if tier is ContentTier.CLOUD_ONLY:
                fh = payload_bits  # one catalog-item fetch, then edge-served
            report.edge_processed_bits += payload_bits
            report.payload_edge_bits += payload_bits
            served = "edge"
        elif mode in (Mode.D2D, Mode.FUE_RELAY):
            report.edge_processed_bits += payload_bits
            report.payload_edge_bits += payload_bits
            served = "edge"
        else:  # HPN
            bh = payload_bits
            report.payload_hpn_bits += payload_bits
            served = "hpn"
        report.fronthaul_bits += fh
        report.backhaul_bits += bh
        report.total_payload_bits += payload_bits
        report.mode_counts[mode.value] = report.mode_counts.get(mode.value, 0) + 1
        ledger.append(
            LedgerRow(idx, fue_id, mode, tier, payload_bits, fh, bh, served)
        )
    return report, ledger


def energy_efficiency(rate_sum: float, total_power: float) -> float:
    """Total rate over total power; rejects zero or negative power."""
    if total_power <= 0:
        raise ZeroPower("total power must be positive")
    return rate_sum / total_power


def _shared_draw(site: str, rng: np.random.Generator, inputs: tuple, draw):
    """`draw(rng)`, or inside a `sweep` the array the last grid point drew at
    this `site` when it started from the same generator state with the same
    non-random `inputs`.

    A hit also moves `rng` to the state it would have after drawing, so the
    reuse is exact: the result and every later draw are byte-identical to a
    fresh draw. A miss drops the site's old draw before drawing, so a sweep
    holds at most one draw per site."""
    shared = _shared.get()
    if shared is None:
        return draw(rng)
    key = (repr(rng.bit_generator.state), inputs)
    held = shared.pop(site, None)
    if held is not None and held[0] == key:
        rng.bit_generator.state = held[2]
    else:
        held = None  # free the old draw before making the new one
        value = draw(rng)
        value.flags.writeable = False
        held = (key, value, rng.bit_generator.state)
    shared[site] = held
    return held[1]


def spatial_average_rate(
    topology: NetworkTopology,
    fading: FadingModel,
    budget: LinkBudget,
    mc_trials: int,
    rng: np.random.Generator,
    link_distance: float = 20.0,
    interferer_density: float | None = None,
):
    """Mean Shannon rate of the typical D2D link at the region center.

    Per trial: the signal link fades per `fading`; co-channel interferers
    are a fresh PPP of D2D transmitters (Rayleigh faded) over the region.
    Returns (mean rate, 99% CI half-width).
    """
    if mc_trials < 1:
        raise ValueError("mc_trials must be at least 1")
    if interferer_density is None:
        interferer_density = topology.fues.density
    region = topology.region
    center = np.array([region.width / 2.0, region.height / 2.0])
    p_fue = budget.tx_watts(NodeKind.FUE)
    signal_mean = p_fue * float(path_gain(link_distance, budget))
    # Signal fading first: the draw count is K-independent (two normals per
    # trial), so matched seeds stay paired across fading models and the
    # interferer field below starts from the same generator state for every K.
    sig_fades = fading_sample(fading, rng, size=mc_trials)

    def draw_interference(rng):
        counts = rng.poisson(interferer_density * region.area, size=mc_trials)
        total = int(counts.sum())
        xs = rng.uniform(0.0, region.width, size=total)
        ys = rng.uniform(0.0, region.height, size=total)
        d = np.hypot(xs - center[0], ys - center[1])
        gains = p_fue * path_gain(d, budget) * fading_sample(RAYLEIGH, rng, size=total)
        trial_of = np.repeat(np.arange(mc_trials), counts)
        return np.bincount(trial_of, weights=gains, minlength=mc_trials)

    inputs = (
        interferer_density, region.width, region.height, p_fue,
        budget.path_loss_exponent, budget.reference_gain_db, mc_trials,
    )
    interference = _shared_draw("rate", rng, inputs, draw_interference)
    trial_sinr = signal_mean * sig_fades / (interference + budget.noise_watts)
    rates = np.log2(1.0 + trial_sinr)
    mean = float(rates.mean())
    ci = Z_99 * float(rates.std(ddof=1)) / math.sqrt(mc_trials) if mc_trials > 1 else 0.0
    return mean, ci


def _prob_ci(p: float, n: int) -> float:
    return Z_99 * math.sqrt(max(p * (1.0 - p), 0.0) / n)


def d2d_success_probability(
    topology: NetworkTopology,
    pairs,
    fading: FadingModel,
    budget: LinkBudget,
    gamma_th_db: float,
    mc_trials: int,
    rng: np.random.Generator,
    link_distance: float = 20.0,
):
    """Success probability of the typical D2D link against the co-channel
    D2D transmitters of the scenario. Returns (probability, CI half-width)."""
    region = topology.region
    center = (region.width / 2.0, region.height / 2.0)
    p_fue = budget.tx_watts(NodeKind.FUE)
    signal_mean = p_fue * float(path_gain(link_distance, budget))
    tx_positions = np.array(
        [topology.fues.positions[i] for i, _ in pairs], dtype=float
    ).reshape(-1, 2)
    if tx_positions.shape[0]:
        dists = pairwise_distances(tx_positions, [center])[:, 0]
        int_gains = p_fue * path_gain(dists, budget)
        int_fades = _shared_draw(
            "d2d",
            rng,
            (mc_trials, len(int_gains)),
            lambda rng: fading_sample(RAYLEIGH, rng, size=(mc_trials, len(int_gains))),
        )
    else:
        int_gains = np.empty(0)
        int_fades = np.empty((mc_trials, 0))
    sig_fades = fading_sample(fading, rng, size=(mc_trials, 1))
    trial_sinr = _kernels.sinr_trials(
        sig_fades, np.array([signal_mean]), int_fades, int_gains, budget.noise_watts
    )
    p = _kernels.success_fraction(trial_sinr, db_to_linear(gamma_th_db))
    return p, _prob_ci(p, mc_trials)


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


def _architecture_mode(config, src, dst, thresholds, relays, cloud_only, lc_feasible):
    """Apply the architecture gate, then the full decision tree for F-RAN.

    A request enters only through whether its content is cloud-only, so an
    F-UE has at most two modes per run."""
    if config.architecture is Architecture.CRAN:
        return Mode.GLOBAL_CRAN
    if config.architecture is Architecture.HCRAN:
        if (
            src.speed > thresholds.speed_threshold
            or src.qos is Qos.REAL_TIME_VOICE
            or (dst is not None and dst.speed > thresholds.speed_threshold)
        ):
            return Mode.HPN
        return Mode.GLOBAL_CRAN
    if dst is None:
        # Content retrieval with no D2D partner: model the far end as a
        # co-located non-D2D endpoint so the tree routes through the local
        # coordination / global C-RAN rules.
        dst = UeContext(id=src.id, position=src.position, speed=src.speed, d2d_capable=False)
    decision = select_mode(
        src,
        dst,
        thresholds,
        relay_candidates=relays,
        content_available_locally=not cloud_only,
        local_coordination_feasible=lc_feasible,
    )
    return decision.mode


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

    ues = [
        UeContext(
            id=i,
            position=tuple(topology.fues.positions[i]),
            speed=float(speeds[i]),
            d2d_capable=bool(d2d_capable[i]),
            relay_willing=bool(relay_willing[i]),
            qos=Qos.REAL_TIME_VOICE if voice[i] else Qos.PACKET,
        )
        for i in range(n_fues)
    ]
    pairs = pair_d2d(topology.fues, d2d_capable)
    partner = {}
    for i, j in pairs:
        partner[i] = j
        partner[j] = i
    report.n_d2d_pairs = len(pairs)

    capacity = np.full(len(topology.faps), config.fap_capacity, dtype=int)
    serving: list[int | None] = []
    for ue in ues:
        try:
            f = associate_fap(ue, topology.faps, budget, config.interference_limit, capacity)
            capacity[f] -= 1
            serving.append(f)
        except AllFapsBlocked:
            serving.append(None)

    catalog = ContentCatalog(config.catalog_items, config.zipf_exponent)
    fue_caches = [
        EdgeCache(config.fue_cache_capacity, config.cache_policy) for _ in range(n_fues)
    ]
    fap_caches = [
        EdgeCache(config.fap_cache_capacity, config.cache_policy)
        for _ in range(len(topology.faps))
    ]
    neighbors = {i: set() for i in range(len(topology.faps))}
    for a, b in topology.fap_adjacency:
        neighbors[a].add(b)
        neighbors[b].add(a)

    relays = [u for u in ues if u.relay_willing and u.d2d_capable]
    gamma_lin = budget.gamma_th_linear
    p_fap = budget.tx_watts(NodeKind.FAP)

    # Warm-up: prime caches (no accounting) so steady-state hit behavior
    # drives the accounted requests.
    if config.warmup_requests > 0:
        for i in range(n_fues):
            warm = zipf_stream(
                catalog,
                config.warmup_requests,
                derive_rng(config.master_seed, "warmup", i),
            )
            s = serving[i]
            for item in warm:
                fue_caches[i].request(int(item))
                if s is not None:
                    fap_caches[s].request(int(item))
        for c in fue_caches + fap_caches:
            c.hits = c.misses = 0

    decisions = []
    tiers = []
    for i, ue in enumerate(ues):
        stream = zipf_stream(
            catalog, config.requests_per_fue, derive_rng(config.master_seed, "traffic", i)
        )
        s = serving[i]
        if s is not None:
            d_fap = distance(ue.position, topology.faps.positions[s])
            lc_feasible = p_fap * path_gain(d_fap, budget) / budget.noise_watts >= gamma_lin
        else:
            lc_feasible = False
        dst = ues[partner[i]] if i in partner else None
        peer_caches = (
            [fap_caches[j] for j in sorted(neighbors[s])]
            if (config.cooperative_caching and s is not None)
            else ()
        )
        modes = {}  # cloud-only content -> mode
        for item in stream:
            tier = content_available(
                int(item),
                fue_caches[i],
                fap_caches[s] if s is not None else None,
                peer_caches,
            )
            cloud_only = tier is ContentTier.CLOUD_ONLY
            if cloud_only not in modes:
                modes[cloud_only] = _architecture_mode(
                    config, ue, dst, thresholds, relays, cloud_only, lc_feasible
                )
            mode = modes[cloud_only]
            fue_caches[i].request(int(item))
            if s is not None:
                fap_caches[s].request(int(item))
            decisions.append((i, mode))
            tiers.append(tier)

    load, ledger = fronthaul_load(
        decisions, tiers, config.payload_bits, config.iq_expansion_factor
    )
    report.load = load
    report.ledger = ledger

    fue_requests = sum(c.hits + c.misses for c in fue_caches)
    fap_requests = sum(c.hits + c.misses for c in fap_caches)
    report.fue_hit_ratio = (
        sum(c.hits for c in fue_caches) / fue_requests if fue_requests else 0.0
    )
    report.fap_hit_ratio = (
        sum(c.hits for c in fap_caches) / fap_requests if fap_requests else 0.0
    )

    # Coalitional clustering of F-APs.
    params = ClusterUtilityParams(
        tau=config.tau,
        gamma_th_db=config.gamma_th_db,
        p_static=config.p_static,
        p_tx=config.p_tx,
        p_coord=config.p_coord,
        mc_trials=config.cluster_mc_trials,
    )
    partition = merge_and_split(
        topology, params, budget, derive_rng(config.master_seed, "clustering")
    )
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

    # Rate before D2D success (their streams are independent): inside a
    # sweep the D2D interferer fades stay held, and drawing them first
    # would hold them through the first point's rate field, the peak memory.
    report.spatial_average_rate, report.rate_ci = spatial_average_rate(
        topology,
        config.d2d_fading(),
        budget,
        config.mc_trials,
        derive_rng(config.master_seed, "rate"),
        link_distance=config.d2d_link_distance,
    )

    report.d2d_success_probability, report.d2d_ci = d2d_success_probability(
        topology,
        pairs,
        config.d2d_fading(),
        budget,
        config.gamma_th_db,
        config.mc_trials,
        derive_rng(config.master_seed, "d2d"),
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

    Draws that do not depend on the swept value are made once per call and
    reused by the later points: the interferer field of
    `spatial_average_rate` and the interferer fades of
    `d2d_success_probability`. Each is keyed on the generator's exact state
    at the draw site plus every non-random input the draw reads, and a hit
    moves the generator to its post-draw state, so every point's output is
    byte-identical to a lone `run_scenario` of that point. A swept value
    that feeds a draw (`lambda_d` sets the interferer density) changes the
    key, and the draw is made again in place of the old one, so a sweep
    holds at most one draw per site. The shared draws are dropped when the
    call returns or raises.

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
        if field_name == "fue_cache_capacity":
            if not float(value).is_integer():
                raise InvalidGridValue(f"{parameter} grid value {value!r} is not an integer")
            value = int(value)
        try:
            points.append((value, dataclasses.replace(config, **{field_name: value})))
        except ValueError as exc:
            raise InvalidGridValue(f"{parameter} grid value {value!r}: {exc}") from exc
    token = _shared.set({})
    try:
        return [(value, run_scenario(point)) for value, point in points]
    finally:
        _shared.reset(token)


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
    "request_index",
    "fue_id",
    "mode",
    "tier",
    "payload_bits",
    "fronthaul_bits",
    "backhaul_bits",
    "served_by",
]


def metrics_row(report: MetricsReport) -> list:
    return [
        report.spatial_average_rate,
        report.rate_ci,
        report.cellular_success_probability,
        report.cellular_ci,
        report.d2d_success_probability,
        report.d2d_ci,
        report.fue_hit_ratio,
        report.fap_hit_ratio,
        report.energy_efficiency,
        report.mean_cluster_size,
        report.n_hpns,
        report.n_faps,
        report.n_fues,
        report.n_d2d_pairs,
        report.load.fronthaul_bits,
        report.load.backhaul_bits,
        report.load.bbu_processed_bits,
        report.load.edge_processed_bits,
        report.load.total_payload_bits,
    ]


def ledger_rows(report: MetricsReport) -> list:
    return [
        [
            row.request_index,
            row.fue_id,
            row.mode.value,
            row.tier.value,
            row.payload_bits,
            row.fronthaul_bits,
            row.backhaul_bits,
            row.served_by,
        ]
        for row in report.ledger
    ]
