"""Per-request oracle for the warm-up, traffic and load stage of a run.

`metrics_sim.run_scenario` replays the caches from request arrays and
accounts the load from code arrays. This module keeps the loop it replaced:
one request at a time, in request order, with `content_available` asked for
each request's tier before the request reaches the caches, each request's
mode decided by a scalar rule cascade of its own (with a linear scan for
relays), and the load added up row by row.
F-UE i's requests are row i of one (U, n) draw from the "warmup" stream and
one from the "traffic" stream. Tests compare the two on random configs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from frangine.caching import (
    ContentCatalog,
    ContentTier,
    EdgeCache,
    content_available,
    zipf_stream,
)
from frangine.geometry import distance, pair_d2d, pairwise_distances
from frangine.config import Architecture, path_gain
from frangine.metrics_sim import LoadReport, _build_topology
from frangine.mode_select import Mode, associate_fap
from frangine.rng import derive_rng


@dataclass
class LoopResult:
    load: LoadReport
    ledger: list  # rows as `metrics_sim.ledger_rows` renders them
    fue_hit_ratio: float
    fap_hit_ratio: float


def has_relay(xy, i, j, relays, th) -> bool:
    """Whether any of the relays other than i and j lies within D1 of both."""
    return any(
        k not in (i, j) and distance(xy[k], xy[i]) <= th.d1 and distance(xy[k], xy[j]) <= th.d1
        for k in relays
    )


def decide(config, d, speed, far_speed, voice, far_voice, paired, relay, local_ok):
    """One request's mode: the architecture's gate, then for F-RAN the rules
    in order, first match wins. The far end is the D2D partner when paired;
    d is the distance to it. local_ok: local coordination can serve it."""
    t = config.speed_threshold
    fast = speed > t or far_speed > t
    if config.architecture is Architecture.CRAN:
        return Mode.GLOBAL_CRAN
    if config.architecture is Architecture.HCRAN:
        return Mode.HPN if fast or voice else Mode.GLOBAL_CRAN
    if fast or voice or far_voice:
        return Mode.HPN
    slow = abs(speed - far_speed) <= t
    if paired and slow and d <= config.d1:
        return Mode.D2D
    if paired and slow and config.d1 < d <= config.d2 and relay:
        return Mode.FUE_RELAY
    if local_ok and (config.d2 < d <= config.d3 or d <= config.d2 and not paired):
        return Mode.LOCAL_COORDINATION
    return Mode.GLOBAL_CRAN


def loop_fronthaul_load(decisions, tiers, config):
    """The load of (F-UE, mode) decisions and their tiers, and the ledger's
    CSV rows, one row at a time."""
    payload_bits = config.payload_bits
    report = LoadReport()
    ledger = []
    fronthaul = backhaul = total = 0.0
    payload = dict.fromkeys(("bbu", "edge", "hpn"), 0.0)
    processed = dict(payload)
    for idx, ((fue_id, mode), tier) in enumerate(zip(decisions, tiers)):
        if mode is Mode.GLOBAL_CRAN:
            fh = payload_bits * config.iq_expansion_factor
            fh, bh, served, work = fh, 0.0, "bbu", fh
        elif mode is Mode.HPN:
            fh, bh, served, work = 0.0, payload_bits, "hpn", 0.0
        else:
            fetch = mode is Mode.LOCAL_COORDINATION and tier is ContentTier.CLOUD_ONLY
            fh, bh, served, work = payload_bits if fetch else 0.0, 0.0, "edge", payload_bits
        fronthaul += fh
        backhaul += bh
        total += payload_bits
        payload[served] += payload_bits
        processed[served] += work
        report.mode_counts[mode.value] = report.mode_counts.get(mode.value, 0) + 1
        ledger.append([idx, fue_id, mode.value, tier.value, payload_bits, fh, bh, served])
    report.fronthaul_bits, report.backhaul_bits = fronthaul, backhaul
    report.total_payload_bits = total
    report.payload_bbu_bits, report.payload_edge_bits, report.payload_hpn_bits = payload.values()
    report.bbu_processed_bits, report.edge_processed_bits = processed["bbu"], processed["edge"]
    return report, ledger


def serving_faps(topology, config) -> np.ndarray:
    """`associate_fap` on the path gains from the topology's F-UEs to its
    F-APs: each F-UE's serving F-AP, -1 for none."""
    gains = path_gain(pairwise_distances(topology.fues, topology.faps), config)
    return associate_fap(gains, config)


def request_loop(config) -> LoopResult:
    """The layout of `run_scenario(config)`, then its requests one by one."""
    topology = _build_topology(config)
    n_fues = len(topology.fues)
    attr_rng = derive_rng(config.master_seed, "ue_attrs")
    speeds = attr_rng.exponential(config.speed_mean, size=n_fues)
    d2d_capable = attr_rng.random(n_fues) < config.d2d_fraction
    relay_willing = attr_rng.random(n_fues) < config.relay_fraction
    voice = attr_rng.random(n_fues) < config.voice_fraction
    xy = topology.fues
    pairs = pair_d2d(xy, d2d_capable)
    partner = {i: j for i, j in pairs.tolist()} | {j: i for i, j in pairs.tolist()}
    serving = serving_faps(topology, config).tolist()
    lc_feasible = [
        s >= 0 and config.fap_watts * float(path_gain(
            distance(xy[i], topology.faps[s]), config
        )) / config.noise_watts >= config.theta
        for i, s in enumerate(serving)
    ]
    relays = [k for k in range(n_fues) if relay_willing[k] and d2d_capable[k]]
    # Each F-UE's far end: its partner, or else a co-located copy of itself
    # that is not D2D capable and not on voice.
    far = []
    for i in range(n_fues):
        if i in partner:
            j = partner[i]
            far.append((distance(xy[i], xy[j]), speeds[j], voice[j], True,
                        has_relay(xy, i, j, relays, config)))
        else:
            far.append((0.0, speeds[i], False, False, False))

    catalog = ContentCatalog(config.catalog_items, config.zipf_exponent)
    fue_caches = [EdgeCache(config.fue_cache_capacity, config.cache_policy) for _ in xy]
    fap_caches = [
        EdgeCache(config.fap_cache_capacity, config.cache_policy) for _ in topology.faps
    ]
    neighbors = topology.fap_neighbors()
    warm, traffic = (
        zipf_stream(catalog, (n_fues, length), derive_rng(config.master_seed, tag))
        for tag, length in (("warmup", config.warmup_requests), ("traffic", config.requests_per_fue))
    )
    if config.warmup_requests > 0:
        for i in range(n_fues):
            for item in warm[i].tolist():
                fue_caches[i].request(item)
                if serving[i] >= 0:
                    fap_caches[serving[i]].request(item)

    decisions, tiers = [], []
    fue_hits, fap_hits = [], []  # each traffic request's hit flag, per tier
    for i in range(n_fues):
        s = serving[i]
        d, far_speed, far_voice, paired, relay = far[i]
        peers = [fap_caches[j] for j in neighbors[s]] if config.cooperative_caching and s >= 0 else ()
        for item in traffic[i].tolist():
            tier = content_available(item, fue_caches[i], fap_caches[s] if s >= 0 else None, peers)
            local_ok = lc_feasible[i] and tier is not ContentTier.CLOUD_ONLY
            mode = decide(
                config, d, speeds[i], far_speed, voice[i], far_voice, paired, relay, local_ok,
            )
            fue_hits.append(fue_caches[i].request(item)[0])
            if s >= 0:
                fap_hits.append(fap_caches[s].request(item)[0])
            decisions.append((i, mode))
            tiers.append(tier)

    load, ledger = loop_fronthaul_load(decisions, tiers, config)
    ratios = [sum(hits) / len(hits) if hits else 0.0 for hits in (fue_hits, fap_hits)]
    return LoopResult(load, ledger, *ratios)
