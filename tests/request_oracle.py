"""Per-request oracle for the warm-up, traffic and load stage of a run.

`metrics_sim.run_scenario` replays the caches from request arrays and
accounts the load from code arrays. This module keeps the loop it replaced:
one request at a time, in request order, with `content_available` asked for
each request's tier before the request reaches the caches, the mode decided
on first use of each cloud-only value, and the load added up row by row.
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
from frangine.geometry import NodeKind, pair_d2d
from frangine.channel import path_gain
from frangine.metrics_sim import (
    LedgerRow,
    LoadReport,
    _architecture_mode,
    _build_topology,
    _pair_relays,
)
from frangine.mode_select import Mode, Qos, UeContext, associate_fap
from frangine.rng import derive_rng


@dataclass
class LoopResult:
    load: LoadReport
    ledger: list
    fue_hit_ratio: float
    fap_hit_ratio: float
    decisions: list  # (F-UE, cloud-only) of each mode decision, in order


def loop_fronthaul_load(decisions, tiers, payload_bits, iq_expansion_factor):
    """The load of (F-UE, mode) decisions and their tiers, one row at a time."""
    report = LoadReport()
    ledger = []
    fronthaul = backhaul = total = 0.0
    payload = dict.fromkeys(("bbu", "edge", "hpn"), 0.0)
    processed = dict(payload)
    for idx, ((fue_id, mode), tier) in enumerate(zip(decisions, tiers)):
        if mode is Mode.GLOBAL_CRAN:
            fh = payload_bits * iq_expansion_factor
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
        ledger.append(LedgerRow(idx, fue_id, mode, tier, payload_bits, fh, bh, served))
    report.fronthaul_bits, report.backhaul_bits = fronthaul, backhaul
    report.total_payload_bits = total
    report.payload_bbu_bits, report.payload_edge_bits, report.payload_hpn_bits = payload.values()
    report.bbu_processed_bits, report.edge_processed_bits = processed["bbu"], processed["edge"]
    return report, ledger


def request_loop(config) -> LoopResult:
    """The layout of `run_scenario(config)`, then its requests one by one."""
    budget = config.budget()
    thresholds = config.thresholds()
    topology = _build_topology(config)
    n_fues = len(topology.fues)
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
    partner = {i: j for i, j in pairs} | {j: i for i, j in pairs}
    serving = associate_fap(
        topology.fues.positions, topology.faps, budget, config.interference_limit,
        [config.fap_capacity] * len(topology.faps),
    )
    served = [i for i, s in enumerate(serving) if s is not None]
    gap = topology.fues.positions[served] - topology.faps.positions[[serving[i] for i in served]]
    snr = budget.tx_watts(NodeKind.FAP) * path_gain(np.hypot(gap[:, 0], gap[:, 1]), budget)
    lc_feasible = dict(zip(served, (snr / budget.noise_watts >= budget.gamma_th_linear).tolist()))
    willing = [u for u in ues if u.relay_willing and u.d2d_capable]
    relays = _pair_relays(topology.fues.positions, pairs, willing, thresholds)

    catalog = ContentCatalog(config.catalog_items, config.zipf_exponent)
    fue_caches = [EdgeCache(config.fue_cache_capacity, config.cache_policy) for _ in ues]
    fap_caches = [
        EdgeCache(config.fap_cache_capacity, config.cache_policy) for _ in topology.faps.positions
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
                if serving[i] is not None:
                    fap_caches[serving[i]].request(item)
        for cache in fue_caches + fap_caches:
            cache.hits = cache.misses = 0

    decisions, tiers, decided = [], [], []
    for i, ue in enumerate(ues):
        s = serving[i]
        dst = ues[partner[i]] if i in partner else None
        peers = [fap_caches[j] for j in neighbors[s]] if config.cooperative_caching and s is not None else ()
        modes = {}
        for item in traffic[i].tolist():
            tier = content_available(item, fue_caches[i], fap_caches[s] if s is not None else None, peers)
            cloud_only = tier is ContentTier.CLOUD_ONLY
            if cloud_only not in modes:
                decided.append((i, cloud_only))
                modes[cloud_only] = _architecture_mode(
                    config, ue, dst, thresholds, relays.get(i, ()), cloud_only,
                    lc_feasible.get(i, False),
                )
            fue_caches[i].request(item)
            if s is not None:
                fap_caches[s].request(item)
            decisions.append((i, modes[cloud_only]))
            tiers.append(tier)

    load, ledger = loop_fronthaul_load(decisions, tiers, config.payload_bits, config.iq_expansion_factor)
    ratios = []
    for caches in (fue_caches, fap_caches):
        requests = sum(c.hits + c.misses for c in caches)
        ratios.append(sum(c.hits for c in caches) / requests if requests else 0.0)
    return LoopResult(load, ledger, *ratios, decided)
