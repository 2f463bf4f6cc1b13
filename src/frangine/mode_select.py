"""Adaptive transmission-mode decision tree and F-AP association.

The decision rules form an ordered list; the first matching rule wins, so
every input maps to exactly one mode. High mobility or real-time voice
always forces the HPN mode, regardless of distance or capability.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .channel import LinkBudget, path_gain
from .geometry import NodeKind, NodeSet, distance, pairwise_distances


class Mode(Enum):
    D2D = "d2d"
    FUE_RELAY = "fue_relay"
    LOCAL_COORDINATION = "local_coordination"
    GLOBAL_CRAN = "global_cran"
    HPN = "hpn"


class Qos(Enum):
    REAL_TIME_VOICE = "real_time_voice"
    PACKET = "packet"


@dataclass(frozen=True)
class ModeThresholds:
    d1: float = 50.0
    d2: float = 150.0
    d3: float = 500.0
    speed_threshold: float = 10.0  # m/s

    def __post_init__(self):
        if not (0 < self.d1 < self.d2 < self.d3):
            raise ValueError("thresholds must satisfy 0 < D1 < D2 < D3")
        if self.speed_threshold <= 0:
            raise ValueError("speed threshold must be positive")


@dataclass
class UeContext:
    id: int
    position: tuple
    speed: float = 0.0  # m/s
    d2d_capable: bool = True
    relay_willing: bool = False
    qos: Qos = Qos.PACKET

    def __post_init__(self):
        if self.speed < 0:
            raise ValueError("speed must be nonnegative")


@dataclass
class ModeDecision:
    mode: Mode
    relay_id: int | None = None


class AllFapsBlocked(Exception):
    """No F-AP can admit the F-UE; caller falls back to HPN mode."""


def _slow_pair(src: UeContext, dst: UeContext, th: ModeThresholds) -> bool:
    # "Slow relative movement": both endpoints below the speed threshold and
    # a small speed difference between them.
    return (
        src.speed <= th.speed_threshold
        and dst.speed <= th.speed_threshold
        and abs(src.speed - dst.speed) <= th.speed_threshold
    )


def select_mode(
    src: UeContext,
    dst: UeContext,
    thresholds: ModeThresholds,
    relay_candidates=(),
    content_available_locally: bool = True,
    local_coordination_feasible: bool = True,
) -> ModeDecision:
    """Pick the transmission mode for a src/dst F-UE pair, first rule wins."""
    th = thresholds
    d = distance(src.position, dst.position)

    # (1) High mobility on either end, or real-time voice, forces HPN.
    if (
        src.speed > th.speed_threshold
        or dst.speed > th.speed_threshold
        or src.qos is Qos.REAL_TIME_VOICE
        or dst.qos is Qos.REAL_TIME_VOICE
    ):
        return ModeDecision(Mode.HPN)

    both_capable = src.d2d_capable and dst.d2d_capable

    # (2) Direct D2D within D1.
    if d <= th.d1 and both_capable and _slow_pair(src, dst, th):
        return ModeDecision(Mode.D2D)

    # (3) Relay bridge in (D1, D2]: willing relay within D1 of both ends,
    # minimizing the bottleneck hop, ties by lower id.
    if th.d1 < d <= th.d2 and both_capable and _slow_pair(src, dst, th):
        cands = [
            c for c in relay_candidates
            if c.relay_willing and c.id != src.id and c.id != dst.id
        ]
        if cands:
            pos = np.array([c.position for c in cands], dtype=float)
            ids = np.array([c.id for c in cands])
            hop_src = np.hypot(pos[:, 0] - src.position[0], pos[:, 1] - src.position[1])
            hop_dst = np.hypot(pos[:, 0] - dst.position[0], pos[:, 1] - dst.position[1])
            ok = np.flatnonzero((hop_src <= th.d1) & (hop_dst <= th.d1))
            if ok.size:
                bottleneck = np.maximum(hop_src[ok], hop_dst[ok])
                best = ok[np.lexsort((ids[ok], bottleneck))[0]]
                return ModeDecision(Mode.FUE_RELAY, relay_id=int(ids[best]))

    # (4) Local distributed coordination: midrange distance, or short range
    # with a D2D-incapable endpoint, when the local path can serve it.
    in_local_band = th.d2 < d <= th.d3 or (d <= th.d2 and not both_capable)
    if in_local_band and local_coordination_feasible and content_available_locally:
        return ModeDecision(Mode.LOCAL_COORDINATION)

    # (5) Everything else goes through the BBU pool.
    return ModeDecision(Mode.GLOBAL_CRAN)


def associate_fap(
    ue: UeContext,
    faps: NodeSet,
    budget: LinkBudget,
    interference_limit: float = float("inf"),
    capacity=None,
) -> int:
    """Pick the serving F-AP: strongest mean received power first, falling
    back through the power-ordered list past full or interference-blocked
    F-APs. Exactly one F-AP is returned.

    capacity: per-F-AP free resource blocks (None means unconstrained).
    Admission is blocked when the F-UE's estimated uplink interference to
    the nearest other F-AP exceeds interference_limit.
    """
    n = len(faps)
    if n < 1:
        raise ValueError("at least one F-AP required")
    dists = pairwise_distances([ue.position], faps.positions)[0]
    rx_power = budget.tx_watts(NodeKind.FAP) * path_gain(dists, budget)
    # Descending power, ties by lower index (lexsort is stable).
    order = np.lexsort((-rx_power,))
    ue_tx = budget.tx_watts(NodeKind.FUE)
    for i in order.tolist():
        if capacity is not None and capacity[i] <= 0:
            continue
        others = np.delete(dists, i)
        if others.size:
            leak = ue_tx * float(np.max(path_gain(others, budget)))
            if leak > interference_limit:
                continue
        return i
    raise AllFapsBlocked(f"no F-AP admits F-UE {ue.id}")
