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
    positions: np.ndarray,
    faps: NodeSet,
    budget: LinkBudget,
    interference_limit: float = float("inf"),
    capacity=None,
) -> list[int | None]:
    """Pick each F-UE's serving F-AP, in F-UE order: strongest mean received
    power first, falling back through the power-ordered list past full or
    interference-blocked F-APs; None when no F-AP admits the F-UE.

    capacity: per-F-AP free resource blocks (None means unconstrained), one
    taken per admitted F-UE. Admission is blocked when the F-UE's estimated
    uplink interference to the nearest other F-AP exceeds interference_limit.
    """
    n = len(faps)
    if n < 1:
        raise ValueError("at least one F-AP required")
    gains = path_gain(pairwise_distances(positions, faps.positions), budget)
    # Admission to F-AP i leaks at the strongest gain to the other F-APs: the
    # row maximum, or for the F-AP holding it the second largest (-inf if
    # none), read with the maximum masked in place and then restored.
    rows = np.arange(len(gains))
    top = gains.argmax(axis=1)
    best = gains[rows, top]
    gains[rows, top] = -np.inf
    second = gains.max(axis=1)
    gains[rows, top] = best
    p_fue = budget.tx_watts(NodeKind.FUE)
    stops = zip(
        top.tolist(),
        (p_fue * second > interference_limit).tolist(),  # blocks the top F-AP
        (p_fue * best > interference_limit).tolist(),  # blocks every other
    )
    # Descending power, ties by lower index (a stable sort); -(p g) = g (-p)
    # exactly, so the order is that of the received powers.
    gains *= -budget.tx_watts(NodeKind.FAP)
    order = np.argsort(gains, axis=1, kind="stable")
    free = [float("inf")] * n if capacity is None else list(capacity)
    serving = []
    for row, (t, stop_top, stop_rest) in zip(order, stops):
        f = next(
            (i for i in row.tolist() if free[i] > 0 and not (stop_top if i == t else stop_rest)),
            None,
        )
        if f is not None:
            free[f] -= 1
        serving.append(f)
    return serving
