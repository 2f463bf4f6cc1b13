"""Adaptive transmission-mode decision tree and F-AP association.

The decision rules form an ordered list, evaluated over arrays; the first
matching rule wins, so every input maps to exactly one mode. High mobility
or real-time voice always forces the HPN mode, regardless of distance or
capability.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .channel import LinkBudget, path_gain
from .geometry import NodeKind, NodeSet, pairwise_distances


class Mode(Enum):
    D2D = "d2d"
    FUE_RELAY = "fue_relay"
    LOCAL_COORDINATION = "local_coordination"
    GLOBAL_CRAN = "global_cran"
    HPN = "hpn"


@dataclass(frozen=True)
class ModeThresholds:
    d1: float = 50.0
    d2: float = 150.0
    d3: float = 500.0
    speed_threshold: float = 10.0  # m/s

    def __post_init__(self):
        if not (0 < self.d1 < self.d2 < self.d3):
            raise ValueError("thresholds must satisfy 0 < D1 < D2 < D3")
        if not self.speed_threshold > 0:  # NaN fails too
            raise ValueError("speed_threshold must be positive")


# A mode travels as a code: its index into MODES.
MODES = list(Mode)


def select_mode(
    distance,
    speed,
    partner_speed,
    voice,
    partner_voice,
    has_partner,
    relay,
    local_ok,
    thresholds: ModeThresholds,
) -> np.ndarray:
    """The mode code of each F-UE towards its far end, first rule wins.

    The inputs broadcast against each other: the distance to the far end,
    both speeds, both real-time voice flags, whether the far end is a D2D
    partner (both ends D2D capable), whether a willing relay lies within D1
    of both ends, and whether local coordination can serve the request (the
    serving F-AP reaches gamma and the content is held locally).
    """
    th = thresholds
    t = th.speed_threshold
    # "Slow relative movement": both ends below the speed threshold and a
    # small speed difference between them.
    slow = (speed <= t) & (partner_speed <= t) & (np.abs(speed - partner_speed) <= t)
    direct = has_partner & slow
    rules = {
        # (1) High mobility on either end, or real-time voice, forces HPN.
        Mode.HPN: (speed > t) | (partner_speed > t) | voice | partner_voice,
        # (2) Direct D2D within D1.
        Mode.D2D: (distance <= th.d1) & direct,
        # (3) Relay bridge in (D1, D2].
        Mode.FUE_RELAY: (th.d1 < distance) & (distance <= th.d2) & direct & relay,
        # (4) Local distributed coordination: midrange distance, or short
        # range with a D2D-incapable end, when the local path can serve it.
        Mode.LOCAL_COORDINATION: local_ok & (
            (th.d2 < distance) & (distance <= th.d3)
            | (distance <= th.d2) & np.logical_not(has_partner)
        ),
    }
    # (5) Everything else goes through the BBU pool.
    return np.select(
        list(rules.values()), list(map(MODES.index, rules)), MODES.index(Mode.GLOBAL_CRAN)
    )


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
