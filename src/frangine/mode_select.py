"""Adaptive transmission-mode decision tree and F-AP association.

The decision rules form an ordered list, evaluated over arrays; the first
matching rule wins, so every input maps to exactly one mode. High mobility
or real-time voice always forces the HPN mode, regardless of distance or
capability.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .config import Architecture, ScenarioConfig


class Mode(Enum):
    D2D = "d2d"
    FUE_RELAY = "fue_relay"
    LOCAL_COORDINATION = "local_coordination"
    GLOBAL_CRAN = "global_cran"
    HPN = "hpn"


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
    config: ScenarioConfig,
) -> np.ndarray:
    """The mode code of each F-UE towards its far end under the config's
    architecture: the F-RAN rules, first rule wins, or the C-RAN or H-CRAN
    gate.

    The inputs broadcast against each other: the distance to the far end,
    both speeds, both real-time voice flags, whether the far end is a D2D
    partner (both ends D2D capable), whether a willing relay lies within D1
    of both ends, and whether local coordination can serve the request (the
    serving F-AP reaches gamma and the content is held locally). The
    config gives the distance thresholds D1 < D2 < D3, the speed
    threshold and the architecture.
    """
    d1, d2, d3, t = config.d1, config.d2, config.d3, config.speed_threshold
    direct = has_partner  # rule (1) implies the paper's "slow relative movement"
    rules = {
        # (1) High mobility on either end, or real-time voice, forces HPN.
        Mode.HPN: (speed > t) | (partner_speed > t) | voice | partner_voice,
        # (2) Direct D2D within D1.
        Mode.D2D: (distance <= d1) & direct,
        # (3) Relay bridge in (D1, D2].
        Mode.FUE_RELAY: (d1 < distance) & (distance <= d2) & direct & relay,
        # (4) Local distributed coordination: midrange distance, or short
        # range with a D2D-incapable end, when the local path can serve it.
        Mode.LOCAL_COORDINATION: local_ok & (
            (d2 < distance) & (distance <= d3)
            | (distance <= d2) & np.logical_not(has_partner)
        ),
    }
    # (5) Everything else goes through the BBU pool.
    fran = np.select(
        list(rules.values()), list(map(MODES.index, rules)), MODES.index(Mode.GLOBAL_CRAN)
    )
    # The architecture gates. C-RAN serves every request through the BBU
    # pool; H-CRAN sends a fast or voice F-UE, or one with a fast partner, to
    # the HPN and the rest through the BBU pool.
    to_hpn = (config.architecture is Architecture.HCRAN) & (
        (speed > t) | voice | (partner_speed > t)
    )
    gated = np.where(to_hpn, MODES.index(Mode.HPN), MODES.index(Mode.GLOBAL_CRAN))
    return np.where(config.architecture is Architecture.FRAN, fran, gated)


def associate_fap(gains: np.ndarray, config: ScenarioConfig) -> np.ndarray:
    """Pick each F-UE's serving F-AP from the (U, F) path gains, in F-UE
    order: strongest mean received power first, falling back through the
    power-ordered list past full or interference-blocked F-APs. Returns the
    F-AP indices as an np.intp array, -1 where no F-AP admits the F-UE; the
    gains are left as they were.

    Each F-AP has the config's fap_capacity free resource blocks, one taken
    per admitted F-UE. Admission is blocked when the F-UE's estimated uplink
    interference to the nearest other F-AP exceeds interference_limit.
    """
    # Admission to F-AP i leaks at the strongest gain to the other F-APs: the
    # row maximum, or for the F-AP holding it the second largest (-inf if
    # none), read with the maximum masked in place and then restored.
    rows = np.arange(len(gains))
    top = gains.argmax(axis=1)
    best = gains[rows, top]
    gains[rows, top] = -np.inf
    second = gains.max(axis=1)
    gains[rows, top] = best
    p_fue, limit = config.fue_watts, config.interference_limit
    stops = zip(
        top.tolist(),
        (p_fue * second > limit).tolist(),  # blocks the top F-AP
        (p_fue * best > limit).tolist(),  # blocks every other
    )
    # Descending power, ties by lower index (a stable sort); -(p g) = g (-p)
    # exactly, so the order is that of the received powers.
    order = np.argsort(gains * -config.fap_watts, axis=1, kind="stable")
    free = [config.fap_capacity] * gains.shape[1]
    serving = []
    for row, (t, stop_top, stop_rest) in zip(order, stops):
        f = next(
            (i for i in row.tolist() if free[i] > 0 and not (stop_top if i == t else stop_rest)),
            -1,
        )
        if f >= 0:
            free[f] -= 1
        serving.append(f)
    return np.array(serving, dtype=np.intp)
