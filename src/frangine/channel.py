"""Link budget and small-scale fading.

All fading sample distributions are normalized to unit mean power, so the
link budget alone sets mean received power. A signal fade realizes Rayleigh
as the K = 0 special case of Rician (same underlying Gaussian draws), which
keeps matched-seed comparisons across K factors tightly paired. The D2D and
cellular success checks of `metrics_sim` sample fades here;
`metrics_sim.spatial_average_rate` draws none, since it integrates the
Rician moment generating function exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .geometry import NodeKind


class FadingKind(Enum):
    RAYLEIGH = "rayleigh"
    RICIAN = "rician"


@dataclass(frozen=True)
class FadingModel:
    kind: FadingKind
    k_factor_db: float | None = None  # present iff RICIAN

    def __post_init__(self):
        if self.kind is FadingKind.RICIAN and self.k_factor_db is None:
            raise ValueError("Rician fading requires a K-factor")

    def k_linear(self) -> float:
        """LOS-to-scattered power ratio; 0 for Rayleigh."""
        if self.kind is FadingKind.RAYLEIGH:
            return 0.0
        return 10.0 ** (self.k_factor_db / 10.0)


RAYLEIGH = FadingModel(FadingKind.RAYLEIGH)


def db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


def dbm_to_watts(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


@dataclass(frozen=True)
class LinkBudget:
    path_loss_exponent: float = 4.0
    reference_gain_db: float = 0.0  # at 1 m
    tx_power_dbm: dict = field(
        default_factory=lambda: {NodeKind.FAP: 30.0, NodeKind.FUE: 20.0}
    )
    noise_power_dbm: float = -100.0
    sinr_threshold_db: float = 0.0

    def __post_init__(self):
        if self.path_loss_exponent <= 2:
            raise ValueError("path loss exponent must exceed 2")
        if not np.isfinite(self.noise_power_dbm):
            raise ValueError("noise power must be finite")

    @property
    def noise_watts(self) -> float:
        return dbm_to_watts(self.noise_power_dbm)

    @property
    def gamma_th_linear(self) -> float:
        return db_to_linear(self.sinr_threshold_db)

    def tx_watts(self, kind: NodeKind) -> float:
        return dbm_to_watts(self.tx_power_dbm[kind])


def path_gain(d: float, budget: LinkBudget) -> float:
    """Power-law path gain, clamped at 1 m to avoid the d -> 0 singularity."""
    if np.any(np.asarray(d) < 0):
        raise ValueError("distance must be nonnegative")
    # In place on one new array: a distance matrix needs no second copy.
    gain = np.maximum(d, 1.0)
    gain **= -budget.path_loss_exponent
    gain *= db_to_linear(budget.reference_gain_db)
    return gain


def fading_sample(model: FadingModel, rng: np.random.Generator, size=None):
    """Unit-mean power gain sample(s) |h|^2.

    h = sqrt(K/(K+1)) + sqrt(1/(2(K+1))) * (g1 + i*g2) with g1, g2 ~ N(0,1),
    so E[|h|^2] = 1 for every K. K = 0 gives exponential(1), i.e. Rayleigh.
    """
    k = model.k_linear()
    g1 = rng.standard_normal(size)
    g2 = rng.standard_normal(size)
    los = np.sqrt(k / (k + 1.0))
    scatter = np.sqrt(1.0 / (2.0 * (k + 1.0)))
    # (los + scatter * g1) ** 2 + (scatter * g2) ** 2, in place: two arrays of
    # `size` at most, where the expression would hold five.
    g1 *= scatter
    g1 += los
    g1 **= 2
    g2 *= scatter
    g2 **= 2
    g1 += g2
    return g1
