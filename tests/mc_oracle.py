"""Monte-Carlo oracle for the cluster success probabilities.

`coordination.AccessTable` scores F-AP blocks with the exact Rayleigh
success probability. This module keeps the Monte-Carlo estimator it
replaced, so tests can check the closed form against an independent
simulation of the same model: signal power summed over the block's F-APs,
every other F-AP interfering, Exp(1) power fades.
"""

from __future__ import annotations

import numpy as np

from frangine.channel import LinkBudget, db_to_linear, path_gain
from frangine.coordination import served_fue_indices
from frangine.geometry import NetworkTopology, NodeKind, pairwise_distances
from frangine.rng import derive_rng


class FadeTable:
    """Monte-Carlo success counts of the F-UEs for any F-AP block, on common
    random numbers (Glasserman, Monte Carlo Methods in Financial
    Engineering, 4.2).

    The F-UEs served by F-AP a form group a. The Rayleigh power fades from
    F-AP j to group a over the T trials are one (n_a, T) slab of Exp(1)
    draws from its own stream, derive_rng(base_seed, "cluster", a, j). Every
    block is scored on these same fades, so a merge or split compares the
    utilities of the whole and of its parts on common noise, and a block's
    utility does not depend on which blocks were evaluated before it.

    The table keeps each F-UE's per-trial total received power over all
    F-APs. A block C regenerates the slabs (a, j) for a, j in C to get its
    signal; interference is the total minus the signal. The arrays held
    are the totals and the mean link gains, 8*U*(T + F) bytes, plus the
    U serving indices; the U x T x F fade tensor is never built.
    """

    def __init__(self, fap_positions, fue_positions, budget: LinkBudget, trials: int,
                 base_seed: int, serving=None):
        """serving[u] is the F-AP serving F-UE u; by default the nearest
        F-AP, which is the strongest under uniform F-AP transmit power."""
        dists = pairwise_distances(fue_positions, fap_positions)
        if serving is None:
            serving = np.argmin(dists, axis=1)
        self.serving = np.asarray(serving, dtype=np.intp)
        self.base_seed = base_seed
        self.trials = trials
        self.noise_watts = budget.noise_watts
        self.gains = budget.tx_watts(NodeKind.FAP) * path_gain(dists, budget)
        self.total = np.empty((self.serving.size, trials))
        every_fap = range(dists.shape[1])
        for a in np.unique(self.serving):
            group = np.flatnonzero(self.serving == a)
            self.total[group] = self._received(int(a), group, every_fap)

    def _received(self, a: int, group: np.ndarray, faps) -> np.ndarray:
        """(n_a, T) per-trial power that group a receives from the given
        F-APs. group must hold every F-UE of group a in index order: each
        slab is drawn at the group's full size."""
        power = np.zeros((group.size, self.trials))
        gains = self.gains[group]
        for j in faps:
            fades = derive_rng(self.base_seed, "cluster", a, j).standard_exponential(
                (group.size, self.trials)
            )
            power += gains[:, j, None] * fades
        return power

    def success_counts(self, cluster, gamma_lin: float) -> np.ndarray:
        """Trials, out of T, in which each F-UE served by the cluster reaches
        SINR gamma_lin; one entry per served_fue_indices(cluster, self)."""
        cluster = sorted(cluster)
        served = served_fue_indices(cluster, self)
        serving = self.serving[served]
        signal = np.empty((served.size, self.trials))
        for a in cluster:
            rows = np.flatnonzero(serving == a)
            if rows.size:
                signal[rows] = self._received(a, served[rows], cluster)
        interference = np.maximum(self.total[served] - signal, 0.0)
        sinr = signal / (interference + self.noise_watts)
        return np.count_nonzero(sinr >= gamma_lin, axis=1)


def successful_access_probability(
    cluster,
    topology: NetworkTopology,
    budget: LinkBudget,
    fue_positions,
    mc_trials: int,
    rng: np.random.Generator,
    gamma_th_db: float | None = None,
) -> float:
    """Monte-Carlo probability that a cluster-served F-UE reaches the SINR
    threshold under Rayleigh fading, with joint (summed-power) transmission
    from all cluster F-APs and every out-of-cluster F-AP acting as an
    interferer.

    Averaged over the given served F-UE positions; 0.0 if none are served.
    The positions form one group of a FadeTable, served by the cluster.
    """
    cluster = sorted(cluster)
    if not cluster:
        raise ValueError("cluster must be nonempty")
    if mc_trials < 1:
        raise ValueError("mc_trials must be at least 1")
    fue_positions = np.asarray(fue_positions, dtype=float).reshape(-1, 2)
    if fue_positions.shape[0] == 0:
        return 0.0
    gamma_lin = db_to_linear(
        budget.sinr_threshold_db if gamma_th_db is None else gamma_th_db
    )
    table = FadeTable(
        topology.faps.positions,
        fue_positions,
        budget,
        mc_trials,
        int(rng.integers(0, 2**63)),
        serving=np.full(fue_positions.shape[0], cluster[0]),
    )
    return float(np.mean(table.success_counts(cluster, gamma_lin))) / mc_trials
