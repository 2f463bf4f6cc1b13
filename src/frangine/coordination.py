"""Interference management: coalitional F-AP clustering, D2D subchannel
scheduling (centralized opportunistic vs distributed random), and soft
fractional frequency reuse.

Clustering uses merge-and-split over F-AP index sets with the utility
u(C) = R(C) / P(C)^tau, where R is the Monte-Carlo successful-access rate
of the cluster, estimated on Rayleigh fades that every block shares
(FadeTable), and P its power draw. Total utility strictly increases at
every accepted merge or split, so the procedure terminates on the finite
partition lattice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import _kernels
from .channel import LinkBudget, FadingModel, RAYLEIGH, db_to_linear, fading_sample, path_gain
from .geometry import (
    FapTopology,
    NetworkTopology,
    NodeKind,
    adjacency_is_connected,
    pairwise_distances,
)
from .rng import derive_rng


def round_half_away(x: float) -> int:
    """round(x) with halves away from zero, stable across platforms."""
    return int(math.floor(x + 0.5)) if x >= 0 else -int(math.floor(-x + 0.5))


# ---------------------------------------------------------------------------
# Successful access probability and coalition formation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClusterUtilityParams:
    tau: float = 1.0
    gamma_th_db: float = 0.0
    p_static: float = 10.0  # watts per F-AP
    p_tx: float = 1.0  # watts per F-AP
    p_coord: float = 0.5  # watts per ordered coordination pair
    mc_trials: int = 2000

    def __post_init__(self):
        if self.tau <= 0:
            raise ValueError("tau must be positive")
        if self.mc_trials < 1:
            raise ValueError("mc_trials must be at least 1")


@dataclass
class CoalitionPartition:
    blocks: list  # list of sorted tuples of F-AP indices, pairwise disjoint
    utilities: list  # per-block utility

    def total_utility(self) -> float:
        return float(sum(self.utilities))

    def block_sizes(self) -> list[int]:
        return [len(b) for b in self.blocks]


class FadeTable:
    """Common random numbers for the cluster utilities of one merge-and-split
    (Glasserman, Monte Carlo Methods in Financial Engineering, 4.2).

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


def cluster_power(cluster_size: int, params: ClusterUtilityParams) -> float:
    return cluster_size * (params.p_static + params.p_tx) + params.p_coord * cluster_size * (
        cluster_size - 1
    )


def served_fue_indices(cluster, table: FadeTable) -> np.ndarray:
    """F-UEs of the table whose serving F-AP lies in the cluster."""
    in_cluster = np.zeros(table.gains.shape[1], dtype=bool)
    in_cluster[list(cluster)] = True
    return np.flatnonzero(in_cluster[table.serving])


def cluster_utility(cluster, params: ClusterUtilityParams, table: FadeTable) -> float:
    """u(C) = R(C) / P(C)^tau with R = success prob x log2(1+gamma) x served,
    scored on the table's common fades."""
    gamma_lin = db_to_linear(params.gamma_th_db)
    successes = int(np.sum(table.success_counts(cluster, gamma_lin)))
    reward = successes / table.trials * math.log2(1.0 + gamma_lin)
    return reward / cluster_power(len(cluster), params) ** params.tau


def _bipartitions(block):
    """Proper two-part splits of a block, deterministic order. The first
    part always contains the block's smallest element."""
    block = sorted(block)
    rest = block[1:]
    for mask in range(0, 2 ** len(rest) - 1):
        left = [block[0]]
        right = []
        for bit, item in enumerate(rest):
            (left if mask >> bit & 1 else right).append(item)
        if right:
            yield tuple(left), tuple(right)


def merge_and_split(
    topology: NetworkTopology,
    params: ClusterUtilityParams,
    budget: LinkBudget,
    rng: np.random.Generator,
    utility_fn=None,
) -> CoalitionPartition:
    """Merge-and-split coalition formation over the F-AP set.

    Starting from singletons: merge two blocks when the merged utility
    strictly exceeds the sum of their utilities; split a block into a
    bipartition when the part utilities strictly beat the whole. Pairs and
    bipartitions are scanned in deterministic order. In tree topology only
    blocks inducing connected adjacency subgraphs are allowed.

    utility_fn, when given, replaces the Monte-Carlo cluster utility; it is
    called with a sorted tuple of F-AP indices and must be deterministic.
    The default scores every block on one FadeTable drawn from rng, so all
    utilities share common random numbers. Each distinct block is
    evaluated once.
    """
    n = len(topology.faps)
    if n < 1:
        raise ValueError("at least one F-AP required")
    if utility_fn is None:
        table = FadeTable(
            topology.faps.positions, topology.fues.positions, budget,
            params.mc_trials, int(rng.integers(0, 2**63)),
        )

        def utility_fn(block: tuple) -> float:
            return cluster_utility(block, params, table)

    cache: dict[frozenset, float] = {}

    def utility(block: tuple) -> float:
        key = frozenset(block)
        if key not in cache:
            cache[key] = utility_fn(tuple(sorted(block)))
        return cache[key]

    def allowed(block) -> bool:
        if topology.fap_link_topology is FapTopology.TREE:
            return adjacency_is_connected(topology.fap_adjacency, list(block))
        return True

    blocks = [(i,) for i in range(n)]
    changed = True
    while changed:
        changed = False
        # Merge pass.
        blocks.sort(key=lambda b: b[0])
        merged = None
        for a in range(len(blocks)):
            for b in range(a + 1, len(blocks)):
                union = tuple(sorted(blocks[a] + blocks[b]))
                if not allowed(union):
                    continue
                if utility(union) > utility(blocks[a]) + utility(blocks[b]):
                    merged = (a, b, union)
                    break
            if merged:
                break
        if merged:
            a, b, union = merged
            blocks = [blk for k, blk in enumerate(blocks) if k not in (a, b)] + [union]
            changed = True
            continue
        # Split pass.
        blocks.sort(key=lambda b: b[0])
        split = None
        for k, block in enumerate(blocks):
            if len(block) < 2:
                continue
            for left, right in _bipartitions(block):
                if not (allowed(left) and allowed(right)):
                    continue
                if utility(left) + utility(right) > utility(block):
                    split = (k, left, right)
                    break
            if split:
                break
        if split:
            k, left, right = split
            blocks = [blk for i, blk in enumerate(blocks) if i != k] + [left, right]
            changed = True
    blocks.sort(key=lambda b: b[0])
    return CoalitionPartition(blocks=blocks, utilities=[utility(b) for b in blocks])


# ---------------------------------------------------------------------------
# D2D subchannel scheduling (COAC / DRAC)
# ---------------------------------------------------------------------------


class SchedulerKind(Enum):
    COAC = "coac"
    DRAC = "drac"


@dataclass
class D2dLinkSet:
    """D2D transmitters with their per-subchannel gains to the victim
    cellular receiver (path gain x static fading, drawn once)."""

    tx_positions: np.ndarray  # (n_links, 2)
    cross_gains: np.ndarray  # (n_links, n_subchannels), linear power gain

    def __len__(self) -> int:
        return self.tx_positions.shape[0]


@dataclass
class SubchannelAssignment:
    n_subchannels: int
    epsilon: float
    occupied: list  # per link: sorted np.ndarray of subchannel indices
    links: D2dLinkSet

    def occupancy_count(self) -> int:
        return round_half_away(self.epsilon * self.n_subchannels)


def make_d2d_links(
    tx_positions,
    victim_position,
    n_subchannels: int,
    budget: LinkBudget,
    rng: np.random.Generator,
    fading: FadingModel = RAYLEIGH,
) -> D2dLinkSet:
    tx_positions = np.asarray(tx_positions, dtype=float).reshape(-1, 2)
    dists = pairwise_distances(tx_positions, [victim_position])[:, 0]
    gains = path_gain(dists, budget)[:, None] * fading_sample(
        fading, rng, size=(tx_positions.shape[0], n_subchannels)
    )
    return D2dLinkSet(tx_positions=tx_positions, cross_gains=gains)


def coac_assign(
    d2d_links: D2dLinkSet, n_subchannels: int, epsilon: float
) -> SubchannelAssignment:
    """Centralized opportunistic assignment: each link takes the
    round(eps*N) subchannels on which it interferes least with the victim
    (ascending cross gain, ties by lower subchannel index)."""
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError("epsilon must lie in [0, 1]")
    m = round_half_away(epsilon * n_subchannels)
    occupied = []
    for i in range(len(d2d_links)):
        order = np.argsort(d2d_links.cross_gains[i], kind="stable")
        occupied.append(np.sort(order[:m]))
    return SubchannelAssignment(n_subchannels, epsilon, occupied, d2d_links)


def drac_assign(
    d2d_links: D2dLinkSet,
    n_subchannels: int,
    epsilon: float,
    rng: np.random.Generator,
) -> SubchannelAssignment:
    """Distributed random assignment: uniform round(eps*N)-subset per link."""
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError("epsilon must lie in [0, 1]")
    m = round_half_away(epsilon * n_subchannels)
    occupied = []
    for _ in range(len(d2d_links)):
        occupied.append(np.sort(rng.permutation(n_subchannels)[:m]))
    return SubchannelAssignment(n_subchannels, epsilon, occupied, d2d_links)


def cellular_success_probability(
    assignment: SubchannelAssignment,
    topology: NetworkTopology,
    budget: LinkBudget,
    gamma_th_db: float,
    mc_trials: int,
    rng: np.random.Generator,
    user_position=None,
) -> float:
    """Monte-Carlo success probability of the typical cellular uplink.

    The typical user (region center unless given) transmits to its nearest
    HPN with per-trial Rayleigh fading, on a uniformly chosen subchannel;
    co-channel D2D transmitters interfere through their static cross gains.
    """
    if mc_trials < 1:
        raise ValueError("mc_trials must be at least 1")
    if len(topology.hpns) == 0:
        raise ValueError("at least one HPN required")
    if user_position is None:
        user_position = (topology.region.width / 2.0, topology.region.height / 2.0)
    hpn_dists = pairwise_distances([user_position], topology.hpns.positions)[0]
    signal_mean = budget.tx_watts(NodeKind.FUE) * float(
        path_gain(hpn_dists.min(), budget)
    )
    # Aggregate D2D interference per subchannel (static over trials).
    p_d2d = budget.tx_watts(NodeKind.FUE)
    interference = np.zeros(assignment.n_subchannels)
    for i, subs in enumerate(assignment.occupied):
        interference[subs] += p_d2d * assignment.links.cross_gains[i, subs]
    sub_choice = rng.integers(0, assignment.n_subchannels, size=mc_trials)
    fades = fading_sample(RAYLEIGH, rng, size=mc_trials)
    trial_sinr = signal_mean * fades / (interference[sub_choice] + budget.noise_watts)
    return _kernels.success_fraction(trial_sinr, db_to_linear(gamma_th_db))


# ---------------------------------------------------------------------------
# Soft fractional frequency reuse
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SffrUe:
    id: int
    high_qos: bool
    serving_kind: NodeKind  # FAP or HPN


@dataclass
class SffrPlan:
    n_resource_blocks: int
    reserved_blocks: list  # high-QoS F-AP F-UEs only
    shared_blocks: list  # low-QoS UEs of both tiers
    assignment: dict  # ue id -> block index or None


def sffr_allocate(n_resource_blocks: int, eta: float, ues) -> SffrPlan:
    """Partition blocks into a reserved pool (round(eta*N), high-QoS F-AP
    F-UEs only) and a shared pool (everyone else), each assigned round-robin.
    A UE whose pool is empty gets no block."""
    if not 0.0 <= eta <= 1.0:
        raise ValueError("eta must lie in [0, 1]")
    if n_resource_blocks < 0:
        raise ValueError("n_resource_blocks must be nonnegative")
    n_reserved = round_half_away(eta * n_resource_blocks)
    reserved = list(range(n_reserved))
    shared = list(range(n_reserved, n_resource_blocks))
    assignment = {}
    reserved_users = [u for u in ues if u.high_qos and u.serving_kind is NodeKind.FAP]
    shared_users = [u for u in ues if not (u.high_qos and u.serving_kind is NodeKind.FAP)]
    for i, u in enumerate(reserved_users):
        assignment[u.id] = reserved[i % len(reserved)] if reserved else None
    for i, u in enumerate(shared_users):
        assignment[u.id] = shared[i % len(shared)] if shared else None
    return SffrPlan(n_resource_blocks, reserved, shared, assignment)
