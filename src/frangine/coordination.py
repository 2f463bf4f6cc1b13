"""Interference management: coalitional F-AP clustering, D2D subchannel
scheduling (centralized opportunistic vs distributed random), and soft
fractional frequency reuse.

Clustering uses merge-and-split over F-AP index sets with the utility
u(C) = R(C) / P(C)^tau, where R is the cluster's successful-access rate,
exact under Rayleigh fading (AccessTable), and P its power draw. Total
utility strictly increases at every accepted merge or split, so the
procedure terminates on the finite partition lattice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .channel import fading_sample
from .config import ScenarioConfig, cluster_power, path_gain
from .geometry import FapTopology, NetworkTopology, NodeKind, pairwise_distances


def round_half_away(x: float) -> int:
    """round(x) with halves away from zero, stable across platforms."""
    return int(math.floor(x + 0.5)) if x >= 0 else -int(math.floor(-x + 0.5))


# ---------------------------------------------------------------------------
# Successful access probability and coalition formation
# ---------------------------------------------------------------------------

@dataclass
class CoalitionPartition:
    blocks: list  # list of sorted tuples of F-AP indices, pairwise disjoint

    def block_sizes(self) -> list[int]:
        return [len(b) for b in self.blocks]


@dataclass
class AccessTable:
    """Exact Rayleigh success probabilities, for any F-AP block, of the F-UEs
    that association (`serving`) gives its F-APs; an unadmitted F-UE (-1) is
    in no block (Haenggi, Stochastic Geometry for Wireless Networks, ch. 5).

    F-UE u, served by F-AP serving[u] in block C, receives S = sum_{j in C}
    g_j E_j and I = sum_{k not in C} g_k E_k, with g = gains[u] and i.i.d.
    Exp(1) fades E, and succeeds when S >= theta (I + N). By the partial
    fractions of the law of S (Amari & Misra, IEEE Trans. Reliability 1997),

        p(C) = sum_{j in C} A_j exp(-theta N / g_j) prod_{k not in C} 1 / (1 + theta g_k / g_j),
        A_j = prod_{i in C, i != j} g_j / (g_j - g_i).

    log_products[u, j] memoizes the log of that product over every F-AP k;
    a block divides its own F-APs back out. An F-UE whose terms cancel
    (tied or nearly tied gains) is scored by _phase_type_success instead.
    """

    gains: np.ndarray  # (U, F) mean received powers, watts
    serving: np.ndarray  # (U,) each F-UE's F-AP from association, -1 if none
    noise_watts: float
    theta: float  # linear SINR threshold
    cancellation_limit = 1e4  # largest sum |terms| / p kept (error ~1e-11 p)

    def __post_init__(self):
        self.log_products = np.full(self.gains.shape, np.nan)

    def success_probabilities(self, cluster) -> np.ndarray:
        """One probability per F-UE of served_fue_indices(cluster, self)."""
        cluster = np.array(sorted(cluster), dtype=np.intp)
        served = served_fue_indices(cluster, self)
        own = self.gains[served[:, None], cluster]
        logs = self.log_products[served[:, None], cluster]
        terms = np.empty_like(own)
        # One term j at a time, so that no temporary exceeds U x F.
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for j in range(cluster.size):
                g = own[:, j, None]
                new = np.isnan(logs[:, j])
                logs[new, j] = np.log1p(self.theta * self.gains[served[new]] / g[new]).sum(1)
                weights = g / (g - own)
                weights[:, j] = 1.0
                terms[:, j] = weights.prod(axis=1) * np.exp(
                    np.log1p(self.theta * own / g).sum(axis=1)
                    - logs[:, j] - self.theta * self.noise_watts / own[:, j]
                )
        self.log_products[served[:, None], cluster] = logs
        p = terms.sum(axis=1)
        # NaN and infinite sums (tied gains) fail the test as well.
        cancel = ~((np.abs(terms).sum(axis=1) <= self.cancellation_limit * p) & (p <= 1.0))
        if cancel.any():
            others = np.delete(self.gains[served[cancel]], cluster, axis=1)
            p[cancel] = _phase_type_success(own[cancel], others, self.theta, self.noise_watts)
        return p


def _phase_type_success(own, others, theta: float, noise: float) -> np.ndarray:
    """AccessTable's p for each row of signal gains `own` and interferer
    gains `others` in the bidiagonal-matrix (Opitz) form of the divided
    difference the partial fractions expand, exact also for tied gains:
    S runs through phases j = 0, 1, ... at rates 1/g_j (sub-generator
    T[j, j] = -1/g_j, T[j, j + 1] = 1/g_j), p = e_0 expm(theta N T)
    prod_k (I - theta g_k T)^-1 1. Each factor moves nonnegative mass along
    the phases or out of the last (S fell short), so nothing cancels. p is
    the mass kept where that is at most 1/2, else one minus the mass lost:
    neither sum can round out of [0, 1].
    """
    mass = np.zeros_like(own)
    mass[:, 0] = 1.0
    lost = np.zeros(own.shape[0])
    for gain in theta * others.T:  # an interferer's Exp(1) fade, averaged out
        move = gain[:, None] / own
        carry = 0.0
        for j in range(own.shape[1]):
            mass[:, j] = (mass[:, j] + carry) / (1.0 + move[:, j])
            carry = mass[:, j] * move[:, j]
        lost += carry
    # The noise: time theta N, uniformized at rate q <= 500 per step (exp(-q)
    # does not underflow), Poisson weights cut where the tail is below 1e-20.
    rates = theta * noise / own
    steps = max(1, math.ceil(rates.max() / 500.0))
    q = rates.max() / steps
    jump = rates / rates.max() if q > 0 else rates
    count = math.ceil(q + 10.0 * math.sqrt(q) + 20.0)
    weights = math.exp(-q) * np.cumprod(np.r_[1.0, q / np.arange(1.0, count)])
    later = np.cumsum(weights[::-1])[::-1][1:]  # P(at least m events), m >= 1
    for _ in range(steps):
        term, mass = mass, weights[0] * mass
        for weight, reached in zip(weights[1:], later):
            moved = term * jump
            lost += reached * moved[:, -1]
            term = term - moved
            term[:, 1:] += moved[:, :-1]
            mass = mass + weight * term
    kept = mass.sum(axis=1)
    return np.where(kept <= 0.5, kept, 1.0 - lost)


def served_fue_indices(cluster, table: AccessTable) -> np.ndarray:
    """F-UEs of the table whose serving F-AP lies in the cluster. Serving -1
    reads the mask's spare last slot, so an unadmitted F-UE is in none."""
    in_cluster = np.zeros(table.gains.shape[1] + 1, dtype=bool)
    in_cluster[list(cluster)] = True
    return np.flatnonzero(in_cluster[table.serving])


def cluster_utility(cluster, config: ScenarioConfig, table: AccessTable) -> float:
    """u(C) = R(C) / P(C)^tau with R = log2(1 + theta) x the success
    probabilities of the served F-UEs summed: the Monte-Carlo rate's limit
    as the trials grow."""
    reward = float(np.sum(table.success_probabilities(cluster))) * math.log2(1.0 + table.theta)
    return reward / cluster_power(len(cluster), config) ** config.tau


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


def _tree_cuts(block, neighbors):
    """The two-part splits of `block` into connected parts, when `block`
    induces a subtree of a tree whose adjacency lists are `neighbors`: one
    split per edge of the subtree, as `_bipartitions` yields them and in
    its order."""
    block = sorted(block)
    inside = set(block)
    bit = {v: 1 << i for i, v in enumerate(block[1:])}
    # Walk the subtree from its smallest F-AP; the edge into v cuts off
    # v's subtree, so the left part's mask is all of `bit` but that subtree.
    parent = {block[0]: None}
    order = [block[0]]
    for v in order:
        for w in neighbors[v]:
            if w in inside and w not in parent:
                parent[w] = v
                order.append(w)
    below = {v: bit.get(v, 0) for v in order}
    for v in reversed(order[1:]):
        below[parent[v]] |= below[v]
    full = (1 << (len(block) - 1)) - 1
    cuts = []
    for mask in sorted(full ^ below[v] for v in order[1:]):
        left = (block[0],) + tuple(v for v in block[1:] if mask & bit[v])
        cuts.append((left, tuple(v for v in block[1:] if not mask & bit[v])))
    return cuts


def merge_and_split(
    topology: NetworkTopology, config: ScenarioConfig, utility_fn
) -> CoalitionPartition:
    """Merge-and-split coalition formation over the F-AP set.

    Starting from singletons: merge two blocks when the merged utility
    strictly exceeds the sum of their utilities; split a block into a
    bipartition when the part utilities strictly beat the whole. Pairs and
    bipartitions are scanned in deterministic order. Two blocks are a merge
    candidate only if an F-AP link joins them (in a mesh, every pair is
    linked), scanned as pairs of the blocks sorted by first F-AP. So tree
    blocks stay connected, and a block's split candidates are its
    subtree's edge cuts (`_tree_cuts`), scanned in `_bipartitions`' order.

    utility_fn scores a block, a sorted tuple of F-AP indices, and must be
    deterministic; a run passes `cluster_utility` on its AccessTable. Each
    distinct block is evaluated once.
    """
    n = len(topology.faps)
    cache: dict[tuple, float] = {}

    def utility(block: tuple) -> float:
        if block not in cache:
            cache[block] = utility_fn(block)
        return cache[block]

    tree = config.fap_topology is FapTopology.TREE
    neighbors = topology.fap_neighbors()

    blocks = [(i,) for i in range(n)]
    changed = True
    while changed:
        changed = False
        # Merge pass; blocks stay sorted through the split pass below.
        blocks.sort(key=lambda b: b[0])
        owner = {v: k for k, block in enumerate(blocks) for v in block}
        pairs = sorted({(min(owner[i], owner[j]), max(owner[i], owner[j]))
                        for i, j in topology.fap_adjacency if owner[i] != owner[j]})
        merged = None
        for a, b in pairs:
            union = tuple(sorted(blocks[a] + blocks[b]))
            if utility(union) > utility(blocks[a]) + utility(blocks[b]):
                merged = (a, b, union)
                break
        if merged:
            a, b, union = merged
            blocks = [blk for k, blk in enumerate(blocks) if k not in (a, b)] + [union]
            changed = True
            continue
        # Split pass.
        split = None
        for k, block in enumerate(blocks):
            if len(block) < 2:
                continue
            candidates = _tree_cuts(block, neighbors) if tree else _bipartitions(block)
            for left, right in candidates:
                if utility(left) + utility(right) > utility(block):
                    split = (k, left, right)
                    break
            if split:
                break
        if split:
            k, left, right = split
            blocks = [blk for i, blk in enumerate(blocks) if i != k] + [left, right]
            changed = True
    return CoalitionPartition(blocks)


# ---------------------------------------------------------------------------
# D2D subchannel scheduling (COAC / DRAC)
# ---------------------------------------------------------------------------


def make_d2d_links(tx_xy, config: ScenarioConfig, rng: np.random.Generator) -> np.ndarray:
    """(links, n_subchannels) linear power gains from each D2D transmitter
    (row of tx_xy) to the victim cellular receiver at the region centre:
    path gain x static Rayleigh fading, drawn once."""
    dists = pairwise_distances(tx_xy, [config.region().center])[:, 0]
    return path_gain(dists, config)[:, None] * fading_sample(
        rng, size=(dists.size, config.n_subchannels)
    )


def coac_assign(cross_gains: np.ndarray, config: ScenarioConfig) -> np.ndarray:
    """Centralized opportunistic assignment: each link (row of the cross
    gains) takes the round(eps*N) subchannels on which it interferes least
    with the victim (ascending cross gain, ties by lower subchannel index).
    Returns the (links, N) occupancy mask."""
    m = round_half_away(config.epsilon * cross_gains.shape[1])
    occupied = np.zeros(cross_gains.shape, dtype=bool)
    np.put_along_axis(
        occupied, np.argsort(cross_gains, axis=1, kind="stable")[:, :m], True, axis=1
    )
    return occupied


def drac_assign(n_links: int, config: ScenarioConfig, rng: np.random.Generator) -> np.ndarray:
    """Distributed random assignment: a uniform round(eps*N)-subset of the
    N = n_subchannels per link, one permutation per link in link order.
    Returns the (links, N) occupancy mask."""
    n = config.n_subchannels
    m = round_half_away(config.epsilon * n)
    occupied = np.zeros((n_links, n), dtype=bool)
    for row in occupied:
        row[rng.permutation(n)[:m]] = True
    return occupied


def cellular_success_probability(
    occupied: np.ndarray,
    cross_gains: np.ndarray,
    hpns: np.ndarray,
    config: ScenarioConfig,
    rng: np.random.Generator,
) -> float:
    """Monte-Carlo success probability of the typical cellular uplink, over
    the config's mc_trials.

    The typical user at the region center transmits to its nearest HPN (row
    of hpns) with per-trial Rayleigh fading, on a uniformly chosen
    subchannel; the D2D links occupying it (the (links, N) mask `occupied`)
    interfere through their static cross gains.
    """
    hpn_dists = pairwise_distances([config.region().center], hpns)[0]
    p_fue = config.fue_watts
    signal_mean = p_fue * float(path_gain(hpn_dists.min(), config))
    # Aggregate D2D interference per subchannel (static over trials); an
    # axis-0 sum adds the links in link order.
    interference = np.where(occupied, p_fue * cross_gains, 0.0).sum(axis=0)
    sub_choice = rng.integers(0, cross_gains.shape[1], size=config.mc_trials)
    fades = fading_sample(rng, size=config.mc_trials)
    trial_sinr = signal_mean * fades / (interference[sub_choice] + config.noise_watts)
    return _kernels.success_fraction(trial_sinr, config.theta)


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
