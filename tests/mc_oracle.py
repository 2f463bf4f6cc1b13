"""Monte-Carlo oracles for the exact metrics.

`coordination.AccessTable` scores F-AP blocks with the exact Rayleigh
success probability, `metrics_sim.spatial_average_rate` computes the D2D
rate by quadrature, and `metrics_sim.d2d_success_probability` the D2D
success by a Poisson-mixture recursion. This module keeps the Monte-Carlo
estimators they replaced, so tests can check each exact value against an
independent simulation of the same model:

- clusters: signal power summed over the block's F-APs, every other F-AP
  interfering, Exp(1) power fades;
- rate: a fresh PPP of Rayleigh-faded interferers over the region in every
  trial, against the faded signal of the typical D2D link at its centre;
- D2D success: the same typical link against the scenario's fixed D2D
  transmitters, each Rayleigh faded afresh in every trial.

The D2D signal fades are Rician (`rician_sample`); the package itself
samples only Rayleigh fades (`channel.fading_sample`).

`access_table` and `table_utility` build, from positions alone, the exact
table and cluster utility that `run_scenario` builds from its shared F-UE x
F-AP gains. The table serves each F-UE where `associate` puts it: a scalar
association oracle that shares no code with `mode_select.associate_fap`.
"""

from __future__ import annotations

import math

import numpy as np

from frangine.channel import fading_sample
from frangine.config import path_gain
from frangine.coordination import AccessTable, cluster_utility, served_fue_indices
from frangine.geometry import distance, pairwise_distances
from frangine.metrics_sim import Z_99, ScenarioConfig
from frangine.rng import derive_rng

# Most interferers `mc_spatial_average_rate` draws at once. It bounds memory
# and changes no output bit: interferer k always reads doubles 3k..3k+2 of
# the stream, and each trial's interference is summed in draw order.
CHUNK = 65536


def associate(fue_xy, fap_xy, config: ScenarioConfig) -> np.ndarray:
    """Each F-UE's serving F-AP, F-UE by F-UE: scalar distances and a Python
    sort by received power (ties by lower index), over the F-APs with free
    blocks left whose admission leaks no more than the interference limit
    to the nearest other F-AP. Each admission takes one of the F-AP's
    fap_capacity blocks; -1 when every F-AP is full or blocked."""
    free = [config.fap_capacity] * len(fap_xy)
    serving = []
    for ue in fue_xy:
        dists = np.array([distance(ue, p) for p in fap_xy])
        rx_power = config.fap_watts * path_gain(dists, config)
        chosen = -1
        for i in sorted(range(len(fap_xy)), key=lambda i: (-rx_power[i], i)):
            if free[i] <= 0:
                continue
            others = np.delete(dists, i)
            if others.size:
                leak = config.fue_watts * float(np.max(path_gain(others, config)))
                if leak > config.interference_limit:
                    continue
            chosen = i
            free[i] -= 1
            break
        serving.append(chosen)
    return np.array(serving, dtype=np.intp)


def access_table(fap_xy, fue_xy, config: ScenarioConfig) -> AccessTable:
    """The `AccessTable` of a layout: mean received powers, each F-UE served
    by the F-AP that `associate` gives it."""
    dists = pairwise_distances(fue_xy, fap_xy)
    return AccessTable(
        config.fap_watts * path_gain(dists, config), associate(fue_xy, fap_xy, config),
        config.noise_watts, config.theta,
    )


def table_utility(topology, config: ScenarioConfig):
    """The `merge_and_split` utility of a run: `cluster_utility` on the
    `access_table` of the topology's F-APs and F-UEs."""
    table = access_table(topology.faps, topology.fues, config)
    return lambda block: cluster_utility(block, config, table)


def rician_sample(k_factor: float, rng: np.random.Generator, size=None):
    """Unit-mean Rician power gain sample(s) |h|^2 of linear K-factor k_factor.

    h = sqrt(K/(K+1)) + sqrt(1/(2(K+1))) * (g1 + i*g2) with g1, g2 ~ N(0,1),
    so E[|h|^2] = 1 for every K, from the same two normals for every K, which
    keeps matched-seed comparisons across K factors paired. K = 0 is
    `channel.fading_sample`'s Rayleigh fade, bit for bit.
    """
    g1 = rng.standard_normal(size)
    g2 = rng.standard_normal(size)
    los = np.sqrt(k_factor / (k_factor + 1.0))
    scatter = np.sqrt(1.0 / (2.0 * (k_factor + 1.0)))
    return (los + scatter * g1) ** 2 + (scatter * g2) ** 2


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

    def __init__(self, fap_positions, fue_positions, config: ScenarioConfig, trials: int,
                 base_seed: int, serving=None):
        """serving[u] is the F-AP serving F-UE u; by default the nearest
        F-AP, which is the strongest under uniform F-AP transmit power."""
        dists = pairwise_distances(fue_positions, fap_positions)
        if serving is None:
            serving = np.argmin(dists, axis=1)
        self.serving = np.asarray(serving, dtype=np.intp)
        self.base_seed = base_seed
        self.trials = trials
        self.noise_watts = config.noise_watts
        self.gains = config.fap_watts * path_gain(dists, config)
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
    fap_positions,
    config: ScenarioConfig,
    fue_positions,
    mc_trials: int,
    rng: np.random.Generator,
) -> float:
    """Monte-Carlo probability that a cluster-served F-UE reaches the
    config's SINR threshold under Rayleigh fading, with joint (summed-power)
    transmission from all cluster F-APs and every out-of-cluster F-AP acting
    as an interferer.

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
    table = FadeTable(
        fap_positions,
        fue_positions,
        config,
        mc_trials,
        int(rng.integers(0, 2**63)),
        serving=np.full(fue_positions.shape[0], cluster[0]),
    )
    return float(np.mean(table.success_counts(cluster, config.theta))) / mc_trials


def mc_spatial_average_rate(config: ScenarioConfig, mc_trials: int, rng: np.random.Generator):
    """Monte-Carlo mean Shannon rate of the typical D2D link at the region
    center.

    Per trial: the signal link, at the D2D link distance, fades Rician with
    the config's linear K-factor; co-channel interferers are a fresh PPP of
    D2D transmitters (Rayleigh faded) over the region at the F-UE density.
    The field is drawn in chunks of whole trials holding at most `CHUNK`
    interferers (a larger trial is a chunk of its own), each from one
    uniform draw of three columns: x, y, and the Rayleigh power fade
    -log1p(-u), Exp(1) by inverse CDF.
    Returns (mean rate, 99% CI half-width).
    """
    if mc_trials < 1:
        raise ValueError("mc_trials must be at least 1")
    region = config.region()
    center = np.array(region.center)
    p_fue = config.fue_watts
    signal_mean = p_fue * float(path_gain(config.d2d_link_distance, config))
    # Signal fading first: the draw count is K-independent (two normals per
    # trial), so matched seeds stay paired across fading models and the
    # interferer field below starts from the same generator state for every K.
    sig_fades = rician_sample(config.d2d_fading(), rng, size=mc_trials)

    counts = rng.poisson(config.lambda_fue * region.area, size=mc_trials)
    ends = np.cumsum(counts)
    interference = np.empty(mc_trials)
    lo = 0
    while lo < mc_trials:
        start = ends[lo] - counts[lo]
        hi = max(int(ends.searchsorted(start + CHUNK, side="right")), lo + 1)
        u = rng.random((int(ends[hi - 1] - start), 3))
        dx = region.width * u[:, 0] - center[0]
        dy = region.height * u[:, 1] - center[1]
        gains = p_fue * path_gain(np.sqrt(dx * dx + dy * dy), config) * -np.log1p(-u[:, 2])
        trial_of = np.repeat(np.arange(hi - lo), counts[lo:hi])
        interference[lo:hi] = np.bincount(trial_of, weights=gains, minlength=hi - lo)
        lo = hi

    trial_sinr = signal_mean * sig_fades / (interference + config.noise_watts)
    rates = np.log2(1.0 + trial_sinr)
    mean = float(rates.mean())
    ci = Z_99 * float(rates.std(ddof=1)) / math.sqrt(mc_trials) if mc_trials > 1 else 0.0
    return mean, ci


def mc_d2d_success_probability(
    tx_positions, config: ScenarioConfig, mc_trials: int, rng: np.random.Generator
):
    """Monte-Carlo success probability of the typical D2D link at the region
    centre against the D2D transmitters at the rows of tx_positions (the
    first F-UE of each pair), Rayleigh faded per trial.

    Draws the (mc_trials, pairs) interferer fades, then the (mc_trials, 1)
    signal fades, from `rng`, in that order.
    Returns (probability, 99% CI half-width).
    """
    if mc_trials < 1:
        raise ValueError("mc_trials must be at least 1")
    p_fue = config.fue_watts
    signal_mean = p_fue * float(path_gain(config.d2d_link_distance, config))
    center = config.region().center
    int_gains = p_fue * path_gain(pairwise_distances(tx_positions, [center])[:, 0], config)
    int_fades = fading_sample(rng, size=(mc_trials, int_gains.size))
    sig_fades = rician_sample(config.d2d_fading(), rng, size=(mc_trials, 1))
    interference = int_fades @ int_gains if int_gains.size else 0.0
    sinr = sig_fades @ np.array([signal_mean]) / (interference + config.noise_watts)
    p = float(np.count_nonzero(sinr >= config.theta)) / mc_trials
    return p, Z_99 * math.sqrt(p * (1.0 - p) / mc_trials)
