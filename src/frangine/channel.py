"""Small-scale fading.

Fades have unit mean power, so the config's powers and `config.path_gain`
alone set mean received power. Only Rayleigh fades are sampled at run
time: the static D2D cross gains (`coordination.make_d2d_links`) and the
cellular success check (`coordination.cellular_success_probability`) draw
them here. A D2D link's Rician fading is a plain linear K-factor
(`config.ScenarioConfig.d2d_fading`), and
`metrics_sim.spatial_average_rate` and
`metrics_sim.d2d_success_probability` draw no fades: they are exact, from
the Rician moment generating function and its Poisson-mixture form.
"""

from __future__ import annotations

import numpy as np


def fading_sample(rng: np.random.Generator, size=None):
    """Unit-mean Rayleigh power gain sample(s) |h|^2, exponential(1).

    h = sqrt(1/2) * (g1 + i*g2) with g1, g2 ~ N(0,1), so E[|h|^2] = 1.
    """
    g1 = rng.standard_normal(size)
    g2 = rng.standard_normal(size)
    scatter = np.sqrt(0.5)
    # (scatter * g1) ** 2 + (scatter * g2) ** 2, in place: no array of
    # `size` beyond the two draws.
    g1 *= scatter
    g1 **= 2
    g2 *= scatter
    g2 **= 2
    g1 += g2
    return g1
