"""The Monte-Carlo SINR kernels, kept in a module of their own under these
names because the scenario benchmark (`scenbench/tracer.py`) hooks
`_kernels.sinr_trials` and `_kernels.success_fraction` by name for its
`kernels.*` per-layer metrics.

The cellular success estimate calls `success_fraction`. Nothing in the
package calls `sinr_trials` any more (D2D success is exact); it stays only
so that the benchmark's hook still binds, and reports zero work.
"""

from __future__ import annotations

import numpy as np


def sinr_trials(sig_fades, sig_gains, int_fades, int_gains, noise):
    """Per-trial SINR for fading matrices against fixed mean link gains.

    sig_fades: (T, S) fading samples for the S signal links.
    sig_gains: (S,) mean received powers (tx power x path gain), watts.
    int_fades / int_gains: (T, I) and (I,), the same for the I interfering
    links (I may be 0).
    noise: receiver noise power, watts.
    """
    interference = int_fades @ int_gains if int_gains.size else 0.0
    return sig_fades @ sig_gains / (interference + noise)


def success_fraction(sinr, gamma_lin) -> float:
    """Fraction of trials whose SINR reaches gamma_lin."""
    return float(np.count_nonzero(sinr >= gamma_lin)) / sinr.shape[0]
