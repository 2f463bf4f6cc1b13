"""Hot Monte-Carlo kernels with a numba fast path and a pure-numpy fallback.

Backend selection: set FRANGINE_BACKEND=numpy or FRANGINE_BACKEND=numba in
the environment before import (default: numba when importable). The two
backends agree to floating-point tolerance but not necessarily bitwise,
because numpy's dot product may sum in a different order than the jitted
sequential loop. Within one backend results are fully deterministic.
"""

from __future__ import annotations

import os

import numpy as np

try:
    from numba import njit

    _HAVE_NUMBA = True
except ImportError:  # pragma: no cover - numba is an optional extra
    _HAVE_NUMBA = False


def _sinr_trials_numpy(sig_fades, sig_gains, int_fades, int_gains, noise):
    signal = sig_fades @ sig_gains
    if int_gains.size:
        interference = int_fades @ int_gains
    else:
        interference = np.zeros(sig_fades.shape[0])
    return signal / (interference + noise)


def _sinr_trials_loop(sig_fades, sig_gains, int_fades, int_gains, noise):
    n_trials = sig_fades.shape[0]
    out = np.empty(n_trials)
    for t in range(n_trials):
        signal = 0.0
        for j in range(sig_gains.shape[0]):
            signal += sig_fades[t, j] * sig_gains[j]
        interference = 0.0
        for k in range(int_gains.shape[0]):
            interference += int_fades[t, k] * int_gains[k]
        out[t] = signal / (interference + noise)
    return out


def _success_fraction_numpy(sinr, gamma_lin):
    return float(np.count_nonzero(sinr >= gamma_lin)) / sinr.shape[0]


def _success_fraction_loop(sinr, gamma_lin):
    hits = 0
    for t in range(sinr.shape[0]):
        if sinr[t] >= gamma_lin:
            hits += 1
    return hits / sinr.shape[0]


def _mean_rate_numpy(sinr):
    return float(np.mean(np.log2(1.0 + sinr)))


def _mean_rate_loop(sinr):
    acc = 0.0
    for t in range(sinr.shape[0]):
        acc += np.log2(1.0 + sinr[t])
    return acc / sinr.shape[0]


if _HAVE_NUMBA:
    # fastmath lets LLVM vectorize the reductions; it reorders the sums, but
    # the backend contract is tolerance-level (not bitwise) agreement anyway
    # and each backend remains deterministic for a fixed build.
    _sinr_trials_numba = njit(cache=True, fastmath=True)(_sinr_trials_loop)
    _success_fraction_numba = njit(cache=True, fastmath=True)(_success_fraction_loop)
    _mean_rate_numba = njit(cache=True, fastmath=True)(_mean_rate_loop)

_BACKENDS = {
    "numpy": {
        "sinr_trials": _sinr_trials_numpy,
        "success_fraction": _success_fraction_numpy,
        "mean_rate": _mean_rate_numpy,
    },
}
if _HAVE_NUMBA:
    _BACKENDS["numba"] = {
        "sinr_trials": _sinr_trials_numba,
        "success_fraction": _success_fraction_numba,
        "mean_rate": _mean_rate_numba,
    }


def _default_backend() -> str:
    requested = os.environ.get("FRANGINE_BACKEND", "").strip().lower()
    if requested:
        if requested not in ("numpy", "numba"):
            raise ValueError(f"unknown FRANGINE_BACKEND: {requested!r}")
        if requested == "numba" and not _HAVE_NUMBA:
            raise ValueError("FRANGINE_BACKEND=numba but numba is not importable")
        return requested
    return "numba" if _HAVE_NUMBA else "numpy"


_ACTIVE = _default_backend()


def active_backend() -> str:
    return _ACTIVE


def set_backend(name: str) -> None:
    """Switch kernel backend at runtime (used by tests and the benchmark)."""
    global _ACTIVE
    if name not in _BACKENDS:
        raise ValueError(f"unknown or unavailable backend: {name!r}")
    _ACTIVE = name


def sinr_trials(sig_fades, sig_gains, int_fades, int_gains, noise):
    """Per-trial SINR for fading matrices against fixed mean link gains.

    sig_fades: (T, S) fading samples for the S signal links.
    sig_gains: (S,) mean received powers (tx power x path gain), watts.
    int_fades / int_gains: same for the I interfering links (I may be 0).
    noise: receiver noise power, watts.
    """
    sig_fades = np.ascontiguousarray(sig_fades, dtype=np.float64)
    sig_gains = np.ascontiguousarray(sig_gains, dtype=np.float64)
    int_fades = np.ascontiguousarray(int_fades, dtype=np.float64)
    int_gains = np.ascontiguousarray(int_gains, dtype=np.float64)
    if int_fades.ndim != 2:
        int_fades = int_fades.reshape(sig_fades.shape[0], int_gains.shape[0])
    return _BACKENDS[_ACTIVE]["sinr_trials"](
        sig_fades, sig_gains, int_fades, int_gains, float(noise)
    )


def success_fraction(sinr, gamma_lin) -> float:
    sinr = np.ascontiguousarray(sinr, dtype=np.float64)
    return _BACKENDS[_ACTIVE]["success_fraction"](sinr, float(gamma_lin))


def mean_rate(sinr) -> float:
    """Mean Shannon rate log2(1+SINR) over trials, bits/s/Hz."""
    sinr = np.ascontiguousarray(sinr, dtype=np.float64)
    return _BACKENDS[_ACTIVE]["mean_rate"](sinr)
