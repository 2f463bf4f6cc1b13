import numpy as np

from frangine import _kernels


def _random_case(rng, n_trials=500, n_sig=3, n_int=7):
    return (
        rng.exponential(size=(n_trials, n_sig)),
        rng.uniform(0.1, 1.0, size=n_sig),
        rng.exponential(size=(n_trials, n_int)),
        rng.uniform(0.01, 0.1, size=n_int),
        1e-3,
    )


def test_sinr_trials_matches_direct_recomputation():
    rng = np.random.default_rng(1)
    sig_fades, sig_gains, int_fades, int_gains, noise = _random_case(rng)
    got = _kernels.sinr_trials(sig_fades, sig_gains, int_fades, int_gains, noise)
    expected = (sig_fades @ sig_gains) / (int_fades @ int_gains + noise)
    assert np.allclose(got, expected, rtol=1e-12)


def test_sinr_trials_no_interferers():
    rng = np.random.default_rng(2)
    sig_fades = rng.exponential(size=(100, 2))
    sig_gains = np.array([0.5, 0.25])
    got = _kernels.sinr_trials(sig_fades, sig_gains, np.empty((100, 0)), np.empty(0), 2.0)
    assert np.allclose(got, (sig_fades @ sig_gains) / 2.0)
