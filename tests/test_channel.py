import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from frangine._kernels import sinr_trials, success_fraction
from frangine.channel import fading_sample
from frangine.config import db_to_linear, dbm_to_watts, path_gain
from frangine.metrics_sim import ScenarioConfig
from frangine.rng import derive_rng
from mc_oracle import rician_sample


def test_path_gain_reference_distance():
    config = ScenarioConfig(path_loss_exponent=4.0, reference_gain_db=0.0)
    assert path_gain(1.0, config) == pytest.approx(1.0)


def test_path_gain_power_law():
    config = ScenarioConfig(path_loss_exponent=4.0, reference_gain_db=0.0)
    assert path_gain(10.0, config) == pytest.approx(1e-4)


def test_path_gain_clamps_below_one_meter():
    config = ScenarioConfig()
    assert path_gain(0.0, config) == path_gain(1.0, config)
    assert path_gain(0.5, config) == path_gain(1.0, config)


def test_rayleigh_unit_mean():
    samples = fading_sample(derive_rng(1, "ray"), size=1_000_000)
    assert abs(samples.mean() - 1.0) < 0.01


def test_rician_unit_mean_various_k():
    for k_db in (-10.0, 0.0, 2.0, 6.0, 10.0):
        k = db_to_linear(k_db)
        samples = rician_sample(k, derive_rng(2, "ric", int(k_db * 10)), size=1_000_000)
        assert abs(samples.mean() - 1.0) < 0.01, k_db


def test_rician_huge_k_is_deterministic_los():
    samples = rician_sample(db_to_linear(60.0), derive_rng(3), size=100_000)  # K = 1e6
    assert samples.var() < 1e-4


def test_rician_degenerate_k_matches_rayleigh():
    rician = rician_sample(db_to_linear(-100.0), derive_rng(4, "a"), size=100_000)
    rayleigh = fading_sample(derive_rng(4, "b"), size=100_000)
    assert stats.ks_2samp(rician, rayleigh).pvalue > 0.01


@pytest.mark.parametrize("size", [None, 7, (300, 40)], ids=["scalar", "vector", "matrix"])
def test_fading_sample_bit_equal_to_expression_in_two_arrays(size):
    rng = derive_rng(5, "fade-form")
    g1, g2 = rng.standard_normal(size), rng.standard_normal(size)
    scatter = np.sqrt(0.5)
    expected = np.asarray((scatter * g1) ** 2 + (scatter * g2) ** 2)
    tracemalloc.start()
    try:
        got = np.asarray(fading_sample(derive_rng(5, "fade-form"), size=size))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got.tobytes() == expected.tobytes()
    assert peak < 2.5 * expected.nbytes + 4096  # g1 and g2, no temporaries
    # The oracle's Rician sampler at K = 0 draws the same fades, bit for bit.
    rician = np.asarray(rician_sample(0.0, derive_rng(5, "fade-form"), size=size))
    assert rician.tobytes() == expected.tobytes()


def _one_trial_sinr(signal, interferers, noise):
    interferers = np.asarray(interferers, dtype=float)
    return sinr_trials(
        np.ones((1, 1)), np.array([signal]), np.ones((1, interferers.size)), interferers, noise
    )[0]


def test_sinr_snr_case():
    assert _one_trial_sinr(1.0, [], 1.0) == pytest.approx(1.0)


def test_sinr_arithmetic():
    assert _one_trial_sinr(1.0, [1.0, 1.0], 0.5) == pytest.approx(0.4)


def test_sinr_double_evaluation_oracle():
    # Per-trial Python sums over 1-3 signal links and 0-7 interferers.
    rng = np.random.default_rng(9)
    for _ in range(100):
        n_trials, n_sig, n_int = 4, int(rng.integers(1, 4)), int(rng.integers(0, 8))
        sig_fades = rng.exponential(size=(n_trials, n_sig))
        sig_gains = rng.uniform(0, 10, size=n_sig)
        int_fades = rng.exponential(size=(n_trials, n_int))
        int_gains = rng.uniform(0, 5, size=n_int)
        noise = float(rng.uniform(0.1, 2))
        got = sinr_trials(sig_fades, sig_gains, int_fades, int_gains, noise)
        for t in range(n_trials):
            signal = sum(float(f) * float(g) for f, g in zip(sig_fades[t], sig_gains))
            interference = sum(float(f) * float(g) for f, g in zip(int_fades[t], int_gains))
            assert math.isclose(got[t], signal / (interference + noise), rel_tol=1e-12)


def test_sinr_monotone_nonincreasing_in_interference():
    base = _one_trial_sinr(2.0, [1.0], 0.5)
    for extra in (0.1, 1.0, 10.0):
        assert _one_trial_sinr(2.0, [1.0 + extra], 0.5) < base


def test_success_fraction_values():
    sinr = np.array([0.5, 1.0, 3.0, 7.0])
    assert success_fraction(sinr, 1.0) == pytest.approx(0.75)


def test_rician_rate_stochastically_dominates_with_k():
    # Mean Shannon rate of a fixed-SNR link is nondecreasing in K: the
    # matched underlying Gaussian draws keep the comparison tightly paired.
    mean_snr = 10.0
    means = []
    for k_db in (-10.0, 0.0, 2.0, 6.0, 10.0):
        fades = rician_sample(db_to_linear(k_db), derive_rng(77, "dom"), size=200_000)
        means.append(np.log2(1.0 + mean_snr * fades).mean())
    assert all(a <= b + 1e-12 for a, b in zip(means, means[1:]))


def test_db_conversions():
    assert db_to_linear(0.0) == pytest.approx(1.0)
    assert db_to_linear(10.0) == pytest.approx(10.0)
    assert dbm_to_watts(30.0) == pytest.approx(1.0)
