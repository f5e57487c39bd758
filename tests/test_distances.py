import math

import numpy as np
import pytest
from scipy.stats import norm

from twostage.distances import DistanceEstimate, variational_mc
from twostage.models import GaussianAR, GaussianIID
from twostage.rand import rng_for

GAUSS = GaussianIID()

# densities of N(0,1) and N(1,1) cross at x = 1/2
D_SHIFTED_NORMALS = 2 * (norm.cdf(0.5) - norm.cdf(-0.5))


def kl_from_densities(theta, theta_prime, n: int, num_samples: int, seed: int):
    """(1/n) E_theta[log p_theta - log p_theta'] over n-blocks, from the
    family's block log-densities, with its standard error."""
    x = GAUSS.sample_paths(theta, n, num_samples, rng_for(seed, 0))
    stat = (GAUSS.log_density_batch(theta, x)
            - GAUSS.log_density_batch(theta_prime, x)) / n
    return float(np.mean(stat)), float(np.std(stat, ddof=1) / math.sqrt(num_samples))


class TestMonteCarlo:
    def test_identical_zero_variance(self):
        est = variational_mc(GAUSS, (0.0, 1.0), (0.0, 1.0), 4, 100, seed=1)
        assert est.value == 0.0 and est.standard_error == 0.0

    def test_cross_validates_exact(self):
        est = variational_mc(GAUSS, (0.0, 1.0), (1.0, 1.0), 1, 100_000, seed=2)
        assert abs(est.value - D_SHIFTED_NORMALS) <= 3 * est.standard_error

    def test_bounded(self):
        est = variational_mc(GAUSS, (0.0, 1.0), (40.0, 1.0), 2, 5000, seed=3)
        assert est.value <= 2.0 + 3 * est.standard_error

    def test_symmetry_within_error(self):
        a = variational_mc(GAUSS, (0.0, 1.0), (0.7, 1.3), 3, 60_000, seed=4)
        b = variational_mc(GAUSS, (0.7, 1.3), (0.0, 1.0), 3, 60_000, seed=5)
        assert abs(a.value - b.value) <= 3 * (a.standard_error + b.standard_error)

    def test_triangle_within_error(self):
        rng = np.random.default_rng(6)
        for trial in range(5):
            ms = rng.normal(scale=0.5, size=3)
            ss = np.exp(rng.normal(scale=0.2, size=3))
            t = [(ms[i], ss[i]) for i in range(3)]
            ab = variational_mc(GAUSS, t[0], t[1], 2, 40_000, seed=10 + trial)
            bc = variational_mc(GAUSS, t[1], t[2], 2, 40_000, seed=20 + trial)
            ac = variational_mc(GAUSS, t[0], t[2], 2, 40_000, seed=30 + trial)
            slack = 3 * (ab.standard_error + bc.standard_error + ac.standard_error)
            assert ac.value <= ab.value + bc.value + slack

    def test_ar_supported(self):
        ar = GaussianAR(p=1)
        est = variational_mc(ar, [-0.5], [-0.3], 6, 20_000, seed=7)
        assert 0.0 < est.value < 2.0


class TestKL:
    """The closed form that the Pinsker checks use, against the block
    log-densities that the Monte-Carlo distance reads."""

    def test_identical(self):
        assert kl_from_densities((0.0, 1.0), (0.0, 1.0), 4, 100, seed=1) == (0.0, 0.0)

    def test_unit_shift(self):
        kl, se = kl_from_densities((0.0, 1.0), (1.0, 1.0), 1, 100_000, seed=2)
        assert abs(kl - 0.5) <= 3 * se

    def test_independent_of_n(self):
        # the normalized block divergence is the one-letter divergence
        # log(s'/s) + (s^2 + (m - m')^2) / 2 s'^2 - 1/2
        want = math.log(0.9 / 1.1) + (1.1 ** 2 + 0.2 ** 2) / (2 * 0.9 ** 2) - 0.5
        for n, seed in ((1, 3), (17, 4)):
            kl, se = kl_from_densities((0.2, 1.1), (0.0, 0.9), n, 40_000, seed)
            assert abs(kl - want) <= 3 * se


class TestSmoothness:
    def test_kl_example(self):
        # theta=(0,1), theta'=(0.1,1): KL = 0.1^2 / 2 = 0.005
        kl, se = kl_from_densities((0.0, 1.0), (0.1, 1.0), 4, 100_000, seed=5)
        assert abs(kl - 0.005) <= 3 * se

    def test_pinsker_chain(self):
        # the estimate is the closed form, which Pinsker's bound caps
        kl = 1.0 ** 2 / 2
        est = variational_mc(GAUSS, (0.0, 1.0), (1.0, 1.0), 1, 100_000, seed=2)
        assert abs(est.value - D_SHIFTED_NORMALS) <= 3 * est.standard_error
        assert est.value <= math.sqrt(2 * kl) + 3 * est.standard_error

    def test_grid_passes(self):
        # d_n / sqrt(n) <= c * |theta - theta'| + 3 SE with the closed-form
        # constant c = 3 / (sigma - delta) of the delta-ball, delta the
        # largest gap; the second grid's largest gap is smaller, which gives
        # a smaller constant and so a tighter bound, and it reaches n = 16
        t = np.array([0.0, 1.0])
        for gaps, ns, seed, samples in (([0.05, 0.15], [1, 2, 8], 99, 12_000),
                                        ([0.05, 0.1], [1, 4, 16], 20240, 8000)):
            c = 3.0 / (t[1] - max(gaps))
            for j, gap in enumerate(gaps):
                for axis in range(2):
                    tp = t + gap * np.eye(2)[axis]
                    rhs = c * np.linalg.norm(tp - t)
                    for i, n in enumerate(ns):
                        est = variational_mc(GAUSS, t, tp, n, samples,
                                             seed + 1000 * j + 10 * axis + i)
                        assert (est.value / math.sqrt(n)
                                <= rhs + 3 * est.standard_error / math.sqrt(n))

    def test_zero_gap_trivial(self):
        est = variational_mc(GAUSS, (0.0, 1.0), (0.0, 1.0), 5, 100, seed=0)
        assert est.value == 0.0


def test_estimate_range_validation():
    with pytest.raises(ValueError):
        DistanceEstimate(value=2.5, standard_error=0.0)
    with pytest.raises(ValueError):
        DistanceEstimate(value=1.0, standard_error=-0.1)
