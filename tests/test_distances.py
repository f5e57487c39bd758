import math

import numpy as np
import pytest
from scipy.stats import norm

from twostage.distances import (DistanceEstimate, UnsupportedFamilyError,
                                gaussian_smoothness_constant, kl_gaussian_iid, smoothness_check,
                                variational_exact_1d, variational_mc)
from twostage.models import GaussianAR, GaussianIID

GAUSS = GaussianIID()

# densities of N(0,1) and N(1,1) cross at x = 1/2
D_SHIFTED_NORMALS = 2 * (norm.cdf(0.5) - norm.cdf(-0.5))


class TestExact1d:
    def test_identical(self):
        est = variational_exact_1d(GAUSS, (0.0, 1.0), (0.0, 1.0))
        assert est.value == pytest.approx(0.0, abs=1e-9)
        assert est.standard_error == 0.0

    def test_unit_shift(self):
        est = variational_exact_1d(GAUSS, (0.0, 1.0), (1.0, 1.0))
        assert est.value == pytest.approx(D_SHIFTED_NORMALS, abs=1e-8)

    def test_far_apart_saturates(self):
        est = variational_exact_1d(GAUSS, (0.0, 1.0), (10.0, 1.0))
        # exact value 2 - 4*Phi(-5), within 2e-6 of full separation
        assert est.value == pytest.approx(2 - 4 * norm.cdf(-5.0), abs=1e-8)
        assert est.value == pytest.approx(2.0, abs=2e-6)

    def test_unsupported_family(self):
        with pytest.raises(UnsupportedFamilyError):
            variational_exact_1d(GaussianAR(p=1), [-0.5], [-0.4])


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
    def test_identical(self):
        assert kl_gaussian_iid((0.0, 1.0), (0.0, 1.0)) == pytest.approx(0.0)

    def test_unit_shift(self):
        assert kl_gaussian_iid((0.0, 1.0), (1.0, 1.0)) == pytest.approx(0.5)

    def test_independent_of_n(self):
        assert kl_gaussian_iid((0.2, 1.1), (0.0, 0.9), n=1) == \
            kl_gaussian_iid((0.2, 1.1), (0.0, 0.9), n=17)

    def test_sigma_domain(self):
        with pytest.raises(ValueError):
            kl_gaussian_iid((0.0, 0.0), (0.0, 1.0))


class TestSmoothness:
    def test_constant_closed_form(self):
        assert gaussian_smoothness_constant((0.0, 1.0), 0.1) == pytest.approx(3.0 / 0.9)

    def test_kl_example(self):
        # theta=(0,1), theta'=(0.1,1): KL = 0.1^2 / 2 = 0.005
        kl = kl_gaussian_iid((0.0, 1.0), (0.1, 1.0))
        assert kl == pytest.approx(0.005, abs=1e-12)

    def test_pinsker_chain(self):
        d1 = variational_exact_1d(GAUSS, (0.0, 1.0), (1.0, 1.0)).value
        assert d1 <= math.sqrt(2 * kl_gaussian_iid((0.0, 1.0), (1.0, 1.0)))

    def test_grid_passes(self):
        # the second grid's largest gap is smaller, which gives a smaller
        # constant and so a tighter bound, and it reaches n = 16
        for gaps, ns, seed, samples in (([0.05, 0.15], [1, 2, 8], 99, 12_000),
                                        ([0.05, 0.1], [1, 4, 16], 20240, 8000)):
            rows = smoothness_check(GAUSS, (0.0, 1.0), gaps, ns, seed=seed,
                                    num_samples=samples)
            assert rows and all(r.passed for r in rows)

    def test_gaussian_iid_only(self):
        with pytest.raises(UnsupportedFamilyError):
            smoothness_check(GaussianAR(p=1), (0.5,), [0.05], [1], seed=0)

    def test_zero_gap_trivial(self):
        est = variational_mc(GAUSS, (0.0, 1.0), (0.0, 1.0), 5, 100, seed=0)
        assert est.value == 0.0


def test_estimate_range_validation():
    with pytest.raises(ValueError):
        DistanceEstimate(value=2.5, standard_error=0.0)
    with pytest.raises(ValueError):
        DistanceEstimate(value=1.0, standard_error=-0.1)
