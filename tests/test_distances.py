import math

import numpy as np
import pytest
from scipy.stats import norm

from twostage import distances
from twostage.distances import DistanceEstimate, exceeds, variational_mc
from twostage.models import (GaussianAR, GaussianIID, HiddenMarkov,
                             InvalidParameterError)
from twostage.rand import TAG_DISTANCE, rng_for

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


    @pytest.mark.parametrize("theta,theta_prime", [
        ((0.0, -1.0), (0.0, -1.0)), ((0.0, -1.0), (0.0, 1.0)),
        ((0.0, 1.0), (0.0, -1.0)), ((0.0, 1.0), (np.nan, 1.0))])
    def test_invalid_theta_raises(self, theta, theta_prime):
        with pytest.raises(InvalidParameterError):
            variational_mc(GAUSS, theta, theta_prime, 3, 50, seed=8)
        with pytest.raises(InvalidParameterError):
            exceeds(GAUSS, theta, theta_prime, 3, 50, seed=8, tol=0.5)


def reference_estimate(family, theta, theta_prime, n, num_samples, seed):
    """(value, standard error) as np.mean and np.std(ddof=1) / sqrt(N) of the
    one-sided statistic, formed out of place."""
    x = family.sample_paths(theta, n, num_samples, rng_for(seed, TAG_DISTANCE))
    log_ratio = family.log_density_batch(theta_prime, x) - family.log_density_batch(theta, x)
    stat = 2.0 * np.maximum(0.0, -np.expm1(np.minimum(log_ratio, 0.0)))
    se = float(np.std(stat, ddof=1) / np.sqrt(num_samples)) if num_samples > 1 else 0.0
    return min(float(np.mean(stat)), 2.0), se


def test_estimate_equals_reference_bit_for_bit():
    # n from 1 to 40, sample counts from one (no standard error) to odd
    # ones, and pairs from a 1e-3 nudge (a ratio near 1) to far apart (a
    # statistic near 2 on most samples); a few AR(2) pairs besides
    rng = rng_for(2028, 0)
    ar = GaussianAR(p=2)
    cases = 0
    for N in (1, 2, 400, 1000, 1199):
        for n in (1, 2, 3, 7, 16, 29, 40):
            m, s = rng.normal(0.0, 2.0), math.exp(rng.normal(0.0, 0.5))
            for shift in (1e-3, 0.1, 5.0):
                theta = (m, s)
                theta_prime = (m + shift * rng.normal(), s * math.exp(shift * rng.normal()))
                seed = int(rng.integers(2**31))
                got = variational_mc(GAUSS, theta, theta_prime, n, N, seed)
                want = reference_estimate(GAUSS, theta, theta_prime, n, N, seed)
                assert (got.value.hex(), got.standard_error.hex()) == \
                    (want[0].hex(), want[1].hex()), (N, n, shift)
                cases += 1
        a, b = rng.uniform(-0.4, 0.4, (2, 2))
        seed = int(rng.integers(2**31))
        got = variational_mc(ar, a, b, 5, N, seed)
        want = reference_estimate(ar, a, b, 5, N, seed)
        assert (got.value.hex(), got.standard_error.hex()) == (want[0].hex(), want[1].hex())
    assert cases == 105


HMM2 = HiddenMarkov(M=2, a0=0.05, emission_means=[-1.0, 2.0],
                   emission_stds=[0.7, 1.1])


def decision_corpus():
    """(family, theta, theta', n, N, seed) on Gaussian i.i.d., AR(2) and
    HMM(2) pairs, n from 1 to 33, N from 1 (no stop test) to 1000 (six
    blocks of the i.i.d. draw), pairs from equal to far apart."""
    rng = rng_for(2029, 0)
    ar = GaussianAR(p=2)
    for N in (1, 2, 50, 51, 100, 101, 400, 1000):
        for n in (1, 2, 5, 16, 33):
            m, s = rng.normal(0.0, 2.0), math.exp(rng.normal(0.0, 0.5))
            for shift in (0.0, 1e-3, 0.05, 0.3, 5.0):
                theta_prime = (m + shift * rng.normal(), s * math.exp(shift * rng.normal()))
                yield GAUSS, (m, s), theta_prime, n, N, int(rng.integers(2**31))
        for n in (1, 3, 8):
            a, b = rng.uniform(-0.4, 0.4, (2, 2))
            yield ar, a, b, n, N, int(rng.integers(2**31))
        if N <= 400:
            p, q = rng.uniform(0.1, 0.9, 2)
            yield (HMM2, (p, 1 - p, 1 - q, q), (0.5, 0.5, 0.5, 0.5), 4, N,
                   int(rng.integers(2**31)))


def corpus_tolerances(value: float) -> list:
    """0, the estimate and its neighbours 1 ulp away, the range's edge 2,
    3 above it, a NaN and values either side of the estimate."""
    return [0.0, value, math.nextafter(value, math.inf),
            math.nextafter(value, -math.inf), 0.5 * value, 1.5 * value,
            2.0, 3.0, math.nan]


def test_exceeds_decides_as_the_estimate():
    # tol at the estimate, where a prefix often runs above the mean, fails
    # a stop test that compares the prefix mean with tol
    decisions = stopped = 0
    for family, theta, theta_prime, n, N, seed in decision_corpus():
        value = variational_mc(family, theta, theta_prime, n, N, seed).value
        for tol in corpus_tolerances(value):
            if tol < 0:
                continue
            want = not value <= tol
            assert exceeds(family, theta, theta_prime, n, N, seed, tol) is want, \
                (family.tag, theta, theta_prime, n, N, seed, tol)
            decisions += 1
    assert decisions == 2028


def test_chunked_statistic_equals_one_shot():
    # each block's statistic, a short array through NumPy's dispatched
    # expm1, equals its rows of the one-shot statistic bit for bit
    rng = rng_for(2030, 0)
    for N in (1, 51, 101, 400, 1000):
        for n in (1, 4, 17):
            theta = (rng.normal(), math.exp(rng.normal(0.0, 0.5)))
            theta_prime = (theta[0] + 0.2 * rng.normal(), theta[1])
            seed = int(rng.integers(2**31))
            x = GAUSS.sample_paths(theta, n, N, rng_for(seed, TAG_DISTANCE))
            whole = distances._statistic(GAUSS, theta, theta_prime, x)
            chunks = GAUSS.sample_chunks(theta, n, N, rng_for(seed, TAG_DISTANCE))
            got = np.concatenate([distances._statistic(GAUSS, theta, theta_prime, c)
                                  for c in chunks])
            assert got.tobytes() == whole.tobytes(), (N, n)


class CountingIID(GaussianIID):
    """Gaussian i.i.d. that counts the rows it draws."""

    rows = 0

    def sample_paths(self, theta, n, count, rng):
        self.rows += count
        return super().sample_paths(theta, n, count, rng)


def test_exceeds_draws_only_the_deciding_rows():
    # the prefix must prove the mean of all N rows above tol, so a far pair
    # (a statistic of 2 on every row) stops at the first block boundary past
    # N tol / 2 rows; tol >= 2, or a pair within tol, needs every row
    for theta_prime, tol, rows in (((40.0, 1.0), 0.1, 50), ((40.0, 1.0), 0.5, 200),
                                   ((40.0, 1.0), 2.0, 400),
                                   ((0.0, 1.0 + 1e-9), 0.5, 400)):
        family = CountingIID()
        decided = exceeds(family, (0.0, 1.0), theta_prime, 4, 400, 3, tol)
        assert decided is (rows < 400) and family.rows == rows


class NaNAfter(GaussianIID):
    """Gaussian i.i.d. whose log-density of theta' is NaN on every row from
    row ``start`` of the blocks it is given."""

    def __init__(self, theta_prime, start):
        self.theta_prime, self.start = tuple(theta_prime), start

    def log_density_batch(self, theta, blocks):
        out = super().log_density_batch(theta, blocks)
        if tuple(theta) == self.theta_prime:
            out[self.start:] = np.nan
        return out


class TestExceedsErrors:
    def test_nan_statistic_raises_as_the_estimate(self):
        family = NaNAfter((0.5, 1.0), start=10)
        with pytest.raises(ValueError, match="must lie in"):
            variational_mc(family, (0.0, 1.0), (0.5, 1.0), 3, 400, seed=1)
        with pytest.raises(ValueError, match="must lie in"):
            exceeds(family, (0.0, 1.0), (0.5, 1.0), 3, 400, seed=1, tol=0.1)

    def test_nan_after_deciding_prefix_counts_as_exceeded(self):
        # the documented edge: rows past the deciding prefix are never drawn,
        # so their NaN raises nothing, where the full estimate raises
        theta, theta_prime = (0.0, 1.0), (40.0, 1.0)
        seed = 2
        with pytest.raises(ValueError):
            variational_mc(NaNAfter(theta_prime, start=300), theta, theta_prime,
                           3, 400, seed)
        assert exceeds(NaNAfter(theta_prime, start=300), theta, theta_prime,
                       3, 400, seed, tol=1.0)

    @pytest.mark.parametrize("n,num_samples", [(0, 10), (3, 0), (-1, 5)])
    def test_bad_sizes_raise_as_the_estimate(self, n, num_samples):
        for theta_prime in ((0.0, 1.0), (1.0, 1.0)):
            with pytest.raises(ValueError) as want:
                variational_mc(GAUSS, (0.0, 1.0), theta_prime, n, num_samples, 1)
            with pytest.raises(ValueError) as got:
                exceeds(GAUSS, (0.0, 1.0), theta_prime, n, num_samples, 1, 0.5)
            assert str(got.value) == str(want.value)

    def test_equal_thetas_validate_and_never_exceed(self):
        assert not exceeds(GAUSS, (0.0, 1.0), (0.0, 1.0), 3, 100, 1, 0.0)
        assert exceeds(GAUSS, (0.0, 1.0), (0.0, 1.0), 3, 100, 1, math.nan)
        with pytest.raises(InvalidParameterError):
            exceeds(GAUSS, (0.0, -1.0), (0.0, -1.0), 3, 100, 1, 0.5)


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
