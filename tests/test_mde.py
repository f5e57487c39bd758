import math

import numpy as np
import pytest
from scipy.stats import norm

from twostage import mde
from twostage.distances import variational_mc
from twostage.lru import LruCache
from twostage.mde import (CandidateSet, TooFewCandidatesError, YatracosSet,
                          clear_probability_cache, mde_estimate,
                          set_probability, u_statistic_all,
                          vc_bound, vc_deviation_bound, vc_expectation_bound,
                          yatracos_member)
from twostage.models import GaussianAR, GaussianIID, HiddenMarkov
from twostage.rand import rng_for

GAUSS = GaussianIID()
PAIR = YatracosSet.of((0.0, 1.0), (1.0, 1.0))


class TestMembership:
    def test_dominance(self):
        # x near theta's mean, theta' mean far away
        yset = YatracosSet.of((0.0, 1.0), (8.0, 1.0))
        assert yatracos_member(GAUSS, yset, np.array([0.1]))

    def test_complementary_except_ties(self):
        rng = rng_for(1, 0)
        flipped = YatracosSet.of((1.0, 1.0), (0.0, 1.0))
        for _ in range(200):
            x = rng.normal(size=2)
            a = yatracos_member(GAUSS, PAIR, x)
            b = yatracos_member(GAUSS, flipped, x)
            assert a != b or not (a or b)

    def test_tie_is_false(self):
        # N(0,1) and N(1,1) densities cross exactly at x = 1/2
        assert not yatracos_member(GAUSS, PAIR, np.array([0.5]))
        assert not yatracos_member(GAUSS, YatracosSet.of((1.0, 1.0), (0.0, 1.0)),
                                   np.array([0.5]))


class TestSetProbability:
    def test_crossing_probability(self):
        p, se = set_probability(GAUSS, (0.0, 1.0), PAIR, 1, 50_000, seed=3)
        assert abs(p - norm.cdf(0.5)) <= 3 * se

    def test_complement_sums_to_one(self):
        flipped = YatracosSet.of((1.0, 1.0), (0.0, 1.0))
        p, se1 = set_probability(GAUSS, (0.0, 1.0), PAIR, 1, 50_000, seed=4)
        q, se2 = set_probability(GAUSS, (0.0, 1.0), flipped, 1, 50_000, seed=4)
        assert abs(p + q - 1.0) <= 3 * (se1 + se2) + 1e-12

    def test_in_unit_interval_and_cached(self):
        clear_probability_cache()
        a = set_probability(GAUSS, (0.0, 1.0), PAIR, 2, 1000, seed=5)
        b = set_probability(GAUSS, (0.0, 1.0), PAIR, 2, 1000, seed=5)
        assert a == b
        assert 0.0 <= a[0] <= 1.0


class TestUStatistic:
    def test_range(self):
        cands = CandidateSet.build(GAUSS, [(0.0, 1.0), (1.0, 1.0), (0.0, 2.0)])
        Z = GAUSS.sample_paths((0.0, 1.0), 4, 32, rng_for(6, 0))
        u = u_statistic_all(GAUSS, Z, cands, 2000, seed=6)[0]
        assert 0.0 <= u <= 1.0

    def test_consistency_under_true_parameter(self):
        cands = CandidateSet.build(GAUSS, [(0.0, 1.0), (2.0, 1.0)])
        Z = GAUSS.sample_paths((0.0, 1.0), 4, 2000, rng_for(7, 0))
        u = u_statistic_all(GAUSS, Z, cands, 20_000, seed=7)[0]
        # MC noise + empirical deviation only
        assert u < 0.05

    def test_too_few_candidates(self):
        with pytest.raises(TooFewCandidatesError):
            u_statistic_all(GAUSS, np.zeros((2, 3)),
                            CandidateSet.build(GAUSS, [(0.0, 1.0)]), 100, seed=0)


class TestMDE:
    def test_single_candidate(self):
        cands = CandidateSet.build(GAUSS, [(0.3, 1.2)])
        got = mde_estimate(GAUSS, np.zeros((4, 3)), cands, 100, seed=0)
        assert tuple(got) == (0.3, 1.2)

    def test_separation(self):
        cands = CandidateSet.build(GAUSS, [(0.0, 1.0), (9.0, 1.0)])
        Z = GAUSS.sample_paths((0.0, 1.0), 8, 64, rng_for(9, 0))
        got = mde_estimate(GAUSS, Z, cands, 4000, seed=9)
        assert tuple(got) == (0.0, 1.0)

    def test_key_inequality_audit(self):
        # d_n(theta0, theta_tilde) <= 4 U_theta0 + 3/n + statistical slack
        theta0 = (0.0, 1.0)
        grid = CandidateSet.build(
            GAUSS, [(m, 1.0) for m in np.linspace(-2, 2, 9)] + [theta0])
        n = 8
        i0 = grid.thetas.index(theta0)
        for s in range(20):
            Z = GAUSS.sample_paths(theta0, n, 128, rng_for(100 + s, 0))
            theta_t, u = mde_estimate(GAUSS, Z, grid, 4000, seed=300 + s,
                                      return_u=True)
            d = variational_mc(GAUSS, theta0, theta_t, n, 20_000, seed=400 + s)
            mc_slack = d.standard_error + 2.0 / math.sqrt(4000)
            assert d.value <= 4 * u[i0] + 3.0 / n + 3 * mc_slack

    def test_error_shrinks_with_blocks(self):
        theta0 = (0.0, 1.0)
        grid_vals = [(m, 1.0) for m in np.linspace(-2.25, 2.25, 10)]
        grid = CandidateSet.build(GAUSS, grid_vals)
        # theta0 sits between grid points; index error measured to nearest
        med_errs = []
        for blocks in (8, 32, 128):
            errs = []
            for s in range(30):
                Z = GAUSS.sample_paths(theta0, 8, blocks, rng_for(500 + s, blocks))
                got = mde_estimate(GAUSS, Z, grid, 2000, seed=600 + s)
                errs.append(abs(got[0]))
            med_errs.append(np.median(errs))
        assert med_errs[0] >= med_errs[1] >= med_errs[2]


class TestVcBounds:
    def test_gaussian_formula(self):
        rep = vc_bound(GAUSS, 4)
        assert rep.bound == pytest.approx(12 * math.log2(12 * math.e))
        assert rep.bound == pytest.approx(60.33, abs=0.01)

    def test_ar_formula(self):
        rep = vc_bound(GaussianAR(p=2), 4)
        assert rep.bound == pytest.approx(12 * math.log2(8 * math.e))
        assert rep.bound == pytest.approx(53.31, abs=0.01)

    def test_hmm_formula_grows_log_n(self):
        hmm = HiddenMarkov(M=2, a0=0.05, emission_means=[-1, 1],
                           emission_stds=[1, 1])
        rep = vc_bound(hmm, 8)
        assert rep.bound == pytest.approx(16 * math.log2(32 * math.e))
        assert rep.bound == pytest.approx(103.08, abs=0.01)
        assert vc_bound(hmm, 16).bound > rep.bound
        assert vc_bound(GAUSS, 16).bound == vc_bound(GAUSS, 4).bound

    def test_deviation_bound_clamps(self):
        # 8 * 10^2 * exp(-10*0.01/32) >> 1 -> clamped
        assert vc_deviation_bound(10, 2.0, 0.1) == 1.0

    def test_deviation_bound_decays(self):
        vals = [vc_deviation_bound(4096, 2.0, e) for e in (0.3, 0.5, 0.8, 1.2)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1.0

    def test_deviation_bound_domain(self):
        with pytest.raises(ValueError, match="V >= 2"):
            vc_deviation_bound(10, 1.5, 0.1)

    def test_expectation_bound_knob(self):
        assert vc_expectation_bound(100, 60.0, c=2.0) == \
            pytest.approx(2 * math.sqrt(60 * math.log(100) / 100))


class TestCacheKeys:
    """Families that share a tag but differ in emissions must not share
    cached model-side probabilities."""

    THETA = (0.8, 0.2, 0.3, 0.7)

    @staticmethod
    def _hmm(means):
        return HiddenMarkov(M=2, a0=0.05, emission_means=means,
                            emission_stds=[1.0, 1.0])

    def test_set_probability_keys_on_emissions(self):
        near, far = self._hmm([-0.2, 0.2]), self._hmm([-3.0, 3.0])
        yset = YatracosSet.of(self.THETA, (0.3, 0.7, 0.6, 0.4))
        clear_probability_cache()
        fresh = set_probability(far, self.THETA, yset, 3, 2000, seed=9)
        clear_probability_cache()
        set_probability(near, self.THETA, yset, 3, 2000, seed=9)
        assert set_probability(far, self.THETA, yset, 3, 2000, seed=9) == fresh

    def test_u_statistic_keys_on_emissions(self):
        near, far = self._hmm([-0.2, 0.2]), self._hmm([-3.0, 3.0])
        cands = CandidateSet.build(far, [self.THETA, (0.3, 0.7, 0.6, 0.4)])
        Z = far.sample_paths(self.THETA, 3, 40, rng_for(10, 0))
        clear_probability_cache()
        fresh = u_statistic_all(far, Z, cands, 1500, seed=11)
        clear_probability_cache()
        u_statistic_all(near, Z, cands, 1500, seed=11)
        assert np.array_equal(u_statistic_all(far, Z, cands, 1500, seed=11),
                              fresh)


class TestBoundedCaches:
    def test_pair_frequency_cache_stays_within_bound(self, monkeypatch):
        cands = CandidateSet.build(GAUSS, [(m, 1.0) for m in (-1.0, 0.0, 1.0, 2.0)])
        Z = GAUSS.sample_paths((0.0, 1.0), 4, 32, rng_for(12, 0))
        fresh = u_statistic_all(GAUSS, Z, cands, 500, seed=13)
        monkeypatch.setattr(mde, "_model_freq_cache", LruCache(2))
        for _ in range(2):
            assert np.array_equal(u_statistic_all(GAUSS, Z, cands, 500, seed=13),
                                  fresh)
            assert len(mde._model_freq_cache) == 2

    def test_probability_cache_stays_within_bound(self, monkeypatch):
        monkeypatch.setattr(mde, "_prob_cache", LruCache(1))
        first = set_probability(GAUSS, (0.0, 1.0), PAIR, 2, 500, seed=1)
        set_probability(GAUSS, (0.0, 1.0), PAIR, 2, 500, seed=2)
        assert len(mde._prob_cache) == 1
        assert set_probability(GAUSS, (0.0, 1.0), PAIR, 2, 500, seed=1) == first
