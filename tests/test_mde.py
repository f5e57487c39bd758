import functools
import math

import numpy as np
import pytest
from scipy.stats import norm

from twostage import mde
from twostage.distances import variational_mc
from twostage.mde import (MODEL_FREQ_CACHE_BOUND, CandidateSet,
                          TooFewCandidatesError, _pair_tables,
                          clear_probability_cache, mde_estimate,
                          u_statistic_all, vc_bound)
from twostage.models import GaussianAR, GaussianIID, HiddenMarkov
from twostage.rand import TAG_PROB, rng_for

GAUSS = GaussianIID()
PAIR = CandidateSet.build(GAUSS, [(0.0, 1.0), (1.0, 1.0)])


def membership(family, cands, X):
    """F[a, b]: fraction of the blocks in candidate a's Yatracos set
    against b."""
    X = np.asarray(X)
    return _pair_tables(family, cands, [X], len(X))[0]


def table_stacks() -> int:
    return mde._model_tables.cache_info().currsize


def shrink_table_cache(monkeypatch, bound: int) -> None:
    """Rebind ``mde._model_tables`` to the same tables under a smaller bound."""
    monkeypatch.setattr(mde, "_model_tables",
                        functools.lru_cache(bound)(mde._model_tables.__wrapped__))


def exact_logdens(family, cands, X):
    return np.stack([family.log_density_batch(np.asarray(t), X)
                     for t in cands.thetas])


def exact_table(L):
    """F[a, b] from a (C, B) stack of exact log-densities."""
    return np.count_nonzero(L[:, None, :] > L[None, :, :], axis=2) / L.shape[1]


def exact_membership(family, cands, X):
    return exact_table(exact_logdens(family, cands, X))


class TestMembership:
    def test_dominance(self):
        # x near theta's mean, theta' mean far away
        cands = CandidateSet.build(GAUSS, [(0.0, 1.0), (8.0, 1.0)])
        assert membership(GAUSS, cands, [[0.1]])[0, 1] == 1.0

    def test_complementary_except_ties(self):
        # a block is in at most one of A_01 and A_10, and in neither on a tie
        X = rng_for(1, 0).normal(size=(200, 2))
        X[:50] = [0.25, 0.75]             # sum 1: a tie of N(0,1) and N(1,1)
        L = exact_logdens(GAUSS, PAIR, X)
        ties = np.count_nonzero(L[0] == L[1])
        assert ties >= 50
        F = membership(GAUSS, PAIR, X)
        assert F[0, 1] + F[1, 0] == (200 - ties) / 200

    def test_tie_is_false(self, monkeypatch):
        # N(0,1) and N(1,1) densities cross exactly at x = 1/2; the sums give
        # a tie too, so the block goes back to the exact kernel
        calls = []
        exact = GaussianIID.log_density_batch

        def counting(self, theta, x):
            calls.append(len(x))
            return exact(self, theta, x)

        monkeypatch.setattr(GaussianIID, "log_density_batch", counting)
        F = membership(GAUSS, PAIR, [[0.5]])
        assert F[0, 1] == 0.0 and F[1, 0] == 0.0
        assert calls == [1, 1]

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                                "ignore:invalid value encountered:RuntimeWarning")
    def test_ties_and_minus_inf_equal_exact_tables(self):
        # each pair is compared once on the blocks the bound settles; here
        # N(0,1) and N(1,1) tie on blocks summing to 1, and on blocks of
        # +-1e200 every candidate but the wide one scores -inf (the squares
        # overflow), so no two of them beat each other there
        cands = CandidateSet.build(GAUSS, [(0.0, 1.0), (1.0, 1.0), (3.0, 2.0),
                                           (0.0, 1e100)])
        X = rng_for(4, 0).normal(size=(400, 2))
        X[:80] = [0.25, 0.75]
        X[80:140] = 1e200
        X[140:170] = [-1e200, 1e200]
        L = exact_logdens(GAUSS, cands, X)
        assert np.count_nonzero(L[0] == L[1]) >= 170
        assert np.all(np.isneginf(L[:3, 80:170])) and np.all(np.isfinite(L[3]))
        for Xb in (X, X[:170], X[50:300:3], X[160:170]):
            F = membership(GAUSS, cands, Xb)
            assert F.tobytes() == exact_membership(GAUSS, cands, Xb).tobytes()
        # the last set holds -inf blocks only
        assert F[0, 1] == F[1, 0] == F[0, 2] == 0.0 and F[3, 0] == 1.0

    @pytest.mark.parametrize("B", [200, 1500, 80_000])
    def test_counts_equal_count_nonzero(self, B):
        # the tables count in uint8, uint16 and uint32; the blocks lie mostly
        # below the crossing at 1/2, so that from B = 1500 on one count
        # overflows the next narrower type
        X = rng_for(3, B).normal(-1.0, 1.0, size=(B, 1))
        F = membership(GAUSS, PAIR, X)
        assert F.tobytes() == exact_membership(GAUSS, PAIR, X).tobytes()
        assert B < 256 or F[0, 1] * B > np.iinfo(np.uint8 if B < 65536 else np.uint16).max

    def test_order_exact_on_corpus(self):
        # the tables from the block sums equal the exact stack bit for bit:
        # scales far apart, mirrored (+-m, s) pairs on blocks summing to
        # about 0, and data and means on a 0.1 grid to force exact ties
        rng = rng_for(2026, 0)
        for n in (1, 2, 3, 4, 7, 8, 9, 16, 31, 32, 64):
            for m_scale in (0.01, 1.0, 50.0):
                for s_scale in (0.05, 1.0, 2.0):
                    C = int(rng.integers(2, 24))
                    m = rng.normal(0.0, m_scale, C)
                    s = np.exp(rng.normal(0.0, s_scale, C))
                    half = C // 2
                    m[half:2 * half] = -m[:half]
                    s[half:2 * half] = s[:half]
                    if rng.random() < 0.5:
                        m, s = np.round(m, 1), np.exp2(np.round(np.log2(s)))
                    thetas = np.column_stack([m, s])
                    cands = CandidateSet(tuple(map(tuple, thetas)))
                    src = thetas[rng.integers(C, size=300)]
                    X = src[:, :1] + src[:, 1:] * rng.standard_normal((300, n))
                    X[100:200, n // 2:2 * (n // 2)] = -X[100:200, :n // 2]
                    X[100:200, 2 * (n // 2):] = 0.0
                    X[200:] = np.round(X[200:], 1)
                    assert np.array_equal(membership(GAUSS, cands, X),
                                          exact_membership(GAUSS, cands, X)), \
                        (n, m_scale, s_scale)


class TestSetProbability:
    """Model-side probabilities P^n_theta(A_ab) of the Yatracos sets; the
    table of PAIR's first candidate, (0, 1), is row 0 of the stack and is
    drawn with the stack's seed."""

    def test_crossing_probability(self):
        p = mde._model_tables(GAUSS, PAIR, 1, 50_000, 3)[0][0, 1]
        se = math.sqrt(p * (1 - p) / 50_000)
        assert abs(p - norm.cdf(0.5)) <= 3 * se

    def test_complement_sums_to_one(self):
        F = mde._model_tables(GAUSS, PAIR, 1, 50_000, 4)[0]
        se1, se2 = (math.sqrt(p * (1 - p) / 50_000) for p in (F[0, 1], F[1, 0]))
        assert abs(F[0, 1] + F[1, 0] - 1.0) <= 3 * (se1 + se2) + 1e-12

    def test_in_unit_interval_and_cached(self):
        clear_probability_cache()
        a = mde._model_tables(GAUSS, PAIR, 2, 1000, 5)
        b = mde._model_tables(GAUSS, PAIR, 2, 1000, 5)
        assert b is a and table_stacks() == 1
        assert a.shape == (2, 2, 2) and np.all((0.0 <= a) & (a <= 1.0))


class RoundedGaussian(GaussianIID):
    """Gaussian i.i.d. blocks rounded to integers, so that candidates with
    integer means tie exactly on many blocks."""

    @property
    def key(self) -> tuple:
        return (*super().key, "rounded")

    def sample_paths(self, theta, n, count, rng):
        return np.round(super().sample_paths(theta, n, count, rng))


class TestModelTables:
    """The stack of one block length equals, bit for bit, per-candidate
    tables of the exact log-densities of each candidate's own blocks."""

    @staticmethod
    def reference(family, cands, n, B, seed):
        """(tables, blocks with an exact tie between two candidates)."""
        tables, ties = [], 0
        for i, t in enumerate(cands.thetas):
            X = family.sample_paths(t, n, B, rng_for(seed + i, TAG_PROB))
            L = exact_logdens(family, cands, X)
            tables.append(exact_table(L))
            srt = np.sort(L, axis=0)
            ties += np.count_nonzero(np.any(srt[1:] == srt[:-1], axis=0))
        return np.stack(tables), ties

    @staticmethod
    def corpus():
        """(family, candidates, n, B): Gaussian sets holding near-equal
        candidates, which the bound cannot order, and rounded Gaussian sets
        with mirrored integer means, which tie exactly; AR(2) and 2-state
        HMM sets."""
        rng = rng_for(2027, 0)
        ar = GaussianAR(p=2)
        hmm = HiddenMarkov(M=2, a0=0.05, emission_means=[-1.0, 1.0],
                           emission_stds=[1.0, 1.0])
        for n in (1, 2, 3, 8):
            for C in (2, 3, 6):
                B = int(rng.integers(40, 260))
                m, s = rng.normal(0.0, 1.0, C), np.exp(rng.normal(0.0, 0.3, C))
                m[1], s[1] = np.nextafter(m[0], np.inf), s[0]
                if C > 2:
                    m[2], s[2] = m[0], s[0] * (1 + 2.0 ** -52)
                yield GAUSS, list(zip(m, s)), n, B
                m = rng.integers(-2, 3, C).astype(float)
                m[1] = -m[0] if m[0] else 1.0
                m[0] = -m[1]
                s = 2.0 ** rng.integers(-1, 2, C)
                s[1] = s[0]
                yield RoundedGaussian(), list(zip(m, s)), n, B
                yield ar, list(map(tuple, rng.uniform(-0.45, 0.45, (C, 2)))), n, B
                p, q = rng.uniform(0.1, 0.9, (2, C))
                yield hmm, list(zip(p, 1 - p, 1 - q, q)), n, B

    def test_equals_exact_tables_on_corpus(self, monkeypatch):
        calls = []
        exact = GaussianIID.log_density_batch

        def counting(self, theta, x):   # the Gaussian bound calls it only
            calls.append(len(x))        # for blocks it cannot order
            return exact(self, theta, x)

        redone = integer_ties = 0
        seeds = iter(range(700, 10_000, 37))
        for family, thetas, n, B in self.corpus():
            cands = CandidateSet.build(family, thetas)
            assert len(cands) >= 2
            seed = next(seeds)
            want, ties = self.reference(family, cands, n, B, seed)
            if isinstance(family, RoundedGaussian):
                integer_ties += ties
            monkeypatch.setattr(GaussianIID, "log_density_batch", counting)
            got = mde._model_tables(family, cands, n, B, seed)
            monkeypatch.setattr(GaussianIID, "log_density_batch", exact)
            assert np.array_equal(got, want), (family.tag, thetas, n, B)
            # one call per candidate on the blocks of one set
            redone += sum(calls) // len(cands)
            calls.clear()
        assert redone >= 50 and integer_ties >= 50, (redone, integer_ties)


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
        # blocks, mde_mc, the slack's allowance for the MDE's own Monte Carlo
        # error, and per run the seeds of the blocks, the MDE and d_n; the
        # second case has fewer blocks and a tighter allowance
        cases = [(128, 4000, 2.0 / math.sqrt(4000),
                  [(rng_for(100 + s, 0), 300 + s, 400 + s) for s in range(20)]),
                 (64, 2000, 0.02, [(rng_for(20240, 16, s), 20240 + s,
                                    20240 + 7 * s) for s in range(10)])]
        for blocks, mde_mc, mde_slack, runs in cases:
            for rng, mde_seed, d_seed in runs:
                Z = GAUSS.sample_paths(theta0, n, blocks, rng)
                theta_t = mde_estimate(GAUSS, Z, grid, mde_mc, seed=mde_seed)
                u = u_statistic_all(GAUSS, Z, grid, mde_mc, seed=mde_seed)
                d = variational_mc(GAUSS, theta0, theta_t, n, 20_000, seed=d_seed)
                mc_slack = d.standard_error + mde_slack
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
        V = vc_bound(GAUSS, 4)
        assert V == pytest.approx(12 * math.log2(12 * math.e), abs=1e-9)
        assert V == pytest.approx(60.33, abs=0.01)

    def test_ar_formula(self):
        V = vc_bound(GaussianAR(p=2), 4)
        assert V == pytest.approx(12 * math.log2(8 * math.e), abs=1e-9)
        assert V == pytest.approx(53.31, abs=0.01)

    def test_hmm_formula_grows_log_n(self):
        hmm = HiddenMarkov(M=2, a0=0.05, emission_means=[-1, 1],
                           emission_stds=[1, 1])
        V = vc_bound(hmm, 8)
        assert V == pytest.approx(16 * math.log2(32 * math.e), abs=1e-9)
        assert V == pytest.approx(103.08, abs=0.01)
        assert vc_bound(hmm, 16) > V
        assert vc_bound(GAUSS, 16) == vc_bound(GAUSS, 4)

    def test_deviation_bound_clamps(self, vc_deviation_bound):
        # 8 * 10^2 * exp(-10*0.01/32) >> 1 -> clamped
        assert vc_deviation_bound(10, 2.0, 0.1) == 1.0

    def test_deviation_bound_decays(self, vc_deviation_bound):
        vals = [vc_deviation_bound(4096, 2.0, e) for e in (0.3, 0.5, 0.8, 1.2)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1.0

    def test_deviation_bound_domain(self, vc_deviation_bound):
        with pytest.raises(ValueError, match="V >= 2"):
            vc_deviation_bound(10, 1.5, 0.1)


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
        cands = CandidateSet.build(far, [self.THETA, (0.3, 0.7, 0.6, 0.4)])
        clear_probability_cache()
        fresh = mde._model_tables(far, cands, 3, 2000, 9)
        clear_probability_cache()
        mde._model_tables(near, cands, 3, 2000, 9)
        assert np.array_equal(mde._model_tables(far, cands, 3, 2000, 9), fresh)

    def test_equal_families_built_apart_share_a_table_stack(self):
        cands = CandidateSet.build(self._hmm([-3.0, 3.0]),
                                   [self.THETA, (0.3, 0.7, 0.6, 0.4)])
        first = mde._model_tables(self._hmm([-3.0, 3.0]), cands, 3, 500, 9)
        hits = mde._model_tables.cache_info().hits
        assert mde._model_tables(self._hmm([-3.0, 3.0]), cands, 3, 500, 9) is first
        assert mde._model_tables.cache_info().hits == hits + 1
        other = mde._model_tables(self._hmm([-0.2, 0.2]), cands, 3, 500, 9)
        assert other is not first and table_stacks() == 2
        assert mde._model_tables.cache_info().hits == hits + 1

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
        # one entry per block length; cycling through three lengths with
        # room for two evicts on every call, and U still comes out as cold
        cands = CandidateSet.build(GAUSS, [(m, 1.0) for m in (-1.0, 0.0, 1.0, 2.0)])
        Zs = {n: GAUSS.sample_paths((0.0, 1.0), n, 32, rng_for(12, n))
              for n in (3, 4, 5)}
        fresh = {}
        for n, Z in Zs.items():
            clear_probability_cache()
            fresh[n] = u_statistic_all(GAUSS, Z, cands, 500, seed=13)
        shrink_table_cache(monkeypatch, 2)
        for k in range(6):
            n = (3, 4, 5)[k % 3]
            assert np.array_equal(u_statistic_all(GAUSS, Zs[n], cands, 500,
                                                  seed=13), fresh[n])
            assert table_stacks() == min(k + 1, 2)

    def test_probability_cache_stays_within_bound(self, monkeypatch):
        shrink_table_cache(monkeypatch, 1)
        first = mde._model_tables(GAUSS, PAIR, 2, 500, 1)
        mde._model_tables(GAUSS, PAIR, 2, 500, 2)
        assert table_stacks() == 1
        again = mde._model_tables(GAUSS, PAIR, 2, 500, 1)
        assert again is not first and np.array_equal(again, first)

    def test_module_cache_never_exceeds_its_bound(self):
        for n in range(1, MODEL_FREQ_CACHE_BOUND + 3):
            Z = GAUSS.sample_paths((0.0, 1.0), n, 8, rng_for(14, n))
            u_statistic_all(GAUSS, Z, PAIR, 50, seed=15)
            assert table_stacks() == min(n, MODEL_FREQ_CACHE_BOUND)
