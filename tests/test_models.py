import hashlib
import math

import numpy as np
import pytest
from scipy.integrate import quad

from conftest import exceeds_blocks
from twostage.distances import exceeds
from twostage.models import (GaussianAR, GaussianIID, HiddenMarkov,
                             InvalidParameterError)
from twostage.rand import TAG_DISTANCE, TAG_SAMPLE, rng_for


@pytest.fixture
def gauss():
    return GaussianIID()


@pytest.fixture
def hmm2():
    return HiddenMarkov(M=2, a0=0.05, emission_means=[-1.0, 2.0],
                        emission_stds=[0.7, 1.1])


class TestGaussianIID:
    def test_sampling_deterministic(self, gauss):
        def path(seed):
            return gauss.sample_paths((0.0, 1.0), 3, 1, rng_for(seed, TAG_SAMPLE))[0]
        a = path(1234)
        b = path(1234)
        assert np.array_equal(a, b)
        c = path(1235)
        assert not np.array_equal(a, c)

    def test_log_density_closed_form(self, gauss):
        got = gauss.log_density_batch((0.0, 1.0), np.array([[0.0]]))[0]
        assert got == pytest.approx(-0.5 * math.log(2 * math.pi), abs=1e-12)

    def test_density_normalizes(self, gauss):
        mass, _ = quad(lambda x: math.exp(
            gauss.log_density_batch((0.7, 2.3), np.array([[x]]))[0]),
                       -np.inf, np.inf)
        assert mass == pytest.approx(1.0, abs=1e-6)

    def test_invalid_sigma(self, gauss):
        with pytest.raises(InvalidParameterError, match="sigma"):
            gauss.validate((0.0, -1.0))

    @pytest.mark.parametrize("theta,message", [
        *(((v, 1.0), "non-finite parameter") for v in (math.nan, math.inf, -math.inf)),
        *(((0.0, v), "non-finite parameter") for v in (math.nan, math.inf, -math.inf)),
        ((math.nan, -1.0), "non-finite parameter"),
        ((0.0, 0.0), "sigma must be > 0, got 0.0"),
        ((0.0, -0.0), "sigma must be > 0, got -0.0"),
        ((0.0, -2.5), "sigma must be > 0, got -2.5"),
        ((0.0, -1e-300), "sigma must be > 0, got -1e-300"),
        # every family's size message; the ids are those of the message
        # that named (m, sigma)
        pytest.param((1.0,), "gaussian-iid needs 2 coords, got 1",
                     id="theta11-gaussian-iid needs (m, sigma), got 1 coords"),
        pytest.param((1.0, 2.0, 3.0), "gaussian-iid needs 2 coords, got 3",
                     id="theta12-gaussian-iid needs (m, sigma), got 3 coords"),
        ([[0.0, 1.0]], "parameter vector must be 1-D"),
    ])
    def test_invalid_parameter_messages(self, gauss, theta, message):
        with pytest.raises(InvalidParameterError) as err:
            gauss.validate(theta)
        assert str(err.value) == message


class TestGaussianAR:
    def test_yule_walker_variance(self):
        # X_t = 0.5 X_{t-1} + Y_t has stationary variance 1/(1-0.25) = 4/3
        ar = GaussianAR(p=1)
        X = ar.sample_paths([-0.5], 1000, 1000, rng_for(77, 0))
        assert X.var() == pytest.approx(4.0 / 3.0, rel=0.01)

    def test_degenerate_ar_is_iid(self):
        ar = GaussianAR(p=1)
        gauss = GaussianIID()
        rng_a = rng_for(5, 0)
        rng_b = rng_for(5, 0)
        Xa = ar.sample_paths([0.0], 6, 4, rng_a)
        ld_ar = ar.log_density_batch([0.0], Xa)
        ld_iid = gauss.log_density_batch((0.0, 1.0), Xa)
        assert np.allclose(ld_ar, ld_iid, atol=1e-10)
        # and the sampled law matches standard normal moments
        Xb = ar.sample_paths([0.0], 50, 2000, rng_b)
        assert Xb.mean() == pytest.approx(0.0, abs=0.01)
        assert Xb.var() == pytest.approx(1.0, abs=0.02)

    def test_stationary_start(self):
        ar = GaussianAR(p=2)
        theta = np.array([-0.4, 0.2])
        X = ar.sample_paths(theta, 40, 6000, rng_for(9, 0))
        v_first, v_last = X[:, 0].var(), X[:, -1].var()
        se = v_first * math.sqrt(2.0 / 6000)
        assert abs(v_first - v_last) < 6 * se

    def test_log_density_matches_mvn(self):
        # full covariance route as an independent oracle at small n
        from scipy.stats import multivariate_normal
        ar = GaussianAR(p=1)
        a = -0.6
        n = 5
        # autocovariance gamma_k = phi^k / (1 - phi^2), phi = -a
        phi = -a
        gam = np.array([phi ** k for k in range(n)]) / (1 - phi ** 2)
        cov = np.array([[gam[abs(i - j)] for j in range(n)] for i in range(n)])
        x = rng_for(3, 0).normal(size=(2, n))
        want = multivariate_normal(mean=np.zeros(n), cov=cov).logpdf(x)
        got = ar.log_density_batch([a], x)
        assert np.allclose(got, want, atol=1e-10)


class TestHiddenMarkov:
    def test_single_state_is_sum_of_emissions(self):
        hmm = HiddenMarkov(M=1, a0=0.0, emission_means=[0.5],
                           emission_stds=[1.2])
        x = rng_for(8, 0).normal(size=4)
        want = np.sum(hmm._emission_logpdf(x.reshape(-1, 1)))
        assert hmm.log_density_batch([1.0], x[None])[0] == \
            pytest.approx(want, abs=1e-12)

    def test_forward_equals_brute_force_grid(self, hmm_brute_force):
        rng = rng_for(21, 0)
        for M in (1, 2, 3):
            hmm = HiddenMarkov(M=M, a0=0.02,
                               emission_means=np.linspace(-2, 2, M),
                               emission_stds=np.linspace(0.5, 1.5, M))
            theta = hmm.prior_draw(rng)
            for n in range(1, 6):
                x = rng.normal(size=n)
                fwd = hmm.log_density_batch(theta, x[None])[0]
                brute = hmm_brute_force(hmm, theta, x)
                assert abs(fwd - brute) < 1e-10

    @pytest.mark.parametrize("means,stds", [
        ([math.nan, 2.0], [0.7, 1.1]), ([-1.0, math.inf], [0.7, 1.1]),
        ([-1.0, 2.0], [0.7, math.nan]), ([-1.0, 2.0], [math.inf, 1.1]),
        ([-1.0, 2.0], [0.7, 0.0]), ([-1.0, 2.0], [-0.7, 1.1])])
    def test_emissions_finite_with_positive_stds(self, means, stds):
        # NaN fails every comparison, so stds > 0 alone lets a NaN std
        # through, and every path drawn from the family is then NaN
        with pytest.raises(ValueError, match="emission means must be finite"):
            HiddenMarkov(M=2, a0=0.05, emission_means=means, emission_stds=stds)

    def test_scalar_emissions_are_refused(self):
        # a scalar has no row axis: its shape is checked before it is indexed
        with pytest.raises(ValueError, match=r"shape \(M,\) or \(M, d\)"):
            HiddenMarkov(M=1, a0=0.0, emission_means=0.5, emission_stds=1.0)

    def test_stationary_start(self, hmm2):
        theta = [0.8, 0.2, 0.3, 0.7]
        X = hmm2.sample_paths(theta, 20, 8000, rng_for(13, 0))
        # state occupation proxy: means of first and last letter agree
        assert abs(X[:, 0].mean() - X[:, -1].mean()) < 0.08

    def test_vector_emissions(self):
        hmm = HiddenMarkov(M=2, a0=0.05,
                           emission_means=[[-1.0, 0.0], [1.0, 2.0]],
                           emission_stds=[[1.0, 1.0], [0.5, 0.5]])
        theta = [0.9, 0.1, 0.2, 0.8]
        X = hmm.sample_paths(theta, 4, 3, rng_for(2, 0))
        assert X.shape == (3, 4, 2)
        ld = hmm.log_density_batch(theta, X)
        assert ld.shape == (3,) and np.all(np.isfinite(ld))


@pytest.mark.parametrize("make", [
    lambda: GaussianIID(5), lambda: GaussianAR(2, 3), lambda: GaussianAR(2, p=3),
    lambda: HiddenMarkov(2, 0.05, [-1.0, 1.0], [1.0, 1.0], 7)],
    ids=["iid-extra", "ar-extra", "ar-twice", "hmm-extra"])
def test_extra_or_repeated_field_is_a_type_error(make):
    # an extra positional argument was dropped, and one given twice kept
    # the positional value
    with pytest.raises(TypeError, match=r"\(\) takes "):
        make()


def test_fields_by_position(hmm2):
    assert GaussianAR(2) == GaussianAR(p=2)
    assert HiddenMarkov(2, 0.05, [-1.0, 2.0], [0.7, 1.1]) == hmm2


class TestSampleChunks:
    @pytest.mark.parametrize("count", [1, 49, 50, 51, 100, 101, 400, 1000])
    def test_gaussian_chunks_join_into_one_draw(self, gauss, count):
        # the blocks of 50, 50, 100, 200, ... rows that distances.exceeds
        # draws one after another on one generator are bit for bit the
        # one-shot draw, and score row by row as the one-shot batch does
        assert gauss.draws_by_row
        theta, other = (0.3, 1.7), (-0.2, 0.9)
        for n in (1, 4, 33):
            whole = gauss.sample_paths(theta, n, count, rng_for(5, n))
            rng = rng_for(5, n)
            chunks = [gauss.sample_paths(theta, n, c, rng) for c in exceeds_blocks(count)]
            assert np.concatenate(chunks).tobytes() == whole.tobytes()
            for t in (theta, other):
                batch = gauss.log_density_batch(t, whole)
                per_chunk = [gauss.log_density_batch(t, c) for c in chunks]
                assert np.concatenate(per_chunk).tobytes() == batch.tobytes()

    @staticmethod
    def drawing(family):
        """``family``, keeping each ``sample_paths`` call's generator
        position before the call, row count and draw in its ``draws`` list."""
        draw, family.draws = family.sample_paths, []

        def position(rng):
            state = rng.bit_generator.state
            return tuple(state["state"]["counter"]), state["buffer_pos"]

        def sample_paths(theta, n, count, rng):
            before = position(rng)
            x = draw(theta, n, count, rng)
            family.draws.append((before, count, x, position(rng)))
            return x

        family.sample_paths, family.position = sample_paths, position
        return family

    def test_chunks_are_drawn_when_asked(self, gauss):
        # a far pair is decided by exceeds' first block: the generator starts
        # untouched, and 50 rows, drawn once, leave it where a plain draw of
        # 50 rows does, so nothing is drawn ahead
        family = self.drawing(gauss)
        assert exceeds(family, (0.0, 1.0), (40.0, 1.0), 3, 400, 6, 0.1)
        [(before, count, x, after)] = family.draws
        ref = rng_for(6, TAG_DISTANCE)
        assert before == family.position(ref) and count == 50
        assert x.tobytes() == ref.standard_normal((50, 3)).tobytes()
        assert after == family.position(ref)

    def test_ar_and_hmm_draw_one_block(self, hmm2):
        # exceeds draws an AR or HMM probe's N rows in one sample_paths call,
        # the one-shot draw bit for bit
        for family, theta, theta_prime in (
                (GaussianAR(p=2), (0.3, -0.2), (-0.6, 0.3)),
                (hmm2, (0.8, 0.2, 0.3, 0.7), (0.2, 0.8, 0.7, 0.3))):
            assert not family.draws_by_row
            whole = family.sample_paths(theta, 6, 400, rng_for(7, TAG_DISTANCE))
            family = self.drawing(family)
            exceeds(family, theta, theta_prime, 6, 400, 7, 0.1)
            [(_, count, x, _)] = family.draws
            assert count == 400 and x.tobytes() == whole.tobytes()


# SHA-256 of log_density_batch over the seeded corpus below, recorded with
# the per-candidate kernels (SciPy's logsumexp for the HMM forward pass, the
# out-of-place (x - m) / s for the Gaussian); an all-candidate AR or HMM
# kernel, or a Gaussian one with fewer temporaries, must keep these bits.
DENSITY_CORPUS = [
    ("gaussian-iid", GaussianIID(), 80,
     "55d2124f7e53667021ebc6b35f7e2df10cfea2d511e1bf28977dd7b7edfdf236"),
    ("ar2", GaussianAR(p=2), 81,
     "70c973b97d7d2be2d1677692422f8016e8904869a943a70bd0ed2a2369e69a83"),
    ("hmm2", HiddenMarkov(M=2, a0=0.02, emission_means=[-1.0, 2.0],
                          emission_stds=[0.7, 1.1]), 82,
     "1909d95b8d55ae0907fdc65387fe5edd3961f214a6f9facfbcd71c60fab34d76"),
    ("hmm3", HiddenMarkov(M=3, a0=0.0, emission_means=[-2.0, 0.0, 2.0],
                          emission_stds=[0.5, 1.0, 1.5]), 83,
     "a42efce5b88a26ccb29afb60da5bb8a033a3459c5fcbf796e9a098cff66384a1"),
]


@pytest.mark.parametrize("family,seed,sha", [c[1:] for c in DENSITY_CORPUS],
                         ids=[c[0] for c in DENSITY_CORPUS])
def test_log_density_corpus_bytes_unchanged(family, seed, sha):
    # five prior draws; at each block length, 40 blocks from each draw, as
    # drawn and scaled by 5, scored under every draw, as MDE scores them
    rng = rng_for(seed, 0)
    thetas = [family.prior_draw(rng) for _ in range(5)]
    h = hashlib.sha256()
    for n in (1, 2, 3, 8, 16):
        for j, source in enumerate(thetas):
            X = family.sample_paths(source, n, 40, rng_for(seed, 1, n, j))
            for blocks in (X, 5.0 * X):
                for theta in thetas:
                    h.update(family.log_density_batch(theta, blocks).tobytes())
    assert h.hexdigest() == sha
