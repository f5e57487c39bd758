import functools
import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import kstest, norm

from conftest import bitstring, codebook_bytes
from twostage import scheme
from twostage.bitcode import BitString, elias_encode
from twostage.distances import variational_mc
from twostage.models import GaussianAR, GaussianIID, HiddenMarkov
from twostage.rand import TAG_DISTANCE, derive_seed, rng_for
from twostage.scheme import (Database, MalformedStreamError, SchemeConfig,
                             book_index, candidate_set, clear_codebook_cache,
                             decode_block, encode_block, extract_z,
                             gap_length, identify,
                             provision_codebook, sample_scene, waiting_time,
                             waiting_tolerance)

GAUSS = GaussianIID()


def blocking_bound(family, theta, config, C=1.0, gamma=0.9) -> float:
    """(n-1) * beta(l_n): the total-variation cost of treating the
    interleaved estimation blocks as i.i.d.; exactly 0 for i.i.d. sources,
    and beta(k) = C gamma^k (k >= 1) for the exponentially mixing ones, with
    C and gamma taken as test data."""
    family.validate(theta)
    if family.tag == "gaussian-iid":
        return 0.0
    return (config.n - 1) * C * gamma ** max(gap_length(config), 1)


def small_config(**kw):
    base = dict(n=4, lam=0.5, n_candidates=3, i_max=20, distance_mc=200,
                mde_mc=400, train_blocks=64, max_initial_size=16,
                c_delta=1.0, database_seed=11, code_seed=12)
    base.update(kw)
    return SchemeConfig(**base)


def book_size() -> int:
    return scheme._book.cache_info().currsize


def shrink_book_cache(monkeypatch, bound: int) -> None:
    """Rebind ``scheme._book`` to the same design under a smaller bound."""
    monkeypatch.setattr(scheme, "_book",
                        functools.lru_cache(bound)(scheme._book.__wrapped__))


class TestMemoryLayout:
    def test_mixing_case(self):
        cfg = SchemeConfig(n=4, lam=1.0, eta=1.0, r=2.0)
        # l = ceil(4^(3/2)) = 8, m = 4 * 12 = 48, blocks start at 0, 12, 24, 36
        assert gap_length(cfg) == 8
        hist = np.arange(48, dtype=float)
        assert extract_z(cfg, hist)[:, 0].tolist() == [0, 12, 24, 36]

    def test_iid_case(self):
        cfg = SchemeConfig(n=6, lam=1.0)
        assert gap_length(cfg) == 0
        hist = np.arange(36, dtype=float)
        assert np.array_equal(extract_z(cfg, hist), hist.reshape(6, 6))

    def test_cap(self):
        cfg = SchemeConfig(n=16, lam=1.0, eta=1.0, r=1.0, l_cap=10)
        assert gap_length(cfg) == 10

    @pytest.mark.parametrize("eta", [math.inf, 1e308, 2000.0])
    def test_cap_of_a_gap_beyond_the_float_range(self, eta):
        # n^((2+eta)/r) overflowed a float before l_cap clamped it
        assert gap_length(SchemeConfig(n=4, lam=1.0, eta=eta, r=2.0, l_cap=10)) == 10
        with pytest.raises(ValueError, match=r"^gap length .* overflows at n = 4: "):
            gap_length(SchemeConfig(n=4, lam=1.0, eta=eta, r=2.0))

    def test_extract_z_tiles(self):
        for cfg, d in ((SchemeConfig(n=3, lam=1.0, eta=1.0, r=3.0), ()),
                       (SchemeConfig(n=4, lam=1.0, eta=1.0, r=2.0), (2,))):
            n, l_n = cfg.n, gap_length(cfg)
            hist = np.arange(n * (n + l_n) * max(d, default=1),
                             dtype=float).reshape(-1, *d)
            Z = extract_z(cfg, hist)
            # the tiling the MDE inputs were built by, contiguous as np.stack
            stacked = np.stack([hist[o:o + n]
                                for o in range(0, n * (n + l_n), n + l_n)])
            assert Z.shape == (n, n, *d) and Z.flags.c_contiguous
            assert np.array_equal(Z, stacked)
            with pytest.raises(ValueError):
                extract_z(cfg, hist[:-1])


class TestDatabase:
    def test_deterministic_random_access(self):
        db = Database(family=GAUSS, seed=7)
        a = db.point(5)
        assert np.array_equal(a, db.point(5))
        assert not np.array_equal(a, db.point(6))
        assert np.array_equal(a, Database(family=GAUSS, seed=7).point(5))

    def test_index_domain(self):
        with pytest.raises(ValueError):
            Database(family=GAUSS, seed=0).point(0)

    def test_marginal_matches_prior(self):
        db = Database(family=GAUSS, seed=42)
        means = np.array([db.point(i)[0] for i in range(1, 401)])
        stat = kstest(means, norm(loc=0.0, scale=10.0).cdf)
        assert stat.pvalue > 0.01

    def test_planted_indices(self):
        db = Database(family=GAUSS, seed=3, planted=((1.5, 2.0),))
        assert tuple(db.point(1)) == (1.5, 2.0)
        # index 2 falls through to the prior, same stream as unplanted
        assert np.array_equal(db.point(2), Database(family=GAUSS, seed=3).point(2))

    def test_ar_database_points_are_stable(self):
        ar = GaussianAR(p=1)
        db = Database(family=ar, seed=9)
        for i in range(1, 50):
            ar.validate(db.point(i))  # raises if unstable


class TestWaitingTime:
    @pytest.mark.parametrize("n,c_delta,want", [
        (100, 1.0, 2.145966026289347), (100, 0.5, 1.0729830131446736),
        (8, 0.8, 1.1536215092807065), (2, 0.0, 0.0)])
    def test_tolerance_is_sqrt_n_delta_n(self, n, c_delta, want):
        # sqrt(n) * c_delta sqrt(ln n / n), to the bit of the floats the
        # seeded CSVs hold in their tol column
        tol = waiting_tolerance(SchemeConfig(n=n, lam=1.0, c_delta=c_delta))
        assert tol == want
        assert tol == pytest.approx(c_delta * math.sqrt(math.log(n)), rel=1e-12)

    def test_immediate_hit_when_tolerance_saturates(self):
        # d_n is at most 2, so tol >= 2 stops at the first index
        db = Database(family=GAUSS, seed=1)
        assert waiting_time(db, (0.0, 1.0), 2.0, 4, 100, seed=5, i_max=10) == 1

    def test_planted_match_found(self):
        db = Database(family=GAUSS, seed=1, planted=((3.0, 9.0), (0.0, 1.0)))
        T = waiting_time(db, (0.0, 1.0), 0.05, 4, 400, seed=5, i_max=10)
        assert T == 2

    def test_exhaustion_returns_none(self):
        db = Database(family=GAUSS, seed=1)
        assert waiting_time(db, (0.0, 1.0), 0.0, 4, 100, seed=5, i_max=5) is None

    def test_negative_tolerance_rejected(self):
        db = Database(family=GAUSS, seed=1)
        with pytest.raises(ValueError):
            waiting_time(db, (0.0, 1.0), -0.1, 4, 100, seed=5, i_max=5)

    def test_nan_tolerance_rejected(self):
        db = Database(family=GAUSS, seed=1)
        with pytest.raises(ValueError, match="tol"):
            waiting_time(db, (0.0, 1.0), math.nan, 4, 100, seed=5, i_max=5)

    def test_same_waiting_time_as_full_estimates(self):
        # the search on full estimates, probe by probe, against the one that
        # stops each probe early: planted hits at 1, 3 and 7, prior points,
        # and tolerances from 0 (every search exhausts i_max) to 2 (T = 1)
        def reference(db, theta_tilde, tol, n, mc_budget, seed, i_max):
            for i in range(1, i_max + 1):
                est = variational_mc(db.family, db.point(i), theta_tilde, n,
                                     mc_budget, derive_seed(seed, TAG_DISTANCE, i))
                if est.value <= tol:
                    return i
            return None

        rng = rng_for(31, 0)
        results = []
        for planted in ((), ((0.0, 1.0),), ((3.0, 9.0), (1.0, 2.0), (0.0, 1.0)),
                        tuple((float(k), 1.0) for k in range(6, 0, -1)) + ((0.0, 1.0),)):
            db = Database(family=GAUSS, seed=int(rng.integers(100)), planted=planted)
            for n in (2, 4, 9):
                theta_tilde = (0.05 * rng.normal(), math.exp(0.05 * rng.normal()))
                for tol in (0.0, 0.1, 0.4, 1.0, 1.9, 2.0):
                    for N in (40, 400):
                        seed = int(rng.integers(2**31))
                        want = reference(db, theta_tilde, tol, n, N, seed, 12)
                        assert waiting_time(db, theta_tilde, tol, n, N, seed, 12) == want
                        results.append(want)
        assert None in results and 1 in results and 3 in results and 7 in results


class TestRoundTrip:
    def test_encode_decode_identity(self):
        cfg = small_config()
        db = Database(family=GAUSS, seed=cfg.database_seed)
        hist, cur = sample_scene(GAUSS, (0.0, 1.0), cfg, seed=100)
        enc = encode_block(cfg, db, hist, cur)
        dec = decode_block(cfg, db, enc.stream())
        assert dec.bits_consumed == enc.total_bits
        assert tuple(dec.theta_hat) == enc.theta_hat
        book_vec = dec.xhat.values
        assert book_vec.shape[0] == cfg.n

    def test_decoder_needs_only_config(self):
        # decode twice with fresh caches and a fresh database object
        cfg = small_config()
        db = Database(family=GAUSS, seed=cfg.database_seed)
        hist, cur = sample_scene(GAUSS, (0.0, 1.0), cfg, seed=101)
        enc = encode_block(cfg, db, hist, cur)
        clear_codebook_cache()
        db2 = Database(family=GaussianIID(), seed=cfg.database_seed)
        dec = decode_block(cfg, db2, enc.stream())
        assert np.array_equal(dec.theta_hat, np.asarray(enc.theta_hat))
        assert dec.bits_consumed == enc.total_bits

    def test_encoding_is_deterministic(self):
        cfg = small_config()
        db = Database(family=GAUSS, seed=cfg.database_seed)
        hist, cur = sample_scene(GAUSS, (0.0, 1.0), cfg, seed=102)
        a = encode_block(cfg, db, hist, cur)
        clear_codebook_cache()
        b = encode_block(cfg, db, hist, cur)
        assert a.stream() == b.stream()

    def test_planted_truth_gives_short_first_stage(self):
        theta0 = (0.0, 1.0)
        cfg = small_config(n=8)
        db = Database(family=GAUSS, seed=cfg.database_seed, planted=(theta0,))
        hist, cur = sample_scene(GAUSS, theta0, cfg, seed=103)
        enc = encode_block(cfg, db, hist, cur)
        assert enc.waiting_time == 1
        # b=0 and gamma(1) = "1": two first-stage bits total
        assert enc.b == 0
        assert 1 + len(enc.s1) == 2
        dec = decode_block(cfg, db, enc.stream())
        assert dec.radius == pytest.approx(waiting_tolerance(cfg))

    def test_exhausted_search_sets_flag(self):
        # candidate set is a single far-off anchor, so no database point can
        # come within the (tiny) tolerance of theta_tilde
        cfg = small_config(c_delta=1e-9, i_max=3, n_candidates=0,
                           anchors=((50.0, 1.0),))
        db = Database(family=GAUSS, seed=cfg.database_seed)
        hist, cur = sample_scene(GAUSS, (0.0, 1.0), cfg, seed=104)
        enc = encode_block(cfg, db, hist, cur)
        assert enc.waiting_time is None
        assert enc.b == 1 and len(enc.s1) == 0
        dec = decode_block(cfg, db, enc.stream())
        assert math.isnan(dec.radius)
        assert np.array_equal(dec.theta_hat, db.point(1))

    def test_truncated_stream_is_atomic(self):
        cfg = small_config()
        db = Database(family=GAUSS, seed=cfg.database_seed)
        hist, cur = sample_scene(GAUSS, (0.0, 1.0), cfg, seed=105)
        enc = encode_block(cfg, db, hist, cur)
        bits = str(enc.stream())
        for cut in range(len(bits)):
            with pytest.raises(MalformedStreamError):
                decode_block(cfg, db, bitstring(bits[:cut]))

    def test_total_bits_accounting(self):
        cfg = small_config()
        db = Database(family=GAUSS, seed=cfg.database_seed)
        hist, cur = sample_scene(GAUSS, (0.0, 1.0), cfg, seed=106)
        enc = encode_block(cfg, db, hist, cur)
        assert enc.total_bits == len(enc.stream())
        assert enc.total_bits == 1 + len(enc.s1) + len(enc.s2)

    def test_waiting_time_beyond_i_max_rejected_before_design(self):
        cfg = small_config()
        db = Database(family=GAUSS, seed=cfg.database_seed)
        clear_codebook_cache()
        stream = BitString(0, 1) + elias_encode(cfg.i_max + 1)
        with pytest.raises(MalformedStreamError, match="i_max"):
            decode_block(cfg, db, stream)
        assert book_size() == 0

    def test_non_finite_input_rejected(self):
        cfg = small_config()
        db = Database(family=GAUSS, seed=cfg.database_seed)
        hist, cur = sample_scene(GAUSS, (0.0, 1.0), cfg, seed=108)
        bad_cur, bad_hist = cur.copy(), hist.copy()
        bad_cur[1] = np.nan
        bad_hist[0] = np.inf
        with pytest.raises(ValueError, match="finite"):
            encode_block(cfg, db, hist, bad_cur)
        with pytest.raises(ValueError, match="finite"):
            encode_block(cfg, db, bad_hist, cur)

    def test_wrong_block_length_rejected(self):
        cfg = small_config()
        db = Database(family=GAUSS, seed=cfg.database_seed)
        hist, cur = sample_scene(GAUSS, (0.0, 1.0), cfg, seed=107)
        with pytest.raises(ValueError):
            encode_block(cfg, db, hist, cur[:-1])

    def test_current_block_of_vectors_rejected(self):
        # a (4, K) block of scalar letters against K codevectors of length 4
        # broadcast, and encoded as codeword 0; any other K failed unnamed
        cfg = small_config()
        db = Database(family=GAUSS, seed=cfg.database_seed)
        hist, cur = sample_scene(GAUSS, (0.0, 1.0), cfg, seed=107)
        enc = encode_block(cfg, db, hist, cur)
        K = provision_codebook(cfg, GAUSS, enc.theta_hat,
                               book_index(enc.waiting_time)).codevectors.shape[0]
        for k in (K, K + 1):
            with pytest.raises(ValueError, match=r"current block must hold 4 letters in R\^1"):
                encode_block(cfg, db, hist, np.repeat(cur[:, None], k, axis=1))

    def test_letters_of_the_wrong_dimension_rejected(self):
        # a 2-d-letter HMM took a memory of (4, 1) letters, broadcast against
        # its (M, 2) emission arrays, and emitted a stream
        fam = HiddenMarkov(M=2, a0=0.05, emission_means=[[-1.0, 0.0], [1.0, 2.0]],
                           emission_stds=[[1.0, 1.0], [0.5, 0.5]])
        cfg = small_config(n=2)
        db = Database(family=fam, seed=cfg.database_seed)
        hist, cur = sample_scene(fam, (0.9, 0.1, 0.2, 0.8), cfg, seed=110)
        assert hist.shape == (4, 2) and cur.shape == (2, 2)
        for bad in (hist[:, :1], hist[:, 0], np.concatenate((hist, hist), axis=1)):
            with pytest.raises(ValueError, match=r"history must hold 4 letters in R\^2"):
                identify(cfg, db, bad)
            with pytest.raises(ValueError, match="history"):
                encode_block(cfg, db, bad, cur)
        with pytest.raises(ValueError, match=r"current block must hold 2 letters in R\^2"):
            encode_block(cfg, db, hist, cur[:, :1])
        assert identify(cfg, db, hist)[0] == encode_block(cfg, db, hist, cur).waiting_time

    @pytest.mark.parametrize("letter,dtype", [(True, "bool"), ("a", "<U1"), (None, "object")])
    def test_letters_that_are_no_real_numbers_rejected(self, letter, dtype):
        # bool letters were read as 0 and 1: [True] * 4 encoded codeword 1, and
        # a bool memory got a waiting time; a string or None failed unnamed in
        # np.isfinite
        cfg = small_config()
        db = Database(family=GAUSS, seed=cfg.database_seed)
        hist, cur = sample_scene(GAUSS, (0.0, 1.0), cfg, seed=107)
        bad_hist, bad_cur = [letter] * len(hist), [letter] * len(cur)
        history = rf"^history must hold real numbers, got dtype {dtype}$"
        with pytest.raises(ValueError, match=history):
            identify(cfg, db, bad_hist)
        with pytest.raises(ValueError, match=history):
            encode_block(cfg, db, bad_hist, cur)
        with pytest.raises(ValueError,
                           match=rf"^current block must hold real numbers, got dtype {dtype}$"):
            encode_block(cfg, db, hist, bad_cur)


class TestMisc:
    def test_candidate_set_includes_anchors(self):
        cfg = small_config(anchors=((2.5, 1.5),))
        db = Database(family=GAUSS, seed=cfg.database_seed)
        cands = candidate_set(cfg, db)
        assert (2.5, 1.5) in cands.thetas
        assert len(cands.thetas) >= cfg.n_candidates

    def test_blocking_bound_iid_is_zero(self):
        cfg = SchemeConfig(n=8, lam=1.0)
        assert blocking_bound(GAUSS, (0.0, 1.0), cfg) == 0.0

    def test_blocking_bound_shrinks_with_n(self):
        ar = GaussianAR(p=1)
        vals = []
        for n in (4, 8, 16):
            cfg = SchemeConfig(n=n, lam=1.0, eta=1.0, r=1.0)
            vals.append(blocking_bound(ar, (-0.5,), cfg))
        assert vals[0] > vals[1] > vals[2] >= 0.0

    def test_sample_scene_shapes(self):
        cfg = SchemeConfig(n=5, lam=1.0, eta=1.0, r=2.0)
        hist, cur = sample_scene(GAUSS, (0.0, 1.0), cfg, seed=1)
        # l = ceil(5^(3/2)) = 12, m = 5 * 17
        assert hist.shape[0] == 85 and cur.shape[0] == 5

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SchemeConfig(n=0, lam=1.0)
        # the tolerance rule needs n >= 2: at n = 1 it is 0
        for n in (1, 2.0, True):
            with pytest.raises(ValueError, match=r"integer n >= 2"):
                SchemeConfig(n=n, lam=1.0)
        assert SchemeConfig(n=2, lam=1.0).n == 2
        with pytest.raises(ValueError):
            SchemeConfig(n=4, lam=0.0)
        # the tolerance has one rule; the paper's schedule is not offered
        with pytest.raises(TypeError, match="delta_mode"):
            SchemeConfig(n=4, lam=1.0, delta_mode="practical")


class TestCodebookCacheKey:
    """A cached book is reused only where the same design would run."""

    THETA = (0.8, 0.2, 0.3, 0.7)

    def test_hmm_emissions_get_their_own_book(self):
        cfg = small_config()
        near = HiddenMarkov(M=2, a0=0.05, emission_means=[-0.2, 0.2],
                            emission_stds=[1.0, 1.0])
        far = HiddenMarkov(M=2, a0=0.05, emission_means=[-3.0, 3.0],
                           emission_stds=[1.0, 1.0])
        clear_codebook_cache()
        fresh = provision_codebook(cfg, far, self.THETA, 1)
        clear_codebook_cache()
        provision_codebook(cfg, near, self.THETA, 1)
        assert codebook_bytes(provision_codebook(cfg, far, self.THETA, 1)) == \
            codebook_bytes(fresh)

    def test_vector_letters_get_a_vector_book(self):
        cfg = small_config()
        scalar = HiddenMarkov(M=2, a0=0.05, emission_means=[-1.0, 1.0],
                              emission_stds=[1.0, 1.0])
        vector = HiddenMarkov(M=2, a0=0.05,
                              emission_means=[[-1.0, 0.0], [1.0, 0.0]],
                              emission_stds=[[1.0, 1.0], [1.0, 1.0]])
        clear_codebook_cache()
        provision_codebook(cfg, scalar, self.THETA, 1)
        book = provision_codebook(cfg, vector, self.THETA, 1)
        assert book.codevectors.shape[1:] == (cfg.n, 2)

    def test_equal_families_built_apart_share_a_book(self):
        def hmm(means):
            return HiddenMarkov(M=2, a0=0.05, emission_means=means,
                                emission_stds=[1.0, 1.0])

        cfg = small_config()
        first = provision_codebook(cfg, hmm([-1.0, 1.0]), self.THETA, 1)
        hits = scheme._book.cache_info().hits
        assert provision_codebook(cfg, hmm([-1.0, 1.0]), self.THETA, 1) is first
        assert scheme._book.cache_info().hits == hits + 1
        other = provision_codebook(cfg, hmm([-1.0, 2.0]), self.THETA, 1)
        assert other is not first and book_size() == 2
        assert scheme._book.cache_info().hits == hits + 1


class TestIdentify:
    def test_first_stage_of_the_encoder_without_a_codebook(self):
        cfg = small_config()
        db = Database(family=GAUSS, seed=cfg.database_seed)
        hist, cur = sample_scene(GAUSS, (0.0, 1.0), cfg, seed=109)
        T, theta_tilde, theta_hat = identify(cfg, db, hist)
        assert book_size() == 0
        enc = encode_block(cfg, db, hist, cur)
        assert T == enc.waiting_time
        assert tuple(theta_tilde) == enc.theta_tilde
        assert tuple(theta_hat) == enc.theta_hat

    def test_exhausted_search_identifies_index_one(self):
        cfg = small_config(c_delta=1e-9, i_max=3, n_candidates=0,
                           anchors=((50.0, 1.0),))
        db = Database(family=GAUSS, seed=cfg.database_seed)
        hist, _ = sample_scene(GAUSS, (0.0, 1.0), cfg, seed=104)
        T, _, theta_hat = identify(cfg, db, hist)
        assert T is None and book_index(T) == 1
        assert np.array_equal(theta_hat, db.point(1))
        assert book_index(7) == 7

    def test_non_finite_history_rejected(self):
        cfg = small_config()
        db = Database(family=GAUSS, seed=cfg.database_seed)
        hist, _ = sample_scene(GAUSS, (0.0, 1.0), cfg, seed=108)
        hist[2] = np.nan
        with pytest.raises(ValueError, match="finite"):
            identify(cfg, db, hist)


class TestBoundedCaches:
    TINY = small_config(train_blocks=16, max_initial_size=4)

    def test_lru_drops_the_least_recently_used(self, monkeypatch):
        shrink_book_cache(monkeypatch, 2)
        designed = []
        for index in (1, 2, 1, 3, 1, 2):
            misses = scheme._book.cache_info().misses
            provision_codebook(self.TINY, GAUSS, (0.0, 1.0), index)
            if scheme._book.cache_info().misses > misses:
                designed.append(index)
            assert book_size() <= 2
        # 1 stayed cached by use; 2 was dropped for 3 and designed again
        assert designed == [1, 2, 3, 2]

    def test_threads_share_a_bounded_cache(self, monkeypatch):
        # five books cycled through room for two: the threads evict and
        # design concurrently, and every one of them sees the same bytes
        want = {i: codebook_bytes(provision_codebook(self.TINY, GAUSS,
                                                     (0.0, 1.0), i))
                for i in range(1, 6)}
        shrink_book_cache(monkeypatch, 2)
        wrong = []

        def work(offset):
            try:
                for i in range(40):
                    index = (offset + i) % 5 + 1
                    book = provision_codebook(self.TINY, GAUSS, (0.0, 1.0), index)
                    if codebook_bytes(book) != want[index] or book_size() > 2:
                        wrong.append(index)
            except Exception as exc:   # a torn table raises in the thread
                wrong.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == [] and book_size() == 2

    def test_evicted_book_is_redesigned_byte_identical(self, monkeypatch):
        shrink_book_cache(monkeypatch, 2)
        cfg = small_config()
        first = provision_codebook(cfg, GAUSS, (0.0, 1.0), 1)
        for index in (2, 3, 4):
            provision_codebook(cfg, GAUSS, (0.0, 1.0), index)
            assert book_size() <= 2
        again = provision_codebook(cfg, GAUSS, (0.0, 1.0), 1)
        assert again is not first
        assert codebook_bytes(again) == codebook_bytes(first)

    def test_default_book_bound_holds(self):
        assert scheme._book.cache_info().maxsize == scheme.BOOK_CACHE_BOUND
        for index in range(1, scheme.BOOK_CACHE_BOUND + 3):
            provision_codebook(self.TINY, GAUSS, (0.0, 1.0), index)
        assert book_size() == scheme.BOOK_CACHE_BOUND


FUZZ_CONFIG = small_config(n=2, i_max=4, train_blocks=16, max_initial_size=4)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(0, 1), max_size=24))
def test_decoder_is_total(bits):
    """Any bitstring decodes or raises MalformedStreamError, and all of them
    together make the decoder design at most i_max books."""
    db = Database(family=GAUSS, seed=FUZZ_CONFIG.database_seed)
    try:
        dec = decode_block(FUZZ_CONFIG, db, bitstring(bits))
    except MalformedStreamError:
        pass
    else:
        assert dec.bits_consumed <= len(bits)
        assert dec.xhat.values.shape[0] == FUZZ_CONFIG.n
    # caches are emptied once per test, so this counts over every example
    assert book_size() <= FUZZ_CONFIG.i_max
