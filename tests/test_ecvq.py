import hashlib
import struct

import numpy as np
import pytest

from conftest import codebook_bytes, rho_n
from twostage import ecvq
from twostage.bitcode import BitReader
from twostage.distances import variational_mc
from twostage.ecvq import (Codebook, LagrangianReport, ecvq_decode_index,
                           ecvq_design, ecvq_encode, lagrangian_eval,
                           pairwise_distortion)
from twostage.models import GaussianIID, HiddenMarkov
from twostage.rand import TAG_EVAL, rng_for

RHO = 1.0       # rho_max
GAUSS = GaussianIID()


class TestRho:
    def test_identity(self):
        x = np.array([0.3, -0.7, 2.0])
        assert rho_n(RHO, x, x) == 0.0
        assert pairwise_distortion(x[None], x[None], RHO)[0, 0] == 0.0

    def test_cap_active(self):
        assert rho_n(RHO, np.array([0.0]), np.array([10.0])) == 1.0
        assert pairwise_distortion(np.array([[0.0]]), np.array([[10.0]]),
                                   RHO)[0, 0] == 1.0

    def test_length_mismatch(self):
        book = Codebook(n=4, codevectors=np.zeros((1, 4)),
                        lengths=np.array([0]), lam=0.5, rho_max=RHO)
        with pytest.raises(ValueError, match="codebook n"):
            ecvq_encode(book, np.zeros(3))

    def test_symmetry_and_triangle_random(self):
        rng = rng_for(41, 0)
        for _ in range(10_000):
            a, b, c = rng.normal(scale=1.5, size=(3, 4))
            assert rho_n(RHO, a, b) == rho_n(RHO, b, a)
            assert rho_n(RHO, a, b) <= rho_n(RHO, a, c) + rho_n(RHO, c, b) + 1e-12

    @pytest.mark.parametrize("rho", [0.0, -1.0, np.inf, np.nan])
    def test_spec_needs_finite_positive_rho(self, rho):
        with pytest.raises(ValueError, match="rho_max"):
            Codebook(n=1, codevectors=np.zeros((1, 1)), lengths=np.array([0]),
                     lam=0.5, rho_max=rho)

    def test_range(self):
        rng = rng_for(42, 0)
        for _ in range(100):
            a, b = rng.normal(scale=5.0, size=(2, 8))
            assert 0.0 <= rho_n(RHO, a, b) <= RHO


class TestDesign:
    def test_point_mass(self):
        x0 = np.array([0.5, -1.0, 0.25])
        training = np.tile(x0, (40, 1))
        book = ecvq_design(training, lam=0.3, initial_size=8, rho_max=RHO, seed=1)
        assert book.size == 1
        assert rho_n(RHO, book.codevectors[0], x0) == pytest.approx(0.0)
        assert book.lengths[0] == 0

    def test_huge_lambda_collapses(self):
        X = GAUSS.sample_paths((0.0, 1.0), 4, 200, rng_for(2, 0))
        book = ecvq_design(X, lam=2 * 4 * RHO, initial_size=16,
                           rho_max=RHO, seed=2)
        assert book.size <= 2

    def test_lambda_zero_perfect_fit(self):
        X = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [1.0, 1.0]])
        book = ecvq_design(X, lam=0.0, initial_size=3, rho_max=RHO, seed=3,
                           tolerance=1e-12)
        idx = [ecvq_encode(book, x)[0] for x in X]
        d = pairwise_distortion(X, book.codevectors, RHO)
        assert np.allclose(d[np.arange(4), idx], 0.0)

    def test_kraft_and_cap_many_seeds(self):
        for s in range(50):
            X = GAUSS.sample_paths((0.0, 1.0), 6, 256, rng_for(100 + s, 0))
            lam = [0.2, 0.5, 1.0][s % 3]
            book = ecvq_design(X, lam=lam, initial_size=32, rho_max=RHO, seed=s)
            assert book.kraft_sum() <= 1.0 + 1e-12
            assert max(book.lengths) / book.n <= 2 * RHO / lam + 1e-12

    def test_lloyd_descent_monotone(self):
        for s in range(50):
            X = GAUSS.sample_paths((0.0, 1.0), 8, 300, rng_for(200 + s, 0))
            book = ecvq_design(X, lam=0.4, initial_size=16, rho_max=RHO, seed=s)
            hist = np.array(book.training_lagrangians)
            assert np.all(np.diff(hist) <= 1e-9)

    def test_huge_finite_rho_caps_lengths_at_62_bits(self):
        # 2 rho_max n / lambda overflows to inf, and the cap is 62 bits
        X = GAUSS.sample_paths((0.0, 1.0), 4, 64, rng_for(3, 1))
        book = ecvq_design(X, lam=0.5, initial_size=8, seed=3,
                           rho_max=1e308)
        assert book.kraft_sum() <= 1.0 + 1e-12

    def test_empty_training_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            ecvq_design(np.empty((0, 4)), lam=0.5, initial_size=4, rho_max=RHO, seed=0)

    def test_nonfinite_training_rejected(self):
        X = np.full((5, 3), np.nan)
        with pytest.raises(ValueError, match="non-finite"):
            ecvq_design(X, lam=0.5, initial_size=4, rho_max=RHO, seed=0)

    @pytest.mark.parametrize("lam,max_iter,rho,name", [
        pytest.param(0.5, 0, RHO, "max_iter", id="0.5-0-max_iter"),
        pytest.param(0.5, -3, RHO, "max_iter", id="0.5--3-max_iter"),
        pytest.param(float("nan"), 200, RHO, "lam", id="nan-200-lam"),
        pytest.param(-0.5, 200, RHO, "lam", id="-0.5-200-lam"),
        *(pytest.param(0.5, 200, rho, "rho_max", id=f"{rho}-rho_max")
          for rho in (-1.0, 0.0, float("nan"), float("inf")))])
    def test_bad_arguments_rejected_by_name(self, lam, max_iter, rho, name):
        # a NaN lambda fails no lam < 0 test; a bad rho_max is refused before
        # any Lloyd work
        X = GAUSS.sample_paths((0.0, 1.0), 4, 64, rng_for(31, 0))
        with pytest.raises(ValueError, match=f"^{name} must be"):
            ecvq_design(X, lam, 8, rho, 0, max_iter=max_iter)


class TestEncode:
    def _toy_book(self):
        return Codebook(n=1, codevectors=np.array([[0.0], [1.0]]),
                        lengths=np.array([1, 1]), lam=0.5, rho_max=RHO)

    def test_nearest(self):
        book = self._toy_book()
        idx, bits = ecvq_encode(book, np.array([0.2]))
        assert idx == 0 and len(bits) == 1

    def test_codevector_maps_to_itself_lambda_zero(self):
        X = GAUSS.sample_paths((0.0, 1.0), 3, 64, rng_for(7, 0))
        book = ecvq_design(X, lam=0.0, initial_size=8, rho_max=RHO, seed=7)
        for j in range(book.size):
            idx, _ = ecvq_encode(book, book.codevectors[j])
            cost_j = rho_n(RHO, book.codevectors[j], book.codevectors[idx])
            assert cost_j == pytest.approx(0.0) and idx <= j

    def test_matches_exhaustive_scan(self):
        X = GAUSS.sample_paths((0.0, 1.0), 5, 128, rng_for(8, 0))
        book = ecvq_design(X, lam=0.6, initial_size=16, rho_max=RHO, seed=8)
        probe = GAUSS.sample_paths((0.0, 1.0), 5, 50, rng_for(9, 0))
        for x in probe:
            idx, bits = ecvq_encode(book, x)
            costs = [rho_n(RHO, x, c) + 0.6 * L / 5
                     for c, L in zip(book.codevectors, book.lengths)]
            best = min(range(len(costs)), key=lambda j: (costs[j], j))
            assert idx == best
            assert bits == book.codes[idx]


class TestPairwiseDistortion:
    @pytest.mark.parametrize("base", ["absolute-difference", "euclidean"])
    def test_chunked_equals_unchunked(self, base):
        K, n = 16, 8
        step = ecvq._CHUNK_ELEMS // (K * n)
        T = 3 * step + 5     # three full chunks and a partial one
        shape = (n,) if base == "absolute-difference" else (n, 2)
        rng = rng_for(30, 0)
        X = rng.normal(size=(T,) + shape)
        C = rng.normal(size=(K,) + shape)
        diff = X[:, None, ...] - C[None, :, ...]
        d = np.abs(diff) if X.ndim == 2 else np.linalg.norm(diff, axis=-1)
        want = np.mean(np.minimum(d, RHO), axis=-1)
        assert np.array_equal(pairwise_distortion(X, C, RHO), want)

    @pytest.mark.parametrize("base", ["absolute-difference", "euclidean"])
    @pytest.mark.parametrize("n", [1, 4, 8, 16, 32])
    def test_column_subset_equals_full_columns(self, base, n):
        # the Lloyd loop refreshes only the columns of moved codevectors,
        # so a column must not depend on which others are computed with it
        K = 48
        T = 3 * (ecvq._CHUNK_ELEMS // (K * n)) + 5   # full K spans 4 chunks
        shape = (n,) if base == "absolute-difference" else (n, 2)
        rng = rng_for(33, n)
        X = rng.normal(size=(T,) + shape)
        C = rng.normal(size=(K,) + shape)
        full = pairwise_distortion(X, C, RHO)
        picks = [np.array([0]), np.array([K - 1]), np.arange(0, K, 7),
                 np.sort(rng.choice(K, size=K - 1, replace=False)),
                 rng.random(K) < 0.5]
        for cols in picks:
            assert np.array_equal(pairwise_distortion(X, C[cols], RHO),
                                  full[:, cols])


def _nearest_cases():
    """Seeded (X, C, ell, rho_max) inputs of the nearest-codeword decision.

    Most cases hold a near tie, built so that float32 and float64 sums often
    order two codevectors differently: the two a letter-wise float32 step
    apart, with the blocks around them; or the blocks, far from 0, all but
    half-way between them, where the casts of x part them.  Others hold exact
    ties (a repeated codevector; codevectors mirrored about all-zero blocks),
    one codevector, one block, letters beyond the float32 range or
    subnormal, and rho_max = 1e39.  n is 1 or 7..40 (numpy sums under 8
    terms in order and pairwise from 8 on); a quarter of the cases have
    vector letters."""
    rng = rng_for(61, 0)
    for case in range(500):
        kind = case % 5
        n = int(rng.choice([1, *range(7, 41)])) if kind != 2 or case % 3 else 1
        shape = (n, 2) if case % 4 == 3 else (n,)
        T = 1 if case % 10 == 0 else int(rng.integers(2, 160))
        K = 1 if case % 25 == 0 else int(rng.integers(2, 12))
        rho = float(rng.choice([0.3, 1.0, 3.0]))
        scale = 1e-41 if case % 20 == 7 else 1.0      # float32 subnormals
        C = rng.normal(scale=3.0 * scale, size=(K,) + shape)
        a, b = rng.choice(K, size=2, replace=K < 2)
        C[a] = rng.normal(scale=scale, size=shape)
        X = C[a] + rng.normal(scale=0.4 * rho * scale, size=(T,) + shape)
        if kind < 2:      # near tie: a hair apart
            C[b] = C[a] + rng.normal(scale=2.0 ** -23 * scale, size=shape)
        elif kind == 2:   # near tie: half-way, far from 0
            off = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(1, 4) * scale
            half = rng.uniform(0.05, 0.4) * rho * scale
            C[a], C[b] = off - half, off + half
            X = off * (1 + rng.uniform(-1, 1, (T,) + shape) * 2.0 ** -20)
        elif kind == 3:   # exact ties
            C[b] = C[a]
            if case % 2:
                X[:] = 0.0
                C[b] = -C[a]
        else:             # beyond float32: huge letters, rho or both
            big = rng.random((T,) + shape) < 0.2
            X[big] = rng.choice([1e39, -3.5e38], size=int(big.sum()))
            C[rng.random(K) < 0.3] = 1e39
            rho = float(rng.choice([rho, 1e39]))
        if scale < 1.0:
            rho *= scale
        lengths = rng.integers(0, 6, K)
        lengths[b] = lengths[a]
        lam = float(rng.choice([0.0, 0.05, 0.5]))
        yield X, C, lam * lengths / n, rho


class TestNearest:
    def test_screened_choice_is_exact_argmin_on_corpus(self):
        # every decision equals the dense float64 argmin and leaves the kept
        # screen as it was; the corpus must hold blocks on which the screen
        # alone picks another codevector, and exact ties
        flips = ties = 0
        for X, C, ell, rho in _nearest_cases():
            exact = pairwise_distortion(X, C, rho) + ell
            want = np.argmin(exact, axis=1)
            letters = ecvq._letters(X)
            D = ecvq._screen(letters, C, rho)
            kept = D.copy()
            assert np.array_equal(ecvq._choose(X, C, ell, rho, letters, D), want)
            assert D.tobytes() == kept.tobytes()
            with np.errstate(invalid="ignore"):
                cost = D + ell.astype(D.dtype)[:, None]
                unique = np.sum(cost == np.min(cost, axis=0), axis=0) == 1
            flips += np.sum(unique & (np.argmin(cost, axis=0) != want))
            ties += np.sum(np.sum(exact == np.min(exact, axis=1)[:, None],
                                  axis=1) > 1)
        assert flips >= 50 and ties >= 50

    @pytest.mark.parametrize("base", ["absolute-difference", "euclidean"])
    @pytest.mark.parametrize("n", [1, 5, 7, 8, 13, 32])
    @pytest.mark.parametrize("T", [3, 700])
    def test_distortions_are_pairwise_entries(self, base, n, T):
        shape = (n,) if base == "absolute-difference" else (n, 2)
        rng = rng_for(62, n)
        X = rng.normal(size=(T,) + shape)
        C = rng.normal(size=(24,) + shape)
        ell = 0.5 * rng.integers(0, 6, 24) / n
        letters = ecvq._letters(X)
        idx = ecvq._choose(X, C, ell, RHO, letters, ecvq._screen(letters, C, RHO))
        d = ecvq._rho_at(X, C[idx], RHO)
        full = pairwise_distortion(X, C, RHO)
        assert np.array_equal(idx, np.argmin(full + ell, axis=1))
        assert d.tobytes() == full[np.arange(T), idx].tobytes()


class TestLagrangianEval:
    def test_matches_encode_then_measure(self):
        # the encoder's choice (ecvq_encode, block by block, exact) measured
        # with pairwise_distortion, against the evaluator's screened choice,
        # on few blocks and on many
        X = GAUSS.sample_paths((0.0, 1.0), 4, 256, rng_for(31, 0))
        book = ecvq_design(X, lam=0.05, initial_size=16, rho_max=RHO, seed=31)
        assert book.size == 16
        for T in (5, 700):
            got = lagrangian_eval(book, GAUSS, (0.0, 1.0), T, seed=32)
            Y = GAUSS.sample_paths((0.0, 1.0), 4, T, rng_for(32, TAG_EVAL))
            idx = np.array([ecvq_encode(book, y)[0] for y in Y])
            d = pairwise_distortion(Y, book.codevectors, RHO)[np.arange(T), idx]
            r = np.asarray(book.lengths)[idx] / book.n
            want = LagrangianReport(
                np.mean(d), np.mean(r), 0.05,
                distortion_se=np.std(d, ddof=1) / np.sqrt(T),
                rate_se=np.std(r, ddof=1) / np.sqrt(T))
            assert got == want

    def test_report_identity(self):
        rep = LagrangianReport(distortion=0.1, rate=0.5, lam=0.3)
        assert rep.lagrangian == 0.1 + 0.3 * 0.5

    def test_single_codeword_rate_zero(self):
        book = Codebook(n=2, codevectors=np.array([[0.0, 0.0]]),
                        lengths=np.array([0]), lam=0.5, rho_max=RHO)
        rep = lagrangian_eval(book, GAUSS, (0.0, 1.0), 500, seed=10)
        assert rep.rate == 0.0 and rep.rate_se == 0.0
        assert rep.lagrangian == rep.distortion

    def test_mc_error_scaling(self):
        X = GAUSS.sample_paths((0.0, 1.0), 4, 256, rng_for(11, 0))
        book = ecvq_design(X, lam=0.5, initial_size=16, rho_max=RHO, seed=11)
        r1 = lagrangian_eval(book, GAUSS, (0.0, 1.0), 2000, seed=12)
        r2 = lagrangian_eval(book, GAUSS, (0.0, 1.0), 4000, seed=12)
        assert r2.distortion_se == pytest.approx(r1.distortion_se / np.sqrt(2),
                                                 rel=0.25)

    def test_lagrangian_mismatch_bound(self):
        # codebooks designed for nearby parameters: performance degrades by
        # at most 4 rho_max d_n plus statistical slack
        lam = 0.5
        n = 4
        theta = (0.0, 1.0)
        for shift in (0.1, 0.3, 0.6):
            theta_p = (shift, 1.0)
            Xa = GAUSS.sample_paths(theta, n, 512, rng_for(13, 0))
            Xb = GAUSS.sample_paths(theta_p, n, 512, rng_for(13, 1))
            book_a = ecvq_design(Xa, lam=lam, initial_size=16, rho_max=RHO, seed=13)
            book_b = ecvq_design(Xb, lam=lam, initial_size=16, rho_max=RHO, seed=14)
            rep_aa = lagrangian_eval(book_a, GAUSS, theta, 4000, seed=15)
            rep_ab = lagrangian_eval(book_b, GAUSS, theta, 4000, seed=15)
            d = variational_mc(GAUSS, theta, theta_p, n, 40_000, seed=16)
            ses = (rep_aa.distortion_se + lam * rep_aa.rate_se
                   + rep_ab.distortion_se + lam * rep_ab.rate_se
                   + 4 * RHO * d.standard_error)
            assert rep_ab.lagrangian <= (rep_aa.lagrangian
                                         + 4 * RHO * d.value + 3 * ses)


class TestSerialization:
    def test_round_trip(self):
        """codebook_bytes holds its documented layout, read back here field
        by field: header, lambda, rho_max, float64 codevectors, u16 lengths."""
        X = GAUSS.sample_paths((0.0, 1.0), 4, 128, rng_for(17, 0))
        book = ecvq_design(X, lam=0.5, initial_size=16, rho_max=RHO, seed=17)
        blob = codebook_bytes(book)
        head = struct.unpack_from("<4sBIIIdd", blob, 0)
        assert head == (b"ECVQ", 1, book.n, book.size, 1, book.lam, book.rho_max)
        K, off = book.size, struct.calcsize("<4sBIIIdd")
        C = np.frombuffer(blob, "<f8", K * book.n, off).reshape(K, book.n)
        lengths = np.frombuffer(blob, "<u2", K, off + 8 * C.size)
        assert len(blob) == off + 8 * C.size + 2 * K
        assert np.array_equal(C, book.codevectors)
        assert np.array_equal(lengths, book.lengths)
        back = Codebook(n=book.n, codevectors=C, lengths=lengths,
                        lam=book.lam, rho_max=book.rho_max)
        assert back.codes == book.codes

    def test_canonical_code_is_pinned(self):
        def code(lengths):
            return [str(c) for c in ecvq.canonical_code(lengths)]
        assert code([1, 2, 3, 3]) == ["0", "10", "110", "111"]
        assert code([3, 1, 3, 2]) == ["110", "0", "111", "10"]
        assert code([2, 2, 3]) == ["00", "01", "100"]
        assert code([0]) == [""]
        with pytest.raises(ValueError, match="Kraft"):
            code([1, 1, 1])

    def test_every_codeword_decodes_to_its_index(self):
        books = [ecvq_design(GAUSS.sample_paths((0.0, 1.0), 6, 256,
                                                rng_for(100 + s, 0)),
                             lam=lam, initial_size=32, rho_max=RHO, seed=s)
                 for s, lam in ((0, 0.2), (1, 0.5), (2, 1.0))]
        books.append(Codebook(n=2, codevectors=np.array([[0.0, 0.0]]),
                              lengths=np.array([0]), lam=0.5, rho_max=RHO))
        for book in books:
            for j, bits in enumerate(book.codes):
                reader = BitReader(bits)
                assert ecvq_decode_index(book, reader) == j
                assert reader.cursor == len(bits)
            assert book.decode_table is book.decode_table   # built once


def distinct_cases():
    """Training sets for the distinct-block step: tie-free first letters
    (the one-column sort), and first-letter ties, duplicate rows and
    -0.0 beside 0.0 (np.unique itself); scalar, one-letter and vector
    letters, negative and rounded values."""
    rng = rng_for(2031, 0)
    for shape in ((1, 1), (2, 3), (64, 1), (64, 5), (300, 8), (40, 4, 2), (50, 1, 3)):
        X = rng.normal(scale=3.0, size=shape)
        yield X, True
        yield np.round(X, 1), None             # ties or not, as rounding falls
        if shape[0] > 1:
            dup = X.copy()
            dup[1:shape[0] // 2 + 1] = X[0]    # duplicate rows
            yield dup, False
            tied = X.copy()                     # first-letter ties, rows distinct
            tied.reshape(len(X), -1)[1::2, 0] = tied.flat[0]
            yield tied, False
            signed = X.copy()                   # equal as floats, not as bytes
            signed.reshape(len(X), -1)[:2, 0] = (0.0, -0.0)
            yield signed, False
            yield -X, True


def test_distinct_blocks_as_np_unique():
    paths = set()
    for X, fast in distinct_cases():
        want = np.unique(X.reshape(len(X), -1), axis=0).reshape((-1,) + X.shape[1:])
        got = ecvq._distinct(X)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), X.shape
        first = np.sort(X.reshape(len(X), -1)[:, 0])
        tie_free = bool(np.all(first[1:] != first[:-1]))
        assert fast is None or tie_free is fast
        paths.add(tie_free)
    assert paths == {True, False}


# SHA-256 of the corpus below as designed by a per-cell centroid loop with
# two distortion matrices per Lloyd iteration; the design must not move it.
CORPUS_SHA256 = "9c61702bf7b8239e2e9a72cf62dab464f4e316376cce6ac00bdc346bdd9d23c0"


def test_design_corpus_bytes_unchanged():
    assert _corpus_digest() == CORPUS_SHA256


def _corpus_designs():
    """Seeded designs covering every branch of the Lloyd loop: clipped
    (median) and unclipped (mean) scalar cells, vector letters, one-letter
    blocks, restarts, and the post-loop trim to the length cap."""
    for s in range(50):
        X = GAUSS.sample_paths((0.0, 1.0), 6, 256, rng_for(100 + s, 0))
        for lam in (0.2, 0.5, 1.0):
            yield ecvq_design(X, lam=lam, initial_size=32, rho_max=RHO, seed=s)
    for s in range(4):
        X = GAUSS.sample_paths((0.0, 1.0), 4, 200, rng_for(400 + s, 0))
        yield ecvq_design(X, lam=0.3, initial_size=16, rho_max=8.0, seed=s,
                          restarts=2)
    for s in range(3):
        X = GAUSS.sample_paths((0.5, 2.0), 1, 300, rng_for(500 + s, 0))
        yield ecvq_design(X, lam=0.1, initial_size=16, rho_max=RHO, seed=s)
    for s in range(3):
        X = GAUSS.sample_paths((0.0, 1.0), 2, 300, rng_for(600 + s, 0))
        yield ecvq_design(X, lam=1.0, initial_size=64, rho_max=RHO, seed=s,
                          max_iter=1)
    hmm = HiddenMarkov(M=2, a0=0.05,
                       emission_means=[[1.0, 0.0], [-1.0, 0.5]],
                       emission_stds=[[1.0, 0.5], [0.7, 1.0]])
    for s in range(4):
        X = hmm.sample_paths((0.8, 0.2, 0.3, 0.7), 4, 200, rng_for(700 + s, 0))
        yield ecvq_design(X, lam=0.3, initial_size=16, rho_max=RHO, seed=s,
                          restarts=2)


def _corpus_digest() -> str:
    h = hashlib.sha256()
    for book in _corpus_designs():
        h.update(codebook_bytes(book))
        h.update(repr(book.training_lagrangians).encode())
    return h.hexdigest()


# Designs on which a dirty-cell rule that only tracks membership changes
# (and ignores codevectors moved in the previous centroid step) goes wrong:
# a moved centroid can flip its cell between median and mean with the same
# members.  Each tuple is (data and design seed, block length, lambda) on
# GaussianIID (0, 1), 256 blocks, initial_size 64, rho_max 1; digests of
# codebook_bytes + repr(training_lagrangians) as designed by full recomputation.
DIRTY_RULE_DESIGNS = [
    (30, 4, 0.05, "cd5ea1b0542d3e1f614dee2d34849ecdce7d61c6dc01bc4a955a1b28d006b89c"),
    (49, 4, 0.02, "9c8521b37ff5b6b33bddb44dfecde71961c54c3e7546a0b41b19801db73514e1"),
    (50, 4, 0.02, "282b77eaad3a84f9d4850da56cef4b32226dbb697a4fc0a3f70e0dfcbc7152c8"),
]


@pytest.mark.parametrize("seed,n,lam,sha", DIRTY_RULE_DESIGNS,
                         ids=[f"seed{d[0]}" for d in DIRTY_RULE_DESIGNS])
def test_design_revisits_cells_whose_codevector_moved(seed, n, lam, sha):
    X = GAUSS.sample_paths((0.0, 1.0), n, 256, rng_for(9000 + seed, n))
    book = ecvq_design(X, lam=lam, initial_size=64, rho_max=RHO, seed=seed)
    h = hashlib.sha256(codebook_bytes(book))
    h.update(repr(book.training_lagrangians).encode())
    assert h.hexdigest() == sha


# A design whose Lloyd run reaches an exact fixed point at its 9th iteration
# (no block changes codeword, after a centroid step that moved nothing):
# GaussianIID (0, 1), n = 8, 256 blocks, lambda 0.05, initial_size 16,
# rho_max 1, seed 0.  Each case is (keyword arguments, centroid steps run,
# training Lagrangians, SHA-256 of codebook_bytes + repr(training_lagrangians)
# as designed by a loop that ran every iteration in full).  With a positive
# tolerance the fixed-point iteration appends the repeated J without a
# centroid step; with tolerance 0 every iteration runs up to max_iter.
FIXED_POINT_DESIGNS = [
    ({}, 8, 9,
     "86d954564f79b1d02a6d2f9b38d1bb512af7e7651f6d0861cf3ee10658d218ce"),
    ({"tolerance": 0.0, "max_iter": 14}, 14, 14,
     "c98678f2f859e1800d59e90f0ccbd3360bc43a1ee947436d0d64b65ff8a0edfc"),
    ({"max_iter": 9}, 8, 9,
     "86d954564f79b1d02a6d2f9b38d1bb512af7e7651f6d0861cf3ee10658d218ce"),
]


@pytest.mark.parametrize("kwargs,steps,iters,sha", FIXED_POINT_DESIGNS,
                         ids=["tol1e-6", "tol0", "max_iter9"])
def test_fixed_point_exit_keeps_the_design(monkeypatch, kwargs, steps, iters, sha):
    calls = []
    step = ecvq._centroid_step
    monkeypatch.setattr(ecvq, "_centroid_step",
                        lambda *a: calls.append(1) or step(*a))
    X = GAUSS.sample_paths((0.0, 1.0), 8, 256, rng_for(8800, 8))
    book = ecvq_design(X, lam=0.05, initial_size=16, rho_max=RHO, seed=0,
                       **kwargs)
    h = hashlib.sha256(codebook_bytes(book))
    h.update(repr(book.training_lagrangians).encode())
    assert h.hexdigest() == sha
    assert (len(calls), len(book.training_lagrangians)) == (steps, iters)
    assert book.training_lagrangians[8] == book.training_lagrangians[7]


def _reference_centroid_step(X, C, assign, rho, dirty):
    """The centroid step before the width-class sort: every dirty cell, one
    size at a time, through np.mean's and np.median's own reductions."""
    def letter_dist(diff):
        return np.abs(diff) if X.ndim == 2 else np.linalg.norm(diff, axis=-1)

    K = C.shape[0]
    sizes = np.bincount(assign, minlength=K)
    mine = np.flatnonzero(dirty[assign])
    rows = mine[np.argsort(assign[mine], kind="stable")]
    Xs, cell_of = X[rows], assign[rows]
    d_old = letter_dist(Xs - C[cell_of])
    clipped = np.zeros(K, dtype=bool)
    if X.ndim == 2:
        clipped[cell_of[np.any(d_old >= rho, axis=1)]] = True
    cost_old = np.minimum(d_old, rho)
    span = np.where(dirty, sizes, 0)
    starts = np.cumsum(span) - span
    moved = np.zeros(K, dtype=bool)
    for size in np.unique(sizes[dirty]):
        cells = np.flatnonzero(dirty & (sizes == size))
        at = starts[cells, None] + np.arange(size)
        G = Xs[at]
        cand = np.add.reduce(G, axis=1) / size
        med = clipped[cells]
        if med.any():
            lo, hi = (size - 1) // 2, size // 2
            part = np.partition(G[med], (lo, hi), axis=1)
            cand[med] = np.add.reduce(part[:, lo:hi + 1], axis=1) / (hi - lo + 1)
        new = np.minimum(letter_dist(G - cand[:, None]), rho)
        m = new[0].size
        keep = (np.add.reduce(new.reshape(len(cells), m), axis=1) / m
                <= np.add.reduce(cost_old[at].reshape(len(cells), m), axis=1) / m)
        differs = cand.view(np.uint64) != C[cells].view(np.uint64)
        moved[cells] = keep & differs.reshape(len(cells), -1).any(axis=1)
        C[cells[keep]] = cand[keep]
    return moved


def _step_case(rng, kind):
    """Seeded inputs of one centroid step: every cell holds a row, most are
    dirty, and codevectors sit on rows, on medians or off the data, so that
    many keep tests compare equal real costs."""
    n = 1 if kind == "n1" else int(rng.integers(2, 6))
    T = int(rng.integers(8, 160))
    K = T // 2 + 1 if kind == "single-rows" else int(rng.integers(2, 20))
    raw = rng.integers(0, K, T)
    if kind == "one-big-cell":
        raw[rng.random(T) < 0.8] = 0
    _, assign = np.unique(raw, return_inverse=True)
    K = int(assign.max()) + 1
    shape = (T, n, 2) if kind == "euclidean" else (T, n)
    X = rng.normal(scale=float(rng.choice([0.3, 1.0, 3.0])), size=shape)
    if kind == "grid":
        X = np.round(X * 10) / 10
        X[rng.random(shape) < 0.3] = 0.0
        X = np.where(rng.random(shape) < 0.5, X, -X)   # zeros of both signs
    C = np.stack([X[rng.choice(np.flatnonzero(assign == j))] for j in range(K)])
    pick = rng.random(K)
    for j in np.flatnonzero(pick < 0.4):
        C[j] = np.median(X[assign == j], axis=0)
    C[pick > 0.9] += rng.normal(size=C[pick > 0.9].shape)
    if kind == "grid":
        C[rng.random(C.shape) < 0.1] = -0.0
    rho = float(rng.choice([0.2, 0.5, 1.0, 4.0]))
    return X, C, assign, rho, rng.random(K) < 0.85


STEP_KINDS = ["grid", "one-big-cell", "single-rows", "n1", "euclidean"]


@pytest.mark.parametrize("kind", STEP_KINDS)
def test_centroid_step_matches_per_size_reference(kind):
    rng = rng_for(77, STEP_KINDS.index(kind))
    for _ in range(400):
        X, C, assign, rho, dirty = _step_case(rng, kind)
        C_ref = C.copy()
        moved_ref = _reference_centroid_step(X, C_ref, assign, rho, dirty.copy())
        moved = ecvq._centroid_step(X, C, assign,
                                    np.bincount(assign, minlength=C.shape[0]),
                                    rho, dirty.copy())
        assert np.array_equal(moved, moved_ref)
        assert C.tobytes() == C_ref.tobytes()
