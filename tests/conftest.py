"""Every test starts from empty process-global caches, so no test depends on
what another one left behind, and each passes alone or in any order.  The
oracles and byte helpers that the test modules compare against live here
too."""

import itertools
import math
import struct

import numpy as np
import pytest

from twostage import mde, scheme
from twostage.bitcode import BitString


def bitstring(bits) -> BitString:
    """The BitString of a sequence of 0/1 digits, ints or characters: how
    the tests cut stream prefixes and build fuzz streams."""
    s = "".join(map(str, bits))
    return BitString(int(s or "0", 2), len(s))


def exceeds_blocks(N: int) -> list:
    """The row counts of ``distances.exceeds``' draws of N rows from a
    ``draws_by_row`` family: 50, 50, 100, 200, ..., the last cut at N."""
    cuts = [c for c in (50, 100, 200, 400, 800) if c < N]
    return np.diff([0, *cuts, N]).tolist()


def rho_n(rho_max: float, x, xhat) -> float:
    """The distortion of one block against one codevector, letter by letter:
    the per-letter average of min(base distance, rho_max), where the base
    metric is |x - c| on R and the Euclidean norm on R^d; the reference the
    ECVQ tests compare against."""
    a = np.asarray(x, dtype=float)
    b = np.asarray(xhat, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"length mismatch: {a.shape} vs {b.shape}")
    d = np.abs(a - b) if a.ndim == 1 else np.linalg.norm(a - b, axis=-1)
    return float(np.mean(np.minimum(d, rho_max)))


def codebook_bytes(book) -> bytes:
    """A codebook's fields as bytes, for hashing and comparing books: the
    header (b"ECVQ", version 1, n, size, letter dimension), lambda, rho_max,
    the float64 codevectors and the u16 lengths, all little-endian."""
    C = np.asarray(book.codevectors, dtype="<f8")
    d = 1 if C.ndim == 2 else C.shape[2]
    head = struct.pack("<4sBIIIdd", b"ECVQ", 1, book.n, book.size, d,
                       book.lam, book.rho_max)
    return head + C.tobytes() + np.asarray(book.lengths, dtype="<u2").tobytes()


@pytest.fixture(autouse=True)
def _empty_caches():
    scheme.clear_codebook_cache()
    mde.clear_probability_cache()


@pytest.fixture
def hmm_brute_force():
    """log p(x) of a hidden-Markov block as a direct sum over every state
    sequence: the oracle for the forward recursion."""
    def log_density(hmm, theta, x) -> float:
        A, pi = hmm.chain(theta)
        xs = np.asarray(x, dtype=float).reshape(-1, hmm.letter_dim)
        emis = np.exp(hmm._emission_logpdf(xs))
        total = 0.0
        for states in itertools.product(range(hmm.M), repeat=xs.shape[0]):
            p = pi[states[0]] * emis[0, states[0]]
            for t in range(1, xs.shape[0]):
                p *= A[states[t - 1], states[t]] * emis[t, states[t]]
            total += p
        return math.log(total)
    return log_density


@pytest.fixture
def vc_deviation_bound():
    """The uniform-deviation tail bound min(1, 8 n^V exp(-n eps^2 / 32)) of
    a VC class of dimension V on n blocks: where it is below 1, the
    empirical set frequencies lie within eps of the model's."""
    def bound(n: int, V: float, epsilon: float) -> float:
        if n < 1:
            raise ValueError("n must be >= 1")
        if V < 2:
            raise ValueError("the VC tail bound requires V >= 2")
        if epsilon <= 0:
            raise ValueError("epsilon must be > 0")
        log_bound = np.log(8.0) + V * np.log(n) - n * epsilon ** 2 / 32.0
        return float(min(1.0, np.exp(min(log_bound, 0.0))))
    return bound
