"""Every test starts from empty process-global caches, so no test depends on
what another one left behind, and each passes alone or in any order.  The
oracles that more than one test module compares against live here too."""

import itertools
import math

import numpy as np
import pytest

from twostage import mde, scheme


@pytest.fixture(autouse=True)
def _empty_caches():
    scheme.clear_codebook_cache()
    mde.clear_probability_cache()


@pytest.fixture
def hmm_brute_force():
    """log p(x) of a hidden-Markov block as a direct sum over every state
    sequence: the oracle for the forward recursion."""
    def log_density(hmm, theta, x) -> float:
        A = hmm.transition_matrix(theta)
        pi = hmm.stationary_dist(theta)
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
