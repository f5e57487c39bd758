"""The variational distance d_n between block marginals, estimated by
Monte Carlo for any family and block length.

``variational_mc`` gives the estimate and its standard error.  ``exceeds``
gives only the decision estimate > tol, which is all the waiting-time search
needs: it draws rows block by block and stops at the first prefix that
proves the mean above tol, with the same answer as the full estimate."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .models import SourceFamily
from .rand import TAG_DISTANCE, rng_for


@dataclass(frozen=True)
class DistanceEstimate:
    value: float
    standard_error: float

    def __post_init__(self):
        if not -1e-9 <= self.value <= 2.0 + 1e-9:
            raise ValueError(f"variational distance must lie in [0, 2], got {self.value}")
        if self.standard_error < 0:
            raise ValueError("standard error must be >= 0")


def variational_mc(family: SourceFamily, theta, theta_prime, n: int,
                   num_samples: int, seed: int) -> DistanceEstimate:
    """Monte-Carlo estimate of d_n(theta, theta') under P_theta.

    Uses the one-sided identity d_n = 2 E_theta[(1 - p_theta'/p_theta)_+],
    which is dimension-free and unbiased; the likelihood ratio is formed in
    log space.  The statistic is built in place, and its mean and standard
    error take np.mean's and np.std(ddof=1)'s own steps, bit for bit.
    """
    if n < 1 or num_samples < 1:
        raise ValueError("n and num_samples must be >= 1")
    if np.array_equal(theta, theta_prime):
        family.validate(theta)
        return DistanceEstimate(0.0, 0.0)
    x = family.sample_paths(theta, n, num_samples, rng_for(seed, TAG_DISTANCE))
    return _estimate(_statistic(family, theta, theta_prime, x))


def exceeds(family: SourceFamily, theta, theta_prime, n: int,
            num_samples: int, seed: int, tol: float) -> bool:
    """``not variational_mc(...).value <= tol`` (so a NaN tol is exceeded),
    drawing only the rows it needs: a ``draws_by_row`` family's rows are drawn
    and scored in blocks of 50, 50, 100, 200, ... rows, and a prefix whose sum
    proves the mean above tol ends the draw; any other family's are drawn at
    once.  Raises where ``variational_mc`` raises, unless a prefix decides
    before the rows whose statistic is NaN."""
    if n < 1 or num_samples < 1:
        raise ValueError("n and num_samples must be >= 1")
    if np.array_equal(theta, theta_prime):
        family.validate(theta)
        return not 0.0 <= tol
    N = num_samples
    # The stop bar, u = 2^-53.  Every term lies in [0, 2] (or is NaN, which
    # fails every comparison).  A computed sum of k non-negative terms, in
    # any order, lies within gamma_(k-1) = (k-1) u / (1 - (k-1) u) of the
    # real sum, relative.  A prefix of m <= N - 1 terms thus sums to at most
    # (1 + g) times the real full sum S, and np.add.reduce(stat) is at least
    # (1 - g) S, with g = gamma_(N-1): the full sum is at least
    # P (1 - g) / (1 + g) = P (1 - 2 (N-1) u).  The bar is N tol (1 + 4 N u)
    # after three roundings, and the mean is the full sum over N after one
    # more; as (1 + 4 N u)(1 - 2 (N-1) u)(1 - u)^4 > 1 for N >= 2, a prefix
    # sum P above the bar makes the mean exceed tol >= 0 (a negative tol is
    # exceeded by any P >= 0, and by the mean).  Conversely
    # P <= 2 (N-1)(1 + g) < 2 N, so for tol >= 2, where min(mean, 2.0) <= tol,
    # the bar is never passed.
    bar = N * tol * (1.0 + 4.0 * N * 2.0 ** -53)
    stat = np.empty(N)
    rng = rng_for(seed, TAG_DISTANCE)
    done, prefix = 0, 0.0
    while done < N:
        rows = min(max(done, 50), N - done) if family.draws_by_row else N
        x = family.sample_paths(theta, n, rows, rng)
        chunk = _statistic(family, theta, theta_prime, x, out=stat[done:done + rows])
        done += rows
        if done < N:
            prefix += np.add.reduce(chunk)
            if prefix > bar:
                return True
    return not _estimate(stat).value <= tol


def _statistic(family: SourceFamily, theta, theta_prime, x,
               out=None) -> np.ndarray:
    """2 max(0, -expm1(min(log p_theta'(x) - log p_theta(x), 0))) per row,
    in place in ``out`` (a new array when None)."""
    stat = np.subtract(family.log_density_batch(theta_prime, x),
                       family.log_density_batch(theta, x), out=out)
    np.minimum(stat, 0.0, out=stat)
    np.expm1(stat, out=stat)
    np.negative(stat, out=stat)
    np.maximum(0.0, stat, out=stat)
    stat *= 2.0
    return stat


def _estimate(stat: np.ndarray) -> DistanceEstimate:
    """Mean and standard error of the statistic, np.mean's and
    np.std(ddof=1)'s steps; overwrites ``stat``."""
    N = len(stat)
    mean = np.add.reduce(stat) / N
    se = 0.0
    if N > 1:
        stat -= mean
        stat *= stat
        se = math.sqrt(np.add.reduce(stat) / (N - 1)) / math.sqrt(N)
    return DistanceEstimate(value=min(float(mean), 2.0), standard_error=se)
