"""The variational distance d_n between block marginals, estimated by
Monte Carlo for any family and block length."""

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
    # 2 max(0, -expm1(min(log p_theta' - log p_theta, 0)))
    stat = family.log_density_batch(theta_prime, x)
    stat -= family.log_density_batch(theta, x)
    np.minimum(stat, 0.0, out=stat)
    np.expm1(stat, out=stat)
    np.negative(stat, out=stat)
    np.maximum(0.0, stat, out=stat)
    stat *= 2.0
    mean = np.add.reduce(stat) / num_samples
    se = 0.0
    if num_samples > 1:
        stat -= mean
        stat *= stat
        se = math.sqrt(np.add.reduce(stat) / (num_samples - 1)) / math.sqrt(num_samples)
    return DistanceEstimate(value=min(float(mean), 2.0), standard_error=se)
