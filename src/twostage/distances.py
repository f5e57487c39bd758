"""The variational distance d_n between block marginals, estimated by
Monte Carlo for any family and block length."""

from __future__ import annotations

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
    log space.
    """
    if n < 1 or num_samples < 1:
        raise ValueError("n and num_samples must be >= 1")
    t = family.validate(theta)
    tp = family.validate(theta_prime)
    if np.array_equal(t, tp):
        return DistanceEstimate(0.0, 0.0)
    rng = rng_for(seed, TAG_DISTANCE)
    x = family.sample_paths(t, n, num_samples, rng)
    log_ratio = family.log_density_batch(tp, x) - family.log_density_batch(t, x)
    stat = 2.0 * np.maximum(0.0, -np.expm1(np.minimum(log_ratio, 0.0)))
    value = float(np.mean(stat))
    se = float(np.std(stat, ddof=1) / np.sqrt(num_samples)) if num_samples > 1 else 0.0
    return DistanceEstimate(value=min(value, 2.0), standard_error=se)
