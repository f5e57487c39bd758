"""Variational-distance and divergence oracles.

Two routes to the variational distance d_n between block marginals:

* an exact 1-d route (adaptive quadrature of |p - q|, Gaussian i.i.d. only;
  it loads SciPy on its first call),
* a Monte-Carlo route valid for any family and block length, based on
  d_n = 2 * E_P[(1 - q/p)_+] with the ratio evaluated in log space.

Plus the closed-form normalized KL for Gaussian i.i.d. pairs and an
empirical check of the sqrt(n)-normalized smoothness of the Gaussian i.i.d.
parametrization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .models import GaussianIID, SourceFamily, as_theta
from .rand import TAG_DISTANCE, rng_for


class UnsupportedFamilyError(ValueError):
    """The exact 1-d route only covers Gaussian i.i.d. marginals."""


@dataclass(frozen=True)
class DistanceEstimate:
    value: float
    standard_error: float

    def __post_init__(self):
        if not -1e-9 <= self.value <= 2.0 + 1e-9:
            raise ValueError(f"variational distance must lie in [0, 2], got {self.value}")
        if self.standard_error < 0:
            raise ValueError("standard error must be >= 0")


def variational_exact_1d(family: SourceFamily, theta, theta_prime) -> DistanceEstimate:
    """d(P_theta, P_theta') for one letter by adaptive integration of |p - q|."""
    from scipy.integrate import quad
    if not isinstance(family, GaussianIID):
        raise UnsupportedFamilyError(
            f"exact 1-d integration supports gaussian-iid only, got {family.tag}")
    m1, s1 = family.validate(theta)
    m2, s2 = family.validate(theta_prime)

    def absdiff(x):
        p = np.exp(-0.5 * ((x - m1) / s1) ** 2) / (s1 * np.sqrt(2 * np.pi))
        q = np.exp(-0.5 * ((x - m2) / s2) ** 2) / (s2 * np.sqrt(2 * np.pi))
        return abs(p - q)

    # split at the means and at the exact density crossings (roots of the
    # quadratic log p - log q) so the quadrature sees every kink
    knots = {m1, m2}
    a = 0.5 * (1 / s1 ** 2 - 1 / s2 ** 2)
    b = m2 / s2 ** 2 - m1 / s1 ** 2
    c = 0.5 * (m1 ** 2 / s1 ** 2 - m2 ** 2 / s2 ** 2) - np.log(s2 / s1)
    if abs(a) < 1e-300:
        if abs(b) > 0:
            knots.add(-c / b)
    else:
        disc = b * b - 4 * a * c
        if disc >= 0:
            knots.add((-b + np.sqrt(disc)) / (2 * a))
            knots.add((-b - np.sqrt(disc)) / (2 * a))
    knots = sorted(knots)
    edges = [-np.inf] + knots + [np.inf]
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        val, _ = quad(absdiff, lo, hi, epsabs=1e-10, epsrel=1e-10, limit=400)
        total += val
    return DistanceEstimate(value=min(total, 2.0), standard_error=0.0)


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


def kl_gaussian_iid(theta, theta_prime, n: int = 1) -> float:
    """Normalized relative entropy between Gaussian i.i.d. block marginals;
    independent of n (it equals the one-letter divergence)."""
    m1, s1 = as_theta(theta)
    m2, s2 = as_theta(theta_prime)
    if s1 <= 0 or s2 <= 0:
        raise ValueError("sigma must be > 0")
    if n < 1:
        raise ValueError("n must be >= 1")
    return float(np.log(s2 / s1) + (s1 ** 2 + (m1 - m2) ** 2) / (2 * s2 ** 2) - 0.5)


@dataclass(frozen=True)
class SmoothnessRow:
    n: int
    theta_prime: tuple
    param_gap: float
    dn_over_sqrt_n: float
    rhs: float
    standard_error: float
    passed: bool


def gaussian_smoothness_constant(theta, delta: float) -> float:
    """Lipschitz constant 3/(sigma - delta) valid on the delta-ball."""
    _, s = as_theta(theta)
    if not 0 < delta < s:
        raise ValueError("need 0 < delta < sigma")
    return 3.0 / (s - delta)


def smoothness_check(family: SourceFamily, theta, delta_grid, n_grid,
                     seed: int, num_samples: int = 20000) -> list[SmoothnessRow]:
    """Empirically verify d_n / sqrt(n) <= c * ||theta - theta'|| + 3 SE on a
    grid of perturbed parameters, with the Gaussian i.i.d. closed-form
    constant c = 3/(sigma - delta)."""
    if not isinstance(family, GaussianIID):
        raise UnsupportedFamilyError(
            f"the smoothness constant covers gaussian-iid only, got {family.tag}")
    t = family.validate(theta)
    deltas = [float(d) for d in delta_grid]
    if not deltas or not len(n_grid):
        raise ValueError("grids must be non-empty")
    c_theta = gaussian_smoothness_constant(t, min(max(deltas), 0.9 * t[1]))
    rows = []
    directions = np.eye(family.k)
    for j, d in enumerate(deltas):
        for axis in range(family.k):
            tp = t + d * directions[axis]
            try:
                family.validate(tp)
            except Exception:
                continue
            gap = float(np.linalg.norm(tp - t))
            for i, n in enumerate(n_grid):
                est = variational_mc(family, t, tp, int(n), num_samples,
                                     seed + 1000 * j + 10 * axis + i)
                lhs = est.value / np.sqrt(n)
                se = est.standard_error / np.sqrt(n)
                rhs = c_theta * gap
                rows.append(SmoothnessRow(
                    n=int(n), theta_prime=tuple(tp), param_gap=gap,
                    dn_over_sqrt_n=lhs, rhs=rhs, standard_error=se,
                    passed=bool(lhs <= rhs + 3 * se)))
    return rows
