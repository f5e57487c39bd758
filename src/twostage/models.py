"""Parametric stationary source families: sampling, exact block log-densities
and database priors.

Three families are provided:

* ``GaussianIID``   -- theta = (m, sigma), i.i.d. normal letters.
* ``GaussianAR``    -- theta = (a_1, ..., a_p), X_t = -sum a_i X_{t-i} + Y_t
                       with unit-variance Gaussian innovations; paths start
                       exactly stationary (Yule-Walker covariance, no burn-in).
* ``HiddenMarkov``  -- theta = row-major transition matrix of an M-state
                       chain with known Gaussian emission densities; chains
                       start from the stationary distribution.

Densities are with respect to Lebesgue measure and are evaluated in log
space throughout (the HMM via the forward recursion), so underflow cannot
occur.  The AR and HMM methods import SciPy where they call it, so the
Gaussian i.i.d. path never loads it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

LOG_2PI = float(np.log(2.0 * np.pi))


class InvalidParameterError(ValueError):
    """Parameter vector lies outside the family's valid region."""


@dataclass(frozen=True)
class SampleBlock:
    """A length-n sample path segment (letters are scalars or R^d points)."""

    values: np.ndarray
    n: int

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        if v.shape[0] != self.n:
            raise ValueError(f"block claims n={self.n} but holds {v.shape[0]}")


def as_theta(theta) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(theta, dtype=float))
    if arr.ndim != 1:
        raise InvalidParameterError("parameter vector must be 1-D")
    return arr


class SourceFamily:
    """Interface shared by the three concrete families."""

    tag: str
    letter_dim: int = 1          # d; letters live in R^d

    @property
    def key(self) -> tuple:
        """Hashable spec of everything that sets samples and densities.
        Families compare and hash by it, so the caches share entries between
        equal families built apart, and none between families that differ."""
        return (self.tag, self.letter_dim)

    def __eq__(self, other):
        return isinstance(other, SourceFamily) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def validate(self, theta) -> np.ndarray:
        raise NotImplementedError

    def sample_paths(self, theta, n: int, count: int,
                     rng: np.random.Generator) -> np.ndarray:
        """Stationary paths, shape (count, n) or (count, n, d)."""
        raise NotImplementedError

    def sample_chunks(self, theta, n: int, count: int,
                      rng: np.random.Generator):
        """Consecutive row blocks of ``sample_paths(theta, n, count, rng)``,
        which they join into bit for bit, each drawn when asked for.  Here
        one block: a family whose draw is not row by row keeps it whole."""
        yield self.sample_paths(theta, n, count, rng)

    def log_density_batch(self, theta, blocks: np.ndarray) -> np.ndarray:
        """log p_theta^n(x^n) for each row of ``blocks``."""
        raise NotImplementedError

    def log_density_bounds(self, thetas, blocks: np.ndarray):
        """(values, bound): values[a, j] lies within bound[j] of
        ``log_density_batch(thetas[a], blocks)[j]``, shape (C, B) and (B,).
        Here the values are exactly that stack, with bound 0."""
        vals = np.stack([self.log_density_batch(np.asarray(t), blocks)
                         for t in thetas])
        return vals, np.zeros(vals.shape[1])

    def prior_draw(self, rng: np.random.Generator, prior: dict | None = None) -> np.ndarray:
        """One draw from the database prior W (positive continuous density)."""
        raise NotImplementedError

    @staticmethod
    def _prior_values(prior: dict | None, **defaults) -> list:
        """The prior's value for each key, or else its default; a key that
        the family does not read raises ValueError naming it."""
        prior = prior or {}
        unknown = sorted(str(k) for k in prior if k not in defaults)
        if unknown:
            raise ValueError("prior has unknown key(s): " + ", ".join(unknown))
        return [prior.get(k, v) for k, v in defaults.items()]


class GaussianIID(SourceFamily):
    """All Gaussian i.i.d. processes, theta = (mean, std), std > 0."""

    tag = "gaussian-iid"

    def validate(self, theta) -> np.ndarray:
        t = as_theta(theta)
        if t.shape[0] != 2:
            raise InvalidParameterError(
                f"gaussian-iid needs (m, sigma), got {t.shape[0]} coords")
        m, s = t.tolist()
        if not (math.isfinite(m) and math.isfinite(s)):
            raise InvalidParameterError("non-finite parameter")
        if s <= 0:
            raise InvalidParameterError(f"sigma must be > 0, got {s}")
        return t

    def sample_paths(self, theta, n, count, rng):
        m, s = self.validate(theta)
        x = rng.standard_normal((count, n))
        x *= s
        x += m
        return x

    def sample_chunks(self, theta, n, count, rng):
        """Blocks of 50, 50, 100, 200, ... rows: the normals fill row by row,
        so consecutive draws continue one draw's stream."""
        done = 0
        while done < count:
            rows = min(max(done, 50), count - done)
            yield self.sample_paths(theta, n, rows, rng)
            done += rows

    def log_density_batch(self, theta, blocks):
        m, s = self.validate(theta)
        x = np.atleast_2d(np.asarray(blocks, dtype=float))
        z = x - m
        z /= s
        z *= z
        return -0.5 * np.add.reduce(z, axis=1) - x.shape[1] * (0.5 * LOG_2PI + np.log(s))

    def log_density_bounds(self, thetas, blocks):
        """All candidates at once from the block sums S1 = sum x,
        S2 = sum x^2 and A1 = sum |x|, against the cached coefficients of
        ``gaussian_bound_coefficients``."""
        x = np.atleast_2d(np.asarray(blocks, dtype=float))
        B, n = x.shape
        coef = gaussian_bound_coefficients(tuple(map(tuple, thetas)), n)
        ones = np.ones(n)
        out = coef @ np.stack(((x * x) @ ones, x @ ones, np.abs(x) @ ones, np.ones(B)))
        # Error bound, u = 2^-53, v the real value -Q - K of candidate a with
        # Q = sum (x_i - m)^2 / (2 s^2) and M = (S2 + 2|m| A1 + n m^2) / s^2,
        # so that Q <= M / 2:
        # * log_density_batch: each ((x_i - m) / s)^2 is within 5u of its real
        #   value, the nonnegative sum adds (n-1)u (any summation order does
        #   no worse), the final subtraction rounds once: within
        #   (n+5)u M/2 + u|K| of v.
        # * here: S1 is within (n-1)u A1 of its real value and S2 within
        #   n u S2 (any order, so BLAS may sum); the coefficients carry a
        #   few u of their own terms; the 4-term product rounds at most 3
        #   times: within (n/2+5)u M + 4u|K| of v.
        # Together under (n+10)u (M + |K|), which the scale row bounds for
        # every candidate; the factor 8 covers second-order terms, the rounded
        # sums, coefficients and products inside the scale and the rounding
        # of this bound.  Flooring the scale at the smallest normal
        # float covers the absolute errors of underflowing products (under
        # 3n+10 of them, each at most 2^-1075).  Overflow gives inf or NaN,
        # which no ordering test passes.
        scale = np.maximum(out[-1], np.finfo(float).tiny)
        return out[:-1], 8.0 * (n + 10) * 2.0 ** -53 * scale

    def prior_draw(self, rng, prior=None):
        m_loc, m_scale, loc, scale = self._prior_values(
            prior, m_loc=0.0, m_scale=10.0, log_sigma_loc=0.0, log_sigma_scale=1.0)
        # NumPy's normal draws lie within 13.8 scales of their mean (the
        # ziggurat's tail takes the log of a 53-bit uniform); with 40 scales
        # of room, sigma = exp(draw) neither overflows nor underflows to 0
        if not (math.isfinite(m_loc) and 0 <= m_scale < math.inf and scale >= 0
                and abs(loc) + 40.0 * scale < math.log(np.finfo(float).max)):
            raise ValueError("gaussian-iid prior needs finite m_loc, finite "
                             "m_scale >= 0, log_sigma_scale >= 0 and "
                             "|log_sigma_loc| + 40 log_sigma_scale < 709.78")
        m = rng.normal(m_loc, m_scale)
        s = float(np.exp(rng.normal(loc, scale)))
        return np.array([m, s])


# one entry per (candidate tuple, block length): a run needs one per length
@functools.lru_cache(maxsize=16)
def gaussian_bound_coefficients(thetas: tuple, n: int) -> np.ndarray:
    """Read-only (C + 1, 4) coefficients of ``GaussianIID.log_density_bounds``
    on the rows [S2, S1, A1, 1]: row a < C gives candidate a's value
    -0.5 S2 / s^2 + (m / s^2) S1 + (-0.5 n m^2 / s^2 - K), K the float
    ``log_density_batch`` subtracts; row C, the bound's scale, the largest
    coefficient of each term of (S2 + 2|m| A1 + n m^2) / s^2 + |K|."""
    for t in thetas:
        GaussianIID().validate(t)
    ms = np.array(thetas, dtype=float)
    m, s2 = ms[:, 0], ms[:, 1] * ms[:, 1]
    K = np.array([n * (0.5 * LOG_2PI + np.log(s)) for s in ms[:, 1]])
    nm2 = n * m * m / s2
    coef = np.zeros((len(ms) + 1, 4))
    coef[:-1, 0], coef[:-1, 1], coef[:-1, 3] = -0.5 / s2, m / s2, -0.5 * nm2 - K
    coef[-1] = np.max(1.0 / s2), 0.0, np.max(2.0 * np.abs(m) / s2), np.max(nm2 + np.abs(K))
    coef.flags.writeable = False
    return coef


class GaussianAR(SourceFamily):
    """Gaussian AR(p): X_t = -sum_{i=1..p} a_i X_{t-i} + Y_t, Y_t ~ N(0,1).

    Valid theta = (a_1,...,a_p) are those with all roots of
    1 + a_1 z + ... + a_p z^p outside the unit circle (exponential mixing).
    """

    tag = "gaussian-ar"

    def __init__(self, p: int):
        if p < 1:
            raise ValueError("AR order p must be >= 1")
        self.p = p

    @property
    def key(self) -> tuple:
        return (self.tag, self.letter_dim, self.p)

    def validate(self, theta) -> np.ndarray:
        t = as_theta(theta)
        if t.shape[0] != self.p:
            raise InvalidParameterError(
                f"AR({self.p}) needs {self.p} coefficients, got {t.shape[0]}")
        if not np.all(np.isfinite(t)):
            raise InvalidParameterError("non-finite parameter")
        # roots of A(z) = 1 + a_1 z + ... + a_p z^p, highest power first
        roots = np.roots(np.concatenate((t[::-1], [1.0])))
        if roots.size and np.min(np.abs(roots)) <= 1.0:
            raise InvalidParameterError(
                f"AR polynomial has a root inside the unit circle "
                f"(min |root| = {np.min(np.abs(roots)):.6f})")
        return t

    def _companion(self, a: np.ndarray) -> np.ndarray:
        p = self.p
        F = np.zeros((p, p))
        F[0, :] = -a
        if p > 1:
            F[1:, :-1] = np.eye(p - 1)
        return F

    def _head_cholesky(self, a: np.ndarray, q: int) -> np.ndarray:
        """Lower Cholesky factor of the covariance of the first q letters,
        from the Yule-Walker covariance G of p consecutive letters; ``a``
        must be validated."""
        from scipy.linalg import cholesky, solve_discrete_lyapunov
        E = np.zeros((self.p, self.p))
        E[0, 0] = 1.0
        G = solve_discrete_lyapunov(self._companion(a), E)
        return cholesky((0.5 * (G + G.T))[:q, :q], lower=True)

    def sample_paths(self, theta, n, count, rng):
        a = self.validate(theta)
        p = self.p
        x = np.empty((count, n))
        q = min(p, n)
        L = self._head_cholesky(a, q)
        # L orders the state (X_t,...,X_{t-p+1}); reverse to time order
        init = rng.standard_normal((count, q)) @ L.T
        x[:, :q] = init[:, ::-1]
        if n > p:
            noise = rng.standard_normal((count, n - p))
            for t in range(p, n):
                acc = noise[:, t - p].copy()
                for i in range(1, p + 1):
                    acc -= a[i - 1] * x[:, t - i]
                x[:, t] = acc
        return x

    def log_density_batch(self, theta, blocks):
        a = self.validate(theta)
        x = np.atleast_2d(np.asarray(blocks, dtype=float))
        count, n = x.shape
        p = self.p
        q = min(p, n)
        L = self._head_cholesky(a, q)
        head = x[:, :q][:, ::-1]  # match the state ordering of L
        z = np.linalg.solve(L, head.T).T
        logdet = 2.0 * np.sum(np.log(np.diag(L)))
        out = -0.5 * np.sum(z * z, axis=1) - 0.5 * (q * LOG_2PI + logdet)
        if n > p:
            resid = x[:, p:].copy()
            for i in range(1, p + 1):
                resid += a[i - 1] * x[:, p - i:n - i]
            out += -0.5 * np.sum(resid * resid, axis=1) - 0.5 * (n - p) * LOG_2PI
        return out

    def prior_draw(self, rng, prior=None):
        lo, hi = self._prior_values(prior, low=-1.5, high=1.5)
        for _ in range(10_000):      # a prior with no stable mass fails
            cand = rng.uniform(lo, hi, size=self.p)
            try:
                return self.validate(cand)
            except InvalidParameterError:
                continue
        raise ValueError("no stable AR parameter in 10,000 prior draws")


class HiddenMarkov(SourceFamily):
    """M-state stationary Markov chain observed through a known memoryless
    Gaussian channel; theta is the row-major transition matrix with all
    entries > a0 and unit row sums."""

    tag = "hmm"

    def __init__(self, M: int, a0: float, emission_means, emission_stds):
        if M < 1:
            raise ValueError("M must be >= 1")
        if not 0 <= a0 < 1.0 / M:
            raise ValueError("need 0 <= a0 < 1/M for a nonempty parameter set")
        self.M = M
        self.a0 = float(a0)
        means = np.asarray(emission_means, dtype=float)
        stds = np.asarray(emission_stds, dtype=float)
        if means.ndim == 1:
            means = means[:, None]
        if stds.ndim == 1:
            stds = stds[:, None]
        if means.shape[0] != M or stds.shape != means.shape:
            raise ValueError("emission arrays must have shape (M,) or (M, d)")
        if np.any(stds <= 0):
            raise ValueError("emission stds must be positive")
        self.means = means
        self.stds = stds
        self.letter_dim = means.shape[1]

    @property
    def key(self) -> tuple:
        return (self.tag, self.letter_dim, self.M, self.a0,
                tuple(self.means.ravel()), tuple(self.stds.ravel()))

    def validate(self, theta) -> np.ndarray:
        t = as_theta(theta)
        if t.shape[0] != self.M * self.M:
            raise InvalidParameterError(
                f"hmm needs {self.M * self.M} transition entries, got {t.shape[0]}")
        A = t.reshape(self.M, self.M)
        if not np.all(np.isfinite(A)):
            raise InvalidParameterError("non-finite parameter")
        if np.any(A <= self.a0 - 1e-12):
            raise InvalidParameterError(
                f"all transition probabilities must exceed a0={self.a0}")
        rowsums = A.sum(axis=1)
        if np.any(np.abs(rowsums - 1.0) > 1e-8):
            raise InvalidParameterError(
                f"transition rows must sum to 1, got {rowsums}")
        return t

    def transition_matrix(self, theta) -> np.ndarray:
        return self.validate(theta).reshape(self.M, self.M)

    def stationary_dist(self, theta) -> np.ndarray:
        A = self.transition_matrix(theta)
        w, v = np.linalg.eig(A.T)
        i = int(np.argmin(np.abs(w - 1.0)))
        pi = np.real(v[:, i])
        pi = np.abs(pi)
        return pi / pi.sum()

    def _emission_logpdf(self, x: np.ndarray) -> np.ndarray:
        """x shape (count, d) -> per-state log densities, shape (count, M)."""
        z = (x[:, None, :] - self.means[None, :, :]) / self.stds[None, :, :]
        return (-0.5 * np.sum(z * z, axis=2)
                - np.sum(np.log(self.stds), axis=1)[None, :]
                - 0.5 * self.letter_dim * LOG_2PI)

    def sample_paths(self, theta, n, count, rng):
        A = self.transition_matrix(theta)
        pi = self.stationary_dist(theta)
        cum_pi = np.cumsum(pi)
        cum_A = np.cumsum(A, axis=1)
        states = np.empty((count, n), dtype=np.int64)
        u = rng.random((count, n))
        states[:, 0] = np.searchsorted(cum_pi, u[:, 0])
        for t in range(1, n):
            rows = cum_A[states[:, t - 1]]
            states[:, t] = (u[:, t][:, None] > rows).sum(axis=1)
        noise = rng.standard_normal((count, n, self.letter_dim))
        x = self.means[states] + self.stds[states] * noise
        if self.letter_dim == 1:
            return x[:, :, 0]
        return x

    def log_density_batch(self, theta, blocks):
        from scipy.special import logsumexp
        A = self.transition_matrix(theta)
        pi = self.stationary_dist(theta)
        x = np.asarray(blocks, dtype=float)
        if self.letter_dim == 1 and x.ndim == 2:
            x = x[:, :, None]
        elif x.ndim == 2:
            x = x[None, :, :]
        count, n = x.shape[0], x.shape[1]
        logA = np.log(A)
        alpha = np.log(pi)[None, :] + self._emission_logpdf(x[:, 0, :])
        for t in range(1, n):
            trans = logsumexp(alpha[:, :, None] + logA[None, :, :], axis=1)
            alpha = trans + self._emission_logpdf(x[:, t, :])
        return logsumexp(alpha, axis=1).reshape(count)

    def prior_draw(self, rng, prior=None):
        (conc,) = self._prior_values(prior, concentration=1.0)
        for _ in range(10_000):      # as for GaussianAR
            A = rng.dirichlet(np.full(self.M, conc), size=self.M)
            if np.all(A > self.a0):
                return A.reshape(-1)
        raise ValueError("no transition matrix above a0 in 10,000 prior draws")


# the fields of each family kind's config mapping, beside "kind"
FAMILY_FIELDS = {
    "gaussian-iid": (),
    "gaussian-ar": ("p",),
    "hmm": ("M", "a0", "emission_means", "emission_stds"),
}


def make_family(spec: dict) -> SourceFamily:
    """Build a family from a plain config mapping (see harness docs); a key
    that the kind does not read, or a p or M that is no integer, is an
    error."""
    kind = spec.get("kind")
    if kind not in FAMILY_FIELDS:
        raise ValueError(f"unknown family kind: {kind!r}")
    unknown = sorted(set(spec) - {"kind", *FAMILY_FIELDS[kind]})
    if unknown:
        raise ValueError(f"unknown {kind} field(s): " + ", ".join(unknown))
    for name in ("p", "M"):
        if name in spec and type(spec[name]) is not int:   # nor a bool
            raise ValueError(f"family field {name} must be an integer")
    if kind == "gaussian-iid":
        return GaussianIID()
    if kind == "gaussian-ar":
        return GaussianAR(p=spec["p"])
    return HiddenMarkov(M=spec["M"], a0=float(spec["a0"]),
                        emission_means=spec["emission_means"],
                        emission_stds=spec["emission_stds"])
