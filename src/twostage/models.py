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


def leaves_typed(value, types) -> bool:
    """Whether each leaf of a JSON value (itself unless a list; a ragged
    list's rows count as leaves) has one of ``types`` exactly: true is no int."""
    return all(type(x) in types for x in np.ravel(np.array(value, dtype=object)))


class SourceFamily:
    """Interface shared by the three concrete families."""

    tag: str
    size: int                    # k: theta has k coordinates
    fields: dict = {}            # constructor arguments = config fields: JSON leaf types
    letter_dim: int = 1          # d; letters live in R^d
    draws_by_row: bool = False   # sample_paths calls on one rng continue one draw

    @property
    def key(self) -> tuple:
        """(tag, d, each field's value, arrays as flat tuples): all that sets
        samples and densities.  Families compare and hash by it, so equal
        families built apart share cache entries, and differing ones none."""
        values = (getattr(self, f) for f in self.fields)
        return (self.tag, self.letter_dim,
                *(tuple(v.ravel()) if isinstance(v, np.ndarray) else v for v in values))

    def __eq__(self, other):
        return isinstance(other, SourceFamily) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def validate(self, theta) -> np.ndarray:
        """theta as a 1-D float array of ``size`` finite coordinates inside
        the family's region, else InvalidParameterError: the family's
        ``_region_error(t, coords)`` says why the finite t (also as the list
        ``coords``) lies outside its region, or returns None."""
        t = np.atleast_1d(np.asarray(theta, dtype=float))
        if t.ndim != 1:
            raise InvalidParameterError("parameter vector must be 1-D")
        if t.shape[0] != self.size:
            raise InvalidParameterError(f"{self.tag} needs {self.size} coords, got {len(t)}")
        coords = t.tolist()
        if not all(map(math.isfinite, coords)):
            raise InvalidParameterError("non-finite parameter")
        if why := self._region_error(t, coords):
            raise InvalidParameterError(why)
        return t

    def sample_paths(self, theta, n: int, count: int,
                     rng: np.random.Generator) -> np.ndarray:
        """Stationary paths, shape (count, n) or (count, n, d)."""
        raise NotImplementedError

    def log_density_batch(self, theta, blocks: np.ndarray) -> np.ndarray:
        """log p_theta^n(x^n) for each row of ``blocks``."""
        raise NotImplementedError

    def vc_bound(self, n: int) -> float:
        """VC-dimension bound of the n-block Yatracos class (base-2 logs)."""
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
        the family does not read, or a value that is no int or float (a
        bool included), raises ValueError naming it."""
        prior = prior or {}
        unknown = sorted(str(k) for k in prior if k not in defaults)
        if unknown:
            raise ValueError("prior has unknown key(s): " + ", ".join(unknown))
        wrong = sorted(k for k, v in prior.items() if type(v) not in (int, float))
        if wrong:
            raise ValueError("prior value(s) must be numbers: " + ", ".join(wrong))
        return [prior.get(k, v) for k, v in defaults.items()]


class GaussianIID(SourceFamily):
    """All Gaussian i.i.d. processes, theta = (mean, std), std > 0."""

    tag = "gaussian-iid"
    size = 2
    draws_by_row = True          # the normals fill row by row

    def _region_error(self, t, coords):
        return f"sigma must be > 0, got {coords[1]}" if coords[1] <= 0 else None

    def sample_paths(self, theta, n, count, rng):
        m, s = self.validate(theta)
        x = rng.standard_normal((count, n))
        x *= s
        x += m
        return x

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

    def vc_bound(self, n):
        """12 log2(12e), whatever n."""
        return float(12.0 * np.log2(12.0 * np.e))

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
    fields = {"p": (int,)}

    def __init__(self, p: int):
        if not (np.ndim(p) == 0 and p >= 1):
            raise ValueError("AR order p must be >= 1")
        self.p = self.size = p

    def _region_error(self, t, coords):
        # roots of A(z) = 1 + a_1 z + ... + a_p z^p, highest power first
        roots = np.roots(np.concatenate((t[::-1], [1.0])))
        if roots.size and np.min(np.abs(roots)) <= 1.0:
            return (f"AR polynomial has a root inside the unit circle "
                    f"(min |root| = {np.min(np.abs(roots)):.6f})")

    def _head_cholesky(self, a: np.ndarray, q: int) -> np.ndarray:
        """Lower Cholesky factor of the covariance of the first q letters, from
        the Yule-Walker covariance G = F G F' + E of p consecutive letters, F
        the companion matrix of ``a``, which must be validated."""
        from scipy.linalg import cholesky, solve_discrete_lyapunov
        F = np.eye(self.p, k=-1)
        F[0] = -a
        E = np.zeros((self.p, self.p))
        E[0, 0] = 1.0
        G = solve_discrete_lyapunov(F, E)
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

    def vc_bound(self, n):
        """(4p + 4) log2(8e), whatever n."""
        return float((4.0 * self.p + 4.0) * np.log2(8.0 * np.e))

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
    fields = {"M": (int,), "a0": (int, float),
              "emission_means": (int, float), "emission_stds": (int, float)}

    def __init__(self, M: int, a0: float, emission_means, emission_stds):
        if not (np.ndim(M) == 0 and M >= 1):
            raise ValueError("M must be >= 1")
        if not (np.ndim(a0) == 0 and 0 <= a0 < 1.0 / M):
            raise ValueError("need 0 <= a0 < 1/M for a nonempty parameter set")
        self.M, self.size = M, M * M
        self.a0 = float(a0)
        means = np.asarray(emission_means, dtype=float)
        stds = np.asarray(emission_stds, dtype=float)
        if means.ndim == 1:
            means = means[:, None]
        if stds.ndim == 1:
            stds = stds[:, None]
        if means.ndim != 2 or means.shape[0] != M or stds.shape != means.shape:
            raise ValueError("emission arrays must have shape (M,) or (M, d)")
        if not (np.all(np.isfinite(means)) and np.all(np.isfinite(stds) & (stds > 0))):
            raise ValueError("emission means must be finite, stds finite and positive")
        self.emission_means = means
        self.emission_stds = stds
        self.letter_dim = means.shape[1]

    def _region_error(self, t, coords):
        A = t.reshape(self.M, self.M)
        if np.any(A <= self.a0 - 1e-12):
            return f"all transition probabilities must exceed a0={self.a0}"
        rowsums = A.sum(axis=1)
        if np.any(np.abs(rowsums - 1.0) > 1e-8):
            return f"transition rows must sum to 1, got {rowsums}"

    def chain(self, theta) -> tuple[np.ndarray, np.ndarray]:
        """(A, pi): the validated transition matrix and its stationary
        distribution."""
        A = self.validate(theta).reshape(self.M, self.M)
        w, v = np.linalg.eig(A.T)
        i = int(np.argmin(np.abs(w - 1.0)))
        pi = np.real(v[:, i])
        pi = np.abs(pi)
        return A, pi / pi.sum()

    def _emission_logpdf(self, x: np.ndarray) -> np.ndarray:
        """x shape (count, d) -> per-state log densities, shape (count, M)."""
        z = (x[:, None, :] - self.emission_means) / self.emission_stds
        return (-0.5 * np.sum(z * z, axis=2)
                - np.sum(np.log(self.emission_stds), axis=1)[None, :]
                - 0.5 * self.letter_dim * LOG_2PI)

    def sample_paths(self, theta, n, count, rng):
        A, pi = self.chain(theta)
        cum_pi = np.cumsum(pi)
        cum_A = np.cumsum(A, axis=1)
        states = np.empty((count, n), dtype=np.int64)
        u = rng.random((count, n))
        states[:, 0] = np.searchsorted(cum_pi, u[:, 0])
        for t in range(1, n):
            rows = cum_A[states[:, t - 1]]
            states[:, t] = (u[:, t][:, None] > rows).sum(axis=1)
        noise = rng.standard_normal((count, n, self.letter_dim))
        x = self.emission_means[states] + self.emission_stds[states] * noise
        if self.letter_dim == 1:
            return x[:, :, 0]
        return x

    def log_density_batch(self, theta, blocks):
        from scipy.special import logsumexp
        A, pi = self.chain(theta)
        x = np.asarray(blocks, dtype=float)
        if self.letter_dim == 1 and x.ndim == 2:
            x = x[:, :, None]
        logA = np.log(A)
        alpha = np.log(pi)[None, :] + self._emission_logpdf(x[:, 0, :])
        for t in range(1, x.shape[1]):
            trans = logsumexp(alpha[:, :, None] + logA[None, :, :], axis=1)
            alpha = trans + self._emission_logpdf(x[:, t, :])
        return logsumexp(alpha, axis=1)

    def vc_bound(self, n):
        """4 M^2 log2(4en): it grows with n."""
        return float(4.0 * self.M * self.M * np.log2(4.0 * np.e * n))

    def prior_draw(self, rng, prior=None):
        (conc,) = self._prior_values(prior, concentration=1.0)
        for _ in range(10_000):      # as for GaussianAR
            A = rng.dirichlet(np.full(self.M, conc), size=self.M)
            if np.all(A > self.a0):
                return A.reshape(-1)
        raise ValueError("no transition matrix above a0 in 10,000 prior draws")


def make_family(spec: dict) -> SourceFamily:
    """Build a family from a config mapping of its tag and its fields (see
    harness docs); a missing or unread field, or a field with a leaf that
    is not of the field's JSON types, is an error."""
    kind = spec.get("kind")
    cls = next((c for c in (GaussianIID, GaussianAR, HiddenMarkov) if c.tag == kind), None)
    if cls is None:
        raise ValueError(f"unknown family kind: {kind!r}")
    unknown = sorted(set(spec) - {"kind", *cls.fields})
    if unknown:
        raise ValueError(f"unknown {kind} field(s): " + ", ".join(unknown))
    missing = [f for f in cls.fields if f not in spec]
    if missing:
        raise ValueError(f"{kind} family needs field(s): " + ", ".join(missing))
    wrong = [f for f, types in cls.fields.items() if not leaves_typed(spec[f], types)]
    if wrong:
        raise ValueError(f"{kind} field(s) of the wrong JSON type: " + ", ".join(wrong))
    return cls(*(spec[f] for f in cls.fields))
