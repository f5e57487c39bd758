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

import dataclasses
import functools
import math
import numbers
import sys
from typing import NamedTuple

import numpy as np

LOG_2PI = float(np.log(2.0 * np.pi))


class InvalidParameterError(ValueError):
    """Parameter vector lies outside the family's valid region."""


class ConfigError(ValueError):
    """Config values of the wrong JSON type or outside their domain."""


JSON_TYPES = {   # NumPy's numbers count; a bool, or an int beyond the float range, is no number
    "integer": lambda v: type(v) is int or isinstance(v, np.integer),
    "number": lambda v: type(v) is float or (isinstance(v, numbers.Real) and not isinstance(
        v, bool) and not (isinstance(v, int) and abs(v) > sys.float_info.max)),
    "boolean": lambda v: isinstance(v, bool), "string": lambda v: isinstance(v, str),
    "object": lambda v: isinstance(v, dict)}


class Need(NamedTuple):
    """A config field's declaration: its leaves' JSON type, ``depth`` lists
    deep (None: at any depth), whether it may be null, its default (none if
    it is required) and its domain, as ``words`` ("{}" stands for its name)
    and as the test ``ok`` of a well-typed value, which fails NaN."""

    kind: str
    words: str
    ok: object = lambda v: True
    depth: int | None = 0
    null: bool = False
    default: object = dataclasses.MISSING   # none: the field is required

    def holds(self, v) -> bool:   # a ragged list's rows are leaves, and fail
        if v is None:
            return self.null
        if self.depth == 0:
            return JSON_TYPES[self.kind](v) and self.ok(v)
        a = np.array(v, dtype=object)
        return ((self.depth in (None, a.ndim) or a.size == 0 and a.ndim < self.depth)
                and all(map(JSON_TYPES[self.kind], a.flat)) and self.ok(v))

    def field(self, default=dataclasses.MISSING) -> dataclasses.Field:
        """A dataclass field declared by this Need, with its default."""
        fresh = {"default_factory": dict} if default == {} else {"default": default}
        return dataclasses.field(**fresh, metadata={"need": self._replace(default=default)})


# the domains that several fields share
INTEGER = Need("integer", "integer {}")
COUNT = Need("integer", "integer {} >= 1", lambda v: v >= 1)
NATURAL = Need("integer", "integer {} >= 0", lambda v: v >= 0)
POSITIVE = Need("number", "{} > 0", lambda v: v > 0)
NONNEGATIVE = Need("number", "{} >= 0", lambda v: v >= 0)
FINITE = Need("number", "finite {}", lambda v: abs(v) < math.inf)
FINITE_POSITIVE = Need("number", "finite {} > 0", lambda v: 0 < v < math.inf)
POINTS = Need("number", "{} a list of lists of numbers", depth=2)


@functools.cache
def declarations(cls) -> dict:
    """A dataclass's field declarations, by name."""
    return {f.name: f.metadata["need"] for f in dataclasses.fields(cls)}


def check(*parts) -> list[dict]:
    """Check each (path, mapping, needs, rules) part: ``needs`` maps keys to
    Needs, ``rules`` maps tuples of keys to (words, test), tried once those
    keys hold.  One ConfigError names every unknown key and every failing or
    missing field by its path; else each mapping comes back with its defaults."""
    fails, out = [], []
    for path, value, needs, rules in parts:
        at = path and path + "."
        out.append(full := {k: d.default for k, d in needs.items()} | value)
        if unknown := sorted(map(str, value.keys() - needs.keys())):
            fails.append(f"{path or 'config'}: unknown key(s): " + ", ".join(unknown))
        # a missing required field holds no JSON type, so it fails too
        bad = [k for k, d in needs.items() if not d.holds(full[k])]
        fails += [f"{at}{k}: need {needs[k].words.format(k)}" for k in bad]
        fails += [f"{', '.join(at + k for k in keys)}: need {words}"
                  for keys, (words, test) in rules.items()
                  if not {*keys} & {*bad} and not test(*map(full.get, keys))]
    if fails:
        raise ConfigError("; ".join(fails))
    return out


@dataclasses.dataclass(frozen=True)
class SampleBlock:
    """A length-n sample path segment (letters are scalars or R^d points)."""

    values: np.ndarray
    n: int

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        if v.shape[0] != self.n:
            raise ValueError(f"block claims n={self.n} but holds {v.shape[0]}")


class SourceFamily:
    """Interface shared by the three concrete families."""

    tag: str
    size: int                    # k: theta has k coordinates
    fields: dict = {}            # constructor arguments = config fields: their Needs
    prior_rules: dict = {}       # rules across prior keys, as ``check`` reads them
    letter_dim: int = 1          # d; letters live in R^d
    draws_by_row: bool = False   # sample_paths calls on one rng continue one draw

    def __init__(self, *args, **values):    # each field, by position or by name, checked
        given = dict(zip(self.fields, args))
        if len(args) > len(self.fields) or given.keys() & values.keys():
            raise TypeError(f"{type(self).__name__}() takes its fields {(*self.fields,)} once")
        values |= given
        check(("", values, self.fields, {}))
        vars(self).update(values)

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


class GaussianIID(SourceFamily):
    """All Gaussian i.i.d. processes, theta = (mean, std), std > 0."""

    tag = "gaussian-iid"
    size = 2
    draws_by_row = True          # the normals fill row by row
    # NumPy's normal draws lie within 13.8 scales of their mean (the ziggurat's tail takes
    # the log of a 53-bit uniform): 40 scales of room keep sigma = exp(draw) finite and > 0
    prior_keys = {
        **dict.fromkeys(("m_loc", "log_sigma_loc"), FINITE._replace(default=0.0)),
        "m_scale": Need("number", "finite {} >= 0", lambda v: 0 <= v < math.inf, default=10.0),
        "log_sigma_scale": NONNEGATIVE._replace(default=1.0)}
    prior_rules = {("log_sigma_loc", "log_sigma_scale"): (
        "|log_sigma_loc| + 40 log_sigma_scale < 709.78",
        lambda loc, scale: 40 * scale < math.log(sys.float_info.max) - abs(loc))}

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
        (p,) = check(("prior", prior or {}, self.prior_keys, self.prior_rules))
        m = rng.normal(p["m_loc"], p["m_scale"])
        s = float(np.exp(rng.normal(p["log_sigma_loc"], p["log_sigma_scale"])))
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
    fields = {"p": COUNT}
    size = property(lambda self: self.p)
    prior_keys = {"low": FINITE._replace(default=-1.5), "high": FINITE._replace(default=1.5)}
    prior_rules = {("low", "high"): ("low < high, high - low finite",
                                     lambda low, high: 0 < high - low < math.inf)}

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
        (p,) = check(("prior", prior or {}, self.prior_keys, self.prior_rules))
        for _ in range(10_000):      # a prior with no stable mass fails
            cand = rng.uniform(p["low"], p["high"], size=self.p)
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
    fields = {"M": COUNT, "a0": NONNEGATIVE, **dict.fromkeys(
        ("emission_means", "emission_stds"), Need("number", "{} numbers", depth=None))}
    prior_keys = {"concentration": FINITE_POSITIVE._replace(default=1.0)}

    def __init__(self, M: int, a0: float, emission_means, emission_stds):
        super().__init__(M, a0, emission_means, emission_stds)
        if not a0 < 1.0 / M:
            raise ValueError("need 0 <= a0 < 1/M for a nonempty parameter set")
        self.size, self.a0 = M * M, float(a0)
        means, stds = (np.asarray(a, dtype=float) for a in (emission_means, emission_stds))
        means, stds = (a[:, None] if a.ndim == 1 else a for a in (means, stds))
        if means.ndim != 2 or means.shape[0] != M or stds.shape != means.shape:
            raise ValueError("emission arrays must have shape (M,) or (M, d)")
        if not (np.all(np.isfinite(means)) and np.all(np.isfinite(stds) & (stds > 0))):
            raise ValueError("emission means must be finite, stds finite and positive")
        self.emission_means, self.emission_stds, self.letter_dim = means, stds, means.shape[1]

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
        (p,) = check(("prior", prior or {}, self.prior_keys, self.prior_rules))
        for _ in range(10_000):      # as for GaussianAR
            A = rng.dirichlet(np.full(self.M, p["concentration"]), size=self.M)
            if np.all(A > self.a0):
                return A.reshape(-1)
        raise ValueError("no transition matrix above a0 in 10,000 prior draws")


FAMILIES = {c.tag: c for c in (GaussianIID, GaussianAR, HiddenMarkov)}
KIND = Need("string", "kind " + ", ".join(FAMILIES), FAMILIES.__contains__)


def family_spec(spec) -> tuple[type | None, dict]:
    """The class that a spec's kind names (or None), and the spec's declarations."""
    cls = FAMILIES.get(str(spec.get("kind"))) if isinstance(spec, dict) else None
    return cls, {"kind": KIND, **getattr(cls, "fields", {})}


def make_family(spec: dict) -> SourceFamily:
    """Build a family from a config mapping of its kind and its fields."""
    cls, needs = family_spec(spec)
    check(("family", spec, needs, {}))
    return cls(**{f: spec[f] for f in cls.fields})
