"""The two-stage universal code: memory blocking, random parameter database,
waiting-time search, and first/second-stage encoding and decoding.

Encoder and decoder share nothing but the configuration: the database is a
counter-based pseudorandom sequence keyed by (seed, index), and second-stage
codebooks are trained from seeds derived from (code seed, waiting time), so
both ends build identical codebooks without transmitting them.

Wire format per block, bit exact:
    [1 bit flag b][if b=0: Elias-gamma(T)][one second-stage codeword]
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .bitcode import BitReader, BitString, TruncatedStreamError, elias_encode
# bench/spans.py wraps variational_mc under this module's name too
from .distances import exceeds, variational_mc  # noqa: F401
from .ecvq import Codebook, ecvq_design, ecvq_decode_index, ecvq_encode
from .mde import CandidateSet, mde_estimate, vc_bound
from .models import SampleBlock, SourceFamily
from .rand import TAG_DATABASE, TAG_DISTANCE, TAG_MDE, TAG_SAMPLE, TAG_TRAINING, rng_for
from .rand import derive_seed


class MalformedStreamError(ValueError):
    """Stream does not parse as a whole encoded block."""


@dataclass(frozen=True)
class SchemeConfig:
    """Everything both ends need; nothing else may influence the bitstream."""

    n: int
    lam: float
    eta: float = 1.0
    r: float = math.inf             # mixing exponent; inf for i.i.d.
    delta_mode: str = "practical"   # "practical" | "paper"
    c_delta: float = 1.0
    database_seed: int = 0
    code_seed: int = 0
    i_max: int = 10_000
    n_candidates: int = 64
    anchors: tuple = ()             # extra MDE candidates, tuples of coords
    prior: dict | None = None       # family prior overrides for the database
    rho_max: float = 1.0
    distance_mc: int = 400          # samples per waiting-time distance probe
    mde_mc: int = 2000              # samples per model-side set probability
    train_blocks: int = 256         # codebook training budget
    design_restarts: int = 1
    max_initial_size: int = 256     # initial book size: min(this, 2^n)
    l_cap: int | None = None        # desk-scale clamp on the gap length

    def __post_init__(self):
        def whole(v):   # a non-integer, or a bool, becomes NaN
            return v if type(v) is int or isinstance(v, np.integer) else math.nan
        checks = {   # written so that NaN fails every check
            "integer n >= 1": whole(self.n) >= 1, "lambda > 0": self.lam > 0,
            "integer i_max >= 1": whole(self.i_max) >= 1, "eta > 0": self.eta > 0,
            "r > 0": self.r > 0, "c_delta >= 0": self.c_delta >= 0,
            "integer n_candidates >= 0": whole(self.n_candidates) >= 0,
            "at least one MDE candidate (n_candidates or anchors)":
                self.n_candidates + len(self.anchors) >= 1,
            "finite rho_max > 0": 0 < self.rho_max < math.inf,
            "integer distance_mc >= 1": whole(self.distance_mc) >= 1,
            "integer mde_mc >= 1": whole(self.mde_mc) >= 1,
            "integer train_blocks >= 1": whole(self.train_blocks) >= 1,
            "integer design_restarts >= 1": whole(self.design_restarts) >= 1,
            "integer max_initial_size >= 1": whole(self.max_initial_size) >= 1,
            "integer l_cap >= 0": self.l_cap is None or whole(self.l_cap) >= 0,
        }
        failed = [name for name, ok in checks.items() if not ok]
        if failed:
            raise ValueError("need " + ", ".join(failed))
        if self.delta_mode not in ("practical", "paper"):
            raise ValueError(f"unknown delta_mode {self.delta_mode!r}")


def gap_length(config: SchemeConfig) -> int:
    """l_n = ceil(n^((2+eta)/r)), zero when r = inf.  The memory
    X^0_{-m+1}, m = n (n + l_n), tiles into n estimation blocks of length n,
    each followed by a gap of length l_n."""
    if math.isinf(config.r):
        return 0
    l_n = math.ceil(config.n ** ((2.0 + config.eta) / config.r))
    return l_n if config.l_cap is None else min(l_n, int(config.l_cap))


def extract_z(config: SchemeConfig, history: np.ndarray) -> np.ndarray:
    """The n estimation blocks of the memory, shape (n, n, ...)."""
    n, l_n = config.n, gap_length(config)
    if history.shape[0] != n * (n + l_n):
        raise ValueError(f"history has {history.shape[0]} letters, "
                         f"need {n * (n + l_n)}")
    return np.ascontiguousarray(
        history.reshape(n, n + l_n, *history.shape[1:])[:, :n])


@dataclass(frozen=True)
class Database:
    """Logically infinite i.i.d. draws from the prior W, random-access by
    index and identical at encoder and decoder.  Indices 1..len(planted) can
    be pinned to explicit parameter values (experiment plumbing)."""

    family: SourceFamily
    seed: int
    prior: dict | None = None
    planted: tuple = ()

    def point(self, i: int) -> np.ndarray:
        if i < 1:
            raise ValueError("database indices start at 1")
        if i <= len(self.planted):
            return self.family.validate(self.planted[i - 1])
        rng = rng_for(self.seed, TAG_DATABASE, i)
        return self.family.prior_draw(rng, self.prior)


@dataclass(frozen=True)
class EncodedBlock:
    s1: BitString           # Elias-gamma(T); empty when the search exhausted
    s2: BitString
    # encoder-side introspection; never on the wire
    waiting_time: int | None = field(default=None, compare=False)
    theta_tilde: tuple = field(default=(), compare=False)
    theta_hat: tuple = field(default=(), compare=False)
    codeword_index: int = field(default=0, compare=False)

    @property
    def b(self) -> int:
        """The first-stage flag: 1 exactly when s1 is empty."""
        return int(len(self.s1) == 0)

    @property
    def total_bits(self) -> int:
        return 1 + len(self.s1) + len(self.s2)

    def stream(self) -> BitString:
        return BitString(self.b, 1) + self.s1 + self.s2


@dataclass(frozen=True)
class DecodedBlock:
    xhat: SampleBlock
    theta_hat: np.ndarray
    radius: float          # nan when the first-stage flag was b=1
    bits_consumed: int


def delta_schedule(n: int, V_n: float, mode: str = "practical",
                   c_delta: float = 1.0) -> float:
    """Tolerance schedule delta_n; the waiting-time tolerance is sqrt(n)*delta_n.

    "paper" evaluates sqrt(2048 (V_n + 1) ln n)/n + 6/n^(3/2) (asymptotic
    constants, vacuous at desk scale); "practical" is c * sqrt(ln n / n).
    """
    if n < 2:
        raise ValueError("need n >= 2 for the schedule")
    if mode == "paper":
        return float(np.sqrt(2048.0 * (V_n + 1.0) * np.log(n)) / n
                     + 6.0 / n ** 1.5)
    if mode == "practical":
        return float(c_delta * np.sqrt(np.log(n) / n))
    raise ValueError(f"unknown delta mode {mode!r}")


def waiting_tolerance(config: SchemeConfig, family: SourceFamily) -> float:
    V_n = vc_bound(family, config.n)
    return math.sqrt(config.n) * delta_schedule(config.n, V_n,
                                                config.delta_mode,
                                                config.c_delta)


def waiting_time(db: Database, theta_tilde, tol: float, n: int,
                 mc_budget: int, seed: int, i_max: int) -> int | None:
    """First database index whose estimated d_n to theta_tilde is <= tol;
    None is the +infinity marker (i_max exhausted)."""
    if not tol >= 0:     # NaN fails too
        raise ValueError(f"tolerance tol must be >= 0, got {tol}")
    for i in range(1, i_max + 1):
        if not exceeds(db.family, db.point(i), theta_tilde, n, mc_budget,
                       derive_seed(seed, TAG_DISTANCE, i), tol):
            return i
    return None


# a seed-0 unit of the acceptance-grid redundancy experiment holds 16 books
BOOK_CACHE_BOUND = 128


def clear_codebook_cache() -> None:
    _book.cache_clear()


def book_index(T: int | None) -> int:
    """Database index of theta_hat and seed index of its codebook: the
    waiting time T, or 1 when the search was exhausted (flag b=1)."""
    return 1 if T is None else T


def provision_codebook(config: SchemeConfig, family: SourceFamily,
                       theta_hat, index: int) -> Codebook:
    """Train the second-stage codebook for theta_hat; seeded by
    (code seed, database index) so both ends build the same book."""
    return _book(config.code_seed, config.n, config.lam, config.rho_max,
                 config.train_blocks, config.max_initial_size,
                 config.design_restarts, family,
                 tuple(family.validate(theta_hat)), index)


@functools.lru_cache(maxsize=BOOK_CACHE_BOUND)
def _book(code_seed, n, lam, rho_max, train_blocks, max_initial_size,
          restarts, family, t, index) -> Codebook:
    """``provision_codebook``'s design, keyed on everything it reads."""
    rng = rng_for(code_seed, TAG_TRAINING, index)
    X = family.sample_paths(np.asarray(t), n, train_blocks, rng)
    return ecvq_design(X, lam, min(max_initial_size, 2 ** min(30, n)), rho_max,
                       seed=derive_seed(code_seed, TAG_TRAINING, index),
                       restarts=restarts)


def candidate_set(config: SchemeConfig, db: Database) -> CandidateSet:
    """First n_candidates database points followed by the config anchors."""
    cands = [db.point(i) for i in range(1, config.n_candidates + 1)]
    cands.extend(np.asarray(a, dtype=float) for a in config.anchors)
    return CandidateSet.build(db.family, cands)


def identify(config: SchemeConfig, db: Database, history,
             candidates: CandidateSet | None = None):
    """First stage: the MDE estimate theta_tilde from the memory's
    estimation blocks, then the waiting-time search for it in the database.
    Returns (T, theta_tilde, theta_hat); T is None for the b=1 flag."""
    family = db.family
    hist = np.asarray(history)
    if not np.all(np.isfinite(hist)):
        raise ValueError("history must be finite")
    Z = extract_z(config, hist)
    if candidates is None:
        candidates = candidate_set(config, db)
    theta_tilde = mde_estimate(family, Z, candidates, config.mde_mc,
                               derive_seed(config.database_seed, TAG_MDE))
    T = waiting_time(db, theta_tilde, waiting_tolerance(config, family),
                     config.n, config.distance_mc, config.code_seed,
                     config.i_max)
    return T, theta_tilde, db.point(book_index(T))


def encode_block(config: SchemeConfig, db: Database, history, current,
                 candidates: CandidateSet | None = None) -> EncodedBlock:
    """Full first+second stage encoding of one n-block given its memory."""
    cur = np.asarray(current)
    if cur.shape[0] != config.n:
        raise ValueError(f"current block must have n={config.n} letters")
    if not np.all(np.isfinite(cur)):
        raise ValueError("current block must be finite")
    T, theta_tilde, theta_hat = identify(config, db, history, candidates)
    book = provision_codebook(config, db.family, theta_hat, book_index(T))
    cw_idx, s2 = ecvq_encode(book, cur)
    s1 = BitString() if T is None else elias_encode(T)
    return EncodedBlock(s1=s1, s2=s2, waiting_time=T,
                        theta_tilde=tuple(theta_tilde),
                        theta_hat=tuple(theta_hat), codeword_index=cw_idx)


def decode_block(config: SchemeConfig, db: Database,
                 stream: BitString) -> DecodedBlock:
    """Inverse of encode_block; atomic (raises without partial output)."""
    family = db.family
    reader = BitReader(stream)
    try:
        T = reader.read_gamma() if reader.read_bit() == 0 else None
        if T is not None and T > config.i_max:
            # no encoder emits it; refusing bounds the books a stream can
            # make the decoder design
            raise MalformedStreamError(
                f"waiting time {T} exceeds i_max={config.i_max}")
        theta_hat = db.point(book_index(T))
        radius = float("nan") if T is None else waiting_tolerance(config, family)
        book = provision_codebook(config, family, theta_hat, book_index(T))
        cw = ecvq_decode_index(book, reader)
    except TruncatedStreamError as exc:
        raise MalformedStreamError(str(exc)) from exc
    xhat = SampleBlock(values=book.codevectors[cw].copy(), n=config.n)
    return DecodedBlock(xhat=xhat, theta_hat=np.asarray(theta_hat),
                        radius=radius, bits_consumed=reader.cursor)


def sample_scene(family: SourceFamily, theta, config: SchemeConfig,
                 seed: int) -> tuple[np.ndarray, np.ndarray]:
    """One contiguous stationary path split into (memory, current block)."""
    m = config.n * (config.n + gap_length(config))
    path = family.sample_paths(theta, m + config.n, 1, rng_for(seed, TAG_SAMPLE))[0]
    return path[:m], path[m:]
