"""Bounded metric distortion and entropy-constrained quantizer design.

The second-stage block codes are realized by Lagrangian Lloyd descent:
assignment minimizes distortion + lambda * length / n, centroids are updated
under the clipped metric (with a guard so the training Lagrangian never
increases), and real-valued codeword lengths track the empirical usage.
The iterations are incremental: the centroid step updates only the dirty
cells (those that gained or lost blocks or whose codevector last moved), with
one sort per cell-width class for the medians and a keep test certified by a
rounding bound; the distortion matrix, refreshed only in moved columns, gives
each iteration's objective and the next iteration's assignment.
After convergence the lengths are rounded to an integer prefix code by the
canonical-Kraft procedure, and the normalized-length cap 2*rho_max/lambda is
enforced constructively.
"""

from __future__ import annotations

import functools
import struct
from dataclasses import dataclass, field

import numpy as np

from .bitcode import BitReader, BitString, TruncatedStreamError
from .models import SourceFamily
from .rand import TAG_EVAL, rng_for


@dataclass(frozen=True)
class DistortionSpec:
    """Per-letter distortion min(base distance, rho_max); the base metric is
    the absolute difference on R (or the Euclidean norm on R^d)."""

    rho_max: float = 1.0
    base: str = "absolute-difference"  # or "euclidean"

    def __post_init__(self):
        if self.rho_max <= 0:
            raise ValueError("rho_max must be > 0")
        if self.base not in ("absolute-difference", "euclidean"):
            raise ValueError(f"unknown base metric {self.base!r}")


@dataclass(frozen=True)
class LagrangianReport:
    distortion: float
    rate: float              # bits per source letter
    lagrangian: float
    lam: float
    distortion_se: float = 0.0
    rate_se: float = 0.0

    def __post_init__(self):
        expected = self.distortion + self.lam * self.rate
        if abs(self.lagrangian - expected) > 1e-12 * max(1.0, abs(expected)):
            raise ValueError("lagrangian must equal distortion + lambda * rate")

    @classmethod
    def build(cls, distortion, rate, lam, distortion_se=0.0, rate_se=0.0):
        return cls(distortion=float(distortion), rate=float(rate),
                   lagrangian=float(distortion) + float(lam) * float(rate),
                   lam=float(lam), distortion_se=float(distortion_se),
                   rate_se=float(rate_se))


def rho_n(spec: DistortionSpec, x, xhat) -> float:
    """Per-letter average of the clipped base metric; lies in [0, rho_max]."""
    a = np.asarray(x, dtype=float)
    b = np.asarray(xhat, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"length mismatch: {a.shape} vs {b.shape}")
    if a.ndim == 1:
        d = np.abs(a - b)
    else:
        d = np.linalg.norm(a - b, axis=-1)
    return float(np.mean(np.minimum(d, spec.rho_max)))


_CHUNK_ELEMS = 1 << 16   # 512 KiB of float64 per broadcast chunk


def pairwise_distortion(blocks: np.ndarray, codevectors: np.ndarray,
                        spec: DistortionSpec) -> np.ndarray:
    """rho_n between every block and every codevector, shape (T, K)."""
    X = np.asarray(blocks, dtype=float)
    C = np.asarray(codevectors, dtype=float)
    T, K = X.shape[0], C.shape[0]
    n = X.shape[1]
    out = np.empty((T, K))
    # chunks of blocks small enough that the broadcast buffer, reused for
    # every chunk, stays in a core's cache across the passes over it
    step = max(1, _CHUNK_ELEMS // max(1, K * n))
    buf = np.empty((min(step, T), K) + X.shape[1:])
    for lo in range(0, T, step):
        hi = min(T, lo + step)
        d = np.subtract(X[lo:hi, None, ...], C[None, :, ...], out=buf[:hi - lo])
        if X.ndim == 2:
            np.abs(d, out=d)
        else:
            d = np.linalg.norm(d, axis=-1)
        np.minimum(d, spec.rho_max, out=d)
        np.add.reduce(d, axis=-1, out=out[lo:hi])
    out /= n    # the mean over letters, as np.mean divides its sum
    return out


def canonical_code(lengths) -> list[BitString]:
    """Canonical prefix code for integer lengths satisfying Kraft."""
    lengths = [int(L) for L in lengths]
    if sum(2.0 ** -L for L in lengths) > 1.0 + 1e-12:
        raise ValueError("lengths violate the Kraft inequality")
    order = sorted(range(len(lengths)), key=lambda j: (lengths[j], j))
    codes: list[BitString | None] = [None] * len(lengths)
    code_val = 0
    prev_len = lengths[order[0]] if order else 0
    for rank, j in enumerate(order):
        L = lengths[j]
        if rank > 0:
            code_val = (code_val + 1) << (L - prev_len)
        prev_len = L
        bits = [(code_val >> (L - 1 - k)) & 1 for k in range(L)]
        codes[j] = BitString(bits)
    return codes


@dataclass(frozen=True)
class Codebook:
    """A designed n-block quantizer: codevectors, integer per-codeword bit
    lengths and the matching canonical prefix code."""

    n: int
    codevectors: np.ndarray           # (K, n) or (K, n, d)
    lengths: np.ndarray               # (K,) integer bit counts
    codes: tuple                      # K BitStrings, prefix-free
    lam: float
    spec: DistortionSpec
    training_lagrangians: tuple = field(default=(), compare=False)

    def __post_init__(self):
        K = self.codevectors.shape[0]
        if len(self.lengths) != K or len(self.codes) != K:
            raise ValueError("inconsistent codebook arrays")
        if self.kraft_sum() > 1.0 + 1e-12:
            raise ValueError("Kraft inequality violated")

    @property
    def size(self) -> int:
        return self.codevectors.shape[0]

    @functools.cached_property
    def decode_table(self) -> dict:
        """Codeword bits -> index, built on the first decode."""
        return {bs.bits: j for j, bs in enumerate(self.codes)}

    def kraft_sum(self) -> float:
        return float(np.sum(2.0 ** -np.asarray(self.lengths, dtype=float)))

    def max_normalized_length(self) -> float:
        return float(np.max(self.lengths) / self.n)

    def to_bytes(self) -> bytes:
        """Versioned debug serialization: n, count, float64 vectors, u16 lengths."""
        C = np.asarray(self.codevectors, dtype="<f8")
        d = 1 if C.ndim == 2 else C.shape[2]
        head = struct.pack("<4sBIII", b"ECVQ", 1, self.n, self.size, d)
        return (head + struct.pack("<d", self.lam)
                + struct.pack("<d", self.spec.rho_max)
                + C.tobytes()
                + np.asarray(self.lengths, dtype="<u2").tobytes())

    @classmethod
    def from_bytes(cls, data: bytes, base: str = "absolute-difference") -> "Codebook":
        magic, version, n, K, d = struct.unpack_from("<4sBIII", data, 0)
        if magic != b"ECVQ" or version != 1:
            raise ValueError("not a version-1 codebook blob")
        off = struct.calcsize("<4sBIII")
        lam, rho_max = struct.unpack_from("<dd", data, off)
        off += 16
        count = K * n * d
        C = np.frombuffer(data, dtype="<f8", count=count, offset=off)
        C = C.reshape((K, n) if d == 1 else (K, n, d)).copy()
        off += count * 8
        lengths = np.frombuffer(data, dtype="<u2", count=K, offset=off).astype(int)
        spec = DistortionSpec(rho_max=rho_max, base=base)
        return cls(n=n, codevectors=C, lengths=lengths,
                   codes=tuple(canonical_code(lengths)), lam=lam, spec=spec)


def _centroid_step(X: np.ndarray, C: np.ndarray, assign: np.ndarray,
                   spec: DistortionSpec, dirty: np.ndarray) -> np.ndarray:
    """Guarded centroid update of the dirty cells, in place on C; returns
    the mask of cells whose codevector changed, compared bit for bit.

    A scalar-letter cell moves to its median under the clipped metric, or to
    its mean when the cap never binds in it; a vector-letter cell moves to
    its mean.  The move is kept only if it does not raise the cell cost.
    Bitwise as a per-cell loop: one sort per width class gives all medians
    (each (cell, letter) padded with +inf to the next power of two of the
    cell size), kept by reordered cost sums that differ beyond a rounding
    bound.  Mean cells, zero median letters (np.partition orders -0.0 and
    0.0 its own way) and open keep tests are stacked by size and reduced
    along the stacking axis, each cell by exactly its own reductions.  A
    clean cell (same members and codevector) maps to its codevector again.
    """
    def letter_dist(diff):
        return np.abs(diff) if X.ndim == 2 else np.linalg.norm(diff, axis=-1)

    K, n = C.shape[0], X.shape[1]
    sizes = np.bincount(assign, minlength=K)
    mine = np.flatnonzero(dirty[assign])
    rows = mine[np.argsort(assign[mine], kind="stable")]
    Xs, cell_of = X[rows], assign[rows]   # dirty cells contiguous, rows in order
    d_old = letter_dist(Xs - C[cell_of])
    clipped = np.zeros(K, dtype=bool)
    if X.ndim == 2:
        clipped[cell_of[np.any(d_old >= spec.rho_max, axis=1)]] = True
    cost_old = np.minimum(d_old, spec.rho_max)
    span = np.where(dirty, sizes, 0)
    starts = np.cumsum(span) - span
    moved = np.zeros(K, dtype=bool)
    exact, f = dirty & ~clipped, np.flatnonzero(clipped)
    if f.size:
        cnt = sizes[f]
        w = np.ones_like(cnt) << np.frexp(cnt - 1)[1]    # >= cnt, a power of 2
        order = np.argsort(w, kind="stable")
        base = (np.cumsum(n * w[order]) - n * w[order])[np.argsort(order)]
        slot = base[:, None] + w[:, None] * np.arange(n)  # (cell f[i], letter j)
        fr, k = np.flatnonzero(clipped[cell_of]), np.repeat(np.arange(f.size), cnt)
        buf, xf = np.full(int(n * w.sum()), np.inf), Xs[fr]
        buf[slot[k] + (fr - starts[f][k])[:, None]] = xf
        for width in np.unique(w):                # each class is one run
            lo, hi = base[w == width].min(), base[w == width].max() + n * width
            buf[lo:hi].reshape(-1, width).sort(axis=1)
        lo, hi = slot + ((cnt - 1) // 2)[:, None], slot + (cnt // 2)[:, None]
        cand = np.where(lo == hi, buf[lo], (buf[lo] + buf[hi]) / 2)   # np.median's
        new = np.abs(np.subtract(xf, cand[k], out=xf), out=xf)   # in place: a
        np.minimum(new, spec.rho_max, out=new)          # smaller peak RSS
        s_new, s_old = (np.add.reduceat(np.add.reduce(c, axis=1), np.cumsum(cnt) - cnt)
                        for c in (new, cost_old[fr]))
        # keep is s_new/m <= s_old/m on the exact path's sums of these m
        # non-negative terms.  Any order of the sum is within (m-1)u/(1-(m-1)u)
        # of the real one, u = 2^-53 (Higham, Accuracy and Stability, §4.2):
        # for m u < 0.01 the paths' differences part by under 2.03(m-1)u(s_new
        # + s_old), and division by m keeps a strict order past u(s_new + s_old)
        # + m 2^-1074 (subnormal quotients).  Rounding here adds a few u.
        m, diff = cnt * n, s_new - s_old
        bound = 4.0 * ((m + 2) * 2.0 ** -53 * (s_new + s_old) + m * 2.0 ** -1074)
        same = np.all(cand.view(np.uint64) == C[f].view(np.uint64), axis=1)
        sure = ~np.any(cand == 0, axis=1) & (same | (np.abs(diff) > bound))
        keep = sure & (diff < 0)                  # never a cell that is same
        C[f[keep]], moved[f[keep]] = cand[keep], True
        exact[f[~sure]] = True
    for size in np.unique(sizes[exact]):
        cells = np.flatnonzero(exact & (sizes == size))
        at = starts[cells, None] + np.arange(size)   # (cells, size) into Xs
        G = Xs[at]
        cand = np.add.reduce(G, axis=1) / size       # np.mean's own steps
        med = clipped[cells]
        if med.any():
            # np.median's steps: partition, then mean of the middle one or two
            lo, hi = (size - 1) // 2, size // 2
            part = np.partition(G[med], (lo, hi), axis=1)
            cand[med] = np.add.reduce(part[:, lo:hi + 1], axis=1) / (hi - lo + 1)
        new = np.minimum(letter_dist(G - cand[:, None]), spec.rho_max)
        m = new[0].size
        keep = (np.add.reduce(new.reshape(len(cells), m), axis=1) / m
                <= np.add.reduce(cost_old[at].reshape(len(cells), m), axis=1) / m)
        differs = cand.view(np.uint64) != C[cells].view(np.uint64)
        moved[cells] = keep & differs.reshape(len(cells), -1).any(axis=1)
        C[cells[keep]] = cand[keep]
    return moved


def _round_lengths(usage: np.ndarray, cap_bits: int) -> np.ndarray:
    """Integer lengths ceil(-log2 p), capped, with a Kraft fix-up that never
    exceeds the cap (feasible because the codebook size is pre-trimmed)."""
    p = usage / usage.sum()
    L = np.ceil(-np.log2(p)).astype(int)
    L = np.minimum(np.maximum(L, 0), cap_bits)
    while np.sum(2.0 ** -L.astype(float)) > 1.0 + 1e-12:
        grow = np.flatnonzero(L < cap_bits)
        if grow.size == 0:
            raise RuntimeError("cannot satisfy Kraft under the length cap")
        j = grow[np.argmin(L[grow])]
        L[j] += 1
    return L


def ecvq_design(training, lam: float, initial_size: int, spec: DistortionSpec,
                seed: int, tolerance: float = 1e-6,
                max_iter: int = 200, restarts: int = 1) -> Codebook:
    """Entropy-constrained Lloyd descent on training blocks.

    The training Lagrangian (real-valued lengths) is non-increasing across
    iterations; the returned codebook carries integer canonical-code lengths
    satisfying Kraft and the 2*rho_max/lambda normalized-length cap.  With
    restarts > 1, Lloyd runs from several seeded initializations and the
    book with the lowest training Lagrangian wins (deterministic in seed).
    """
    if lam < 0:
        raise ValueError("lambda must be >= 0")
    if initial_size < 1:
        raise ValueError("initial_size must be >= 1")
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    X = np.asarray(training, dtype=float)
    if X.shape[0] == 0:
        raise ValueError("training set is empty")
    if not np.all(np.isfinite(X)):
        raise ValueError("training blocks contain non-finite values")
    distinct = np.unique(X.reshape(len(X), -1), axis=0).reshape((-1,) + X.shape[1:])
    best = best_J = None
    for r in range(restarts):
        book, J = _design_once(X, distinct, lam, initial_size, spec,
                               seed + 1_000_003 * r, tolerance, max_iter)
        if best is None or J < best_J:
            best, best_J = book, J
    return best


def _design_once(X: np.ndarray, distinct: np.ndarray, lam: float,
                 initial_size: int, spec: DistortionSpec, seed: int,
                 tolerance: float, max_iter: int) -> tuple[Codebook, float]:
    """One Lloyd run from codevectors drawn among the distinct training
    blocks; returns the book and its training Lagrangian."""
    T, n = X.shape[0], X.shape[1]

    rng = rng_for(seed, 0)
    K = min(initial_size, distinct.shape[0])
    pick = rng.choice(distinct.shape[0], size=K, replace=False)
    C = distinct[pick].copy()
    lengths = np.full(K, np.log2(K) if K > 1 else 0.0)

    history = []
    prev_J = np.inf
    # dist always holds rho_n against the current codevectors.  Computed in
    # full once, it is then pruned with C and refreshed only in the columns
    # of codevectors the centroid step moved; it serves each iteration's
    # objective and the next iteration's assignment.
    dist = pairwise_distortion(X, C, spec)
    assign = None
    moved = np.ones(K, dtype=bool)    # every cell is dirty at first
    for _ in range(max_iter):
        new = np.argmin(dist + lam * lengths[None, :] / n, axis=1)
        # a cell is dirty if it gained or lost rows, or if its codevector
        # moved in the last step (which can flip it between median and mean)
        dirty = moved
        if assign is not None:
            flip = new != assign
            dirty[new[flip]] = dirty[assign[flip]] = True
        # prune unused codevectors
        used, assign = np.unique(new, return_inverse=True)
        if used.size < C.shape[0]:
            C, lengths, dist = C[used], lengths[used], dist[:, used]
            dirty = dirty[used]
        counts = np.bincount(assign, minlength=C.shape[0]).astype(float)
        moved = _centroid_step(X, C, assign, spec, dirty)
        # length step: ideal lengths from empirical usage
        lengths = -np.log2(counts / T)
        if moved.any():
            dist[:, moved] = pairwise_distortion(X, C[moved], spec)
        J = float(np.mean(dist[np.arange(T), assign]
                          + lam * lengths[assign] / n))
        history.append(J)
        if prev_J - J < tolerance:
            break
        prev_J = J

    # integer rounding under the Step-5 cap (uncapped in the lambda=0 limit)
    cap_bits = 62 if lam == 0 else min(62, int(np.floor(2.0 * spec.rho_max * n / lam)))
    max_size = 2 ** cap_bits if cap_bits < 60 else C.shape[0]
    if C.shape[0] > max_size:
        counts = np.bincount(assign, minlength=C.shape[0]).astype(float)
        keep = np.sort(np.argsort(-counts, kind="stable")[:max_size])
        C = C[keep]
        dist = dist[:, keep]
        assign = np.argmin(dist, axis=1)
        used, assign = np.unique(assign, return_inverse=True)
        C = C[used]
        dist = dist[:, used]
    counts = np.bincount(assign, minlength=C.shape[0]).astype(float)
    int_lengths = _round_lengths(counts, cap_bits)
    codes = canonical_code(int_lengths)
    book = Codebook(n=n, codevectors=C, lengths=int_lengths,
                    codes=tuple(codes), lam=lam, spec=spec,
                    training_lagrangians=tuple(history))
    J = float(np.mean(np.min(dist + lam * int_lengths[None, :] / n, axis=1)))
    return book, J


def ecvq_encode(book: Codebook, x) -> tuple[int, BitString]:
    """Lagrangian-nearest codeword for one block; ties break to the lowest
    index; returns (index, codeword bits)."""
    xa = np.asarray(x, dtype=float)
    if xa.shape[0] != book.n:
        raise ValueError(f"block length {xa.shape[0]} != codebook n {book.n}")
    cost = pairwise_distortion(xa[None, ...], book.codevectors, book.spec)[0]
    cost = cost + book.lam * np.asarray(book.lengths) / book.n
    idx = int(np.argmin(cost))
    return idx, book.codes[idx]


def ecvq_decode_index(book: Codebook, reader: BitReader) -> int:
    """Read one codeword off the stream; atomic (raises on truncation)."""
    table = book.decode_table
    # zero-length code: single-codeword book consumes no bits
    if () in table and book.size == 1:
        return table[()]
    acc = []
    max_len = int(np.max(book.lengths))
    while len(acc) <= max_len:
        acc.append(reader.read_bit())
        j = table.get(tuple(acc))
        if j is not None:
            return j
    raise TruncatedStreamError("bits do not prefix any codeword")


def lagrangian_eval(book: Codebook, family: SourceFamily, theta,
                    num_blocks: int, seed: int) -> LagrangianReport:
    """Monte-Carlo Lagrangian of a codebook, at its own lambda and
    distortion, on fresh blocks from P_theta coded as the encoder would."""
    if num_blocks < 1:
        raise ValueError("num_blocks must be >= 1")
    family.validate(theta)
    rng = rng_for(seed, TAG_EVAL)
    X = family.sample_paths(theta, book.n, num_blocks, rng)
    dists = pairwise_distortion(X, book.codevectors, book.spec)
    idx = np.argmin(dists + book.lam * np.asarray(book.lengths) / book.n, axis=1)
    d_vals = dists[np.arange(num_blocks), idx]
    r_vals = np.asarray(book.lengths)[idx] / book.n
    d_se = float(np.std(d_vals, ddof=1) / np.sqrt(num_blocks)) if num_blocks > 1 else 0.0
    r_se = float(np.std(r_vals, ddof=1) / np.sqrt(num_blocks)) if num_blocks > 1 else 0.0
    return LagrangianReport.build(np.mean(d_vals), np.mean(r_vals), book.lam,
                                  distortion_se=d_se, rate_se=r_se)
