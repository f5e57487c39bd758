"""Bounded metric distortion and entropy-constrained quantizer design.

The second-stage block codes are realized by Lagrangian Lloyd descent:
assignment minimizes distortion + lambda * length / n, centroids are updated
under the clipped metric (with a guard so the training Lagrangian never
increases), and real-valued codeword lengths track the empirical usage.
Each iteration recomputes only what changed.  The centroid step updates only
the dirty cells (those that gained or lost blocks or whose codevector last
moved), with one sort per cell-width class for the medians and a keep test
certified by a rounding bound; one bincount gives the cell sizes and the
unused codevectors to prune.  The distortion screen is refreshed only in the
rows of moved codevectors, and the exact distortion of each block at its
codevector is carried from one iteration to the next, recomputed only for
blocks that changed codeword or whose codevector moved.  An iteration in
which no block changes codeword, after a step that moved no codevector, is a
fixed point: it only repeats the training Lagrangian, so with a positive
tolerance the loop records it and stops there.
After convergence the lengths are rounded to an integer prefix code by the
canonical-Kraft procedure, and the normalized-length cap 2*rho_max/lambda is
enforced constructively.

Every distortion is formed by one kernel, ``_rho``: the letter costs
min(base distance, rho_max).  Every nearest-codeword decision over many
blocks (the design's assignments, its trim and final Lagrangian, and
``lagrangian_eval``) goes through ``_choose``: a float32 screen of every
(codevector, block) distortion, computed one letter at a time and kept by
the caller, certifies per block that its smallest cost beats every other by
more than twice a rounding bound; the other blocks are decided by the exact
float64 matrix.  So the choices are those of ``pairwise_distortion`` and
``np.argmin``, bit for bit, and ``_rho_at`` gives the distortions there.
Vector letters are screened by the exact matrix itself.  ``ecvq_encode``
codes one block, where no screen pays, by the exact argmin.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .bitcode import BitReader, BitString, TruncatedStreamError
from .models import SourceFamily
from .rand import TAG_EVAL, rng_for


@dataclass(frozen=True)
class LagrangianReport:
    distortion: float
    rate: float              # bits per source letter
    lam: float
    distortion_se: float = 0.0
    rate_se: float = 0.0

    @property
    def lagrangian(self) -> float:
        return self.distortion + self.lam * self.rate


_CHUNK_ELEMS = 1 << 16   # 512 KiB of float64 per broadcast chunk


def _rho(diff: np.ndarray, rho_max, vector: bool) -> np.ndarray:
    """The letter costs min(base distance, rho_max) of diff = x - c: |diff|
    on R, in place on diff; the Euclidean norm over the last axis on R^d."""
    d = np.linalg.norm(diff, axis=-1) if vector else np.abs(diff, out=diff)
    return np.minimum(d, rho_max, out=d)


def pairwise_distortion(blocks: np.ndarray, codevectors: np.ndarray,
                        rho_max: float) -> np.ndarray:
    """The distortion between every block and every codevector, shape
    (T, K): the per-letter average of min(base distance, rho_max), where the
    base metric is |x - c| on R and the Euclidean norm on R^d."""
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
        np.add.reduce(_rho(d, rho_max, X.ndim == 3), axis=-1, out=out[lo:hi])
    out /= n    # the mean over letters, as np.mean divides its sum
    return out


def _letters(X: np.ndarray):
    """What the screen reads of the blocks: for scalar letters, the float32
    letters one row per letter, shape (n, T), with each block's largest
    |letter| (inf or NaN where the cast overflowed or x is NaN); vector
    letters as they are, with None."""
    if X.ndim == 3:
        return X, None
    with np.errstate(over="ignore"):
        L = np.array(X.T, dtype=np.float32, order="C")
    return L, np.abs(L).max(axis=0)


def _screen(letters, C: np.ndarray, rho_max: float) -> np.ndarray:
    """Distortion of every block against every codevector, shape (K, T):
    float32 within ``_choose``'s bound for scalar letters, summed one letter
    at a time; ``pairwise_distortion`` itself for vector letters."""
    L, xmax = letters
    if xmax is None:
        return pairwise_distortion(L, C, rho_max).T
    (n, T), K = L.shape, C.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):
        C32, rho = C.astype(np.float32), np.float32(rho_max)
        acc = np.empty((K, T), dtype=np.float32)
        buf = np.empty_like(acc)
        for j in range(n):
            d = buf if j else acc
            _rho(np.subtract(L[j], C32[:, j, None], out=d), rho, False)
            if j:
                np.add(acc, d, out=acc)
        acc /= np.float32(n)
    return acc


def _rho_at(X: np.ndarray, C: np.ndarray, rho_max: float) -> np.ndarray:
    """The distortion of each block against its own row of C, shape (T,),
    with the per-element steps of ``pairwise_distortion`` (so equal to its
    entries)."""
    return np.add.reduce(_rho(X - C, rho_max, X.ndim == 3), axis=-1) / X.shape[1]


def _bound(letters, C: np.ndarray, ell: np.ndarray, rho_max: float):
    """Per block, a bound on |screened cost - float64 cost| over all
    codevectors, costs being distortion + ell; 0 for vector letters."""
    L, xmax = letters
    if xmax is None:
        return 0.0       # the screen is pairwise_distortion itself
    # u = 2^-24, eta = 2^-149 (the float32 subnormal step); per letter,
    # r = min(|x - c|, rho) and s = min(fl|x~ - c~|, rho~) on the float32
    # casts x~, c~, rho~:
    # * casts: |x~ - x| <= u|x| + eta/2, likewise for c and rho; min and |.|
    #   are 1-Lipschitz, so the letter moves by at most u(|x| + |c| + rho)
    #   + 3 eta/2;
    # * the subtraction rounds once, relatively (a subnormal difference is
    #   exact), and rounding is monotone, so clipping at the float rho~
    #   commutes with it: within u rho~;
    # * the sequential float32 sum of the n letters, each in [0, rho~], is
    #   within gamma_(n-1) n rho~ (Higham, Accuracy and Stability, §4.2), and
    #   the division by n adds u rho~ + eta/2;
    # * the length term's cast adds u|ell| + eta/2 and the float32 addition
    #   u(rho~ + |ell|);
    # * the float64 side (any summation order) is within
    #   (n+2) 2^-53 (rho + |ell|) + 2^-1074 < u(rho + |ell|).
    # Together under u((n+5) rho~ + xmax + cmax + 3 ellmax) + 3 eta for n
    # below 2^20; doubling covers second-order terms and the rounding of the
    # float32 scale below and of the threshold in _choose.  The scale is inf
    # or NaN when a cast overflowed or ell is NaN, and no block passes
    # against it; when it is finite, every screened cost is finite.
    n = L.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):
        scale = (np.float32(n + 5) * np.float32(rho_max) + xmax
                 + np.abs(C.astype(np.float32)).max()
                 + np.float32(3) * np.abs(ell.astype(np.float32)).max())
    return 2.0 ** -23 * scale.astype(float) + 2.0 ** -146 if n < 1 << 20 else np.inf


def _choose(X: np.ndarray, C: np.ndarray, ell: np.ndarray, rho_max: float,
            letters, D) -> np.ndarray:
    """np.argmin(pairwise_distortion(X, C, rho_max) + ell, axis=1), ties to
    the first index, bit for bit, given ``letters = _letters(X)`` and its
    screen ``D = _screen(letters, C, rho_max)``, which it only reads."""
    K = C.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):
        cost = D + ell.astype(D.dtype)[:, None]
        # a block is certified when one cost alone lies within twice the
        # bound of its smallest (the threshold rounded up); a NaN threshold
        # takes none, an infinite one all.  near: 1 there, 0 elsewhere, in
        # place of the costs
        top = cost.min(axis=0) + 2.0 * _bound(letters, C, ell, rho_max)
        near = np.less_equal(cost, np.nextafter(top.astype(D.dtype), np.inf),
                             out=cost, casting="unsafe")
    # one product gives each block the index of its near cost and their count
    idx, count = np.array((np.arange(K), np.ones(K)), dtype=D.dtype) @ near
    idx, redo = idx.astype(np.intp), count != 1
    if redo.any():
        exact = pairwise_distortion(X[redo], C, rho_max) + ell
        idx[redo] = np.argmin(exact, axis=1)
    return idx


def canonical_code(lengths) -> list[BitString]:
    """Canonical prefix code for integer lengths satisfying Kraft: in order
    of (length, index), each codeword is the previous one plus 1, shifted
    left to its length."""
    lengths = [int(L) for L in lengths]
    if sum(2.0 ** -L for L in lengths) > 1.0 + 1e-12:
        raise ValueError("lengths violate the Kraft inequality")
    codes: list[BitString | None] = [None] * len(lengths)
    code_val, prev_len = -1, 0
    for j in sorted(range(len(lengths)), key=lambda j: (lengths[j], j)):
        code_val = (code_val + 1) << (lengths[j] - prev_len)
        prev_len = lengths[j]
        codes[j] = BitString(code_val, prev_len)
    return codes


@dataclass(frozen=True)
class Codebook:
    """A designed n-block quantizer: codevectors, integer per-codeword bit
    lengths and the distortion's cap rho_max; the prefix code is the
    canonical one of the lengths."""

    n: int
    codevectors: np.ndarray           # (K, n) or (K, n, d)
    lengths: np.ndarray               # (K,) integer bit counts
    lam: float
    rho_max: float
    training_lagrangians: tuple = field(default=(), compare=False)

    def __post_init__(self):
        if len(self.lengths) != self.codevectors.shape[0]:
            raise ValueError("inconsistent codebook arrays")
        if self.kraft_sum() > 1.0 + 1e-12:
            raise ValueError("Kraft inequality violated")
        if not 0 < self.rho_max < np.inf:     # NaN fails too
            raise ValueError("rho_max must be finite and > 0")

    @property
    def size(self) -> int:
        return self.codevectors.shape[0]

    @functools.cached_property
    def codes(self) -> tuple:
        """K prefix-free BitStrings, built on the first encode."""
        return tuple(canonical_code(self.lengths))

    @functools.cached_property
    def decode_table(self) -> dict:
        """Codeword -> index, built on the first decode."""
        return {bs: j for j, bs in enumerate(self.codes)}

    def kraft_sum(self) -> float:
        return float(np.sum(2.0 ** -np.asarray(self.lengths, dtype=float)))


def _centroid_step(X: np.ndarray, C: np.ndarray, assign: np.ndarray,
                   sizes: np.ndarray, rho_max: float,
                   dirty: np.ndarray) -> np.ndarray:
    """Guarded centroid update of the dirty cells, in place on C, given each
    cell's member count ``sizes``; returns the mask of cells whose
    codevector changed, compared bit for bit.

    A scalar-letter cell moves to its median under the clipped metric, or to
    its mean when the cap never binds in it; a vector-letter cell moves to
    its mean.  The move is kept only if it does not raise the cell cost.
    Bitwise as a per-cell loop: one sort per width class gives all medians
    (each cell's rows padded with +inf rows to the next power of two of the
    cell size, and each letter sorted down them), kept by reordered cost
    sums that differ beyond a rounding bound.  Mean cells, zero median
    letters (np.partition orders -0.0 and 0.0 its own way) and open keep
    tests are stacked by size and reduced along the stacking axis, each cell
    by exactly its own reductions.  A clean cell (same members and
    codevector) maps to its codevector again.
    """
    K, n, vector = C.shape[0], X.shape[1], X.ndim == 3
    mine = np.flatnonzero(dirty[assign])
    # a stable sort by cell; a narrow key sorts by radix
    rows = mine[assign[mine].astype(np.min_scalar_type(K)).argsort(kind="stable")]
    Xs, cell_of = X[rows], assign[rows]   # dirty cells contiguous, rows in order
    cost_old = _rho(Xs - C[cell_of], rho_max, vector)
    clipped = np.zeros(K, dtype=bool)
    if not vector:      # min(d, rho_max) >= rho_max exactly where d >= rho_max
        clipped[cell_of[(cost_old >= rho_max).any(axis=1)]] = True
    span = np.where(dirty, sizes, 0)
    starts = span.cumsum() - span
    moved = np.zeros(K, dtype=bool)
    exact, f = dirty & ~clipped, np.flatnonzero(clipped)
    if f.size:
        cnt = sizes[f]
        w = np.ones_like(cnt) << np.frexp(cnt - 1)[1]    # >= cnt, a power of 2
        # each cell's rows, padded with +inf rows to w, from row base of buf;
        # the cells in order of width, so that each width class is one run
        order = w.argsort(kind="stable")
        ws = w[order]
        ends = ws.cumsum()
        base = np.empty_like(ends)
        base[order] = ends - ws
        fr, k = np.flatnonzero(clipped[cell_of]), np.repeat(np.arange(f.size), cnt)
        buf, xf = np.full((int(ends[-1]), n), np.inf), Xs[fr]
        buf[base[k] + fr - starts[f][k]] = xf
        last = np.flatnonzero(np.append(ws[1:] != ws[:-1], True))
        lo = 0
        for width, hi in zip(ws[last].tolist(), ends[last].tolist()):
            buf[lo:hi].reshape(-1, width, n).sort(axis=1)
            lo = hi
        lo, hi = buf[base + (cnt - 1) // 2], buf[base + cnt // 2]
        cand = np.where((cnt % 2 == 1)[:, None], lo, (lo + hi) / 2)   # np.median's
        # in place on xf: a smaller peak RSS
        new = _rho(np.subtract(xf, cand[k], out=xf), rho_max, False)
        seg = (cnt.cumsum() - cnt) * n             # each cell's terms, in turn
        s_new, s_old = (np.add.reduceat(c.ravel(), seg) for c in (new, cost_old[fr]))
        # keep is s_new/m <= s_old/m on the exact path's sums of these m
        # non-negative terms.  Any order of the sum is within (m-1)u/(1-(m-1)u)
        # of the real one, u = 2^-53 (Higham, Accuracy and Stability, §4.2):
        # for m u < 0.01 the paths' differences part by under 2.03(m-1)u(s_new
        # + s_old), and division by m keeps a strict order past u(s_new + s_old)
        # + m 2^-1074 (subnormal quotients).  Rounding here adds a few u.
        m, diff = cnt * n, s_new - s_old
        bound = 4.0 * ((m + 2) * 2.0 ** -53 * (s_new + s_old) + m * 2.0 ** -1074)
        same = (cand.view(np.uint64) == C[f].view(np.uint64)).all(axis=1)
        sure = ~(cand == 0).any(axis=1) & (same | (np.abs(diff) > bound))
        keep = sure & (diff < 0)                  # never a cell that is same
        C[f[keep]], moved[f[keep]] = cand[keep], True
        exact[f[~sure]] = True
    for size in set(sizes[exact].tolist()):
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
        new = _rho(G - cand[:, None], rho_max, vector)
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


def ecvq_design(training, lam: float, initial_size: int, rho_max: float,
                seed: int, tolerance: float = 1e-6,
                max_iter: int = 200, restarts: int = 1) -> Codebook:
    """Entropy-constrained Lloyd descent on training blocks.

    The training Lagrangian (real-valued lengths) is non-increasing across
    iterations; the returned codebook carries integer canonical-code lengths
    satisfying Kraft and the 2*rho_max/lambda normalized-length cap.  With
    restarts > 1, Lloyd runs from several seeded initializations and the
    book with the lowest training Lagrangian wins (deterministic in seed).
    """
    if not lam >= 0:                # NaN too
        raise ValueError(f"lam must be >= 0, got {lam}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    if initial_size < 1:
        raise ValueError("initial_size must be >= 1")
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    if not 0 < rho_max < np.inf:     # NaN fails too
        raise ValueError(f"rho_max must be finite and > 0, got {rho_max}")
    X = np.asarray(training, dtype=float)
    if X.shape[0] == 0:
        raise ValueError("training set is empty")
    if not np.all(np.isfinite(X)):
        raise ValueError("training blocks contain non-finite values")
    distinct = _distinct(X)
    best = best_J = None
    for r in range(restarts):
        book, J = _design_once(X, distinct, lam, initial_size, rho_max,
                               seed + 1_000_003 * r, tolerance, max_iter)
        if best is None or J < best_J:
            best, best_J = book, J
    return best


def _distinct(X: np.ndarray) -> np.ndarray:
    """The distinct training blocks, in np.unique(axis=0)'s order and bytes.
    np.unique sorts whole rows as records; when the sorted first letters
    have no tie under float equality (so -0.0 and 0.0 tie), every row is
    distinct and that one column's sort is already np.unique's order."""
    flat = X.reshape(len(X), -1)
    order = np.argsort(flat[:, 0])
    first = flat[order, 0]
    if np.all(first[1:] != first[:-1]):
        return X[order]
    return np.unique(flat, axis=0).reshape((-1,) + X.shape[1:])


def _design_once(X: np.ndarray, distinct: np.ndarray, lam: float,
                 initial_size: int, rho_max: float, seed: int,
                 tolerance: float, max_iter: int) -> tuple[Codebook, float]:
    """One Lloyd run from codevectors drawn among the distinct training
    blocks; returns the book and its training Lagrangian."""
    T, n = X.shape[0], X.shape[1]

    rng = rng_for(seed, 0)
    K = min(initial_size, distinct.shape[0])
    pick = rng.choice(distinct.shape[0], size=K, replace=False)
    C = distinct[pick].copy()
    # the length term of the Lagrangian, lambda/n times the real lengths
    ell = lam * np.full(K, np.log2(K) if K > 1 else 0.0) / n

    history = []
    prev_J = np.inf
    # dist, the screen of every codevector against every block (K, T), is
    # computed in full once, then pruned with C and refreshed only in the
    # rows of codevectors the centroid step moved; every decision below
    # reads it.  d holds the exact distortion of each block at its
    # codevector, recomputed only in the rows that changed codeword or whose
    # codevector moved.
    letters = _letters(X)
    dist = _screen(letters, C, rho_max)
    d = np.empty(T)
    assign = None
    moved = np.ones(K, dtype=bool)    # every cell is dirty at first
    for _ in range(max_iter):
        new = _choose(X, C, ell, rho_max, letters, dist)
        # a cell is dirty if it gained or lost rows, or if its codevector
        # moved in the last step (which can flip it between median and mean)
        dirty = moved
        if assign is None:
            redo = np.ones(T, dtype=bool)
        else:
            redo = new != assign        # rows that changed codeword
            if tolerance > 0 and not redo.any() and not dirty.any():
                # a fixed point: no row changed codeword and no codevector
                # moved, so the iteration would only repeat J, and the
                # tolerance test would stop the loop
                history.append(prev_J)
                break
            dirty[new[redo]] = dirty[assign[redo]] = True
        # prune unused codevectors
        counts = np.bincount(new, minlength=C.shape[0])
        if counts.all():
            assign = new
        else:
            used = counts > 0
            assign = (used.cumsum() - 1)[new]
            C, dist, dirty, counts = C[used], dist[used], dirty[used], counts[used]
        moved = _centroid_step(X, C, assign, counts, rho_max, dirty)
        # length step: ideal lengths from empirical usage
        ell = lam * -np.log2(counts / T) / n
        if moved.any():
            dist[moved] = _screen(letters, C[moved], rho_max)
            redo |= moved[assign]       # rows whose codevector moved
        if redo.any():
            d[redo] = _rho_at(X[redo], C[assign[redo]], rho_max)
        v = d + ell[assign]
        J = float(np.add.reduce(v) / v.size)    # np.mean's own steps
        history.append(J)
        if prev_J - J < tolerance:
            break
        prev_J = J

    # integer rounding under the Step-5 cap (uncapped in the lambda=0 limit)
    cap_bits = 62 if lam == 0 else int(np.floor(min(62.0, 2.0 * rho_max * n / lam)))
    max_size = 2 ** cap_bits if cap_bits < 60 else C.shape[0]
    if C.shape[0] > max_size:
        counts = np.bincount(assign, minlength=C.shape[0]).astype(float)
        keep = np.sort(np.argsort(-counts, kind="stable")[:max_size])
        C, dist = C[keep], dist[keep]
        assign = _choose(X, C, np.zeros(C.shape[0]), rho_max, letters, dist)
        used, assign = np.unique(assign, return_inverse=True)
        C, dist = C[used], dist[used]
    counts = np.bincount(assign, minlength=C.shape[0]).astype(float)
    int_lengths = _round_lengths(counts, cap_bits)
    book = Codebook(n=n, codevectors=C, lengths=int_lengths, lam=lam,
                    rho_max=rho_max, training_lagrangians=tuple(history))
    ell = lam * int_lengths / n
    idx = _choose(X, C, ell, rho_max, letters, dist)
    J = float(np.mean(_rho_at(X, C[idx], rho_max) + ell[idx]))
    return book, J


def ecvq_encode(book: Codebook, x) -> tuple[int, BitString]:
    """Lagrangian-nearest codeword for one block; ties break to the lowest
    index; returns (index, codeword bits)."""
    xa = np.asarray(x, dtype=float)
    if xa.shape[0] != book.n:
        raise ValueError(f"block length {xa.shape[0]} != codebook n {book.n}")
    ell = book.lam * np.asarray(book.lengths) / book.n
    idx = int(np.argmin(pairwise_distortion(xa[None], book.codevectors,
                                            book.rho_max)[0] + ell))
    return idx, book.codes[idx]


def ecvq_decode_index(book: Codebook, reader: BitReader) -> int:
    """Read one codeword off the stream, one bit at a time until the bits
    read form a codeword (none at all for a one-codeword book); raises
    TruncatedStreamError when the stream ends first."""
    table, value = book.decode_table, 0
    for length in range(int(np.max(book.lengths)) + 1):
        j = table.get(BitString(value, length))
        if j is not None:
            return j
        value = (value << 1) | reader.read_bit()
    raise TruncatedStreamError("bits do not prefix any codeword")


def lagrangian_eval(book: Codebook, family: SourceFamily, theta,
                    num_blocks: int, seed: int) -> LagrangianReport:
    """Monte-Carlo Lagrangian of a codebook, at its own lambda and
    distortion, on fresh blocks from P_theta coded as the encoder would."""
    if num_blocks < 1:
        raise ValueError("num_blocks must be >= 1")
    rng = rng_for(seed, TAG_EVAL)
    X = family.sample_paths(theta, book.n, num_blocks, rng)
    C, ell = book.codevectors, book.lam * np.asarray(book.lengths) / book.n
    letters = _letters(X)
    idx = _choose(X, C, ell, book.rho_max, letters, _screen(letters, C, book.rho_max))
    d_vals = _rho_at(X, C[idx], book.rho_max)
    r_vals = np.asarray(book.lengths)[idx] / book.n
    d_se = float(np.std(d_vals, ddof=1) / np.sqrt(num_blocks)) if num_blocks > 1 else 0.0
    r_se = float(np.std(r_vals, ddof=1) / np.sqrt(num_blocks)) if num_blocks > 1 else 0.0
    return LagrangianReport(float(np.mean(d_vals)), float(np.mean(r_vals)),
                            float(book.lam), distortion_se=d_se, rate_se=r_se)
