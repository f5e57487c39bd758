"""Yatracos classes, empirical suprema, the minimum-distance estimator, and
VC-bound calculators.

The supremum defining the U statistic runs over the finite Yatracos class
induced by ordered pairs of a candidate list: A_ab is the set of blocks whose
log-density under candidate a is strictly larger than under b, so exact ties
are out.  Model-side set probabilities come from seeded Monte-Carlo: per
block length one cached stack of C tables, one per candidate's own blocks,
built in one workspace.  Membership needs only the order of the candidates'
log-densities on each block, which a family may supply from cheaper values
with an error bound; blocks the bound cannot settle fall back to the exact
kernel.  A settled block has no ties, so there each unordered pair of
candidates is compared once.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .models import SourceFamily, gaussian_bound_coefficients
from .rand import TAG_PROB, rng_for


class TooFewCandidatesError(ValueError):
    """The estimator needs at least one candidate, the U statistic two."""


@dataclass(frozen=True)
class CandidateSet:
    """Finite list of valid, distinct parameter vectors, in first-seen order."""

    thetas: tuple

    @classmethod
    def build(cls, family: SourceFamily, candidates) -> "CandidateSet":
        return cls(tuple(dict.fromkeys(tuple(family.validate(c)) for c in candidates)))

    def __len__(self) -> int:
        return len(self.thetas)


# One entry per block length: the (C, C, C) table stack, C^3 floats.  A run
# holds one per length of its n_grid (the acceptance grid: 4, of 47 KB at
# C = 18); 8 keeps two such grids.  Worst case at the default C = 64: 8 x 2.1
# MB = 17 MB.
MODEL_FREQ_CACHE_BOUND = 8


def clear_probability_cache() -> None:
    """Empty the model-table stacks and the Gaussian bound coefficients."""
    _model_tables.cache_clear()
    gaussian_bound_coefficients.cache_clear()


def _pair_tables(family, candidates: CandidateSet, block_sets, B: int):
    """F[k, a, b] = fraction of the B blocks of ``block_sets[k]`` where
    candidate a beats candidate b, shape (K, C, C), C >= 2; one workspace
    serves every set.

    Membership needs only the order of the candidates' values on a block:
    where the family's bound cannot separate two neighbours (the smallest
    gap is not above twice the bound, which NaN fails too), the block is
    scored again with the exact ``log_density_batch``, so the tables equal
    those of the exact log-densities, ties included.  A block the bound
    settles has no ties, so each pair a < b is compared once and b beats a
    on the rest of the blocks, less the rescored ones where neither beats
    the other (a tie, or -inf against -inf)."""
    C = len(candidates)
    ia, ib = np.triu_indices(C, 1)
    rows = np.cumsum([0, *range(C - 1, 0, -1)])   # the pairs (a, b > a) of a
    srt, gap = np.empty((C, B)), np.empty((C - 1, B))
    beats = np.empty((len(ia), B), dtype=bool)
    count = np.min_scalar_type(B)    # the narrowest unsigned type to hold B
    out = []
    for X in block_sets:
        vals, bound = family.log_density_bounds(candidates.thetas, X)
        srt[...] = vals
        srt.sort(axis=0)
        np.subtract(srt[1:], srt[:-1], out=gap)
        redo = ~(gap.min(axis=0) > 2.0 * bound)
        neither = 0
        if redo.any():
            vals[:, redo] = ex = np.stack([family.log_density_batch(np.asarray(t), X[redo])
                                           for t in candidates.thetas])
            wins = np.count_nonzero(ex[:, None, :] > ex[None, :, :], axis=2)
            neither = (ex.shape[1] - wins - wins.T)[ia, ib]
        for a in range(C - 1):
            np.greater(vals[a], vals[a + 1:], out=beats[rows[a]:rows[a + 1]])
        table = np.zeros((C, C), dtype=np.intp)
        table[ia, ib] = beats.view(np.uint8).sum(axis=1, dtype=count)
        table[ib, ia] = B - table[ia, ib] - neither
        out.append(table / B)
    return np.stack(out)


@functools.lru_cache(maxsize=MODEL_FREQ_CACHE_BOUND)
def _model_tables(family, candidates: CandidateSet, n: int, mc_budget: int,
                  seed: int) -> np.ndarray:
    """Cached MC estimates of P^n_theta(A_ab) for every candidate theta and
    ordered pair: [i] is the table of candidate i's own ``mc_budget`` blocks,
    drawn with ``seed + i``."""
    return _pair_tables(family, candidates,
                        (family.sample_paths(t, n, mc_budget,
                                             rng_for(seed + i, TAG_PROB))
                         for i, t in enumerate(candidates.thetas)),
                        mc_budget)


def u_statistic_all(family: SourceFamily, blocks, candidates: CandidateSet,
                    mc_budget: int, seed: int) -> np.ndarray:
    """U_theta for every candidate theta at once (shared empirical side).

    U_theta = sup over ordered candidate pairs (a, b) of
    |P^n_theta(A_ab) - empirical frequency of A_ab over the blocks|.
    """
    if len(candidates) < 2:
        raise TooFewCandidatesError("need >= 2 candidates for the Yatracos class")
    X = np.asarray(blocks)
    if X.shape[0] == 0:
        raise ValueError("no estimation blocks")
    emp = _pair_tables(family, candidates, [X], X.shape[0])[0]
    model = _model_tables(family, candidates, X.shape[1], mc_budget, seed)
    # a never beats itself, so the zero diagonals leave the max unchanged
    return np.max(np.abs(model - emp), axis=(1, 2))


def mde_estimate(family: SourceFamily, blocks, candidates: CandidateSet,
                 mc_budget: int, seed: int) -> np.ndarray:
    """Devroye-Lugosi minimum-distance pick: the first candidate whose U
    statistic (``u_statistic_all``) is within 1/n of the minimum (n = block
    length)."""
    if len(candidates) == 0:
        raise TooFewCandidatesError("candidate set is empty")
    if len(candidates) == 1:
        return np.asarray(candidates.thetas[0])
    n = np.shape(blocks)[1]
    u = u_statistic_all(family, blocks, candidates, mc_budget, seed)
    winner = int(np.flatnonzero(u < u.min() + 1.0 / n)[0])
    return np.asarray(candidates.thetas[winner])


def vc_bound(family: SourceFamily, n: int) -> float:
    """VC-dimension bound of the n-block Yatracos class: the family's own
    ``vc_bound`` (base-2 logs)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return family.vc_bound(n)
