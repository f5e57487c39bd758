"""Minimum-distance estimation over a candidate set.

Given n observation blocks, the estimator compares each candidate's model
probabilities with empirical frequencies over the Yatracos sets (the
pairwise density-comparison regions) and keeps the first candidate whose
worst-case discrepancy is within 1/n of the minimum.  Its distance to the
truth is controlled by 4*U + 3/n, which the script audits directly.
"""

import numpy as np

from twostage.distances import variational_mc
from twostage.mde import distinct_candidates, mde_estimate, u_statistic_all
from twostage.models import GaussianIID
from twostage.rand import rng_for

gauss = GaussianIID()
theta0 = (0.0, 1.0)
grid = distinct_candidates(
    gauss, [(m, 1.0) for m in np.linspace(-2, 2, 9)] + [(0.0, 1.5)])

n = 8
for blocks in (8, 32, 128):
    Z = gauss.sample_paths(theta0, n, blocks, rng_for(21, blocks))
    theta_t = mde_estimate(gauss, Z, grid, 3000, seed=22)
    u = u_statistic_all(gauss, Z, grid, 3000, seed=22)
    d = variational_mc(gauss, theta0, theta_t, n, 20_000, seed=23)
    i0 = grid.index(theta0)
    print(f"blocks={blocks:4d}: picked theta~ = {tuple(theta_t)}, "
          f"d_n(theta0, theta~) = {d.value:.4f} "
          f"<= 4U+3/n = {4 * u[i0] + 3 / n:.4f}")

print("\nVC complexity term V_n per family"
      " (the redundancy rate's scale is sqrt(V_n ln n / n)):")
from twostage.models import GaussianAR, HiddenMarkov
hmm = HiddenMarkov(M=2, a0=0.05, emission_means=[-1, 1], emission_stds=[1, 1])
for fam, nn in ((gauss, 8), (GaussianAR(p=2), 8), (hmm, 8)):
    print(f"  {fam.tag:<14s} V_{nn} = {fam.vc_bound(nn):.2f}")
