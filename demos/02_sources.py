"""The three parametric source families, and what the scheme reads of their
mixing.

Each family exposes the same interface: exact stationary sampling, exact
log-density of finite blocks, and a prior for the random parameter database.
The AR and HMM families mix exponentially. The scheme reads their mixing
only through the exponent r of its config, which sets the gap
l_n = ceil(n^((2+eta)/r)) left between estimation blocks; i.i.d. sources
take r = inf and no gap.
"""

import numpy as np

from twostage.models import GaussianAR, GaussianIID, HiddenMarkov
from twostage.rand import rng_for
from twostage.scheme import SchemeConfig, gap_length

rng = rng_for(7, 0)

gauss = GaussianIID()
print("Gaussian i.i.d., theta = (mean, std):")
X = gauss.sample_paths((1.0, 2.0), 6, 4, rng)
print(X.round(3))

ar = GaussianAR(p=2)
theta = np.array([-0.9, 0.2])
print("\nGaussian AR(2), stationary from the first letter:")
X = ar.sample_paths(theta, 2000, 500, rng)
print(f"  var(X_0)   = {np.var(X[:, 0]):.4f}")
print(f"  var(X_end) = {np.var(X[:, -1]):.4f}   (equal in distribution)")

hmm = HiddenMarkov(M=2, a0=0.05, emission_means=[-1.0, 1.5],
                   emission_stds=[0.8, 1.0])
trans = np.array([0.9, 0.1, 0.2, 0.8])
print("\nHidden Markov (2 states, known Gaussian emissions):")
X = hmm.sample_paths(trans, 8, 3, rng)
print(X.round(3))
print(f"  forward log-density of block 0: "
      f"{hmm.log_density_batch(trans, X[:1])[0]:.4f}")

print("\nGap between estimation blocks, eta = 1, r = 2:")
for n in (4, 8, 16):
    print(f"  n = {n:2d}: l_n = {gap_length(SchemeConfig(n=n, lam=1.0, r=2.0))}")
print(f"  i.i.d. (r = inf), n = 16: l_n = {gap_length(SchemeConfig(n=16, lam=1.0))}")

print("\nPrior draws (the random parameter database is i.i.d. from these):")
for fam, label in ((gauss, "gaussian-iid"), (ar, "ar(2)"), (hmm, "hmm")):
    print(f"  {label}: {fam.prior_draw(rng_for(7, 1)).round(3)}")
