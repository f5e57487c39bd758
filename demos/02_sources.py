"""The three parametric source families and their mixing behavior.

Each family exposes the same interface: exact stationary sampling, exact
log-density of finite blocks, a prior for the random parameter database,
and a beta-mixing bound used to price the blocking approximation.
"""

import numpy as np

from twostage.models import GaussianAR, GaussianIID, HiddenMarkov
from twostage.rand import rng_for

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
print(f"  mixing bound at gap 5: {ar.mixing_bound(theta, 5):.4f}")
print(f"  mixing bound at gap 20: {ar.mixing_bound(theta, 20):.6f}")

hmm = HiddenMarkov(M=2, a0=0.05, emission_means=[-1.0, 1.5],
                   emission_stds=[0.8, 1.0])
trans = np.array([0.9, 0.1, 0.2, 0.8])
print("\nHidden Markov (2 states, known Gaussian emissions):")
X = hmm.sample_paths(trans, 8, 3, rng)
print(X.round(3))
print(f"  forward log-density of block 0: "
      f"{hmm.log_density_batch(trans, X[:1])[0]:.4f}")
print(f"  exponential mixing bound at gap 10: {hmm.mixing_bound(trans, 10):.2e}")

print("\nPrior draws (the random parameter database is i.i.d. from these):")
for fam, label in ((gauss, "gaussian-iid"), (ar, "ar(2)"), (hmm, "hmm")):
    print(f"  {label}: {fam.prior_draw(rng_for(7, 1)).round(3)}")
