"""Distributional distance between sources, three ways.

The identification guarantees are stated in the variational (total
variation) distance d_n between n-letter block marginals.  For two scalar
Gaussians with one variance d_1 has a closed form; in general we use an
unbiased Monte-Carlo estimator; and KL + Pinsker gives a cheap upper bound.
"""

import math

from twostage.distances import variational_mc
from twostage.models import GaussianIID


def phi(x):
    """The standard normal distribution function."""
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


gauss = GaussianIID()
a, b = (0.0, 1.0), (1.0, 1.0)

# N(m, s^2) and N(m', s^2) densities cross half-way between the means
exact = 2 * (2 * phi(abs(a[0] - b[0]) / (2 * a[1])) - 1)
mc = variational_mc(gauss, a, b, n=1, num_samples=100_000, seed=5)
kl = (a[0] - b[0]) ** 2 / (2 * a[1] ** 2)
print(f"d(N(0,1), N(1,1)) exact      = {exact:.6f}")
print(f"d(N(0,1), N(1,1)) Monte-Carlo = {mc.value:.6f} "
      f"(+/- {mc.standard_error:.4f})")
print(f"Pinsker bound sqrt(2 KL)      = {math.sqrt(2 * kl):.6f}")

print("\nBlock distance saturates as n grows (per-letter evidence adds up):")
for n in (1, 2, 4, 8, 16):
    est = variational_mc(gauss, a, (0.3, 1.0), n, 40_000, seed=6)
    print(f"  d_{n:<2d} = {est.value:.4f}")

sigma, delta = 1.0, 0.1
c = 3.0 / (sigma - delta)
print("\nSmoothness: d_n / sqrt(n) is Lipschitz in the parameter,")
print(f"with closed-form constant c = 3/(sigma - delta) = {c:.2f} "
      f"for (sigma, delta) = ({sigma:g}, {delta:g}):")
for gap in (0.05, 0.1):
    for tp in ((gap, sigma), (0.0, sigma + gap)):
        for n in (1, 4, 16):
            est = variational_mc(gauss, (0.0, sigma), tp, n, 20_000, seed=7)
            lhs = est.value / math.sqrt(n)
            ok = lhs <= c * gap + 3 * est.standard_error / math.sqrt(n)
            print(f"  n={n:<3d} theta'={tp} d_n/sqrt(n)={lhs:.4f} "
                  f"<= {c * gap:.4f}  ({'ok' if ok else 'VIOLATED'})")
