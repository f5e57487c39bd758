"""Entropy-constrained vector quantization: the second stage.

The quantizer minimizes distortion + lambda * rate jointly: codevectors by
Lloyd descent under the clipped per-letter metric, codeword lengths from
the empirical cell usage, then rounded to an integer prefix code that
satisfies Kraft and the 2*rho_max/lambda normalized-length cap.
"""

import numpy as np

from twostage.bitcode import BitReader
from twostage.ecvq import (ecvq_decode_index, ecvq_design, ecvq_encode,
                           lagrangian_eval)
from twostage.models import GaussianIID
from twostage.rand import rng_for

gauss = GaussianIID()
rho_max = 1.0
n = 8
train = gauss.sample_paths((0.0, 1.0), n, 512, rng_for(11, 0))

print("lambda sweep (same training set):")
print("  lambda   size   rate[b/l]   distortion   D + lambda*R")
for lam in (0.05, 0.2, 0.8, 3.0):
    book = ecvq_design(train, lam, 64, rho_max, seed=11)
    rep = lagrangian_eval(book, gauss, (0.0, 1.0), 4000, seed=12)
    print(f"  {lam:6.2f} {book.size:6d} {rep.rate:11.4f} {rep.distortion:12.4f}"
          f" {rep.lagrangian:13.4f}")

book = ecvq_design(train, 0.2, 64, rho_max, seed=11)
print(f"\nKraft sum of the 0.2-book: {book.kraft_sum():.4f} (<= 1)")
print(f"max normalized length: {max(book.lengths) / n:.3f}"
      f" (cap {2 * rho_max / 0.2:.1f})")

x = gauss.sample_paths((0.0, 1.0), n, 1, rng_for(11, 1))[0]
idx, bits = ecvq_encode(book, x)
# the distortion: per letter min(|x - c|, rho_max), averaged over the block
rho = np.mean(np.minimum(np.abs(x - book.codevectors[idx]), rho_max))
print(f"\none block -> codeword {idx} = '{bits}' "
      f"({len(bits)} bits, distortion = {rho:.4f})")

print("decoder reads back codeword", ecvq_decode_index(book, BitReader(bits)))

print("\ncanonical prefix code: by length, each codeword is the last plus 1,")
print("shifted left to its length")
for j in sorted(range(book.size), key=lambda j: (book.lengths[j], j))[:6]:
    print(f"  codeword {j:2d}: length {book.lengths[j]:2d}  {book.codes[j]}")
