"""One full two-stage encode/decode, with the internals exposed.

Encoder: estimate the active source from the memory (MDE), search the
shared random parameter database for the first index within tolerance
(waiting time), transmit flag + Elias(waiting time) + one quantizer
codeword.  Decoder: rebuild the same database point and codebook from the
configuration alone and invert the stream bit-exactly.
"""

import numpy as np

from twostage.models import GaussianIID
from twostage.scheme import (Database, SchemeConfig, clear_codebook_cache,
                             decode_block, encode_block, gap_length,
                             sample_scene, waiting_tolerance)

gauss = GaussianIID()
theta0 = (0.4, 1.2)
config = SchemeConfig(n=8, lam=0.4, c_delta=0.8, database_seed=31,
                      code_seed=32, n_candidates=24, i_max=500,
                      distance_mc=400, mde_mc=1500, train_blocks=256,
                      max_initial_size=32)
l_n = gap_length(config)
print(f"block length n={config.n}, memory m_n={config.n * (config.n + l_n)} "
      f"letters ({config.n} estimation blocks, gap {l_n})")

db = Database(family=gauss, seed=config.database_seed)
history, current = sample_scene(gauss, theta0, config, seed=33)

enc = encode_block(config, db, history, current)
print(f"\nencoder: theta~ = {tuple(np.round(enc.theta_tilde, 3))}")
print(f"waiting tolerance = {waiting_tolerance(config):.3f}, "
      f"waiting time T = {enc.waiting_time}")
print(f"theta^ = theta(T) = {tuple(np.round(enc.theta_hat, 3))}")
print(f"stream = {enc.stream()}  ({enc.total_bits} bits = "
      f"1 flag + {len(enc.s1)} Elias + {len(enc.s2)} codeword)")

clear_codebook_cache()        # the decoder shares nothing but the config
dec = decode_block(config, db, enc.stream())
print(f"\ndecoder: theta^ = {tuple(np.round(dec.theta_hat, 3))}, "
      f"identification radius = {dec.radius:.3f}")
err = np.mean(np.abs(dec.xhat.values - current))
print(f"reconstruction per-letter error = {err:.3f}")
print(f"bits consumed = {dec.bits_consumed} (atomic: truncated streams raise)")
