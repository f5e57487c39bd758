"""SciPy stays off the import path: a process that only codes Gaussian i.i.d.
blocks never loads it, and the AR and HMM paths that import it on first
call give the same bits as in a process that already holds it."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

LAZY_CALLS = """
import numpy as np
from twostage.models import GaussianAR, HiddenMarkov
from twostage.rand import rng_for

blocks = rng_for(3, 0).standard_normal((5, 6))
hmm = HiddenMarkov(M=2, a0=0.05, emission_means=[-1.0, 2.0],
                   emission_stds=[0.7, 1.1])
values = {
    "ar": GaussianAR(p=2).log_density_batch((0.3, -0.2), blocks),
    "hmm": hmm.log_density_batch((0.9, 0.1, 0.2, 0.8), blocks),
}
bits = {k: np.asarray(v, dtype=float).tobytes().hex()
        for k, v in values.items()}
"""


def _run_fresh(code: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                          env=env, capture_output=True, text=True, check=True)
    return done.stdout


def test_gaussian_iid_coding_loads_no_scipy():
    out = _run_fresh("""
        import sys
        import twostage, twostage.cli, twostage.harness
        from twostage import scheme
        from twostage.models import GaussianIID

        cfg = scheme.SchemeConfig(n=4, lam=0.5, n_candidates=3, i_max=20,
                                  distance_mc=200, mde_mc=400,
                                  train_blocks=64, max_initial_size=16,
                                  database_seed=11, code_seed=12)
        db = scheme.Database(family=GaussianIID(), seed=cfg.database_seed)
        hist, cur = scheme.sample_scene(GaussianIID(), (0.0, 1.0), cfg,
                                        seed=100)
        enc = scheme.encode_block(cfg, db, hist, cur)
        dec = scheme.decode_block(cfg, db, enc.stream())
        assert dec.bits_consumed == enc.total_bits
        print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
    """)
    assert out.strip() == "[]"


def test_lazy_scipy_calls_match_in_process():
    out = _run_fresh(LAZY_CALLS + "import json; print(json.dumps(bits))")
    scope = {}
    exec(LAZY_CALLS, scope)
    assert json.loads(out) == scope["bits"]
