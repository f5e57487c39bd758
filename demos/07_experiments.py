"""Batch experiments, as driven by the CLI.

The same entry points back the `twostage` console script:

    twostage redundancy --config cfg.json --out red.csv
    twostage identify   --config cfg.json --out id.csv

This script runs a miniature redundancy experiment in-process.
"""

import tempfile
from pathlib import Path

from twostage.harness import build_config, run_redundancy_experiment

raw = {
    "schema_version": 1,
    "family": {"kind": "gaussian-iid"},
    "theta0": [0.0, 1.0],
    "n_grid": [4, 8, 16],
    "trials": 10,
    "seed": 41,
    "plant": [[0.0, 1.0]],        # theta0 at database index 1
    "eval_blocks": 500,
    "identify_mc": 500,
    "scheme": {"lam": 0.3, "c_delta": 0.5, "n_candidates": 8, "i_max": 50,
               "distance_mc": 200, "mde_mc": 500, "train_blocks": 64,
               "max_initial_size": 16},
}

out = Path(tempfile.mkdtemp()) / "red.csv"
summary = run_redundancy_experiment(build_config(raw), str(out))
print("median Lagrangian redundancy per block length:")
for n, med in summary["medians"].items():
    print(f"  n={n:3d}: {med:+.5f}   (x = sqrt(V log n / n) = "
          f"{summary['x_values'][n]:.3f})")
print(f"fitted log-log slope: {summary['slope']:.3f}")
print(f"CSV written to {out} ({sum(1 for _ in open(out))} lines)")
