"""End-to-end acceptance suite: one numbered criterion per test, each
printing a single PASS/FAIL line.  Budgets are generous but the whole file
is expected to finish well inside 25 minutes on a laptop-class machine.

Run just this file with:  python3 -m pytest tests/test_acceptance.py -v -s
"""

import math

import numpy as np
import pytest
from scipy.stats import norm

from conftest import bitstring
from twostage import (bitcode, distances, ecvq, harness, mde, models, scheme)
from twostage.rand import rng_for

GAUSS = models.GaussianIID()


def report(num: int, name: str, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num} ({name}): {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_1_bitcode():
    ok = all(bitcode.BitReader(bitcode.elias_encode(i)).read_gamma() == i
             for i in range(1, 100_001))
    ok &= str(bitcode.elias_encode(1)) == "1"
    ok &= str(bitcode.elias_encode(5)) == "00101"
    words = sorted(str(bitcode.elias_encode(i)) for i in range(1, 1 << 14))
    ok &= all(not b.startswith(a) for a, b in zip(words, words[1:]))
    report(1, "bitcode", ok, "gamma round-trip 1..1e5, prefix-free, examples")


def test_criterion_2_distance_oracles():
    # the densities of N(0,1) and N(1,1) cross at x = 1/2
    exact = 2 * (norm.cdf(0.5) - norm.cdf(-0.5))
    mc = distances.variational_mc(GAUSS, (0.0, 1.0), (1.0, 1.0), 1,
                                  100_000, seed=11)
    # the quoted value, see ledger
    ok = abs(mc.value - 0.766) <= 3 * mc.standard_error + 2e-4
    ok &= abs(mc.value - exact) <= 3 * mc.standard_error
    kl = (1.0 - 0.0) ** 2 / 2   # (m - m')^2 / (2 sigma^2)
    ok &= exact <= math.sqrt(2 * kl) + 1e-12
    report(2, "distance oracles", ok,
           f"exact={exact:.6f} mc={mc.value:.4f} "
           f"pinsker {exact:.4f} <= {math.sqrt(2 * kl):.1f}")


def test_criterion_3_model_core(hmm_brute_force):
    ar = models.GaussianAR(p=1)
    X = ar.sample_paths(np.array([-0.5]), 1000, 1000, rng_for(3, 0))
    var = float(np.var(X))
    ok = abs(var - 4.0 / 3.0) < 0.01 * (4.0 / 3.0)
    worst = 0.0
    for M in (1, 2, 3):
        hmm = models.HiddenMarkov(M=M, a0=0.02,
                                  emission_means=list(np.linspace(-2, 2, M)),
                                  emission_stds=[1.0] * M)
        theta = hmm.prior_draw(rng_for(3, 1, M))
        for n in range(1, 6):
            x = rng_for(3, 2, M, n).normal(size=n)
            fwd = hmm.log_density_batch(theta, x[None])[0]
            brute = hmm_brute_force(hmm, theta, x)
            worst = max(worst, abs(fwd - brute))
    ok &= worst < 1e-10
    report(3, "model core", ok,
           f"AR(1) var={var:.5f} (target 1.33333 +/- 1%), "
           f"HMM forward worst |delta|={worst:.2e}")


def test_criterion_4_mde():
    theta0 = (0.0, 1.0)
    grid_thetas = [(m, 1.0) for m in np.linspace(-2.0, 2.0, 9)] + [(0.0, 1.5)]
    grid = mde.CandidateSet.build(GAUSS, grid_thetas)
    i0 = grid.thetas.index(theta0)
    n = 8
    failures = 0
    for s in range(200):
        Z = GAUSS.sample_paths(theta0, n, 128, rng_for(4, 0, s))
        theta_t = mde.mde_estimate(GAUSS, Z, grid, 2000, seed=1000 + s)
        u = mde.u_statistic_all(GAUSS, Z, grid, 2000, seed=1000 + s)
        d = distances.variational_mc(GAUSS, theta0, theta_t, n, 20_000,
                                     seed=2000 + s)
        slack = 3 * (d.standard_error + 2.0 / math.sqrt(2000))
        if d.value > 4 * u[i0] + 3.0 / n + slack:
            failures += 1
    med_err = []
    mean_grid = [t[0] for t in grid.thetas]
    for blocks in (8, 32, 128):
        errs = []
        for s in range(60):
            Z = GAUSS.sample_paths(theta0, n, blocks, rng_for(4, blocks, s))
            got = mde.mde_estimate(GAUSS, Z, grid, 2000, seed=3000 + s)
            errs.append(abs(mean_grid.index(got[0]) - mean_grid.index(0.0)))
        med_err.append(float(np.median(errs)))
    mono = all(a >= b for a, b in zip(med_err, med_err[1:]))
    ok = failures == 0 and mono
    report(4, "MDE", ok,
           f"audit failures {failures}/200, median index error {med_err} "
           f"across blocks (8, 32, 128)")


def test_criterion_5_ecvq():
    rho_max = 1.0
    ok = True
    for s in range(50):
        lam = (0.2, 0.5, 1.0)[s % 3]
        X = GAUSS.sample_paths((0.0, 1.0), 8, 256, rng_for(5, s))
        book = ecvq.ecvq_design(X, lam, 32, rho_max, seed=s)
        ok &= book.kraft_sum() <= 1.0 + 1e-12
        ok &= max(book.lengths) / book.n <= 2 * rho_max / lam + 1e-12
        hist = np.array(book.training_lagrangians)
        ok &= bool(np.all(np.diff(hist) <= 1e-9))
    report(5, "ECVQ", ok,
           "Kraft, 2*rho_max/lambda cap, Lloyd descent on 50 seeded designs")


def _round_trip_config(s: int):
    kind = s % 3
    n = (2, 3, 4)[s % 3]
    if kind == 0:
        fam, theta0 = GAUSS, (0.3, 1.1)
        r = math.inf
    elif kind == 1:
        fam, theta0 = models.GaussianAR(p=1), (-0.5,)
        r = 2.0
    else:
        fam = models.HiddenMarkov(M=2, a0=0.05, emission_means=[-1.0, 1.0],
                                  emission_stds=[1.0, 1.0])
        theta0 = (0.8, 0.2, 0.3, 0.7)
        r = 2.0
    sc = scheme.SchemeConfig(n=n, lam=0.5, r=r, c_delta=1.5,
                             database_seed=600 + s, code_seed=700 + s,
                             n_candidates=3, i_max=10, distance_mc=100,
                             mde_mc=150, train_blocks=24, max_initial_size=8)
    return fam, np.asarray(theta0, dtype=float), sc


def test_criterion_6_round_trip():
    ok = True
    for s in range(100):
        fam, theta0, sc = _round_trip_config(s)
        db = scheme.Database(family=fam, seed=sc.database_seed)
        hist, cur = scheme.sample_scene(fam, theta0, sc, seed=800 + s)
        enc = scheme.encode_block(sc, db, hist, cur)
        scheme.clear_codebook_cache()
        enc2 = scheme.encode_block(sc, db, hist, cur)
        ok &= enc.stream() == enc2.stream()
        ok &= enc.stream().to_bytes() == enc2.stream().to_bytes()
        scheme.clear_codebook_cache()
        dec = scheme.decode_block(sc, db, enc.stream())
        ok &= np.array_equal(dec.theta_hat, np.asarray(enc.theta_hat))
        ok &= dec.bits_consumed == enc.total_bits
        ok &= dec.xhat.values.shape[0] == sc.n
        for cut in range(enc.total_bits):
            try:
                scheme.decode_block(sc, db, bitstring(str(enc.stream())[:cut]))
                ok = False
            except scheme.MalformedStreamError:
                pass
    report(6, "two-stage round trip", ok,
           "byte-exact determinism and atomic truncation over 100 configs "
           "spanning all three families")


def _trend_config():
    offs = [0.4, 0.2, 0.1, 0.05, 0.025, 0.0125]
    sigs = [1.2, 0.8, 1.1, 0.9, 1.05, 0.95]
    ladder = []
    for o in offs:
        ladder += [[o, 1.0], [-o, 1.0]]
    ladder += [[0.0, s] for s in sigs]
    return {
        "schema_version": 1,
        "family": {"kind": "gaussian-iid"},
        "theta0": [0.0, 1.0],
        "n_grid": [4, 8, 16, 32],
        "trials": 100,
        "seed": 2026,
        "plant": ladder,
        "per_trial_code_seed": True,
        "eval_blocks": 3000,
        "identify_mc": 1000,
        "oracle_train_blocks": 1024,
        "scheme": {
            "lam": 0.05, "c_delta": 0.05, "n_candidates": 0, "i_max": 64,
            "distance_mc": 400, "mde_mc": 1500, "train_blocks": 256,
            "max_initial_size": 64, "design_restarts": 2,
            "prior": {"m_scale": 1.0, "log_sigma_scale": 0.3},
            "anchors": ladder,
        },
    }


def test_criterion_7_redundancy_trend(tmp_path):
    cfg = harness.build_config(_trend_config())
    summary = harness.run_redundancy_experiment(cfg, str(tmp_path / "red.csv"))
    meds = [summary["medians"][n] for n in cfg.n_grid]
    strict = all(a > b for a, b in zip(meds, meds[1:]))
    slope = summary["slope"]
    ok = strict and 0.5 <= slope <= 1.5
    report(7, "redundancy trend", ok,
           f"medians {['%.4f' % m for m in meds]} strictly decreasing: "
           f"{strict}, log-log slope vs sqrt(V log n / n): {slope:.3f} "
           f"in [0.5, 1.5]")


def test_criterion_8_identification_trend(tmp_path):
    cfg = harness.build_config(_trend_config())
    summary = harness.run_identification_experiment(cfg, str(tmp_path / "id.csv"))
    meds = [summary["medians"][n] for n in cfg.n_grid]
    strict = all(a > b for a, b in zip(meds, meds[1:]))
    probe_se = 2.0 / math.sqrt(cfg.scheme_config(4).distance_mc)
    violations = 0
    b0 = 0
    for row in summary["rows"]:
        if row["b_flag"] != 0:
            continue
        b0 += 1
        lhs = row["d_theta0_theta_hat"]
        rhs = row["d_theta0_theta_tilde"] + row["tol"] \
            + 3 * (row["d_se"] + probe_se)
        if lhs > rhs:
            violations += 1
    ok = strict and violations == 0 and b0 > 0
    report(8, "identification trend", ok,
           f"median d_hat {['%.4f' % m for m in meds]} strictly decreasing: "
           f"{strict}; triangle violations {violations}/{b0} b=0 trials")


def test_criterion_9_vc_accounting(vc_deviation_bound):
    hmm = models.HiddenMarkov(M=2, a0=0.05, emission_means=[-1.0, 1.0],
                              emission_stds=[1.0, 1.0])
    v_g = mde.vc_bound(GAUSS, 8)
    v_ar = mde.vc_bound(models.GaussianAR(p=2), 8)
    v_h = mde.vc_bound(hmm, 8)
    ok = abs(v_g - 12 * math.log2(12 * math.e)) < 0.01
    ok &= abs(v_ar - 12 * math.log2(8 * math.e)) < 0.01
    ok &= abs(v_h - 16 * math.log2(32 * math.e)) < 0.01
    # formula values vs the quoted triple (60.46, 53.32, 103.1); 60.46 is an
    # arithmetic slip for 60.33 -- asserted loosely, see the ledger
    ok &= abs(v_g - 60.46) < 0.15 and abs(v_ar - 53.32) < 0.02 \
        and abs(v_h - 103.1) < 0.05

    cands = mde.CandidateSet.build(
        GAUSS, [(-1.0, 1.0), (0.0, 1.0), (1.0, 1.0), (0.0, 2.0)])
    C = len(cands)
    off = ~np.eye(C, dtype=bool)
    # the table of (0, 1), candidate 1, drawn with seed 89 + 1 = 90
    ref = mde._model_tables(GAUSS, cands, 1, 200_000, 89)[1]
    grid_n = (512, 1024, 2048)
    eps_grid = (0.5, 0.6, 0.7, 0.9)
    checked = 0
    worst = 0.0
    ok_dev = True
    for s in range(200):
        Xb = GAUSS.sample_paths((0.0, 1.0), 1, max(grid_n), rng_for(9, s))
        for nb in grid_n:
            emp = mde._pair_tables(GAUSS, cands, [Xb[:nb]], nb)[0]
            dev = float(np.max(np.abs(emp - ref)[off]))
            worst = max(worst, dev)
            for eps in eps_grid:
                if vc_deviation_bound(nb, 2.0, eps) < 1.0:
                    checked += 1
                    if dev > eps:
                        ok_dev = False
    ok &= ok_dev and checked > 0
    report(9, "VC accounting", ok,
           f"formulas ({v_g:.2f}, {v_ar:.2f}, {v_h:.2f}); deviation <= eps "
           f"on {checked} sub-unit grid cells x seeds, worst dev {worst:.3f}")
