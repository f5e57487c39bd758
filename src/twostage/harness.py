"""Experiment orchestration: redundancy and identification experiments with
CSV output, plus the cross-module invariant suite.

Configs are JSON files with an explicit schema_version; identical config and
seed produce byte-identical CSV (the timestamp comment line can be disabled
with "timestamp": false).
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from datetime import datetime, timezone

import numpy as np

from . import bitcode, distances, ecvq, mde, models, scheme
from .lru import LruCache
from .rand import TAG_TRIAL, derive_seed, rng_for

CSV_SCHEMA = "twostage-csv v1"


class ConfigError(ValueError):
    """Experiment config failed to parse or validate."""


@dataclass
class ExperimentConfig:
    family_spec: dict
    theta0: tuple
    n_grid: tuple
    trials: int
    seed: int = 0
    scheme: dict = field(default_factory=dict)
    eval_blocks: int = 2000
    oracle_train_blocks: int = 2048
    identify_mc: int = 4000
    timestamp: bool = False
    plant_theta0: bool = False      # pin theta0 at database index 1
    plant: tuple = ()               # further pinned indices, after theta0
    per_trial_code_seed: bool = False  # fresh codebook training per trial

    def family(self) -> models.SourceFamily:
        return models.make_family(self.family_spec)

    def scheme_config(self, n: int) -> scheme.SchemeConfig:
        kw = dict(self.scheme)
        kw.setdefault("database_seed", self.seed)
        kw.setdefault("code_seed", self.seed + 1)
        if "r" in kw and kw["r"] is None:
            kw["r"] = math.inf
        if "anchors" in kw:
            kw["anchors"] = tuple(tuple(a) for a in kw["anchors"])
        return scheme.SchemeConfig(n=n, **kw)

    def database(self, family) -> scheme.Database:
        planted = (tuple(self.theta0),) if self.plant_theta0 else ()
        planted += tuple(tuple(t) for t in self.plant)
        sc = self.scheme_config(self.n_grid[0])
        return scheme.Database(family=family, seed=sc.database_seed,
                               prior=sc.prior, planted=planted)


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    return build_config(raw)


# top-level fields taken as they are, or else the ExperimentConfig default
OPTIONAL = ("seed", "eval_blocks", "oracle_train_blocks", "identify_mc",
            "timestamp", "plant_theta0", "per_trial_code_seed")
# the JSON type of each top-level field and of its entries, checked before
# any conversion (a JSON true is no integer here)
TOP_TYPES = {
    **dict.fromkeys(("trials", "seed", "eval_blocks", "oracle_train_blocks",
                     "identify_mc"), (int, None)),
    **dict.fromkeys(("timestamp", "plant_theta0", "per_trial_code_seed"),
                    (bool, None)),
    "theta0": (list, None), "n_grid": (list, int), "plant": (list, list),
}


def _typed(value, kind, entry) -> bool:
    return type(value) is kind and (
        entry is None or all(type(v) is entry for v in value))


def build_config(raw: dict) -> ExperimentConfig:
    if type(raw) is not dict:
        raise ConfigError("config must be a JSON object")
    if raw.get("schema_version") != 1:
        raise ConfigError("config must declare schema_version: 1")
    wrong = [k for k, t in TOP_TYPES.items() if k in raw and not _typed(raw[k], *t)]
    if wrong:
        raise ConfigError("config field invalid: wrong JSON type for "
                          + ", ".join(wrong))
    try:
        cfg = ExperimentConfig(
            family_spec=raw["family"], theta0=tuple(raw["theta0"]),
            n_grid=tuple(raw["n_grid"]), trials=raw["trials"],
            scheme=dict(raw.get("scheme", {})),
            plant=tuple(tuple(t) for t in raw.get("plant", ())),
            **{k: raw[k] for k in OPTIONAL if k in raw})
    except KeyError as exc:
        raise ConfigError(f"config is missing required key {exc.args[0]!r}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config field invalid: {exc}") from exc
    for name in ("trials", "eval_blocks", "oracle_train_blocks", "identify_mc"):
        if getattr(cfg, name) < 1:
            raise ConfigError(f"{name} must be >= 1")
    if list(cfg.n_grid) != sorted(set(cfg.n_grid)) or len(cfg.n_grid) == 0:
        raise ConfigError("n_grid must be non-empty and strictly increasing")
    try:
        fam = cfg.family()
        fam.validate(cfg.theta0)
        sc = cfg.scheme_config(cfg.n_grid[0])
        scheme.waiting_tolerance(sc, fam)
        scheme.candidate_set(sc, db := cfg.database(fam))
        for i in range(1, len(db.planted) + 2):   # every planted point, one draw
            fam.validate(db.point(i))
    except Exception as exc:
        raise ConfigError(f"config semantic error: {exc}") from exc
    return cfg


def _run_grid(cfg: ExperimentConfig, out_path: str, threads: int,
              header: list[str], measure: str, trial_row,
              summary=lambda xs, medians: ([], {})) -> dict:
    """The grid loop of both experiments: per block length the scheme config,
    candidates and x value; per trial (in grid order at any ``threads``) its
    seed, code seed and scene, then ``trial_row(family, db, sc, candidates,
    scene, seed)`` for the experiment's own columns.  The CSV holds the trial rows, the
    median of column ``measure`` per block length and the rows of
    ``summary(xs, medians)``, which also returns extra summary entries."""
    family = cfg.family()
    db = cfg.database(family)
    per_n = {}
    for n in cfg.n_grid:
        sc, V = cfg.scheme_config(n), mde.vc_bound(family, n).bound
        x = math.sqrt(V * math.log(n) / n)    # the redundancy rate's scale
        per_n[n] = (sc, scheme.candidate_set(sc, db), x)

    def run(job):
        n, trial = job
        sc, candidates, x = per_n[n]
        seed = derive_seed(cfg.seed, TAG_TRIAL, n, trial)
        if cfg.per_trial_code_seed:
            # the code seed also seeds the waiting-time distance probes
            sc = dataclasses.replace(sc, code_seed=derive_seed(seed, 7))
        scene = scheme.sample_scene(family, np.asarray(cfg.theta0), sc, seed)
        return {"kind": "trial", "n": n, "trial": trial, "x_value": x,
                "seed": seed, "tol": scheme.waiting_tolerance(sc, family),
                **trial_row(family, db, sc, candidates, scene, seed)}

    jobs = [(n, t) for n in cfg.n_grid for t in range(cfg.trials)]
    if threads <= 1:
        rows = [run(j) for j in jobs]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            rows = list(pool.map(run, jobs))
    medians = {n: float(np.median([r[measure] for r in rows if r["n"] == n]))
               for n in cfg.n_grid}
    xs = {n: per_n[n][2] for n in cfg.n_grid}
    tail, extra = summary(xs, medians)
    with open(out_path, "w", newline="") as fh:
        fh.write(f"# {CSV_SCHEMA}\n")
        if cfg.timestamp:
            fh.write(f"# generated {datetime.now(timezone.utc).isoformat()}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows + [{"kind": "median", "n": n, measure: medians[n],
                            "x_value": xs[n], "seed": cfg.seed}
                           for n in cfg.n_grid] + tail:
            writer.writerow([row.get(k, "") for k in header])
    return {"rows": rows, "medians": medians, **extra}


def _fit_slope(xs, ys):
    """Least-squares slope of log(y) on log(x); ignores non-positive y."""
    pts = np.array([(math.log(x), math.log(y)) for x, y in zip(xs, ys) if y > 0])
    if len(pts) < 2:
        return float("nan")
    return float(np.polyfit(pts[:, 0], pts[:, 1], 1)[0])


REDUNDANCY_HEADER = [
    "kind", "n", "trial", "lagrangian_star", "lagrangian_oracle", "redundancy",
    "first_stage_bits", "b_flag", "waiting_time", "d_theta0_theta_hat",
    "distortion_se", "rate_se", "x_value", "seed",
]


def run_redundancy_experiment(cfg: ExperimentConfig, out_path: str,
                              threads: int = 1) -> dict:
    """Measure the Lagrangian of the universal code against the oracle
    baseline on a grid of block lengths; returns a summary dict and writes
    one CSV row per trial plus median/slope summary rows."""
    theta0 = np.asarray(cfg.theta0)
    # (n, code seed) -> the oracle's Lagrangian; at most one per trial
    oracles = LruCache(len(cfg.n_grid) * cfg.trials)

    def trial_row(family, db, sc, candidates, scene, seed):
        def lagrangian(sc, theta, index):   # of a book on fresh theta0 blocks
            book = scheme.provision_codebook(sc, family, theta, index)
            return ecvq.lagrangian_eval(book, family, theta0, cfg.eval_blocks,
                                        derive_seed(cfg.seed, TAG_TRIAL, sc.n))

        oracle = oracles.get_or_make(   # a book trained on theta0 itself
            (sc.n, sc.code_seed), lambda: lagrangian(dataclasses.replace(
                sc, train_blocks=cfg.oracle_train_blocks), theta0, 0).lagrangian)
        enc = scheme.encode_block(sc, db, *scene, candidates=candidates)
        theta_hat = np.asarray(enc.theta_hat)
        rep = lagrangian(sc, theta_hat, scheme.book_index(enc.waiting_time))
        first_bits = 1 + len(enc.first_stage.s1)
        l_star = rep.lagrangian + sc.lam * first_bits / sc.n
        return {
            "lagrangian_star": l_star, "lagrangian_oracle": oracle,
            "redundancy": l_star - oracle, "first_stage_bits": first_bits,
            "b_flag": enc.first_stage.b,
            "waiting_time": -1 if enc.waiting_time is None else enc.waiting_time,
            "d_theta0_theta_hat": distances.variational_mc(
                family, theta0, theta_hat, sc.n, cfg.identify_mc,
                derive_seed(seed, TAG_TRIAL)).value,
            "distortion_se": rep.distortion_se, "rate_se": rep.rate_se,
        }

    def slope_row(xs, medians):
        slope = _fit_slope(list(xs.values()), list(medians.values()))
        return ([{"kind": "slope", "redundancy": slope, "seed": cfg.seed}],
                {"x_values": xs, "slope": slope})

    return _run_grid(cfg, out_path, threads, REDUNDANCY_HEADER, "redundancy",
                     trial_row, slope_row)


IDENTIFY_HEADER = [
    "kind", "n", "trial", "d_theta0_theta_hat", "d_theta0_theta_tilde",
    "d_theta_tilde_theta_hat", "tol", "b_flag", "waiting_time",
    "d_se", "x_value", "seed",
]


def run_identification_experiment(cfg: ExperimentConfig, out_path: str,
                                  threads: int = 1) -> dict:
    """Measure d_n(theta0, theta_hat) per trial with its triangle
    decomposition through the MDE output theta_tilde."""
    theta0 = np.asarray(cfg.theta0)

    def trial_row(family, db, sc, candidates, scene, seed):
        T, tt, th = scheme.identify(sc, db, scene[0], candidates=candidates)
        est0h, est0t, estth = (
            distances.variational_mc(family, p, q, sc.n, cfg.identify_mc,
                                     derive_seed(seed, k))
            for k, (p, q) in enumerate([(theta0, th), (theta0, tt), (tt, th)], 1))
        return {
            "d_theta0_theta_hat": est0h.value,
            "d_theta0_theta_tilde": est0t.value,
            "d_theta_tilde_theta_hat": estth.value,
            "b_flag": int(T is None), "waiting_time": -1 if T is None else T,
            "d_se": est0h.standard_error + est0t.standard_error + estth.standard_error,
        }

    return _run_grid(cfg, out_path, threads, IDENTIFY_HEADER,
                     "d_theta0_theta_hat", trial_row)


# ---------------------------------------------------------------------------
# invariant suite
# ---------------------------------------------------------------------------

@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def _check(name, cond, detail) -> CheckResult:
    return CheckResult(name=name, passed=bool(cond), detail=detail)


def run_invariant_suite(seed: int = 20240, corrupt_stream: bool = False) -> list[CheckResult]:
    """Desk-scale executable form of every module's invariants; each entry is
    a named pass/fail with the measured margin.  ``corrupt_stream`` injects a
    negative control into the round-trip check."""
    from scipy.integrate import quad

    out: list[CheckResult] = []
    gauss = models.GaussianIID()

    # 1. Elias round trip
    ok = all(bitcode.elias_decode(bitcode.elias_encode(i))[0] == i
             for i in range(1, 10001))
    out.append(_check("elias-round-trip", ok, "1..10^4 exact"))

    # 2. prefix-freeness by sorting
    words = sorted(str(bitcode.elias_encode(i)) for i in range(1, 4097))
    pf = all(not words[i + 1].startswith(words[i]) for i in range(len(words) - 1))
    out.append(_check("elias-prefix-free", pf, "1..4096 sorted-adjacent"))

    # 3. length law
    ok = all(len(bitcode.elias_encode(i)) == 2 * int(math.log2(i)) + 1
             for i in range(1, 5000))
    out.append(_check("elias-length-law", ok, "2*floor(log2 i)+1"))

    # 4. density normalization (n = 1 Gaussian)
    mass, _ = quad(lambda x: math.exp(models.log_density(gauss, (0.3, 1.7), np.array([x]))),
                   -np.inf, np.inf)
    out.append(_check("gaussian-density-normalization", abs(mass - 1) < 1e-6,
                      f"integral = {mass:.9f}"))

    # 5. AR stationarity: first and last coordinate agree
    ar = models.GaussianAR(p=1)
    X = ar.sample_paths(np.array([-0.5]), 16, 4000, rng_for(seed, 11))
    v0, vn = np.var(X[:, 0]), np.var(X[:, -1])
    se = np.sqrt(2.0 / 4000) * (4.0 / 3.0)
    out.append(_check("ar-stationarity", abs(v0 - vn) < 6 * se,
                      f"var(first)={v0:.4f} var(last)={vn:.4f}"))

    # 6. HMM forward vs brute force
    hmm = models.HiddenMarkov(M=2, a0=0.05, emission_means=[-1.0, 2.0],
                              emission_stds=[0.7, 1.1])
    theta = np.array([0.8, 0.2, 0.3, 0.7])
    x = rng_for(seed, 12).normal(size=4)
    fwd = models.log_density(hmm, theta, x)
    brute = _hmm_brute_force(hmm, theta, x)
    out.append(_check("hmm-forward-brute-force", abs(fwd - brute) < 1e-10,
                      f"|delta| = {abs(fwd - brute):.2e}"))

    # 7. clipped metric: symmetry + triangle on random triples
    spec = ecvq.DistortionSpec(rho_max=1.0)
    rng = rng_for(seed, 13)
    tri_ok = True
    for _ in range(2000):
        a, b, c = rng.normal(scale=2.0, size=(3, 6))
        dab, dba = ecvq.rho_n(spec, a, b), ecvq.rho_n(spec, b, a)
        if abs(dab - dba) > 1e-12 or dab > ecvq.rho_n(spec, a, c) + ecvq.rho_n(spec, c, b) + 1e-12:
            tri_ok = False
            break
    out.append(_check("rho-metric-properties", tri_ok, "2000 random triples"))

    # 8/9. ECVQ Kraft + cap + Lloyd descent
    kraft_ok = cap_ok = mono_ok = True
    for s in range(5):
        Xtr = gauss.sample_paths((0.0, 1.0), 8, 300, rng_for(seed, 14, s))
        book = ecvq.ecvq_design(Xtr, lam=0.4, initial_size=16, spec=spec,
                                seed=seed + s)
        kraft_ok &= book.kraft_sum() <= 1.0 + 1e-12
        cap_ok &= book.max_normalized_length() <= 2 * spec.rho_max / 0.4 + 1e-12
        hist = np.array(book.training_lagrangians)
        mono_ok &= bool(np.all(np.diff(hist) <= 1e-9))
    out.append(_check("ecvq-kraft-inequality", kraft_ok, "5 seeded designs"))
    out.append(_check("ecvq-length-cap", cap_ok, "max len/n <= 2 rho_max/lambda"))
    out.append(_check("ecvq-lloyd-descent", mono_ok, "pre-rounding Lagrangian"))

    # 10. exact-1d vs MC distance
    ex = distances.variational_exact_1d(gauss, (0.0, 1.0), (1.0, 1.0))
    mc = distances.variational_mc(gauss, (0.0, 1.0), (1.0, 1.0), 1, 100_000, seed)
    out.append(_check("distance-exact-vs-mc",
                      abs(ex.value - mc.value) <= 3 * mc.standard_error,
                      f"exact={ex.value:.4f} mc={mc.value:.4f}"))

    # 11. Pinsker chain
    kl = distances.kl_gaussian_iid((0.0, 1.0), (1.0, 1.0))
    out.append(_check("pinsker-chain", ex.value <= math.sqrt(2 * kl) + 1e-9,
                      f"{ex.value:.4f} <= sqrt(2*{kl:.3f})"))

    # 12. smoothness condition (Gaussian closed-form constant)
    rows = distances.smoothness_check(gauss, (0.0, 1.0), [0.05, 0.1], [1, 4, 16],
                                      seed, num_samples=8000)
    out.append(_check("gaussian-smoothness", all(r.passed for r in rows),
                      f"{sum(r.passed for r in rows)}/{len(rows)} grid points"))

    # 13. VC formula values
    v1 = mde.vc_bound(gauss, 4).bound
    v2 = mde.vc_bound(models.GaussianAR(p=2), 4).bound
    v3 = mde.vc_bound(hmm, 8).bound
    ok = (abs(v1 - 12 * math.log2(12 * math.e)) < 1e-9
          and abs(v2 - 12 * math.log2(8 * math.e)) < 1e-9
          and abs(v3 - 16 * math.log2(32 * math.e)) < 1e-9)
    out.append(_check("vc-formula-values", ok,
                      f"{v1:.2f}, {v2:.2f}, {v3:.2f}"))

    # 14. VC deviation vs tail bound on a small grid
    dev_ok = True
    cands = mde.CandidateSet.build(gauss, [(-1.0, 1.0), (0.0, 1.0), (1.0, 1.0),
                                           (0.0, 2.0)])
    for s in range(20):
        Xb = gauss.sample_paths((0.0, 1.0), 1, 2048, rng_for(seed, 15, s))
        emp = mde._pair_frequencies(mde._membership_tensor(gauss, cands, Xb))
        ref = mde._model_pair_frequencies(gauss, cands, (0.0, 1.0), 1,
                                          200_000, seed + 999)
        dev = float(np.max(np.abs(emp - ref)[~np.eye(len(cands), dtype=bool)]))
        eps = 0.6
        if mde.vc_deviation_bound(2048, 2.0, eps) < 1 and dev > eps:
            dev_ok = False
    out.append(_check("vc-uniform-deviation", dev_ok, "20 seeds, eps=0.6"))

    # 15. MDE key inequality audit (small)
    eq2_ok = True
    grid = mde.CandidateSet.build(gauss, [(m, 1.0) for m in np.linspace(-2, 2, 9)]
                                  + [(0.0, 1.0)])
    for s in range(10):
        Z = gauss.sample_paths((0.0, 1.0), 8, 64, rng_for(seed, 16, s))
        theta_t, u = mde.mde_estimate(gauss, Z, grid, 2000, seed + s,
                                      return_u=True)
        i0 = grid.thetas.index((0.0, 1.0))
        d = distances.variational_mc(gauss, (0.0, 1.0), theta_t, 8, 20_000,
                                     seed + 7 * s)
        if d.value > 4 * u[i0] + 3.0 / 8 + 3 * (d.standard_error + 0.02):
            eq2_ok = False
    out.append(_check("mde-distance-inequality", eq2_ok, "10 seeded runs, n=8"))

    # 16/17. two-stage round trip + truncation atomicity
    sc = scheme.SchemeConfig(n=4, lam=0.5, c_delta=1.0, database_seed=seed,
                             code_seed=seed + 1, n_candidates=8,
                             distance_mc=200, mde_mc=500, train_blocks=64,
                             i_max=200)
    db = scheme.Database(family=gauss, seed=seed,
                         prior={"m_scale": 2.0, "log_sigma_scale": 0.5})
    hist, cur = scheme.sample_scene(gauss, (0.0, 1.0), sc, seed + 5)
    enc = scheme.encode_block(sc, db, hist, cur)
    stream = enc.stream()
    if corrupt_stream:
        stream = stream[:max(1, len(stream) - 2)]
    try:
        dec = scheme.decode_block(sc, db, stream)
        rt_ok = (tuple(dec.theta_hat) == enc.theta_hat
                 and dec.bits_consumed == enc.total_bits)
        trunc_raised = False
    except scheme.MalformedStreamError:
        rt_ok = False
        trunc_raised = True
    out.append(_check("two-stage-round-trip", rt_ok and not trunc_raised,
                      f"{enc.total_bits} bits"))
    try:
        scheme.decode_block(sc, db, enc.stream()[:enc.total_bits - 2])
        trunc_ok = False
    except scheme.MalformedStreamError:
        trunc_ok = True
    out.append(_check("truncated-stream-rejected", trunc_ok, "atomic failure"))

    # 18. blocking bound decreases along the Theorem-1 gap schedule
    ar_cfgs = [scheme.SchemeConfig(n=n, lam=0.5, r=2.0) for n in (4, 8, 16)]
    bounds = [scheme.blocking_bound(ar, np.array([-0.5]),
                                    scheme.memory_layout(c)) for c in ar_cfgs]
    out.append(_check("blocking-bound-decreasing",
                      all(b1 >= b2 for b1, b2 in zip(bounds, bounds[1:])),
                      f"{['%.3g' % b for b in bounds]}"))

    return out


def _hmm_brute_force(hmm: models.HiddenMarkov, theta, x: np.ndarray) -> float:
    """Direct sum over all state sequences; oracle for the forward recursion."""
    A = hmm.transition_matrix(theta)
    pi = hmm.stationary_dist(theta)
    xs = np.asarray(x, dtype=float).reshape(-1, hmm.letter_dim)
    n = xs.shape[0]
    emis = np.exp(hmm._emission_logpdf(xs))  # (n, M)
    total = 0.0
    import itertools
    for states in itertools.product(range(hmm.M), repeat=n):
        p = pi[states[0]] * emis[0, states[0]]
        for t in range(1, n):
            p *= A[states[t - 1], states[t]] * emis[t, states[t]]
        total += p
    return math.log(total)


def format_report(results: list[CheckResult]) -> str:
    lines = []
    for r in results:
        lines.append(f"[{'PASS' if r.passed else 'FAIL'}] {r.name}: {r.detail}")
    n_fail = sum(not r.passed for r in results)
    lines.append(f"{len(results) - n_fail}/{len(results)} checks passed")
    return "\n".join(lines)
