"""Experiment orchestration: redundancy and identification experiments with
CSV output.

Configs are JSON files with an explicit schema_version; identical config and
seed produce byte-identical CSV.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
from dataclasses import dataclass

import numpy as np

from . import distances, ecvq, models, scheme
from .models import COUNT, INTEGER, POINTS, ConfigError, Need, declarations
from .rand import TAG_TRIAL, derive_seed

CSV_SCHEMA = "twostage-csv v1"


@dataclass
class ExperimentConfig:
    family_spec: dict = Need("object", "family an object").field()
    theta0: tuple = Need("number", "{} a list of numbers", depth=1).field()
    n_grid: tuple = Need("integer", "{} non-empty and strictly increasing",
                         lambda v: list(v) == sorted(set(v)) != [], depth=1).field()
    trials: int = COUNT.field()
    seed: int = INTEGER.field(0)
    scheme: dict = Need("object", "scheme an object").field({})
    eval_blocks: int = COUNT.field(2000)
    oracle_train_blocks: int = COUNT.field(2048)
    identify_mc: int = COUNT.field(4000)
    plant: tuple = POINTS.field(())          # parameters pinned at indices 1, 2, ...
    # fresh codebook training per trial
    per_trial_code_seed: bool = Need("boolean", "{} true or false").field(False)

    def __post_init__(self):    # JSON lists as tuples, and a scheme of its own
        self.theta0, self.n_grid = tuple(self.theta0), tuple(self.n_grid)
        self.plant, self.scheme = tuple(map(tuple, self.plant)), dict(self.scheme)

    def family(self) -> models.SourceFamily:
        return models.make_family(self.family_spec)

    def scheme_config(self, n: int) -> scheme.SchemeConfig:
        return scheme.SchemeConfig(**{"database_seed": self.seed, "code_seed": self.seed + 1,
                                      **self.scheme, "n": n})

    def database(self, family) -> scheme.Database:
        sc = self.scheme_config(self.n_grid[0])
        return scheme.Database(family=family, seed=sc.database_seed,
                               prior=sc.prior, planted=self.plant)


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


# a config's keys: the version and each ExperimentConfig field (family_spec's is
# "family"); a scheme's: each SchemeConfig field but n, which n_grid sets
TOP = {"schema_version": Need("integer", "schema_version 1", lambda v: v == 1),
       **{"family" if k == "family_spec" else k: v
          for k, v in declarations(ExperimentConfig).items()}}
SCHEME = {k: v for k, v in declarations(scheme.SchemeConfig).items() if k != "n"}


def build_config(raw: dict) -> ExperimentConfig:
    if type(raw) is not dict:
        raise ConfigError("config must be a JSON object")
    family, sch = raw.get("family"), raw.get("scheme")
    cls, family_needs, family_rules = models.family_spec(family)
    parts = [("", raw, TOP, {})]   # a part that is no object fails in the part above it
    if isinstance(family, dict):
        parts.append(("family", family, family_needs, family_rules))
    if isinstance(sch, dict):
        parts.append(("scheme", sch, SCHEME, scheme.SchemeConfig.config_rules))
        if cls and isinstance(sch.get("prior"), dict):   # a prior's keys are its family's
            parts.append(("scheme.prior", sch["prior"], cls.prior_keys, cls.prior_rules))
    models.check(*parts)
    cfg = ExperimentConfig(family_spec=family, **{
        k: v for k, v in raw.items() if k not in ("schema_version", "family")})
    try:
        fam = cfg.family()
        anchors, db = cfg.scheme_config(cfg.n_grid[0]).anchors, cfg.database(fam)
        scheme.gap_length(cfg.scheme_config(cfg.n_grid[-1]))   # the longest gap
        # a checked prior draws only valid points: one draw past the planted ones
        for theta in (cfg.theta0, *anchors, *map(db.point, range(1, len(db.planted) + 2))):
            fam.validate(theta)
    except Exception as exc:
        raise ConfigError(f"config semantic error: {exc}") from exc
    return cfg


def _one_thread(threads) -> None:   # trials run in one loop
    if threads != 1:
        raise ValueError(f"threads must be 1, got {threads!r}")


def _run_grid(cfg: ExperimentConfig, out_path: str, header: list[str],
              measure: str, trial_row,
              summary=lambda xs, medians: ([], {})) -> dict:
    """The grid loop of both experiments: the candidates once (no block
    length changes them), per block length the scheme config and x value;
    per trial (in grid order) its seed, code seed and scene, then
    ``trial_row(family, db, sc, candidates, scene, seed)`` for the
    experiment's own columns.  The CSV holds the trial rows, the median of
    column ``measure`` per block length and the rows of
    ``summary(xs, medians)``, which also returns extra summary entries."""
    family = cfg.family()
    db = cfg.database(family)
    per_n = {n: cfg.scheme_config(n) for n in cfg.n_grid}
    candidates = scheme.candidate_set(per_n[cfg.n_grid[0]], db)
    xs = {n: math.sqrt(family.vc_bound(n) * math.log(n) / n)   # the redundancy rate's scale
          for n in cfg.n_grid}

    def run(n, trial):
        sc = per_n[n]
        seed = derive_seed(cfg.seed, TAG_TRIAL, n, trial)
        if cfg.per_trial_code_seed:
            # the code seed also seeds the waiting-time distance probes
            sc = dataclasses.replace(sc, code_seed=derive_seed(seed, 7))
        scene = scheme.sample_scene(family, np.asarray(cfg.theta0), sc, seed)
        return {"kind": "trial", "n": n, "trial": trial, "x_value": xs[n],
                "seed": seed, "tol": scheme.waiting_tolerance(sc),
                **trial_row(family, db, sc, candidates, scene, seed)}

    rows = [run(n, t) for n in cfg.n_grid for t in range(cfg.trials)]
    medians = {n: float(np.median([r[measure] for r in rows if r["n"] == n]))
               for n in cfg.n_grid}
    tail, extra = summary(xs, medians)
    with open(out_path, "w", newline="") as fh:
        fh.write(f"# {CSV_SCHEMA}\n")
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
    one CSV row per trial plus median/slope summary rows.  ``threads`` must
    be 1; the keyword goes once ``bench/workloads.py`` stops passing it."""
    _one_thread(threads)
    theta0 = np.asarray(cfg.theta0)
    # (n, code seed) -> the oracle's Lagrangian; one entry per trial at most
    oracles = {}

    def trial_row(family, db, sc, candidates, scene, seed):
        def lagrangian(sc, theta, index):   # of a book on fresh theta0 blocks
            book = scheme.provision_codebook(sc, family, theta, index)
            return ecvq.lagrangian_eval(book, family, theta0, cfg.eval_blocks,
                                        derive_seed(cfg.seed, TAG_TRIAL, sc.n))

        if (sc.n, sc.code_seed) not in oracles:   # a book trained on theta0
            oracles[sc.n, sc.code_seed] = lagrangian(dataclasses.replace(
                sc, train_blocks=cfg.oracle_train_blocks), theta0, 0).lagrangian
        oracle = oracles[sc.n, sc.code_seed]
        enc = scheme.encode_block(sc, db, *scene, candidates=candidates)
        theta_hat = np.asarray(enc.theta_hat)
        rep = lagrangian(sc, theta_hat, scheme.book_index(enc.waiting_time))
        first_bits = 1 + len(enc.s1)
        l_star = rep.lagrangian + sc.lam * first_bits / sc.n
        return {
            "lagrangian_star": l_star, "lagrangian_oracle": oracle,
            "redundancy": l_star - oracle, "first_stage_bits": first_bits,
            "b_flag": enc.b,
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

    return _run_grid(cfg, out_path, REDUNDANCY_HEADER, "redundancy",
                     trial_row, slope_row)


IDENTIFY_HEADER = [
    "kind", "n", "trial", "d_theta0_theta_hat", "d_theta0_theta_tilde",
    "d_theta_tilde_theta_hat", "tol", "b_flag", "waiting_time",
    "d_se", "x_value", "seed",
]


def run_identification_experiment(cfg: ExperimentConfig, out_path: str,
                                  threads: int = 1) -> dict:
    """Measure d_n(theta0, theta_hat) per trial with its triangle
    decomposition through the MDE output theta_tilde.  ``threads`` must be
    1; the keyword goes once ``bench/workloads.py`` stops passing it."""
    _one_thread(threads)
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

    return _run_grid(cfg, out_path, IDENTIFY_HEADER,
                     "d_theta0_theta_hat", trial_row)
