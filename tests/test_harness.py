import csv
import json
import math
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from twostage import cli, scheme
from twostage.harness import (SCHEME, TOP, ConfigError, build_config, load_config,
                              run_identification_experiment,
                              run_redundancy_experiment)
from twostage.models import COUNT, FAMILIES, NATURAL, family_spec
from twostage.scheme import SchemeConfig, clear_codebook_cache


def tiny_raw(**kw):
    raw = {
        "schema_version": 1,
        "family": {"kind": "gaussian-iid"},
        "theta0": [0.0, 1.0],
        "n_grid": [4, 6],
        "trials": 2,
        "seed": 77,
        "plant": [[0.0, 1.0]],      # theta0 at database index 1
        "eval_blocks": 200,
        "identify_mc": 400,
        "scheme": {"lam": 0.5, "n_candidates": 4, "i_max": 50,
                   "distance_mc": 200, "mde_mc": 300, "train_blocks": 48,
                   "max_initial_size": 8},
    }
    raw.update(kw)
    return raw


AR1 = {"kind": "gaussian-ar", "p": 1}
HMM2 = {"kind": "hmm", "M": 2, "a0": 0.05, "emission_means": [1.0, -1.0],
        "emission_stds": [1.0, 1.0]}
HMM2_THETA = [0.8, 0.2, 0.3, 0.7]
# the prior keys of the AR and HMM families: a prior with one of them runs on
# that family, with a theta0 and an anchor of its size
PRIOR_FAMILIES = {"low": (AR1, [0.5], [-0.5]), "high": (AR1, [0.5], [-0.5]),
                  "concentration": (HMM2, HMM2_THETA, [0.2, 0.8, 0.7, 0.3])}

# a JSON string or null for a numeric scheme field raised a TypeError that
# named no field (a null r is inf); the name of each in the "need ..." message
NEED_NAMES = {"lam": "lambda", "eta": "eta", "r": "r", "c_delta": "c_delta",
              "rho_max": "rho_max", "n_candidates": "n_candidates"}
NON_NUMBERS = [(f, v) for f in NEED_NAMES for v in ("1", None) if (f, v) != ("r", None)]
# fields that passed build_config and then failed the run with a traceback
BAD_SCHEME = [("c_delta", -1.0), ("mde_mc", 0), ("distance_mc", 0),
              ("n_candidates", -1), ("n_candidates", 0), ("rho_max", 0.0),
              ("rho_max", math.inf),
              ("train_blocks", 0), ("design_restarts", 0),
              ("max_initial_size", 0), ("r", 0.0),
              ("l_cap", -1), ("anchors", [[0.0, -1.0]]),
              ("i_max", 2.5), ("prior", {"m_scale": -1.0}),
              # sigma = exp(draw) overflows in later draws, not the first
              ("prior", {"log_sigma_loc": 708.0, "log_sigma_scale": 1.0}),
              # prior keys that the family does not read were ignored
              ("prior", {"m_scal": 0.001}), ("prior", {"lo": -0.1}),
              ("code_seed", "x"), ("code_seed", None),
              # each of these ran on a value coerced to an integer or a float
              ("code_seed", 1.5), ("code_seed", True), ("database_seed", 2.5),
              ("lam", True), ("eta", True), ("r", True), ("c_delta", True),
              ("rho_max", True), *NON_NUMBERS,
              # AR and HMM priors: low > high and a concentration of -1 read
              # "high - low < 0" and "alpha < 0", an infinite range raised an
              # OverflowError, and a concentration of 0 ran 10,000 futile draws
              ("prior", {"low": 2.0, "high": 1.0}), ("prior", {"low": -1e308, "high": 1e308}),
              ("prior", {"concentration": -1.0}), ("prior", {"concentration": 0.0})]
BAD_TOP = [("eval_blocks", 0), ("identify_mc", 0), ("oracle_train_blocks", 0),
           # each of these was silently coerced: a JSON integer that is not
           # a bool, a JSON boolean, a list, a list of lists
           ("trials", 2.7), ("trials", True), ("seed", 1.5),
           ("eval_blocks", "200"), ("oracle_train_blocks", True),
           ("identify_mc", 400.0), ("n_grid", "46"), ("n_grid", [4.0, 6]),
           ("per_trial_code_seed", "false"), ("theta0", "01"), ("plant", ""),
           ("plant", ["01"]), ("scheme", [["lam", 0.5]])]


# what a field needs to reach the run: l_cap a finite mixing exponent r; a
# prior no database candidates and an anchor far from theta0, so that the
# search draws from it past index 1
NEEDS = {"l_cap": {"r": 2.0}, "prior": {"n_candidates": 0, "anchors": [[5.0, 1.0]]}}


def bad_raw(where, field, value):
    raw = tiny_raw()
    if where == "top":
        raw[field] = value
    else:
        raw["scheme"].update({field: value, **NEEDS.get(field, {})})
        if field == "prior" and (keys := [k for k in value if k in PRIOR_FAMILIES]):
            family, theta0, anchor = PRIOR_FAMILIES[keys[0]]
            raw.update(family=family, theta0=theta0, plant=[theta0])
            raw["scheme"]["anchors"] = [anchor]
    return raw


BAD_CONFIGS = [pytest.param("scheme", f, v, id=f"{f}={v}") for f, v in BAD_SCHEME] + \
    [pytest.param("top", f, v, id=f"{f}={v}") for f, v in BAD_TOP]

# keys that used to load without effect, or coerced: the error names each
NAMED_KEYS = [   # (key, the changes to tiny_raw)
    ("eval_block", {"eval_block": 10}),
    ("mixing_c", {"family": AR1 | {"mixing_c": 5.0}, "theta0": [0.5]}),
    # no family reads mixing constants: the scheme reads only r
    ("mixing_C", {"family": AR1 | {"mixing_C": 5.0}, "theta0": [0.5]}),
    ("mixing_gamma", {"family": HMM2 | {"mixing_gamma": 0.5},
                      "theta0": [0.8, 0.2, 0.3, 0.7]}),
    ("p", {"family": AR1 | {"p": 2.7}, "theta0": [0.5, 0.1]}),
    ("p", {"family": AR1 | {"p": True}, "theta0": [0.5]}),
    ("M", {"family": HMM2 | {"M": 2.9}, "theta0": [0.8, 0.2, 0.3, 0.7]}),
    ("a0", {"family": HMM2 | {"a0": "0.05"}, "theta0": [0.8, 0.2, 0.3, 0.7]}),
    ("a0", {"family": HMM2 | {"a0": True}, "theta0": [0.8, 0.2, 0.3, 0.7]}),
    # emission entries must be JSON numbers: float() reads "-1" and true,
    # a null becomes NaN, and a ragged list fails without a name
    ("emission_means", {"family": HMM2 | {"emission_means": ["-1", "1"]},
                        "theta0": [0.8, 0.2, 0.3, 0.7]}),
    ("emission_stds", {"family": HMM2 | {"emission_stds": [True, "1.0"]},
                       "theta0": [0.8, 0.2, 0.3, 0.7]}),
    ("emission_stds", {"family": HMM2 | {"emission_stds": [True, 1.0]},
                       "theta0": [0.8, 0.2, 0.3, 0.7]}),
    ("emission_stds", {"family": HMM2 | {"emission_stds": [1.0, None]},
                       "theta0": [0.8, 0.2, 0.3, 0.7]}),
    ("emission_means", {"family": HMM2 | {"emission_means": [[-1.0], [1.0, 0.0]]},
                        "theta0": [0.8, 0.2, 0.3, 0.7]}),
    # a missing family field
    ("p", {"family": {"kind": "gaussian-ar"}, "theta0": [0.5]}),
    ("emission_stds", {"family": {k: v for k, v in HMM2.items() if k != "emission_stds"},
                       "theta0": [0.8, 0.2, 0.3, 0.7]}),
    # the paper's tolerance schedule is not offered
    ("delta_mode", {"scheme": tiny_raw()["scheme"] | {"delta_mode": "paper"}}),
    # prior values must be JSON numbers: a true ran as 1, and a string failed
    # without naming its key
    ("m_scale", {"scheme": tiny_raw()["scheme"] | {"prior": {"m_scale": True}}}),
    ("m_loc", {"scheme": tiny_raw()["scheme"] | {"prior": {"m_loc": "3"}}}),
    ("concentration", {"family": HMM2, "theta0": [0.8, 0.2, 0.3, 0.7],
                       "plant": [[0.8, 0.2, 0.3, 0.7]],
                       "scheme": tiny_raw()["scheme"] | {"prior": {"concentration": True}}}),
    # parameter vectors must hold JSON numbers: each ran on 1.0 or 0.0
    ("theta0", {"theta0": [0.0, True]}),
    ("theta0", {"theta0": ["0", 1.0]}),
    ("plant", {"plant": [[0.0, True]]}),
    ("anchors", {"scheme": tiny_raw()["scheme"] | {"anchors": [[True, 1.0]]}}),
]


def named_id(key, changes) -> str:
    scheme = changes.get("scheme", {})
    where = (changes, changes.get("family", {}), scheme, scheme.get("prior", {}))
    return f"{key}=" + next((str(d[key]) for d in where if key in d), "missing")


NAMED = [pytest.param(k, c, id=named_id(k, c)) for k, c in NAMED_KEYS]


class TestConfig:
    def test_malformed_json_reports_position(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{\n  "schema_version": 1,\n  "trials": ,\n}\n')
        with pytest.raises(ConfigError, match=r"line 3"):
            load_config(str(p))

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config("/no/such/config.json")

    def test_non_object_rejected(self):
        with pytest.raises(ConfigError, match="JSON object"):
            build_config([1, 2])

    def test_schema_version_required(self):
        with pytest.raises(ConfigError, match="schema_version"):
            build_config(tiny_raw(schema_version=2))

    def test_missing_key(self):
        raw = tiny_raw()
        del raw["theta0"]
        with pytest.raises(ConfigError, match="theta0"):
            build_config(raw)

    def test_zero_trials_rejected(self):
        with pytest.raises(ConfigError, match="trials"):
            build_config(tiny_raw(trials=0))

    def test_unsorted_grid_rejected(self):
        with pytest.raises(ConfigError, match="n_grid"):
            build_config(tiny_raw(n_grid=[8, 4]))

    def test_semantic_error_surfaced(self):
        with pytest.raises(ConfigError, match="semantic"):
            build_config(tiny_raw(theta0=[0.0, -1.0]))

    def test_block_length_one_rejected(self):
        # the tolerance rule needs n >= 2; n_grid is increasing, so
        # checking its first entry covers the grid
        with pytest.raises(ConfigError, match="semantic"):
            build_config(tiny_raw(n_grid=[1, 4]))

    @pytest.mark.parametrize("where,field,value", BAD_CONFIGS)
    def test_unrunnable_field_rejected(self, where, field, value):
        with pytest.raises(ConfigError):
            build_config(bad_raw(where, field, value))

    @pytest.mark.parametrize("field,value", NON_NUMBERS)
    def test_non_number_is_named(self, field, value):
        with pytest.raises(ConfigError, match=rf"need .*\b{NEED_NAMES[field]}\b"):
            build_config(bad_raw("scheme", field, value))

    @pytest.mark.parametrize("key,changes", NAMED)
    def test_unread_or_coerced_key_is_named(self, key, changes):
        with pytest.raises(ConfigError, match=rf"\b{key}\b"):
            build_config(tiny_raw(**changes))

    @pytest.mark.parametrize("family,missing", [
        ({"kind": "gaussian-ar"}, "p"),
        ({"kind": "hmm", "M": 2}, "a0, emission_means, emission_stds")])
    def test_missing_family_field_is_named(self, family, missing):
        # every missing field by its path, not a bare KeyError's 'p'
        need = {"p": "integer 1 <= p < 2^63", "a0": "a0 >= 0",
                "emission_means": "emission_means finite numbers",
                "emission_stds": "emission_stds finite numbers > 0"}
        message = "; ".join(f"family.{f}: need {need[f]}" for f in missing.split(", "))
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            build_config(tiny_raw(family=family))

    @pytest.mark.parametrize("family,theta0,prior,key", [
        ({"kind": "gaussian-iid"}, [0.0, 1.0], {"m_scal": 0.001}, "m_scal"),
        (AR1, [0.5], {"lo": -0.1, "high": 1.0}, "lo"),
        (HMM2, [0.8, 0.2, 0.3, 0.7], {"concentration": 2.0, "m_scale": 1.0},
         "m_scale")])
    def test_unread_prior_key_is_named(self, family, theta0, prior, key):
        raw = tiny_raw(family=family, theta0=theta0, plant=[theta0])
        raw["scheme"]["prior"] = prior
        with pytest.raises(ConfigError, match=rf"unknown key\(s\): {key}$"):
            build_config(raw)

    @pytest.mark.parametrize("prior,message", [pytest.param(p, m, id=repr(p)) for p, m in [
        ({"low": 2.0, "high": 1.0},
         "scheme.prior.low, scheme.prior.high: need low < high, high - low finite"),
        ({"low": -1e308, "high": 1e308},
         "scheme.prior.low, scheme.prior.high: need low < high, high - low finite"),
        ({"concentration": -1.0}, "scheme.prior.concentration: need finite concentration > 0"),
        ({"concentration": 0.0}, "scheme.prior.concentration: need finite concentration > 0")]])
    def test_prior_domain_is_named(self, prior, message):
        # each read as an unnamed NumPy error, or (a concentration of 0) ran
        # 10,000 futile draws first
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            build_config(bad_raw("scheme", "prior", prior))

    @pytest.mark.parametrize("prior", [["m_loc"], True, 3, "m_loc", []], ids=repr)
    def test_prior_that_is_no_object_is_named(self, prior):
        # a list, bool or number raised an unnamed AttributeError or
        # TypeError, a string read its characters as keys, and [] ran as
        # the default prior
        raw = tiny_raw()
        raw["scheme"]["prior"] = prior
        with pytest.raises(ConfigError, match=r"need prior a dict or None$"):
            build_config(raw)

    def test_null_prior_is_the_default(self):
        raw = tiny_raw()
        raw["scheme"]["prior"] = None
        cfg = build_config(raw)
        db = cfg.database(cfg.family())
        assert db.prior is None and np.array_equal(
            db.point(2), build_config(tiny_raw()).database(cfg.family()).point(2))

    def test_every_unknown_scheme_key_is_named(self):
        # SchemeConfig's own TypeError named only the first
        raw = tiny_raw(scheme=tiny_raw()["scheme"] | {"lamda": 0.5, "delta_mode": "paper"})
        with pytest.raises(ConfigError, match=r"^scheme: unknown key\(s\): delta_mode, lamda$"):
            build_config(raw)

    @pytest.mark.parametrize("eta", [math.inf, 1e308, 2000, 60])
    def test_overflowing_gap_length_is_named(self, tmp_path, eta):
        # n^((2+eta)/r) overflowed a float and the run ended in an
        # OverflowError, or (eta = 60: l_n = 4^31) sized a path beyond
        # NumPy's index range, a ValueError; an l_cap clamps it, and the
        # config runs
        raw = tiny_raw(n_grid=[4], trials=1)
        raw["scheme"].update(eta=eta, r=2.0)
        with pytest.raises(ConfigError, match=r"^config semantic error: the sampled path of "
                                              r".* exceeds 2\^63 - 1 at n = 4: "):
            build_config(raw)
        raw["scheme"]["l_cap"] = 3
        p, out = tmp_path / "cfg.json", tmp_path / "o.csv"
        p.write_text(json.dumps(raw))
        assert build_config(raw).scheme_config(4).l_cap == 3
        assert cli.main(["identify", "--config", str(p), "--out", str(out)]) == 0

    def test_block_length_beyond_the_index_range_is_named(self):
        # n (n + l_n) + n letters >= 2^63 with no gap at all
        with pytest.raises(ConfigError, match=r"^config semantic error: the sampled path of "
                                              r".* exceeds 2\^63 - 1 at n = 4294967296: "):
            build_config(tiny_raw(n_grid=[4, 2 ** 32]))

    @pytest.mark.parametrize("where,key", [(w, k) for w, needs in (("", TOP), ("scheme", SCHEME))
                                           for k, need in needs.items()
                                           if need.ok in (COUNT.ok, NATURAL.ok)])
    @pytest.mark.parametrize("value", [2 ** 63, 10 ** 400], ids=["2^63", "10^400"])
    def test_count_beyond_the_index_range_is_named(self, tmp_path, where, key, value):
        # a count NumPy cannot size an array by passed, and the run ended in
        # "ValueError: Maximum allowed dimension exceeded"
        raw = tiny_raw()
        part(raw, where)[key] = value
        path = f"{where}.{key}" if where else key
        with pytest.raises(ConfigError, match=rf"^{re.escape(path)}: need integer .* < 2\^63$"):
            build_config(raw)
        p, out = tmp_path / "cfg.json", tmp_path / "o.csv"
        p.write_text(json.dumps(raw))
        assert cli.main(["redundancy", "--config", str(p), "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("field", ["lam", "eta", "r", "c_delta", "rho_max"])
    def test_integer_beyond_the_float_range_is_named(self, tmp_path, field):
        # a 401-digit JSON integer passed every number domain and the run
        # ended in an OverflowError
        raw = tiny_raw()
        raw["scheme"][field] = 10 ** 400
        with pytest.raises(ConfigError, match=rf"^scheme.{field}: need "):
            build_config(raw)
        p, out = tmp_path / "cfg.json", tmp_path / "o.csv"
        p.write_text(json.dumps(raw))
        assert cli.main(["redundancy", "--config", str(p), "--out", str(out)]) == 2
        assert not out.exists()

    def test_config_check_draws_no_candidates(self, monkeypatch):
        # the check drew all n_candidates database points, so a count that
        # passed its domain held it for hours; it draws each planted point
        # and one prior point
        drawn, point = [], scheme.Database.point
        monkeypatch.setattr(scheme.Database, "point",
                            lambda db, i: drawn.append(i) or point(db, i))
        raw = tiny_raw(plant=[[0.0, 1.0], [0.5, 2.0]])
        raw["scheme"]["n_candidates"] = 2 ** 62
        assert build_config(raw).scheme["n_candidates"] == 2 ** 62
        assert len(drawn) <= len(raw["plant"]) + 1

    def test_anchors_alone_are_candidates(self):
        raw = tiny_raw()
        raw["scheme"].update(n_candidates=0, anchors=[[0.0, 1.0]])
        assert build_config(raw).scheme["n_candidates"] == 0

    def test_round_trip(self, tmp_path):
        p = tmp_path / "ok.json"
        p.write_text(json.dumps(tiny_raw()))
        cfg = load_config(str(p))
        assert cfg.n_grid == (4, 6) and cfg.trials == 2 and cfg.seed == 77


class TestExperiments:
    def test_redundancy_csv_shape(self, tmp_path):
        cfg = build_config(tiny_raw())
        out = tmp_path / "red.csv"
        summary = run_redundancy_experiment(cfg, str(out))
        lines = out.read_text().splitlines()
        assert lines[0] == "# twostage-csv v1"
        assert lines[1].startswith("kind,n,trial,")
        trial_rows = [l for l in lines if l.startswith("trial,")]
        assert len(trial_rows) == len(cfg.n_grid) * cfg.trials
        assert sum(l.startswith("median,") for l in lines) == len(cfg.n_grid)
        assert sum(l.startswith("slope,") for l in lines) == 1
        assert set(summary["medians"]) == {4, 6}

    def test_redundancy_is_byte_deterministic(self, tmp_path):
        cfg = build_config(tiny_raw())
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_redundancy_experiment(cfg, str(a))
        clear_codebook_cache()
        run_redundancy_experiment(build_config(tiny_raw()), str(b))
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("runner", [run_redundancy_experiment,
                                        run_identification_experiment])
    @pytest.mark.parametrize("threads", [0, -3])
    def test_thread_count_below_one_raises(self, tmp_path, runner, threads):
        # the runner refuses fewer than one thread, before any trial runs
        out = tmp_path / "o.csv"
        with pytest.raises(ValueError, match="threads must be 1"):
            runner(build_config(tiny_raw(n_grid=[4], trials=1)), str(out),
                   threads=threads)
        assert not out.exists()

    @pytest.mark.parametrize("runner", [run_redundancy_experiment,
                                        run_identification_experiment])
    def test_only_one_thread_runs(self, tmp_path, runner):
        # trials run in one loop: the runner takes threads=1 and refuses more
        # threads before a trial runs or the CSV opens
        cfg = build_config(tiny_raw(n_grid=[4], trials=1))
        out = tmp_path / "t2.csv"
        with pytest.raises(ValueError, match="threads must be 1"):
            runner(cfg, str(out), threads=2)
        assert not out.exists()
        runner(cfg, str(tmp_path / "t1.csv"), threads=1)
        assert (tmp_path / "t1.csv").exists()

    def test_experiments_share_the_first_stage(self, tmp_path, monkeypatch):
        # each (n, trial) draws one scene and runs one first stage, whichever
        # experiment asks; each run builds its candidates once, for every n
        cfg = build_config(tiny_raw())
        built, candidate_set = [], scheme.candidate_set
        monkeypatch.setattr(scheme, "candidate_set",
                            lambda *a: built.append(a[0].n) or candidate_set(*a))
        red = run_redundancy_experiment(cfg, str(tmp_path / "r.csv"))["rows"]
        ide = run_identification_experiment(cfg, str(tmp_path / "i.csv"))["rows"]
        assert built == [4, 4]
        assert [(r["n"], r["trial"]) for r in red] == \
            [(r["n"], r["trial"]) for r in ide]
        keys = ("seed", "b_flag", "waiting_time", "tol", "x_value")
        for r, i in zip(red, ide):
            assert {k: r[k] for k in keys} == {k: i[k] for k in keys}

    def test_identification_triangle_columns(self, tmp_path):
        cfg = build_config(tiny_raw())
        out = tmp_path / "id.csv"
        summary = run_identification_experiment(cfg, str(out))
        for row in summary["rows"]:
            lhs = row["d_theta0_theta_hat"]
            rhs = (row["d_theta0_theta_tilde"] + row["d_theta_tilde_theta_hat"]
                   + 3 * row["d_se"])
            assert lhs <= rhs
        lines = out.read_text().splitlines()
        assert len([l for l in lines if l.startswith("trial,")]) == \
            len(cfg.n_grid) * cfg.trials


class TestCli:
    def test_config_error_exit_two(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        rc = cli.main(["redundancy", "--config", str(p),
                       "--out", str(tmp_path / "o.csv")])
        assert rc == 2
        assert "config error" in capsys.readouterr().err

    def test_non_object_exit_two(self, tmp_path, capsys):
        p = tmp_path / "list.json"
        p.write_text("[1, 2]")
        rc = cli.main(["identify", "--config", str(p),
                       "--out", str(tmp_path / "o.csv")])
        assert rc == 2
        assert "config error" in capsys.readouterr().err

    def test_block_length_one_exit_two(self, tmp_path, capsys):
        p = tmp_path / "n1.json"
        p.write_text(json.dumps(tiny_raw(n_grid=[1, 4])))
        rc = cli.main(["identify", "--config", str(p),
                       "--out", str(tmp_path / "o.csv")])
        assert rc == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["identify", "redundancy"])
    @pytest.mark.parametrize("threads", ["-3", "0", "1", "2"])
    def test_bad_thread_count_is_a_usage_error(self, tmp_path, capsys,
                                               command, threads):
        # there is no --threads option: every count is an unknown argument
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(tiny_raw(n_grid=[4], trials=1)))
        out = tmp_path / "o.csv"
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--config", str(p), "--out", str(out),
                      "--threads", threads])
        assert exc.value.code == 2
        assert "--threads" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["identify", "redundancy"])
    def test_out_in_missing_directory_is_a_usage_error(
            self, tmp_path, capsys, monkeypatch, command):
        # refused before the config loads, not after every trial has run
        def never(*args, **kwargs):
            raise AssertionError("called before the --out check")
        for name in ("load_config", "run_identification_experiment",
                     "run_redundancy_experiment"):
            monkeypatch.setattr(cli, name, never)
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--config", str(tmp_path / "cfg.json"),
                      "--out", str(tmp_path / "no" / "o.csv")])
        assert exc.value.code == 2
        assert "--out" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["identify", "redundancy"])
    def test_out_is_a_directory_is_a_usage_error(
            self, tmp_path, capsys, monkeypatch, command):
        # refused before the config loads, not by an IsADirectoryError after
        # every trial has run
        def never(*args, **kwargs):
            raise AssertionError("called before the --out check")
        for name in ("load_config", "run_identification_experiment",
                     "run_redundancy_experiment"):
            monkeypatch.setattr(cli, name, never)
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--config", str(tmp_path / "cfg.json"),
                      "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "--out" in capsys.readouterr().err

    @pytest.mark.parametrize("key,changes", NAMED)
    def test_unread_or_coerced_key_exit_two(self, tmp_path, capsys, key, changes):
        p = tmp_path / "named.json"
        p.write_text(json.dumps(tiny_raw(**changes)))
        out = tmp_path / "o.csv"
        rc = cli.main(["identify", "--config", str(p), "--out", str(out)])
        assert rc == 2
        assert key in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("where,field,value", BAD_CONFIGS)
    def test_unrunnable_field_exit_two(self, tmp_path, capsys, where, field, value):
        # the redundancy runner reaches every field; each raised there or
        # ran on a coerced value
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(bad_raw(where, field, value)))
        rc = cli.main(["redundancy", "--config", str(p),
                       "--out", str(tmp_path / "o.csv")])
        assert rc == 2
        assert "config error" in capsys.readouterr().err

    def test_redundancy_end_to_end(self, tmp_path, capsys):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(tiny_raw(n_grid=[4], trials=1)))
        out = tmp_path / "red.csv"
        rc = cli.main(["redundancy", "--config", str(p), "--out", str(out)])
        assert rc == 0 and out.exists()
        assert "median redundancy" in capsys.readouterr().out

    def test_identify_config_fields_change_the_csv(self, tmp_path, capsys):
        def identify(name, **fields):
            p = tmp_path / f"{name}.json"
            p.write_text(json.dumps(tiny_raw(n_grid=[4], trials=1, **fields)))
            out = tmp_path / f"{name}.csv"
            rc = cli.main(["identify", "--config", str(p), "--out", str(out)])
            assert rc == 0
            assert "identification distance" in capsys.readouterr().out
            return out.read_bytes()

        def tol(csv_bytes):
            rows = list(csv.DictReader(csv_bytes.decode().splitlines()[1:]))
            return [r["tol"] for r in rows if r["kind"] == "trial"]

        # the seed and the tolerance's c_delta each reach the CSV
        default = identify("default")
        assert identify("seed", seed=78) != default
        half = tiny_raw()["scheme"] | {"c_delta": 0.5}
        assert tol(identify("c_delta", scheme=half)) != tol(default)


# The declared config fields, each with the family whose config it is part
# of: the top level and the scheme under gaussian-iid, and each family's own
# fields and prior keys under that family.
BASES = {"gaussian-iid": ({"kind": "gaussian-iid"}, [0.0, 1.0]),
         "gaussian-ar": (AR1, [0.5]), "hmm": (HMM2, HMM2_THETA)}
DECLARED = [("", key, "gaussian-iid") for key in TOP] + \
    [("scheme", key, "gaussian-iid") for key in SCHEME] + \
    [(where, key, tag) for tag, cls in FAMILIES.items()
     for where, keys in (("family", family_spec({"kind": tag})[1]),
                         ("scheme.prior", cls.prior_keys))
     for key in keys]


def base_raw(tag: str) -> dict:
    """A runnable one-trial config of family ``tag``, its prior empty."""
    family, theta0 = BASES[tag]
    raw = tiny_raw(family=dict(family), theta0=theta0, plant=[theta0], n_grid=[4],
                   trials=1)
    raw["scheme"]["prior"] = {}
    return raw


def part(raw: dict, where: str) -> dict:
    """The mapping of ``raw`` at path ``where``."""
    for key in filter(None, where.split(".")):
        raw = raw[key]
    return raw


def declaration(where: str, key: str, tag: str):
    return {"": TOP, "scheme": SCHEME, "family": family_spec({"kind": tag})[1],
            "scheme.prior": FAMILIES[tag].prior_keys}[where][key]


# a leaf of each JSON type; an integer is also a number
LEAVES = {"null": None, "boolean": True, "integer": 3, "number": 2.5, "string": "2",
          "object": {}, "array": [1.0]}
# values of each type to try against a declared domain
DOMAIN_TRIES = {"integer": [-1, 0, 1, 2, 7], "string": ["laplace", ""],
                "number": [math.nan, math.inf, -math.inf, -1.0, -0.0, 1e-300, 1e308,
                           10 ** 400]}


def unfit_values(need) -> list:
    """Values that break ``need``: a leaf of another JSON type (inside its
    list, for a list), an empty list one level too deep, and each value of
    its type outside its domain."""
    same = {"integer": {"integer"}, "number": {"integer", "number"}}.get(need.kind, {need.kind})
    other = [v for t, v in LEAVES.items() if t not in same and not (t == "null" and need.null)]
    if need.depth == 0:
        return other + [v for v in DOMAIN_TRIES.get(need.kind, []) if not need.holds(v)]
    leaf = LEAVES[need.kind]
    nest = (lambda v: [[leaf, v]]) if need.depth == 2 else (lambda v: [leaf, v])
    deep = {1: [[[]]], 2: [[[[]]]]}.get(need.depth, [])
    return [nest(v) for v in other] + deep + [v for v in ([6, 4], [], [4, 4]) if not need.ok(v)]


@pytest.mark.parametrize("where,key,tag", [
    pytest.param(*d, id=f"{d[2]}:{d[0] + '.' if d[0] else ''}{d[1]}") for d in DECLARED])
@settings(max_examples=6, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_every_declared_field_names_its_path(tmp_path, where, key, tag, data):
    # a leaf of another JSON type, or a value outside the declared domain,
    # is refused by its path, by the API and by both commands
    value = data.draw(st.sampled_from(unfit_values(declaration(where, key, tag))))
    raw = base_raw(tag)
    part(raw, where)[key] = value
    path = f"{where}.{key}" if where else key
    with pytest.raises(ConfigError, match=rf"(^|; ){re.escape(path)}: need "):
        build_config(raw)
    p, out = tmp_path / "cfg.json", tmp_path / "o.csv"
    p.write_text(json.dumps(raw))
    for command in ("identify", "redundancy"):
        assert cli.main([command, "--config", str(p), "--out", str(out)]) == 2
        assert not out.exists()


# The declared rules across fields, each with the family whose config it is
# part of and values that break it.
RULES = [("scheme", keys, "gaussian-iid", words) for keys, (words, _) in
         SchemeConfig.config_rules.items()] + \
    [(where, keys, tag, words) for tag, cls in FAMILIES.items()
     for where, rules in (("family", cls.field_rules), ("scheme.prior", cls.prior_rules))
     for keys, (words, _) in rules.items()]
BREAKS = {
    ("n_candidates", "anchors"): [{"n_candidates": 0, "anchors": []}],
    ("M", "a0"): [{"a0": 0.5}],
    # the last: letters in R^0, which ran into an IndexError in the codebook design
    ("M", "emission_means", "emission_stds"): [
        {"emission_stds": [1.0]}, {"M": 3}, {"emission_stds": [[1.0], [1.0]]},
        {"emission_means": [[], []], "emission_stds": [[], []]}],
    ("m_loc", "m_scale"): [{"m_scale": 1e308}],
    ("log_sigma_loc", "log_sigma_scale"): [{"log_sigma_loc": 708.0, "log_sigma_scale": 1.0}],
    ("low", "high"): [{"low": 2.0, "high": 1.0}],
}


@pytest.mark.parametrize("where,keys,tag,words,values", [
    pytest.param(where, keys, tag, words, values, id=f"{tag}:{where}.{'+'.join(keys)}-{i}")
    for where, keys, tag, words in RULES for i, values in enumerate(BREAKS[keys])])
def test_every_declared_rule_names_its_paths(tmp_path, where, keys, tag, words, values):
    # values that pass each field's own domain but break a rule across them
    # are refused by every path of the rule, by the API and by both commands;
    # a family's constructor names the fields alone (the HMM's raised a
    # ValueError that named none)
    raw = base_raw(tag)
    part(raw, where).update(values)
    paths = ", ".join(f"{where}.{k}" for k in keys)
    with pytest.raises(ConfigError, match=f"^{re.escape(paths)}: need {re.escape(words)}$"):
        build_config(raw)
    if where == "family":
        fields = {k: v for k, v in raw["family"].items() if k != "kind"}
        with pytest.raises(ValueError, match=f"^{re.escape(', '.join(keys))}: need ") as err:
            FAMILIES[tag](**fields)
        assert type(err.value) is ConfigError
    p, out = tmp_path / "cfg.json", tmp_path / "o.csv"
    p.write_text(json.dumps(raw))
    for command in ("identify", "redundancy"):
        assert cli.main([command, "--config", str(p), "--out", str(out)]) == 2
        assert not out.exists()


# Hypothesis over the declared scheme fields: mostly runnable configs with up
# to two fields drawn from small values of their JSON type (two in three) or
# from odd ones (another type, non-finite, negative), so that both outcomes
# are common.
# Small numbers stay finite and at least 0.5 where positive, which keeps the
# gap length of a finite r small; an infinite eta makes it overflow, which
# the config refuses unless l_cap clamps it.
ODD = st.sampled_from([None, True, 2.5, 3.0, math.nan, math.inf, -1, "2", [1], {}])
NUMBER = st.sampled_from([0.5, 1.0, 2.5, 0.0, -1.0])
FLOATS = st.floats(-1.0, 1.0)
PRIOR_KEYS = sorted({k for c in FAMILIES.values() for k in c.prior_keys})


def drawn(need):
    """Small values of the declared field's JSON type, or odd ones."""
    if need.kind == "object":       # the prior: keys of any family's prior
        typed = st.dictionaries(st.sampled_from(PRIOR_KEYS), st.one_of(NUMBER, ODD), max_size=2)
    elif need.depth == 2:           # the anchors
        typed = st.lists(st.lists(st.one_of(FLOATS, ODD), max_size=3), max_size=2)
    else:
        typed = st.integers(0, 5) if need.kind == "integer" else NUMBER
    return st.one_of(typed, typed, ODD)


FIELDS = {k: drawn(need) for k, need in SCHEME.items()}
FAMILY_CONFIGS = [
    ({"kind": "gaussian-iid"}, [0.0, 1.0]), (AR1, [0.5]), (HMM2, HMM2_THETA),
    ({"kind": "gaussian-ar", "p": 2}, [0.5]),
    ({**HMM2, "a0": 0.6}, HMM2_THETA), ({"kind": "laplace"}, [0.0, 1.0]),
]
PLANT = st.lists(st.one_of(st.lists(FLOATS, max_size=4),
                           st.lists(st.one_of(FLOATS, ODD), max_size=4), ODD), max_size=3)


@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(family=st.sampled_from(FAMILY_CONFIGS[:3] * 3 + FAMILY_CONFIGS[3:]),
       fields=st.lists(st.sampled_from(sorted(FIELDS)).flatmap(
           lambda f: st.tuples(st.just(f), FIELDS[f])), max_size=2),
       plant=st.one_of(st.none(), st.none(), st.none(), PLANT),
       command=st.sampled_from(["redundancy", "identify"]))
def test_config_either_rejected_or_runs(tmp_path, family, fields, plant, command):
    raw = tiny_raw(family=family[0], theta0=family[1], plant=[family[1]], n_grid=[4], trials=1)
    raw["scheme"].update(fields)
    if plant is not None:
        raw["plant"] = plant
    try:
        build_config(raw)
        runs = True
    except ConfigError:
        runs = False
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(raw))
    rc = cli.main([command, "--config", str(p), "--out", str(tmp_path / "o.csv")])
    assert rc == (0 if runs else 2)
