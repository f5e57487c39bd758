import csv
import json
import math

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from twostage import cli
from twostage.harness import (ConfigError, build_config, load_config,
                              run_identification_experiment,
                              run_redundancy_experiment)
from twostage.scheme import clear_codebook_cache


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
              ("prior", {"m_scal": 0.001}), ("prior", {"lo": -0.1})]
BAD_TOP = [("eval_blocks", 0), ("identify_mc", 0), ("oracle_train_blocks", 0),
           # each of these was silently coerced: a JSON integer that is not
           # a bool, a JSON boolean, a list, a list of lists
           ("trials", 2.7), ("trials", True), ("seed", 1.5),
           ("eval_blocks", "200"), ("oracle_train_blocks", True),
           ("identify_mc", 400.0), ("n_grid", "46"), ("n_grid", [4.0, 6]),
           ("per_trial_code_seed", "false"), ("theta0", "01"), ("plant", ""),
           ("plant", ["01"]), ("scheme", [["lam", 0.5]])]


# what a field needs to reach the run: l_cap a finite mixing exponent r; a
# prior no database candidates (they draw from it while the config builds)
# and an anchor far from theta0, so that the search draws past index 1
NEEDS = {"l_cap": {"r": 2.0}, "prior": {"n_candidates": 0, "anchors": [[5.0, 1.0]]}}


def bad_raw(where, field, value):
    raw = tiny_raw()
    if where == "top":
        raw[field] = value
    else:
        raw["scheme"].update({field: value, **NEEDS.get(field, {})})
    return raw


BAD_CONFIGS = [pytest.param("scheme", f, v, id=f"{f}={v}") for f, v in BAD_SCHEME] + \
    [pytest.param("top", f, v, id=f"{f}={v}") for f, v in BAD_TOP]

# keys that used to load without effect, or coerced: the error names each
AR1 = {"kind": "gaussian-ar", "p": 1}
HMM2 = {"kind": "hmm", "M": 2, "a0": 0.05, "emission_means": [1.0, -1.0],
        "emission_stds": [1.0, 1.0]}
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
]
NAMED = [pytest.param(k, c, id=f"{k}={c[k] if k in c else c['family'][k]}")
         for k, c in NAMED_KEYS]


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
        # the tolerance schedule needs n >= 2; n_grid is increasing, so
        # checking its first entry covers the grid
        with pytest.raises(ConfigError, match="semantic"):
            build_config(tiny_raw(n_grid=[1, 4]))

    @pytest.mark.parametrize("where,field,value", BAD_CONFIGS)
    def test_unrunnable_field_rejected(self, where, field, value):
        with pytest.raises(ConfigError):
            build_config(bad_raw(where, field, value))

    @pytest.mark.parametrize("key,changes", NAMED)
    def test_unread_or_coerced_key_is_named(self, key, changes):
        with pytest.raises(ConfigError, match=rf"\b{key}\b"):
            build_config(tiny_raw(**changes))

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

    def test_threads_do_not_change_output(self, tmp_path):
        cfg = build_config(tiny_raw())
        a, b = tmp_path / "t1.csv", tmp_path / "t2.csv"
        run_redundancy_experiment(cfg, str(a), threads=1)
        run_redundancy_experiment(cfg, str(b), threads=2)
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("runner", [run_redundancy_experiment,
                                        run_identification_experiment])
    @pytest.mark.parametrize("threads", [0, -3])
    def test_thread_count_below_one_raises(self, tmp_path, runner, threads):
        # the thread pool refuses fewer than one worker, before any trial runs
        out = tmp_path / "o.csv"
        with pytest.raises(ValueError, match="max_workers"):
            runner(build_config(tiny_raw(n_grid=[4], trials=1)), str(out),
                   threads=threads)
        assert not out.exists()

    def test_experiments_share_the_first_stage(self, tmp_path):
        # each (n, trial) draws one scene and runs one first stage, whichever
        # experiment asks
        cfg = build_config(tiny_raw())
        red = run_redundancy_experiment(cfg, str(tmp_path / "r.csv"))["rows"]
        ide = run_identification_experiment(cfg, str(tmp_path / "i.csv"))["rows"]
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
    @pytest.mark.parametrize("threads", ["-3", "0"])
    def test_bad_thread_count_is_a_usage_error(self, tmp_path, capsys,
                                               command, threads):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(tiny_raw(n_grid=[4], trials=1)))
        out = tmp_path / "o.csv"
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--config", str(p), "--out", str(out),
                      "--threads", threads])
        assert exc.value.code == 2
        assert "--threads" in capsys.readouterr().err
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
        rc = cli.main(["redundancy", "--config", str(p), "--out", str(out),
                       "--threads", "1"])
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

        # the seed and the tolerance schedule each reach the CSV
        default = identify("default")
        assert identify("seed", seed=78) != default
        paper = tiny_raw()["scheme"] | {"delta_mode": "paper"}
        assert tol(identify("paper", scheme=paper)) != tol(default)


# Hypothesis over the fields a config can get wrong: mostly runnable configs
# with up to two fields drawn from odd values (non-integers, non-finite,
# wrong types), so that both outcomes are common.
ODD = st.sampled_from([None, True, 2.5, 3.0, math.nan, math.inf, -1, "2", [1]])
INTEGER = st.one_of(st.integers(0, 5), ODD)
FIELDS = {
    **{f: INTEGER for f in ("i_max", "n_candidates", "distance_mc", "mde_mc",
                            "train_blocks", "design_restarts",
                            "max_initial_size", "l_cap")},
    "rho_max": st.one_of(st.floats(allow_nan=True, allow_infinity=True), ODD),
    "prior": st.one_of(ODD, st.dictionaries(
        st.sampled_from(["m_loc", "m_scale", "log_sigma_loc",
                         "log_sigma_scale", "low", "high", "concentration"]),
        st.one_of(st.floats(-3.0, 3.0), ODD), max_size=2)),
    "r": st.sampled_from([None, 2.0, 0.5]),
}
FAMILIES = [
    ({"kind": "gaussian-iid"}, [0.0, 1.0]),
    ({"kind": "gaussian-ar", "p": 1}, [0.5]),
    ({"kind": "hmm", "M": 2, "a0": 0.05, "emission_means": [1.0, -1.0],
      "emission_stds": [1.0, 1.0]}, [0.8, 0.2, 0.3, 0.7]),
    ({"kind": "gaussian-ar", "p": 2}, [0.5]),
    ({"kind": "hmm", "M": 2, "a0": 0.6, "emission_means": [1.0, -1.0],
      "emission_stds": [1.0, 1.0]}, [0.8, 0.2, 0.3, 0.7]),
    ({"kind": "laplace"}, [0.0, 1.0]),
]
PLANT = st.lists(st.one_of(st.lists(st.floats(-1.0, 1.0), max_size=4),
                           st.lists(st.one_of(st.floats(-1.0, 1.0), ODD),
                                    max_size=4), ODD), max_size=3)


@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(family=st.sampled_from(FAMILIES[:3] * 2 + FAMILIES[3:]),
       fields=st.lists(st.sampled_from(sorted(FIELDS)).flatmap(
           lambda f: st.tuples(st.just(f), FIELDS[f])), max_size=2),
       plant=st.one_of(st.none(), st.none(), PLANT),
       command=st.sampled_from(["redundancy", "identify"]))
def test_config_either_rejected_or_runs(tmp_path, family, fields, plant, command):
    raw = tiny_raw(family=family[0], theta0=family[1], n_grid=[4], trials=1)
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
