"""Smoke tests of the benchmark itself, at tiny sizes.

    python3 -m pytest bench/test_bench.py -q
"""

import json
from pathlib import Path

import pytest

import run
import workloads
from spans import PER_LAYER, Tracer, _targets

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent
                        / "BENCHMARK.json").read_text())

TINY = {
    "redundancy-iid": lambda: workloads.Experiment(
        "redundancy-iid", workloads.harness.run_redundancy_experiment,
        workloads._redundancy_row_ok, summary_rows=1, trials=1),
    "identify-iid": lambda: workloads.Experiment(
        "identify-iid", workloads.harness.run_identification_experiment,
        workloads._identify_row_ok, summary_rows=0, trials=1),
    "codec-hmm": lambda: workloads.Codec(scenes=2, receivers=1),
}


def _expected(kind):
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


def test_benchmark_json_lists_the_emitted_metrics():
    assert _expected("per_layer") == dict(PER_LAYER)
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_reported_with_its_unit(name, trace):
    rec = run.run(name, seed=3, seconds=0.01, trace=trace,
                  workload=TINY[name](), probes=1)
    line = run.summary_line(rec)
    kind = "per_layer" if trace else "end_to_end"
    assert {k: v["unit"] for k, v in line["metrics"].items()} == _expected(kind)
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    assert set(rec["machine"]) >= {"nproc", "python", "numpy", "scipy",
                                   "commit", "seed"}


def test_golden_gate_fires_on_a_corrupted_digest():
    wl = TINY["codec-hmm"]()
    rec = run.run("codec-hmm", seed=3, seconds=0.01, trace=False, workload=wl,
                  probes=1, golden={"seed": 3})
    digests = rec["digests"]
    good = {"seed": 3, "codec-hmm": {"params": wl.params, "digests": digests}}
    assert run.golden_mismatches("codec-hmm", 3, wl.params, digests, good) == []
    bad = json.loads(json.dumps(good))
    k = next(iter(digests))
    bad["codec-hmm"]["digests"][k] = "0" * 64
    assert run.golden_mismatches("codec-hmm", 3, wl.params, digests, bad)
    rec = run.run("codec-hmm", seed=3, seconds=0.01, trace=False, workload=wl,
                  probes=1, golden=bad)
    assert not rec["correct"] and rec["problems"]


def test_tracer_restores_every_original():
    before = [(owner, attr, vars(owner)[attr]) for owner, attr, _, _ in _targets()]
    with Tracer() as tracer:
        assert all(vars(owner)[attr] is not fn for owner, attr, fn in before)
    assert all(vars(owner)[attr] is fn for owner, attr, fn in before)
    wl = TINY["codec-hmm"]()
    wl.unit(wl.inputs(3, 0), Path("."))
    assert tracer.spans == []
