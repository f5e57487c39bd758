"""Benchmark of the two-stage coder (see bench/README.md).

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is redundancy-iid, identify-iid, codec-hmm, or all (each workload in a
fresh process, one after the other). With --trace 0 the run measures the
end-to-end metrics; with --trace 1 it times one untraced and one traced unit
at one thread, repeated while --seconds allows, and reports the per-layer
metrics. Human-readable lines come first; the last line of standard output
is one JSON object {"correct", "attempted", "failed", "metrics"}. Spans and a
full result record, with machine facts and spreads, go to bench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

try:
    import workloads
    from spans import PER_LAYER, Tracer, layer_metrics
except ImportError as exc:
    raise SystemExit(f"bench: cannot import the program from {ROOT / 'src'}: {exc}")

import numpy as np  # noqa: E402
import scipy  # noqa: E402

SETUP_PROBES = 7


def quartiles(values) -> dict:
    values = sorted(values)
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "samples": len(values)}


def machine_facts(seed: int) -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "commit": git_commit(), "seed": seed,
            "platform": platform.platform()}


def git_commit() -> str:
    """HEAD of the checkout's own .git; 'unknown' outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def setup_seconds(name: str, seed: int, probes: int) -> list:
    """Wall time of fresh processes that import the program and build the
    workload's config, family, database and candidate sets."""
    out = []
    for _ in range(probes):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, str(Path(__file__)), "--probe-setup",
                        "--workload", name, "--seed", str(seed)], check=True)
        out.append(time.perf_counter() - t0)
    return out


def golden_mismatches(name: str, seed: int, params: dict, digests: dict,
                      golden: dict) -> list:
    """Digests of unit 0 that differ from the recorded ones; the gate only
    applies at the recorded seed and unit size."""
    rec = golden.get(name)
    if rec is None or seed != golden["seed"] or params != rec["params"]:
        return []
    return [f"{k}: {digests.get(k)} != golden {v}"
            for k, v in rec["digests"].items() if digests.get(k) != v]


def load_golden() -> dict:
    return json.loads((HERE / "golden.json").read_text())


def run_untraced(wl, name, seed, seconds, probes, golden) -> dict:
    setups = setup_seconds(name, seed, probes)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        m = wl.measure(seed, seconds, Path(tmp))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    problems = golden_mismatches(name, seed, wl.params, m.digests, golden)
    metrics = {"setup_s": (statistics.median(setups), "s"),
               "trials_per_s": m.rates["trials_per_s"],
               "peak_rss_mb": (rss_mb, "MB")}
    spread = {"setup_s": quartiles(setups),
              "trials_per_s": quartiles(m.unit_rates),
              "peak_rss_mb": quartiles([rss_mb])}
    report = {k: v for k, v in m.rates.items() if k != "trials_per_s"}
    report["ops_failed_ratio"] = (m.failed / m.attempted, "failed/attempted")
    return {"correct": not problems and m.failed == 0,
            "attempted": m.attempted, "failed": m.failed,
            "metrics": metrics, "also": report, "spread": spread,
            "digests": m.digests, "problems": problems, "notes": m.notes}


def run_traced(wl, name, seed, seconds, golden) -> dict:
    """Pairs of untraced and traced runs of unit 0 at one thread, from cold
    caches, after one untimed run that takes the process's own warm-up
    (allocator growth, first calls) out of the tracing overhead; the order
    within a pair alternates."""
    pairs, times, problems, attempted, failed = [], [], [], 0, 0
    inputs = wl.inputs(seed, 0)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        wl.unit(inputs, Path(tmp))
        while workloads.keep_going(times, seconds):
            t0 = time.perf_counter()
            if len(pairs) % 2:
                with Tracer() as tracer:
                    traced = wl.unit(inputs, Path(tmp))
                plain = wl.unit(inputs, Path(tmp))
            else:
                plain = wl.unit(inputs, Path(tmp))
                with Tracer() as tracer:
                    traced = wl.unit(inputs, Path(tmp))
            attempted += plain.ops + traced.ops
            failed += plain.failed + traced.failed
            if traced.digests != plain.digests:
                problems.append(f"traced digests {traced.digests} != "
                                f"untraced {plain.digests}")
            problems += golden_mismatches(name, seed, wl.params, plain.digests,
                                          golden)
            layers = layer_metrics(tracer.spans, traced.seconds)
            layers["harness.trials_per_s_1t"] = plain.trials / plain.seconds
            layers["trace_overhead_s"] = traced.seconds - plain.seconds
            if not pairs:
                tracer.write_jsonl(OUT / f"trace-{name}-seed{seed}.jsonl")
            pairs.append(layers)
            times.append(time.perf_counter() - t0)
    units = dict(PER_LAYER)
    metrics = {k: (statistics.median(p[k] for p in pairs), units[k])
               for k in units}
    spread = {k: quartiles([p[k] for p in pairs]) for k in units}
    return {"correct": not problems and failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics, "also": {},
            "spread": spread, "digests": plain.digests,
            "problems": sorted(set(problems)), "notes": {"pairs": len(pairs)}}


def run(name: str, seed: int, seconds: float, trace: bool,
        workload=None, probes: int = SETUP_PROBES, golden=None) -> dict:
    """One benchmark run; returns the full record (see ``main``)."""
    OUT.mkdir(exist_ok=True)
    wl = workload or workloads.WORKLOADS[name]()
    golden = load_golden() if golden is None else golden
    if trace:
        rec = run_traced(wl, name, seed, seconds, golden)
    else:
        rec = run_untraced(wl, name, seed, seconds, probes, golden)
    rec["machine"] = machine_facts(seed)
    rec["workload"] = name
    return rec


def summary_line(rec: dict) -> dict:
    return {"correct": rec["correct"], "attempted": rec["attempted"],
            "failed": rec["failed"],
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in rec["metrics"].items()}}


def print_report(rec: dict) -> None:
    mach = rec["machine"]
    print(f"# {rec['workload']} seed {mach['seed']}: nproc {mach['nproc']}, "
          f"Python {mach['python']}, NumPy {mach['numpy']}, SciPy "
          f"{mach['scipy']}, commit {mach['commit']}")
    for k, (v, u) in {**rec["metrics"], **rec["also"]}.items():
        s = rec["spread"].get(k)
        extra = (f"  (median {s['median']:.6g}, q1 {s['q1']:.6g}, "
                 f"q3 {s['q3']:.6g}, {s['samples']} samples)" if s else "")
        print(f"{k:44s} {v:14.6g} {u}{extra}")
    for k, v in rec["digests"].items():
        print(f"# {k} {v}")
    for p in rec["problems"]:
        print(f"# CHECK FAILED: {p}")


def run_all(args) -> int:
    """Every workload in its own process; combined JSON on the last line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], capture_output=True, text=True)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if done.returncode != 0 or not lines:
            sys.stderr.write(done.stderr)
            return 1
        last = json.loads(lines[-1])
        combined["correct"] &= last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        for k, v in last["metrics"].items():
            combined["metrics"][f"{name}/{k}"] = v
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=[*workloads.WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=55.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.probe_setup:
        workloads.WORKLOADS[args.workload]().setup(args.seed)
        return 0
    if args.workload == "all":
        return run_all(args)
    rec = run(args.workload, args.seed, args.seconds, bool(args.trace))
    path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(rec, indent=1, default=str))
    print_report(rec)
    print(json.dumps(summary_line(rec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
