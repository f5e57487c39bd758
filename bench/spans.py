"""Span tracing from outside the program.

``Tracer`` replaces public functions at the names where their callers look
them up, records one span per call (name, start, end, parent, counters) in
memory, and puts every original back on exit. ``layer_metrics`` turns the
spans of one traced unit into the per-layer numbers.
"""

from __future__ import annotations

import inspect
import itertools
import json
import statistics
import threading
import time
from collections import defaultdict

import numpy as np

import workloads  # noqa: F401  (puts the checkout's src/ on sys.path)
from twostage import distances, ecvq, models, scheme


def _targets() -> list:
    """(owner, attribute, span name, counters from (arguments, result))."""
    out = [
        (scheme, "encode_block", "scheme.encode_block",
         lambda a, r: {"bits": r.total_bits}),
        (scheme, "decode_block", "scheme.decode_block", None),
        (scheme, "candidate_set", "scheme.candidate_set", None),
        (scheme, "provision_codebook", "scheme.provision_codebook", None),
        (scheme, "waiting_time", "scheme.waiting_time",
         lambda a, r: {"T": r}),
        (scheme, "mde_estimate", "mde.mde_estimate",
         lambda a, r: {"n": np.shape(a["blocks"])[1]}),
        (scheme, "variational_mc", "distances.variational_mc",
         lambda a, r: {"samples": int(a["num_samples"])}),
        (distances, "variational_mc", "distances.variational_mc",
         lambda a, r: {"samples": int(a["num_samples"])}),
        (scheme, "ecvq_design", "ecvq.ecvq_design",
         lambda a, r: {"iters": len(r.training_lagrangians), "K": r.size}),
        (scheme, "ecvq_encode", "ecvq.ecvq_encode", None),
        (scheme, "ecvq_decode_index", "ecvq.ecvq_decode_index", None),
        (scheme, "elias_encode", "bitcode.elias_encode", None),
        (ecvq, "pairwise_distortion", "ecvq.pairwise_distortion",
         lambda a, r: {"elems": int(r.shape[0] * r.shape[1]
                                    * np.shape(a["blocks"])[1])}),
        (ecvq, "lagrangian_eval", "ecvq.lagrangian_eval", None),
    ]
    for cls in (models.GaussianIID, models.GaussianAR, models.HiddenMarkov):
        out.append((cls, "log_density_batch", "models.log_density_batch",
                    lambda a, r: {"rows": len(a["blocks"])}))
        out.append((cls, "sample_paths", "models.sample_paths",
                    lambda a, r: {"rows": int(a["count"])}))
    return out


class Tracer:
    """Context manager; spans are (id, parent id, name, t0, t1, counters)."""

    def __init__(self):
        self.spans: list = []
        self._ids = itertools.count(1)
        self._stack = threading.local()
        self._saved: list = []

    def _wrap(self, fn, name, counters):
        sig = inspect.signature(fn)
        spans, ids, local = self.spans, self._ids, self._stack

        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("ids", [])
            sid = next(ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
            attrs = counters(sig.bind(*args, **kwargs).arguments, result) \
                if counters else {}
            spans.append((sid, parent, name, t0, t1, attrs))
            return result

        return traced

    def __enter__(self):
        for owner, attr, name, counters in _targets():
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, counters))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        return False

    def write_jsonl(self, path) -> None:
        """One JSON object per span, times relative to the first span."""
        t_base = min((s[3] for s in self.spans), default=0.0)
        with open(path, "w") as fh:
            for sid, parent, name, t0, t1, attrs in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start_s": t0 - t_base,
                                     "end_s": t1 - t_base, **attrs}) + "\n")


# name, unit of each per-layer metric, in report order
PER_LAYER = [
    ("ecvq.ecvq_design.calls", "count"),
    ("ecvq.ecvq_design.s", "s"),
    ("ecvq.ecvq_design.lloyd_iters", "count"),
    ("ecvq.ecvq_design.final_K_mean", "codewords"),
    ("ecvq.pairwise_distortion.calls", "count"),
    ("ecvq.pairwise_distortion.s", "s"),
    ("ecvq.pairwise_distortion.elems", "count"),
    ("ecvq.pairwise_distortion.elems_per_s", "1/s"),
    ("ecvq.ecvq_encode.s", "s"),
    ("ecvq.quantize.s", "s"),
    ("scheme.provision_codebook.calls", "count"),
    ("scheme.provision_codebook.misses", "count"),
    ("scheme.provision_codebook.hit_ratio", "ratio"),
    ("scheme.provision_codebook.s", "s"),
    ("scheme.waiting_time.s", "s"),
    ("scheme.waiting_time.probes", "count"),
    ("scheme.waiting_time.probes_per_s", "1/s"),
    ("scheme.waiting_time.T_mean", "index"),
    ("scheme.waiting_time.exhausted", "count"),
    ("scheme.encode_decode.self_s", "s"),
    ("scheme.candidate_set.s", "s"),
    ("mde.mde_estimate.calls", "count"),
    ("mde.mde_estimate.cold_s", "s"),
    ("mde.mde_estimate.warm_s", "s"),
    ("distances.variational_mc.calls", "count"),
    ("distances.variational_mc.s", "s"),
    ("distances.variational_mc.samples", "count"),
    ("distances.variational_mc.samples_per_s", "1/s"),
    ("models.log_density_batch.rows", "count"),
    ("models.log_density_batch.s", "s"),
    ("models.log_density_batch.rows_per_s", "1/s"),
    ("models.sample_paths.rows", "count"),
    ("models.sample_paths.s", "s"),
    ("bitcode.bits_per_block", "bits"),
    ("bitcode.elias_encode.calls", "count"),
    ("harness.self_s", "s"),
    ("harness.trials_per_s_1t", "trials/s"),
    ("trace_overhead_s", "s"),
]


def layer_metrics(spans: list, wall_s: float) -> dict:
    """Per-layer numbers of one traced unit whose timed wall time is
    ``wall_s``; the harness.* and trace_overhead_s entries are the
    caller's."""
    by_name = defaultdict(list)
    children = defaultdict(list)
    for s in spans:
        by_name[s[2]].append(s)
        children[s[1]].append(s)

    def total(name):
        return sum(s[4] - s[3] for s in by_name[name])

    def count(name, key):
        return sum(s[5][key] for s in by_name[name])

    def self_time(name):
        return sum((s[4] - s[3]) - sum(c[4] - c[3] for c in children[s[0]])
                   for s in by_name[name])

    def ratio(a, b):
        return a / b if b else 0.0

    design = by_name["ecvq.ecvq_design"]
    provision = by_name["scheme.provision_codebook"]
    misses = sum(any(c[2] == "ecvq.ecvq_design" for c in children[s[0]])
                 for s in provision)
    waits = by_name["scheme.waiting_time"]
    probes = sum(c[2] == "distances.variational_mc"
                 for s in waits for c in children[s[0]])
    found = [s[5]["T"] for s in waits if s[5]["T"] is not None]
    seen_n, cold, warm = set(), 0.0, 0.0
    for s in sorted(by_name["mde.mde_estimate"], key=lambda s: s[3]):
        if s[5]["n"] in seen_n:
            warm += s[4] - s[3]
        else:
            seen_n.add(s[5]["n"])
            cold += s[4] - s[3]
    bits = [s[5]["bits"] for s in by_name["scheme.encode_block"]]
    top = sum(s[4] - s[3] for s in children[None])
    return {
        "ecvq.ecvq_design.calls": len(design),
        "ecvq.ecvq_design.s": total("ecvq.ecvq_design"),
        "ecvq.ecvq_design.lloyd_iters": count("ecvq.ecvq_design", "iters"),
        "ecvq.ecvq_design.final_K_mean":
            ratio(count("ecvq.ecvq_design", "K"), len(design)),
        "ecvq.pairwise_distortion.calls": len(by_name["ecvq.pairwise_distortion"]),
        "ecvq.pairwise_distortion.s": total("ecvq.pairwise_distortion"),
        "ecvq.pairwise_distortion.elems": count("ecvq.pairwise_distortion", "elems"),
        "ecvq.pairwise_distortion.elems_per_s":
            ratio(count("ecvq.pairwise_distortion", "elems"),
                  total("ecvq.pairwise_distortion")),
        "ecvq.ecvq_encode.s": total("ecvq.ecvq_encode"),
        "ecvq.quantize.s": total("ecvq.ecvq_encode")
        + total("ecvq.ecvq_decode_index") + total("ecvq.lagrangian_eval"),
        "scheme.provision_codebook.calls": len(provision),
        "scheme.provision_codebook.misses": misses,
        "scheme.provision_codebook.hit_ratio": 1.0 - ratio(misses, len(provision)),
        "scheme.provision_codebook.s": total("scheme.provision_codebook"),
        "scheme.waiting_time.s": total("scheme.waiting_time"),
        "scheme.waiting_time.probes": probes,
        "scheme.waiting_time.probes_per_s": ratio(probes, total("scheme.waiting_time")),
        "scheme.waiting_time.T_mean": statistics.fmean(found) if found else 0.0,
        "scheme.waiting_time.exhausted": len(waits) - len(found),
        "scheme.encode_decode.self_s":
            self_time("scheme.encode_block") + self_time("scheme.decode_block"),
        "scheme.candidate_set.s": total("scheme.candidate_set"),
        "mde.mde_estimate.calls": len(by_name["mde.mde_estimate"]),
        "mde.mde_estimate.cold_s": cold,
        "mde.mde_estimate.warm_s": warm,
        "distances.variational_mc.calls": len(by_name["distances.variational_mc"]),
        "distances.variational_mc.s": total("distances.variational_mc"),
        "distances.variational_mc.samples": count("distances.variational_mc", "samples"),
        "distances.variational_mc.samples_per_s":
            ratio(count("distances.variational_mc", "samples"),
                  total("distances.variational_mc")),
        "models.log_density_batch.rows": count("models.log_density_batch", "rows"),
        "models.log_density_batch.s": total("models.log_density_batch"),
        "models.log_density_batch.rows_per_s":
            ratio(count("models.log_density_batch", "rows"),
                  total("models.log_density_batch")),
        "models.sample_paths.rows": count("models.sample_paths", "rows"),
        "models.sample_paths.s": total("models.sample_paths"),
        "bitcode.bits_per_block": statistics.fmean(bits) if bits else 0.0,
        "bitcode.elias_encode.calls": len(by_name["bitcode.elias_encode"]),
        "harness.self_s": wall_s - top,
    }
