"""The benchmark's workloads: inputs made from a seed, timed units of work,
and the checks on what the program returns.

Every workload runs the checkout's own ``src/twostage``; importing this module
fails when that package is absent.
"""

from __future__ import annotations

import hashlib
import math
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
from twostage import harness, mde, models, scheme  # noqa: E402

_provision_codebook = scheme.provision_codebook


def sub_seed(seed: int, *path: int) -> int:
    """Input seed of one unit or scene; drawn by the benchmark, not through
    the program's own seeding helpers, so the program only sees inputs."""
    return int(np.random.SeedSequence([seed % 2**64, *path]).generate_state(1)[0])


def clear_caches() -> None:
    """Empty every process-global cache of the program (codebooks, MDE)."""
    scheme.clear_codebook_cache()
    mde.clear_probability_cache()


@dataclass
class Unit:
    """One timed unit of work; ``digests`` fingerprint its outputs. A trial
    is an experiment trial or a scene's round trip; an op is a trial or one
    block's encode or decode."""

    trials: int
    ops: int
    failed: int
    seconds: float
    digests: dict


@dataclass
class Measurement:
    """A whole timed run: totals, headline rates and the per-unit rates."""

    attempted: int
    failed: int
    rates: dict                  # name -> (value, unit)
    unit_rates: list             # trials/s of each unit, for the spread
    digests: dict                # of unit 0
    notes: dict = field(default_factory=dict)


def keep_going(times: list, budget: float) -> bool:
    """Start another unit only if one of the mean length still fits."""
    return not times or sum(times) + statistics.fmean(times) <= budget


# ---------------------------------------------------------------------------
# redundancy-iid and identify-iid: the experiment runners on the acceptance
# grid
# ---------------------------------------------------------------------------

def trend_config(seed: int, trials: int) -> dict:
    """The acceptance grid of tests/test_acceptance.py::_trend_config at a
    given seed and trial count: gaussian-iid, n in {4, 8, 16, 32}, a planted
    ladder of 24 parameters that are also the MDE anchors."""
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
        "trials": trials,
        "seed": seed,
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


def _finite(*xs) -> bool:
    return all(math.isfinite(float(x)) for x in xs)


def _first_stage_ok(row: dict, i_max: int) -> bool:
    """b=1 carries no index; b=0 carries T in [1, i_max]."""
    T = row["waiting_time"]
    return (row["b_flag"] == 1 and T == -1) or \
        (row["b_flag"] == 0 and 1 <= T <= i_max)


def _redundancy_row_ok(row: dict, i_max: int) -> bool:
    T = row["waiting_time"]
    gamma_bits = 2 * (T.bit_length() - 1) + 1 if row["b_flag"] == 0 else 0
    star, oracle = row["lagrangian_star"], row["lagrangian_oracle"]
    return (_first_stage_ok(row, i_max)
            and row["first_stage_bits"] == 1 + gamma_bits
            and _finite(star, oracle, row["redundancy"], row["x_value"],
                        row["distortion_se"], row["rate_se"])
            and 0.0 <= row["d_theta0_theta_hat"] <= 2.0
            and abs(row["redundancy"] - (star - oracle)) <= 1e-12 * max(1.0, abs(star)))


def _identify_row_ok(row: dict, i_max: int) -> bool:
    ds = (row["d_theta0_theta_hat"], row["d_theta0_theta_tilde"],
          row["d_theta_tilde_theta_hat"])
    return (_first_stage_ok(row, i_max)
            and all(0.0 <= d <= 2.0 for d in ds)
            and _finite(row["tol"], row["d_se"], row["x_value"])
            and row["tol"] > 0 and row["d_se"] >= 0)


class Experiment:
    """One experiment runner over the acceptance grid; a unit is one call
    with ``trials`` trials per block length and a seed of its own."""

    def __init__(self, name: str, runner, row_ok, summary_rows: int,
                 trials: int):
        self.name = name
        self.runner = runner
        self.row_ok = row_ok
        self.summary_rows = summary_rows   # CSV rows after the trial rows
        self.trials = trials

    @property
    def params(self) -> dict:
        return {"trials": self.trials}

    def setup(self, seed: int) -> None:
        """What a caller builds before the first experiment call."""
        cfg = self.inputs(seed, 0)
        db = cfg.database(cfg.family())
        for n in cfg.n_grid:
            scheme.candidate_set(cfg.scheme_config(n), db)

    def inputs(self, seed: int, k: int) -> harness.ExperimentConfig:
        return harness.build_config(trend_config(sub_seed(seed, k), self.trials))

    def unit(self, cfg: harness.ExperimentConfig, workdir: Path) -> Unit:
        """One experiment call from cold caches; every trial row is checked."""
        clear_caches()
        attempted = len(cfg.n_grid) * cfg.trials
        path = workdir / f"{self.name}-{cfg.seed}.csv"
        t0 = time.perf_counter()
        try:
            # one thread: on a two-core machine a second one leaves no core
            # for anything else and makes runs unsteady (see README.md)
            summary = self.runner(cfg, str(path), threads=1)
        except Exception as exc:  # a failed call fails every trial in it
            print(f"{self.name}: seed {cfg.seed} raised {exc!r}", file=sys.stderr)
            return Unit(attempted, attempted, attempted,
                        time.perf_counter() - t0, {})
        seconds = time.perf_counter() - t0
        data = path.read_bytes()
        path.unlink()
        i_max = cfg.scheme_config(cfg.n_grid[0]).i_max
        rows = summary["rows"]
        failed = sum(not self.row_ok(r, i_max) for r in rows)
        expected_lines = 2 + attempted + len(cfg.n_grid) + self.summary_rows
        if len(rows) != attempted or data.count(b"\n") != expected_lines:
            failed = attempted
        return Unit(attempted, attempted, failed, seconds,
                    {"csv_sha256": hashlib.sha256(data).hexdigest()})

    def measure(self, seed: int, seconds: float, workdir: Path) -> Measurement:
        units, times = [], []
        while keep_going(times, seconds):
            u = self.unit(self.inputs(seed, len(units)), workdir)
            units.append(u)
            times.append(u.seconds)
        ops = sum(u.ops for u in units)
        return Measurement(
            attempted=ops, failed=sum(u.failed for u in units),
            rates={"trials_per_s": (ops / sum(times), "trials/s")},
            unit_rates=[u.ops / u.seconds for u in units],
            digests=units[0].digests,
            notes={"units": len(units)})


# ---------------------------------------------------------------------------
# codec-hmm: a sequential encoder session, then fresh receivers
# ---------------------------------------------------------------------------

HMM_SPEC = {"kind": "hmm", "M": 2, "a0": 0.05,
            "emission_means": [-1.0, 1.0], "emission_stds": [1.0, 1.0]}
HMM_THETA0 = (0.8, 0.2, 0.3, 0.7)
_PQ = (0.2, 0.4, 0.6, 0.8)
HMM_ANCHORS = tuple((p, 1 - p, 1 - q, q) for p in _PQ for q in _PQ)


@dataclass
class Session:
    config: scheme.SchemeConfig
    family: models.SourceFamily
    db: scheme.Database


@dataclass
class Block:
    """One encoded scene with what the receiver must reproduce."""

    encoded: scheme.EncodedBlock
    stream: object
    codevector: np.ndarray


class Codec:
    """An encoder session over a set of seeded HMM scenes, then fresh
    receivers that share nothing with it but the config.

    The database and code seeds are fixed: they are the system's shared
    state, like a codebook; the workload seed draws the scenes. The encoder
    passes over the same scenes while time allows and the median pass is
    reported, so that bursts of contention from other processes on the
    machine are rejected rather than averaged in, and the first pass's cold
    caches do not count.
    """

    name = "codec-hmm"

    encode_share = 0.85   # of --seconds, for the encoder passes

    def __init__(self, scenes: int = 100, receivers: int = 3):
        self.scenes = scenes
        self.receivers = receivers

    @property
    def params(self) -> dict:
        return {"scenes": self.scenes}

    def session(self) -> Session:
        """Config, family and database; the same for every seed."""
        config = scheme.SchemeConfig(
            n=8, lam=0.3, r=2.0, l_cap=16, c_delta=0.4, n_candidates=0,
            i_max=200, distance_mc=400, mde_mc=1500, train_blocks=256,
            max_initial_size=32, anchors=HMM_ANCHORS,
            database_seed=0, code_seed=1)
        family = models.make_family(HMM_SPEC)
        return Session(config, family,
                       scheme.Database(family=family, seed=config.database_seed))

    def setup(self, seed: int) -> None:
        """What an encoder builds before its first block."""
        s = self.session()
        scheme.candidate_set(s.config, s.db)

    def inputs(self, seed: int, k: int) -> tuple[Session, list]:
        s = self.session()
        return s, [scheme.sample_scene(s.family, np.asarray(HMM_THETA0),
                                       s.config, sub_seed(seed, k, i))
                   for i in range(self.scenes)]

    def _encode(self, s: Session, candidates, scenes: list) -> tuple[list, int, float]:
        """Encode in order; returns (blocks, failures, encode seconds)."""
        encoded, failed = [], 0
        t0 = time.perf_counter()
        for history, current in scenes:
            try:
                encoded.append(scheme.encode_block(s.config, s.db, history,
                                                   current,
                                                   candidates=candidates))
            except Exception as exc:
                print(f"codec-hmm: encode raised {exc!r}", file=sys.stderr)
                failed += 1
        seconds = time.perf_counter() - t0
        # the encoder's books are still cached here; reading them is untimed
        # and goes around any tracer
        blocks = []
        for e in encoded:
            T = e.waiting_time if e.waiting_time is not None else 1
            book = _provision_codebook(s.config, s.family, e.theta_hat, T)
            blocks.append(Block(e, e.stream(), book.codevectors[e.codeword_index]))
        return blocks, failed, seconds

    def _decode(self, s: Session, blocks: list) -> tuple[list, int, float]:
        """One fresh receiver over every stream; checks the round trip."""
        scheme.clear_codebook_cache()
        recons, failed = [], 0
        t0 = time.perf_counter()
        for b in blocks:
            try:
                dec = scheme.decode_block(s.config, s.db, b.stream)
            except Exception as exc:
                print(f"codec-hmm: decode raised {exc!r}", file=sys.stderr)
                recons.append(None)
                failed += 1
                continue
            recons.append(dec.xhat.values)
            if not (tuple(dec.theta_hat) == b.encoded.theta_hat
                    and dec.bits_consumed == b.encoded.total_bits
                    and np.array_equal(dec.xhat.values, b.codevector)):
                failed += 1
        return recons, failed, time.perf_counter() - t0

    @staticmethod
    def _digests(blocks: list, recons: list) -> dict:
        streams, xhat = hashlib.sha256(), hashlib.sha256()
        for b in blocks:
            streams.update(len(b.stream).to_bytes(4, "little"))
            streams.update(b.stream.to_bytes())
        for r in recons:
            xhat.update(b"-" if r is None else
                        np.ascontiguousarray(r, dtype="<f8").tobytes())
        return {"stream_sha256": streams.hexdigest(),
                "recon_sha256": xhat.hexdigest()}

    def unit(self, inputs: tuple, workdir: Path) -> Unit:
        """A fresh encoder over the scenes, then one fresh receiver."""
        s, scenes = inputs
        clear_caches()
        t0 = time.perf_counter()
        candidates = scheme.candidate_set(s.config, s.db)
        blocks, enc_failed, _ = self._encode(s, candidates, scenes)
        recons, dec_failed, _ = self._decode(s, blocks)
        return Unit(len(scenes), 2 * len(scenes), enc_failed + dec_failed,
                    time.perf_counter() - t0, self._digests(blocks, recons))

    def measure(self, seed: int, seconds: float, workdir: Path) -> Measurement:
        """Encoder passes while the budget allows, the first from cold
        caches (each must reproduce the first one's streams), then the
        receivers; reported are the median warm encoder pass and the median
        receiver."""
        s, scenes = self.inputs(seed, 0)
        clear_caches()
        candidates = scheme.candidate_set(s.config, s.db)
        blocks, failed, enc_s = self._encode(s, candidates, scenes)
        enc_times = [enc_s]
        while keep_going(enc_times, self.encode_share * seconds):
            again, f, dt = self._encode(s, candidates, scenes)
            enc_times.append(dt)
            failed += f + sum(a.stream != b.stream for a, b in zip(again, blocks))
        receivers = [self._decode(s, blocks) for _ in range(self.receivers)]
        failed += sum(f for _, f, _ in receivers)
        enc = statistics.median(enc_times[1:] or enc_times)
        dec = statistics.median(t for _, _, t in receivers)
        return Measurement(
            attempted=len(scenes) * len(enc_times) + self.receivers * len(blocks),
            failed=failed,
            rates={"trials_per_s": (len(scenes) / (enc + dec), "trials/s"),
                   "encode_blocks_per_s": (len(blocks) / enc, "blocks/s"),
                   "decode_blocks_per_s": (len(blocks) / dec, "blocks/s")},
            unit_rates=[len(scenes) / (t + dec) for t in enc_times[1:] or enc_times],
            digests=self._digests(blocks, receivers[0][0]),
            notes={"encoder_passes": len(enc_times),
                   "receivers": self.receivers, "first_pass_s": enc_times[0],
                   "encode_pass_s": enc, "decode_pass_s": dec})


WORKLOADS = {
    "redundancy-iid": lambda: Experiment(
        "redundancy-iid", harness.run_redundancy_experiment,
        _redundancy_row_ok, summary_rows=1, trials=2),
    "identify-iid": lambda: Experiment(
        "identify-iid", harness.run_identification_experiment,
        _identify_row_ok, summary_rows=0, trials=10),
    "codec-hmm": Codec,
}
