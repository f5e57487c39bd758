"""Command-line entry point.

Subcommands:
    redundancy  --config PATH --out PATH   Lagrangian redundancy experiment
    identify    --config PATH --out PATH   source-identification experiment

Exit status: 0 success, 2 usage or config error.
"""

from __future__ import annotations

import argparse
import os
import sys

from .harness import (ConfigError, load_config, run_identification_experiment,
                      run_redundancy_experiment)


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="twostage",
                                description="Two-stage universal lossy coding "
                                            "and source identification")
    sub = p.add_subparsers(dest="command", required=True)
    for name, help_text in (("redundancy", "measure Lagrangian redundancy"),
                            ("identify", "measure identification fidelity")):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", required=True, help="JSON experiment config")
        sp.add_argument("--out", required=True, help="output CSV path")
    return p


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.dirname(os.path.abspath(args.out))):
        parser.error("argument --out: no such directory: "
                     + os.path.dirname(args.out))
    if os.path.isdir(args.out):
        parser.error("argument --out: is a directory: " + args.out)
    try:
        cfg = load_config(args.config)
        runner = (run_redundancy_experiment if args.command == "redundancy"
                  else run_identification_experiment)
        summary = runner(cfg, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    meds = " ".join(f"n={n}: {m:.5f}" for n, m in summary["medians"].items())
    if args.command == "redundancy":
        print(f"median redundancy per block length: {meds}")
        print(f"fitted log-log slope vs sqrt(V log n / n): {summary['slope']:.3f}")
    else:
        print(f"median identification distance per block length: {meds}")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
