"""Command-line experiment runner: one subcommand per experiment kind.

    semimarket <kind> [--config spec.json] [--seed N] [--out DIR] [--threads N]

Exit status is 0 only if every verdict of the run passes.  Run provenance is
logged to stderr; artifacts (report.json, CSV tables) go to --out.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

from . import __version__
from .experiments import EXPERIMENT_KINDS, ExperimentSpec, load_experiment, run


def _build_parser():
    parser = argparse.ArgumentParser(prog="semimarket",
                                     description="verification experiment runner")
    parser.add_argument("--version", action="version", version=f"semimarket {__version__}")
    sub = parser.add_subparsers(dest="kind", required=True)
    for kind in sorted(EXPERIMENT_KINDS):
        p = sub.add_parser(kind, help=f"run the {kind} experiment")
        p.add_argument("--config", help="experiment spec JSON (model, params, seed)")
        p.add_argument("--seed", type=int, help="master seed override")
        p.add_argument("--out", help="output directory for report.json and CSV tables")
        p.add_argument("--threads", type=int, help="worker processes (default: spec's, else 1)")
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    if args.config:
        try:
            spec = load_experiment(args.config)
        except (OSError, ValueError, KeyError) as exc:
            print(f"error: cannot load config {args.config}: {exc}", file=sys.stderr)
            return 2
        if spec.kind != args.kind:
            print(f"error: config is for kind {spec.kind!r}, not {args.kind!r}",
                  file=sys.stderr)
            return 2
    else:
        spec = ExperimentSpec(kind=args.kind)
    overrides = {"seed": args.seed, "threads": args.threads, "out_dir": args.out}
    try:
        spec = replace(spec, **{k: v for k, v in overrides.items() if v is not None})
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    print(f"semimarket {__version__} | kind={spec.kind} seed={spec.seed} "
          f"threads={spec.threads}", file=sys.stderr)
    report = run(spec)
    for cell in report["cells"]:
        for v in cell["verdicts"]:
            status = "PASS" if v["passed"] else "FAIL"
            band = f" band={v['band']}" if v.get("band") else ""
            print(f"[{status}] {cell['name']}::{v['name']} value={v['value']}{band}")
    print(f"wall time: {report['provenance']['wall_time_s']} s", file=sys.stderr)
    if not spec.out_dir:
        json.dump(report, sys.stdout, indent=2, sort_keys=True)
        print()
    return 0 if report["passed"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
