"""Repeat the benchmark over several seeds and summarise the spread.

    python3 perfbench/repeat.py --workload NAME --seeds 1 2 3 ... [--trace 0|1]
                                [--out FILE]

Runs `perfbench/run.py` once per seed, one run at a time, and prints for each
metric its median, its quartiles (statistics.quantiles, n=4) and the
quartile spread as a share of the median next to the bound fixed in
BENCHMARK.json.  `--out` keeps every run's values as JSON.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def summarise(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    args = ap.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    runs = []
    for seed in args.seeds:
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, **res})
        print(f"seed {seed}: correct={res['correct']} failed={res['failed']}/"
              f"{res['attempted']} " + " ".join(
                  f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()
                  if args.trace == 0), file=sys.stderr)
    summary = {}
    if len(runs) >= 2:
        for name in runs[0]["metrics"]:
            summary[name] = summarise([r["metrics"][name]["value"] for r in runs])
            summary[name]["bound"] = bounds.get(name)
            s = summary[name]
            print(f"{name:45s} median {s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}"
                  f"  spread {s['spread']:.4f}  bound {s['bound']}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"workload": args.workload, "trace": args.trace, "runs": runs,
                       "summary": summary}, fh, indent=1)
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
