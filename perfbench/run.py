"""Benchmark of the semimarket verification pipelines.

    python3 perfbench/run.py [--workload NAME|all] [--seed 7041] [--seconds 30]
                             [--trace 0|1]

Run from the root of a checkout.  Each workload runs in its own fresh child
process (`perfbench/workloads.py`), one at a time, with the package imported
from the checkout's `src` and every BLAS/OpenMP thread variable set to 1.  The
child measures a closed loop: one caller issues the workload's operations back
to back until the next pass would end after `--seconds`.

Workloads (inputs derive from `--seed`: pass k of a run uses seed + k):
  renewal-long       key-renewal on a 105 001-point grid and
                     limit_constant_comparison for alpha 1.4 and 1.6 on
                     ASYMMETRIC_MODEL (21 001-point grids): the renewal
                     Volterra solver does almost all the work.
  market-replicates  example-a and markov-baseline at N = 1000, eps = 1e-3,
                     a 16 385-point grid and T = 4, one replicate each: the
                     agent event engine and occupation aggregation.
  stats-short        fbm-selftest (4 000 covariance paths per H, 4 calibration
                     seeds), renewal-tables and integral-identities at
                     acceptance size: many short fBm, Hurst and renewal calls.

With `--trace 0` the last stdout line reports the end-to-end metrics:
  wall_s        wall time of one pass over the operations, set-up excluded,
                in seconds at the reference machine speed: each operation's
                time is scaled by the calibration kernel timed around it
                (perfbench/calibration.py), and the per-operation medians over
                the run's passes are summed
  cpu_s         user + system CPU time of one pass, taken the same way
  peak_rss_mb   the child's own ru_maxrss
  setup_s       median over three fresh children of the time from process
                start to the first timed operation (imports, model building),
                scaled to reference speed like wall_s
  ops_ok_ratio  1 - failed operations / attempted operations (the failed
                ratio itself is 0 on a healthy run; it is `failed/attempted`)
With `--trace 1` it reports the per-layer metrics of a traced run instead
(see workloads.layer_metrics).  `--workload all` runs every workload and
prints one result per workload, then a combined line.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("renewal-long", "market-replicates", "stats-short")
SETUP_SAMPLES = 3        # fresh children timed for setup_s, the measured run included
CHILD_TIMEOUT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchmarkError(RuntimeError):
    pass


def child_env():
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_child(workload, seed, seconds, trace, profile, setup_only=False):
    """Start one child, wait for it, and return its JSON result."""
    cmd = [sys.executable, os.path.join(HERE, "workloads.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--profile", profile]
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--launched", repr(time.time())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"{workload}: child ran past {CHILD_TIMEOUT_S} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(f"{workload}: child exited with code {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(workload, seed, seconds, trace, profile="full"):
    """One workload: its result object with correct/attempted/failed/metrics."""
    res = run_child(workload, seed, seconds, trace, profile)
    failed, attempted = res["failed"], res["attempted"]
    correct = failed == 0
    if trace:
        correct = correct and res["trace_ok"]
        metrics = {name: {"value": v, "unit": unit} for name, (v, unit) in res["layers"].items()}
    else:
        setups = [res["setup_s"]] + [
            run_child(workload, seed, seconds, trace, profile, setup_only=True)["setup_s"]
            for _ in range(SETUP_SAMPLES - 1)]
        metrics = {
            "wall_s": {"value": res["wall_s"], "unit": "s"},
            "cpu_s": {"value": res["cpu_s"], "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "ops_ok_ratio": {"value": 1.0 - failed / attempted, "unit": "ratio"},
        }
    print(f"[{workload}] {res['passes']} passes, {attempted} operations, {failed} failed",
          file=sys.stderr)
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=7041)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--profile", choices=("full", "tiny"), default="full",
                    help="tiny sizes exercise the harness only; never quote them")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "semimarket", "__init__.py")):
        print(f"no semimarket sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {w: run_workload(w, args.seed, args.seconds, args.trace, args.profile)
                   for w in names}
    except BenchmarkError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
        return 0
    for w, res in results.items():
        print(json.dumps(dict(res, workload=w)))
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{m}": v for w, r in results.items() for m, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
