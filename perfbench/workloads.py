"""One workload run of the semimarket benchmark, in a fresh process.

    python3 perfbench/workloads.py --workload NAME --seed N --seconds S \
        --trace 0|1 --launched UNIX_TIME [--profile full|tiny] [--setup-only]

`perfbench/run.py` starts this script with PYTHONPATH pointing at the
checkout's `src` and every BLAS/OpenMP thread variable set to 1; run it
through there.  The script imports the package, builds the workload's models
(the set-up every CLI user pays), then runs passes over the workload's
operations back to back, one caller, until the next pass would end after
`--seconds`.  Operation and set-up times are scaled to the reference machine
speed with the workload's calibration kernel (see calibration.py).  The last
line of stdout is a JSON object with the measurements and operation counts.

Every operation is checked after its timed call: it fails if it raises,
returns a non-finite number, differs from the recorded reference by more
than 1e-10 relative (deterministic renewal outputs), or has a verdict that
does not pass when run at its acceptance size and frozen gate seed.

With `--trace 1` every pass is run twice with the same seed, once plain and
once with the tracing wrappers installed; the two must give identical
outputs, and every layer the workload should reach must record calls.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass

import numpy as np

from semimarket import experiments, model_from_dict, stationary_law

import calibration
from tracing import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")
WORK_DIR = os.path.join(HERE, "_work")
GATE_SEED = 7041          # the seed the acceptance gates are calibrated on
REFERENCE_RTOL = 1e-10    # tolerance for rewrites of deterministic layers

WORKLOADS = ("renewal-long", "market-replicates", "stats-short")


@dataclass(frozen=True)
class Op:
    """One call into the package: an experiment kind or limit_constant_comparison."""

    name: str
    kind: str | None               # None: experiments.limit_constant_comparison
    params: dict
    model: dict | None = None
    at_acceptance: bool = False    # sizes equal the acceptance gate's sizes


# Sizes are all passed explicitly, so a change to a kind's defaults cannot move
# the benchmark.  "full" is what the benchmark measures; "tiny" only exercises
# the harness in its tests.  key-renewal, limit_constant_comparison, the market
# kinds and fbm-selftest run below their acceptance sizes: there, one pass
# would take 15 s to a minute, and a 30 s run needs several passes for its
# per-operation medians.
_KEY_RENEWAL = {"alpha": 1.5, "scale": 1.0, "dt": 0.1, "horizon": 1.05e4,
                "ladder": (1e2, 10**2.5, 1e3, 10**3.5, 1e4), "band": (0.9, 1.1)}
_MARKET = {"epsilon": 1e-3, "n_agents": 1000, "horizon": 4.0, "n_grid": 2**14 + 1,
           "seeds": 1, "min_lag": 64, "band": (0.43, 0.57)}
_FBM = {"cov_paths": 4000, "cov_n": 1024, "cov_hs": (0.6, 0.75),
        "calib_n": 2**14, "calib_seeds": 4, "calib_hs": (0.5, 0.6, 0.75, 0.9)}
_TABLES = {"dt": 0.005, "horizon": 12.0, "mc_replicates": 100000,
           "t_checks": (1.0, 5.0, 10.0), "stationarity_rep": 3000,
           "stationarity_seeds": 10}
_INTEGRALS = {"n": 2**12, "hurst": 0.75, "seeds": 5, "levels": 4}

PROFILES = {
    "full": {
        "key_renewal": _KEY_RENEWAL,
        "lcc": {"dt": 0.05, "horizon": 1050.0, "fit_window": (5e1, 1e3)},
        "market": _MARKET,
        "fbm": _FBM,
        "tables": _TABLES,
        "integrals": _INTEGRALS,
    },
    "tiny": {
        "key_renewal": dict(_KEY_RENEWAL, dt=0.5, horizon=1.05e3,
                            ladder=(1e1, 1e2, 1e3)),
        "lcc": {"dt": 0.05, "horizon": 105.0, "fit_window": (1e1, 1e2)},
        "market": dict(_MARKET, epsilon=1e-2, n_agents=50, horizon=1.0,
                       n_grid=2**12 + 1, min_lag=16),
        "fbm": dict(_FBM, cov_paths=200, cov_n=256, calib_n=2**10, calib_seeds=2,
                    calib_hs=(0.5, 0.75)),
        "tables": dict(_TABLES, dt=0.05, horizon=3.0, mc_replicates=2000,
                       t_checks=(1.0, 2.0), stationarity_rep=200, stationarity_seeds=2),
        "integrals": dict(_INTEGRALS, n=2**10, seeds=2, levels=3),
    },
}

# layers each workload must reach; a traced run that records no call for one
# of them has its wrapper in the wrong namespace
EXPECTED_LAYERS = {
    "renewal-long": ("renewal.solve_volterra", "renewal.covariance_gamma",
                     "renewal.first_passage", "renewal.conv_stieltjes",
                     "renewal.key_renewal_asymptote", "io.write_grid_csv",
                     "experiments.run", "experiments.limit_constant_comparison"),
    "market-replicates": ("market.simulate_market", "market.markov_market",
                          "fbm.hurst_variogram", "fbm.hurst_aggregated_variance",
                          "io.to_csv", "experiments.run"),
    "stats-short": ("fbm.sample_fbm", "fbm.hurst_variogram",
                    "fbm.hurst_aggregated_variance", "semi_markov.states_at_times",
                    "renewal.stationary_transition", "renewal.covariance_gamma",
                    "renewal.solve_volterra", "renewal.first_passage",
                    "renewal.conv_stieltjes", "integrals.self_integral_identity",
                    "integrals.integration_by_parts_residual",
                    "integrals.cross_variation", "io.write_grid_csv",
                    "experiments.run"),
}


def operations(workload, profile="full"):
    """The operations of one pass, in order."""
    size = PROFILES[profile]
    full = profile == "full"
    if workload == "renewal-long":
        return [Op("key-renewal", "key-renewal", size["key_renewal"])] + [
            Op(f"lcc-alpha{alpha}", None, size["lcc"],
               model=experiments.alpha_variant(experiments.ASYMMETRIC_MODEL, alpha))
            for alpha in (1.4, 1.6)]
    if workload == "market-replicates":
        return [Op("example-a", "example-a", size["market"],
                   model=experiments.EXAMPLE_A_MODEL),
                Op("markov-baseline", "markov-baseline", size["market"],
                   model=experiments.MARKOV_MODEL)]
    if workload == "stats-short":
        return [Op("fbm-selftest", "fbm-selftest", size["fbm"]),
                Op("renewal-tables", "renewal-tables", size["tables"],
                   model=experiments.EXAMPLE_A_MODEL, at_acceptance=full),
                Op("integral-identities", "integral-identities", size["integrals"],
                   at_acceptance=full)]
    raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")


def set_up(workload, profile="full"):
    """Build and validate every model the workload's operations use."""
    for op in operations(workload, profile):
        if op.model is not None:
            stationary_law(model_from_dict(op.model))


# -- one operation -------------------------------------------------------------

def call(op, seed, out_dir):
    """The timed call.  Returns the raw result."""
    if op.kind is None:
        return experiments.limit_constant_comparison(op.model, **op.params)
    spec = experiments.ExperimentSpec(kind=op.kind, params=dict(op.params), seed=seed,
                                      out_dir=out_dir, threads=1, model=op.model)
    return experiments.run(spec)


def outputs_of(op, result, out_dir):
    """Everything the operation produced, in a form compared exactly.

    For a kind: its cells and the SHA-256 of each CSV it wrote (report.json
    holds the wall time, so it is left out).
    """
    if op.kind is None:
        return {k: float(v) for k, v in result.items()}
    files = {}
    for fname in sorted(os.listdir(out_dir)):
        if fname.endswith(".csv"):
            with open(os.path.join(out_dir, fname), "rb") as fh:
                files[fname] = hashlib.sha256(fh.read()).hexdigest()
    return {"passed": result["passed"], "cells": result["cells"], "files": files}


def _non_finite(obj, where=""):
    """Paths of the non-finite numbers in a nested result (bands excluded)."""
    if isinstance(obj, dict):
        return [p for k, v in obj.items() if k != "band"
                for p in _non_finite(v, f"{where}.{k}")]
    if isinstance(obj, (list, tuple)):
        return [p for i, v in enumerate(obj) for p in _non_finite(v, f"{where}[{i}]")]
    if isinstance(obj, (float, np.floating)) and not math.isfinite(obj):
        return [where]
    return []


def reference_values(op, outputs):
    """The deterministic outputs kept in the reference, or None for this op."""
    if op.kind is None:
        return {"c2_fitted": outputs["c2_fitted"], "rel_err": outputs["rel_err"]}
    if op.kind == "key-renewal":
        return {"ratios": outputs["cells"][0]["metrics"]["ratios"]}
    return None


def problems(op, outputs, seed, reference):
    """Why the operation's outputs fail its checks; empty when they pass."""
    found = [f"non-finite value at {p}" for p in _non_finite(outputs)]
    if op.at_acceptance and seed == GATE_SEED:
        found += [f"verdict {v['name']} failed" for c in outputs["cells"]
                  for v in c["verdicts"] if not v["passed"]]
    got = reference_values(op, outputs)
    if got is not None:
        want = reference.get(op.name)
        if want is None:
            found.append("no reference recorded")
        else:
            for key, ref in want.items():
                val = np.atleast_1d(np.asarray(got[key], dtype=float))
                ref = np.atleast_1d(np.asarray(ref, dtype=float))
                if val.shape != ref.shape or np.any(
                        np.abs(val - ref) > REFERENCE_RTOL * np.abs(ref)):
                    found.append(f"{key} = {got[key]} differs from reference {want[key]}")
    return found


# -- passes ---------------------------------------------------------------------

def _cpu_now():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


@dataclass
class PassResult:
    wall_s: list    # per operation, raw
    cpu_s: list     # per operation, raw
    speed: list     # per operation: reference / measured calibration kernel time
    outputs: list
    failures: list  # (op name, problem)


def run_pass(workload, ops, seed, reference, tmp_root):
    """Run every operation once; time the calls only, check outside the clock.

    The workload's calibration kernel runs before the first operation and
    after each one; the mean of the two runs around an operation gives the
    machine's speed while it ran.
    """
    res = PassResult([], [], [], [], [])
    ref = calibration.REFERENCE_S[workload]
    kernel_before = calibration.kernel_time(workload)
    for op in ops:
        out_dir = tempfile.mkdtemp(dir=tmp_root)
        try:
            c0, t0 = _cpu_now(), time.perf_counter()
            try:
                result = call(op, seed, out_dir)
            finally:
                res.wall_s.append(time.perf_counter() - t0)
                res.cpu_s.append(_cpu_now() - c0)
                kernel_after = calibration.kernel_time(workload)
                res.speed.append(2.0 * ref / (kernel_before + kernel_after))
                kernel_before = kernel_after
            out = outputs_of(op, result, out_dir)
            found = problems(op, out, seed, reference)
        except Exception as exc:  # an operation that raises is a failed operation
            out, found = None, [f"raised {type(exc).__name__}: {exc}"]
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        res.outputs.append(out)
        res.failures += [(op.name, p) for p in found]
    return res


def pass_time(passes, field="wall_s", scaled=True):
    """Time of one pass, at the reference machine speed unless `scaled` is false.

    Each operation's time is scaled by the calibrated speed around it, then
    the per-operation medians over the passes are summed: the median rejects
    the disturbed stretches of seconds that a whole-pass median keeps.
    """
    times = ([t * (s if scaled else 1.0) for t, s in zip(getattr(p, field), p.speed)]
             for p in passes)
    return sum(statistics.median(t) for t in zip(*times))


def measure(workload, seed, seconds, trace, profile, reference, tmp_root):
    """Closed loop of passes; returns the JSON-ready result of the run."""
    ops = operations(workload, profile)
    tracer = Tracer() if trace else None
    plain, traced, failed_ops, attempted, mismatches = [], [], set(), 0, []
    start = time.perf_counter()
    k = 0
    while True:
        t_pass = time.perf_counter()
        pass_seed = seed + k
        res = run_pass(workload, ops, pass_seed, reference, tmp_root)
        plain.append(res)
        attempted += len(ops)
        failed_ops |= {(k, "plain", name) for name, _ in res.failures}
        if tracer is not None:
            tracer.install(run_id=k)
            try:
                tres = run_pass(workload, ops, pass_seed, reference, tmp_root)
            finally:
                tracer.uninstall()
            traced.append(tres)
            attempted += len(ops)
            failed_ops |= {(k, "traced", name) for name, _ in tres.failures}
            for op, a, b in zip(ops, res.outputs, tres.outputs):
                if a != b:
                    mismatches.append(f"pass {k}: {op.name} traced outputs differ")
                    failed_ops.add((k, "traced", op.name))
        for name, why in res.failures + (traced[-1].failures if traced else []):
            print(f"[{workload} pass {k}] {name}: {why}", file=sys.stderr)
        k += 1
        now = time.perf_counter()
        if now - start + (now - t_pass) > seconds:
            break
    for why in mismatches:
        print(f"[{workload}] {why}", file=sys.stderr)
    result = {
        "passes": k,
        "attempted": attempted,
        "failed": len(failed_ops),
        "wall_s": pass_time(plain),
        "cpu_s": pass_time(plain, "cpu_s"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }
    if tracer is not None:
        missing = [name for name in EXPECTED_LAYERS[workload]
                   if name not in tracer.layer_totals()]
        for name in missing:
            print(f"[{workload}] traced run recorded no call to {name}", file=sys.stderr)
        result["layers"] = layer_metrics(tracer, plain, traced)
        result["trace_ok"] = not missing and not mismatches
        os.makedirs(WORK_DIR, exist_ok=True)
        tracer.write(os.path.join(WORK_DIR, f"spans-{workload}-seed{seed}.jsonl"))
    return result


# -- per-layer metrics ------------------------------------------------------------

PER_LAYER = (
    ("renewal.solve_volterra", ("busy_s", "self_s", "calls")),
    ("renewal.covariance_gamma", ("busy_s", "calls")),
    ("renewal.first_passage", ("busy_s", "calls")),
    ("renewal.conv_stieltjes", ("busy_s", "calls")),
    ("renewal.stationary_transition", ("busy_s",)),
    ("renewal.key_renewal_asymptote", ("busy_s",)),
    ("market.simulate_market", ("busy_s", "calls")),
    ("market.markov_market", ("busy_s", "calls")),
    ("fbm.sample_fbm", ("busy_s", "calls")),
    ("fbm.hurst_variogram", ("busy_s", "calls")),
    ("fbm.hurst_aggregated_variance", ("busy_s", "calls")),
    ("semi_markov.states_at_times", ("busy_s", "calls")),
    ("io.write_grid_csv", ("busy_s",)),
    ("io.to_csv", ("busy_s",)),
)
UNITS = {"busy_s": "s", "self_s": "s", "calls": "count"}


def layer_metrics(tracer, plain, traced):
    """Per traced pass: busy and self seconds, calls and work counters per layer.

    All times are raw seconds of this run, so that layers can be set against
    trace.wall_s; they are not scaled to reference speed like wall_s.
    """
    n = len(traced)
    totals = tracer.layer_totals()
    out = {}
    for name, fields in PER_LAYER:
        calls, busy, self_s = totals.get(name, (0, 0.0, 0.0))
        values = {"busy_s": busy, "self_s": self_s, "calls": calls}
        for f in fields:
            out[f"{name}.{f}"] = (values[f] / n, UNITS[f])
    volterra_busy = totals.get("renewal.solve_volterra", (0, 0.0, 0.0))[1]
    out["renewal.solve_volterra.points"] = (tracer.points / n, "count")
    out["renewal.solve_volterra.points_per_s"] = (
        tracer.points / volterra_busy if volterra_busy else 0.0, "1/s")
    market_busy = sum(totals.get(f"market.{f}", (0, 0.0, 0.0))[1]
                      for f in ("simulate_market", "markov_market"))
    out["market.agent_events"] = (tracer.agent_events / n, "count")
    out["market.agent_events_per_s"] = (
        tracer.agent_events / market_busy if market_busy else 0.0, "1/s")
    keys = tracer.market_keys
    out["market.unique_replicate_ratio"] = (
        len(set(keys)) / len(keys) if keys else 0.0, "ratio")
    out["integrals.busy_s"] = (tracer.busy_of_prefix("integrals.") / n, "s")
    out["io.bytes_written"] = (tracer.bytes_written / n, "bytes")
    runner_self = sum(totals.get(name, (0, 0.0, 0.0))[2] for name in
                      ("experiments.run", "experiments.limit_constant_comparison"))
    out["experiments.run.self_s"] = (runner_self / n, "s")
    traced_wall = pass_time(traced, scaled=False)
    out["trace.wall_s"] = (traced_wall, "s")
    out["trace.overhead_s"] = (traced_wall - pass_time(plain, scaled=False), "s")
    return out


def load_reference(path=REFERENCE_PATH, profile="full"):
    with open(path) as fh:
        return json.load(fh)[profile]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--launched", type=float, required=True,
                    help="time.time() of the parent just before it started this process")
    ap.add_argument("--profile", choices=sorted(PROFILES), default="full")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    set_up(args.workload, args.profile)
    setup_s = time.time() - args.launched
    # set-up runs before any operation, so the kernel timed right after it
    # gives the machine's speed; the set-up is reported at reference speed too
    kernel = calibration.kernel_time(args.workload) + calibration.kernel_time(args.workload)
    setup_s *= 2.0 * calibration.REFERENCE_S[args.workload] / kernel
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    reference = load_reference(profile=args.profile)
    os.makedirs(WORK_DIR, exist_ok=True)
    tmp_root = tempfile.mkdtemp(dir=WORK_DIR, prefix="run-")
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                         args.profile, reference, tmp_root)
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)
    result["setup_s"] = setup_s
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
