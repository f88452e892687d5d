"""Record the deterministic renewal-long outputs the benchmark checks against.

    PYTHONPATH=src python3 perfbench/record_reference.py

Writes perfbench/reference.json: per size profile, the key-renewal ladder
ratios and the c2_fitted / rel_err of each limit_constant_comparison.  The
committed file was recorded on the commit that introduced the benchmark;
re-record only when a change is meant to alter these numbers, and say so.
"""
from __future__ import annotations

import json
import os
import shutil
import tempfile

import workloads


def record(profile):
    ref = {}
    os.makedirs(workloads.WORK_DIR, exist_ok=True)
    for op in workloads.operations("renewal-long", profile):
        out_dir = tempfile.mkdtemp(dir=workloads.WORK_DIR)
        try:
            result = workloads.call(op, workloads.GATE_SEED, out_dir)
            values = workloads.reference_values(op, workloads.outputs_of(op, result, out_dir))
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        ref[op.name] = {k: v if isinstance(v, list) else float(v) for k, v in values.items()}
    return ref


if __name__ == "__main__":
    data = {profile: record(profile) for profile in ("full", "tiny")}
    with open(workloads.REFERENCE_PATH, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
