"""Tests of the benchmark harness itself, at the tiny size profile.

    python3 -m pytest -q perfbench/test_perfbench.py
"""
from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCH = json.load(_fh)


def _run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--profile", "tiny",
           "--workload", workload, "--seed", "3", "--seconds", "0.5", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170)
    assert proc.returncode == 0
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_prints_every_declared_metric_with_its_unit(workload, trace, section):
    res = _run(workload, trace)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in BENCH[section]}
    assert {name: m["unit"] for name, m in res["metrics"].items()} == declared
    for m in res["metrics"].values():
        assert isinstance(m["value"], (int, float))


def test_metric_and_workload_names_use_the_allowed_characters():
    names = [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    names += [w["name"] for w in BENCH["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names), [n for n in names if not NAME.match(n)]
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)


def test_corrupted_reference_counts_as_failed_operation(tmp_path):
    reference = workloads.load_reference(profile="tiny")
    clean = workloads.measure("renewal-long", 7041, 0.0, False, "tiny", reference, str(tmp_path))
    assert clean["failed"] == 0

    corrupted = json.loads(json.dumps(reference))
    corrupted["lcc-alpha1.4"]["c2_fitted"] *= 1.0 + 1e-9
    res = workloads.measure("renewal-long", 7041, 0.0, False, "tiny", corrupted, str(tmp_path))
    assert res["attempted"] == clean["attempted"] == 3
    assert res["failed"] == 1


def test_non_finite_output_is_found():
    found = workloads._non_finite({"cells": [{"metrics": {"x": [1.0, float("nan")]},
                                              "verdicts": [{"band": [0, float("inf")]}]}]})
    assert found == [".cells[0].metrics.x[1]"]
