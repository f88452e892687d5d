import json

import numpy as np
import pytest

from semimarket.cli import main as cli_main
from semimarket.config import load_model, model_from_dict
from semimarket.distributions import Pareto
from semimarket.experiments import (
    ASYMMETRIC_MODEL,
    EXAMPLE_A_MODEL,
    EXPERIMENT_KINDS,
    LIMIT_MODEL,
    MARKOV_MODEL,
    ExperimentSpec,
    alpha_variant,
    fit_slope,
    load_experiment,
    run,
    stationarity_check,
    validate_report,
)
from semimarket.semi_markov import validate_model


# -- fit_slope ------------------------------------------------------------------

def test_fit_slope_exact_power_law():
    xs = np.array([1.0, 2.0, 4.0, 8.0, 16.0])
    slope, intercept, stderr, r2 = fit_slope(xs, xs**1.5)
    assert slope == pytest.approx(1.5, abs=1e-12)
    assert intercept == pytest.approx(0.0, abs=1e-12)
    assert r2 == pytest.approx(1.0)


def test_fit_slope_constant():
    xs = np.array([1.0, 2.0, 4.0])
    slope, *_ = fit_slope(xs, np.full(3, 3.7))
    assert slope == pytest.approx(0.0, abs=1e-12)


def test_fit_slope_rejects_bad_input():
    with pytest.raises(ValueError):
        fit_slope([1.0, 2.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        fit_slope([1.0, 2.0, 2.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        fit_slope([1.0, 2.0, 4.0], [1.0, -2.0, 3.0])


# -- model config ------------------------------------------------------------------

def test_model_from_dict_roundtrip():
    model = model_from_dict(EXAMPLE_A_MODEL)
    assert model.space.states == (-1, 0, 1)
    assert model.alpha == pytest.approx(1.5)
    assert type(model.law(0, 1)) is Pareto  # no "slowly_varying": a pure power tail


def test_model_config_edge_override():
    cfg = json.loads(json.dumps(ASYMMETRIC_MODEL))
    cfg["edges"] = {"0->1": {"family": "pareto", "scale": 2.0, "alpha": 1.5}}
    model = model_from_dict(cfg)
    assert model.law(0, 1).scale == 2.0
    assert model.law(0, -1).scale == 1.0


def test_model_config_log_variant_promotes_family():
    from semimarket.distributions import ParetoLog

    cfg = dict(EXAMPLE_A_MODEL, slowly_varying="log")
    model = model_from_dict(cfg)
    assert isinstance(model.law(0, 1), ParetoLog)


def test_model_config_errors():
    with pytest.raises(ValueError, match="missing required field"):
        model_from_dict({"states": [0, 1]})
    bad = json.loads(json.dumps(EXAMPLE_A_MODEL))
    del bad["sojourns"]["1"]
    with pytest.raises(ValueError, match="no sojourn law for state 1"):
        model_from_dict(bad)
    bad2 = json.loads(json.dumps(EXAMPLE_A_MODEL))
    bad2["edges"] = {"zap": {"family": "exponential", "rate": 1.0}}
    with pytest.raises(ValueError, match="bad edge key"):
        model_from_dict(bad2)


def test_load_model_file(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(EXAMPLE_A_MODEL))
    model = load_model(path)
    assert model.alpha == 1.5


def test_alpha_variant():
    v = alpha_variant(ASYMMETRIC_MODEL, 1.4)
    assert v["sojourns"]["0"]["alpha"] == 1.4
    assert ASYMMETRIC_MODEL["sojourns"]["0"]["alpha"] == 1.5  # original untouched


def test_repo_config_files_load():
    for name in ("example_a", "asymmetric", "markov"):
        model = load_model(f"configs/{name}.json")
        assert model.space.states == (-1, 0, 1)


# -- experiment spec / report -------------------------------------------------------

def test_spec_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown experiment kind"):
        ExperimentSpec(kind="mystery")


def test_load_experiment_resolves_model_path(tmp_path):
    model_path = tmp_path / "m.json"
    model_path.write_text(json.dumps(EXAMPLE_A_MODEL))
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({
        "kind": "renewal-tables", "model": "m.json",
        "params": {"dt": 0.01}, "seed": 5,
    }))
    spec = load_experiment(spec_path)
    assert spec.kind == "renewal-tables"
    assert spec.model["states"] == [-1, 0, 1]
    assert spec.params == {"dt": 0.01}
    assert spec.seed == 5


def test_load_experiment_rejects_unknown_keys(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"kind": "key-renewal", "budget_mb": 64, "sed": 3}))
    with pytest.raises(ValueError, match="budget_mb") as err:
        load_experiment(spec_path)
    assert "sed" in str(err.value)


def test_shipped_limit_verification_config_loads():
    spec = load_experiment("configs/limit_verification.json")
    assert spec.kind == "limit-verification"
    assert spec.model["states"] == [-1, 0, 1]


def test_spec_rejects_unknown_params():
    with pytest.raises(ValueError, match="n_agent") as err:
        ExperimentSpec(kind="example-a", params={"n_agent": 10, "seeds": 2, "sed": 1})
    assert "['n_agent', 'sed']" in str(err.value)
    for bad in ({"params": ["n"]}, {"model": ["states"]}):
        with pytest.raises(ValueError, match="must be an object"):
            ExperimentSpec(kind="renewal-tables", **bad)
    # every kind accepts its own defaults back
    for kind, (_, _, defaults) in EXPERIMENT_KINDS.items():
        ExperimentSpec(kind=kind, params=dict(defaults))


def test_load_experiment_rejects_replicates(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"kind": "example-a", "replicates": 3}))
    with pytest.raises(ValueError, match="replicates"):
        load_experiment(spec_path)


def test_spec_validates_the_model():
    bad = json.loads(json.dumps(EXAMPLE_A_MODEL))
    bad["transitions"][1] = [0.6, 0.0, 0.6]
    with pytest.raises(ValueError, match="invalid model"):
        ExperimentSpec(kind="renewal-tables", model=bad)
    heavy_active = json.loads(json.dumps(EXAMPLE_A_MODEL))
    heavy_active["sojourns"]["1"] = {"family": "pareto", "scale": 1.0, "alpha": 1.5}
    with pytest.raises(ValueError, match="active exit"):
        ExperimentSpec(kind="example-a", model=heavy_active)
    with pytest.raises(ValueError, match="takes no model"):
        ExperimentSpec(kind="key-renewal", model=EXAMPLE_A_MODEL)


def test_shipped_models_validate():
    shipped = [EXAMPLE_A_MODEL, ASYMMETRIC_MODEL, MARKOV_MODEL, LIMIT_MODEL]
    shipped += [alpha_variant(ASYMMETRIC_MODEL, a) for a in (1.2, 1.4, 1.6, 1.8)]
    for name in ("example_a", "asymmetric", "markov"):
        with open(f"configs/{name}.json") as fh:
            shipped.append(json.load(fh))
    for model in shipped:
        assert validate_model(model_from_dict(model)) == []
        ExperimentSpec(kind="limit-verification", model=model)


def test_report_replays_the_run(tmp_path):
    params = {"n_agents": 40, "epsilon": 0.05, "horizon": 8.0, "n_grid": 2**10 + 1,
              "seeds": 2, "min_lag": 4}
    first = run(ExperimentSpec(kind="example-a", params=params, seed=13,
                               out_dir=str(tmp_path)))
    recorded = json.loads((tmp_path / "report.json").read_text())
    assert recorded["model"] == EXAMPLE_A_MODEL
    assert recorded["params"]["band"] == [0.43, 0.57]        # a default
    assert recorded["params"]["n_agents"] == 40              # an override
    replay = run(ExperimentSpec(kind=recorded["kind"], model=recorded["model"],
                                params=recorded["params"], seed=recorded["seed"]))
    assert replay["cells"] == first["cells"]
    assert replay["params"] == recorded["params"]
    # a kind without a model records null
    assert run(ExperimentSpec(kind="integral-identities", params={"n": 2**8, "seeds": 1},
                              seed=3))["model"] is None


def test_validate_report_catches_problems():
    good = {"schema_version": "1", "kind": "x", "model": None, "params": {},
            "seed": 1, "passed": True,
            "cells": [{"name": "c", "metrics": {}, "verdicts":
                       [{"name": "v", "passed": True, "band": None, "value": 1.0}]}],
            "provenance": {}}
    assert validate_report(good) == []
    bad = {"kind": "x"}
    assert any("schema_version" in p for p in validate_report(bad))
    assert any("missing params" in p for p in validate_report(bad))
    assert any("model has type" in p for p in validate_report(dict(good, model=[1])))
    good["cells"][0]["verdicts"][0] = {"name": "v", "passed": True}
    assert any("band" in p for p in validate_report(good))


def test_all_kinds_registered():
    assert set(EXPERIMENT_KINDS) == {
        "fbm-selftest", "example-a", "markov-baseline", "mixed-market",
        "renewal-tables", "limit-verification", "integral-identities", "key-renewal",
    }


# -- small end-to-end runs ------------------------------------------------------------

def test_run_integral_identities_report(tmp_path):
    spec = ExperimentSpec(kind="integral-identities", params={"n": 2**10, "seeds": 2},
                          seed=3, out_dir=str(tmp_path / "out"))
    report = run(spec)
    assert report["passed"]
    assert validate_report(report) == []
    on_disk = json.loads((tmp_path / "out" / "report.json").read_text())
    assert on_disk["kind"] == "integral-identities"
    assert on_disk["provenance"]["wall_time_s"] >= 0.0


def test_run_deterministic_given_seed():
    spec = ExperimentSpec(kind="integral-identities", params={"n": 2**10, "seeds": 2}, seed=3)
    r1, r2 = run(spec), run(spec)
    r1["provenance"].pop("wall_time_s")
    r2["provenance"].pop("wall_time_s")
    assert r1 == r2


def test_run_key_renewal_small(tmp_path):
    spec = ExperimentSpec(
        kind="key-renewal", seed=1, out_dir=str(tmp_path),
        params={"horizon": 2.1e3, "ladder": (1e2, 10**2.5, 1e3, 2e3), "dt": 0.05})
    report = run(spec)
    assert report["passed"]
    csv = (tmp_path / "key_renewal_residual.csv").read_text().splitlines()
    assert csv[0] == "t,quantity,value"
    assert csv[1].split(",")[1] == "residual"


def test_run_renewal_tables_small(tmp_path):
    spec = ExperimentSpec(
        kind="renewal-tables", seed=2, out_dir=str(tmp_path),
        params={"dt": 0.01, "horizon": 8.0, "mc_replicates": 20000,
                "t_checks": (1.0, 4.0), "stationarity_rep": 1500,
                "stationarity_seeds": 4})
    report = run(spec)
    assert validate_report(report) == []
    assert report["passed"]
    names = {v["name"] for c in report["cells"] for v in c["verdicts"]}
    assert "gamma_vs_closed_form" in names
    assert (tmp_path / "gamma.csv").exists()
    assert (tmp_path / "pstar_11.csv").exists()


def test_stationarity_check_pools_counts():
    model = model_from_dict(EXAMPLE_A_MODEL)
    out = stationarity_check(model, [0.0, 5.0, 10.0], 2000, 3, base_seed=9)
    assert out["min_pvalue"] > 0.01
    counts = np.asarray(out["counts"])
    assert counts.sum() == pytest.approx(3 * 2000 * 3)


def test_run_fbm_selftest_tiny():
    spec = ExperimentSpec(kind="fbm-selftest", seed=4, params={
        "cov_paths": 1500, "cov_n": 256, "cov_hs": (0.75,),
        "calib_n": 2**12, "calib_seeds": 3, "calib_hs": (0.6,)})
    report = run(spec)
    assert report["passed"]


# -- CLI ---------------------------------------------------------------------------

def test_cli_runs_and_exits_zero(tmp_path, capsys):
    rc = cli_main(["integral-identities", "--seed", "3", "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert rc == 0
    assert "[PASS]" in captured.out
    assert (tmp_path / "report.json").exists()


def test_cli_config_kind_mismatch(tmp_path, capsys):
    cfg = tmp_path / "spec.json"
    cfg.write_text(json.dumps({"kind": "key-renewal"}))
    rc = cli_main(["example-a", "--config", str(cfg)])
    assert rc == 2
    assert "kind" in capsys.readouterr().err


def test_cli_bad_config(tmp_path, capsys):
    cfg = tmp_path / "nope.json"
    rc = cli_main(["example-a", "--config", str(cfg)])
    assert rc == 2


def test_cli_rejects_unknown_spec_key(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"kind": "key-renewal", "budget_mb": 64}))
    rc = cli_main(["key-renewal", "--config", str(cfg)])
    assert rc == 2
    assert "budget_mb" in capsys.readouterr().err


def test_cli_rejects_unknown_param(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"kind": "example-a", "params": {"n_agent": 10}}))
    rc = cli_main(["example-a", "--config", str(cfg)])
    assert rc == 2
    assert "n_agent" in capsys.readouterr().err


def test_cli_rejects_invalid_model(tmp_path, capsys):
    bad = json.loads(json.dumps(EXAMPLE_A_MODEL))
    bad["transitions"][1] = [0.6, 0.0, 0.6]
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"kind": "renewal-tables", "model": bad}))
    rc = cli_main(["renewal-tables", "--config", str(cfg)])
    assert rc == 2
    assert "invalid model" in capsys.readouterr().err


def test_cli_threads_from_spec_unless_given(tmp_path, capsys):
    cfg = tmp_path / "spec.json"
    cfg.write_text(json.dumps({"kind": "integral-identities", "threads": 2,
                               "params": {"n": 2**8, "seeds": 1}}))
    for argv, expected in (([], 2), (["--threads", "1"], 1)):
        out = tmp_path / f"out{expected}"
        rc = cli_main(["integral-identities", "--config", str(cfg), "--out", str(out)]
                      + argv)
        assert rc == 0
        assert f"threads={expected}" in capsys.readouterr().err
        report = json.loads((out / "report.json").read_text())
        assert report["provenance"]["threads"] == expected


def test_threads_market_sweep_matches_serial():
    # ProcessPool sweep must reproduce the serial per-seed results exactly
    params = {"n_agents": 60, "epsilon": 0.05, "horizon": 8.0, "n_grid": 2**10 + 1,
              "seeds": 3, "min_lag": 4, "band": (0.0, 1.0)}
    serial, parallel = (run(ExperimentSpec(kind="example-a", params=dict(params), seed=11,
                                           threads=threads)) for threads in (1, 2))
    assert serial["cells"] == parallel["cells"]


def test_limit_verification_sweep_cells():
    report = run(ExperimentSpec(kind="limit-verification", seed=9, params={
        "seeds": 2, "n_agents": 60, "horizon": 8.0, "n_grid": 2**10 + 1, "min_lag": 4,
        "renewal_horizon": 120.0, "renewal_dt": 0.05, "slope_window": (5.0, 100.0),
        "slope_band": (0.0, 3.0), "sweep_epsilon": (0.05, 0.02)}))
    cells = report["cells"]
    names = [c["name"] for c in cells]
    assert "sweep_eps_0.05" in names and "sweep_eps_0.02" in names
    sweep = [c for c in cells if c["name"].startswith("sweep_")]
    assert all(0.0 < c["metrics"]["median_variogram"] < 1.0 for c in sweep)
    assert all(c["verdicts"] == [] for c in sweep)


def test_market_kinds_simulate_each_replicate_once(tmp_path, monkeypatch):
    # replicate 0's path comes from the Hurst pass: no second simulation for the
    # CSV artifacts or the variance-linearity fit
    from semimarket import market
    from semimarket.experiments import _market_config

    calls = []
    for name in ("simulate_market", "markov_market"):
        def counted(cfg, replicate=0, _fn=getattr(market, name), _name=name, **kw):
            calls.append((_name, replicate))
            return _fn(cfg, replicate=replicate, **kw)
        monkeypatch.setattr(market, name, counted)
    # 2^12 + 1 points cover the linearity fit's longest lag, 2^11
    params = {"n_agents": 40, "epsilon": 0.05, "horizon": 8.0, "n_grid": 2**12 + 1,
              "seeds": 2, "min_lag": 4, "band": (0.0, 1.0)}
    for kind, fn in (("example-a", "simulate_market"), ("markov-baseline", "markov_market")):
        calls.clear()
        run(ExperimentSpec(kind=kind, params=dict(params), out_dir=str(tmp_path / kind)))
        assert sorted(calls) == [(fn, 0), (fn, 1)]
    monkeypatch.undo()
    # the artifacts are byte for byte what a fresh simulation of replicate 0 writes
    agg = market.simulate_market(_market_config(EXAMPLE_A_MODEL, params, 7041))
    for field in ("x_scaled", "log_price"):
        agg.path(field).to_csv(tmp_path / "fresh.csv")
        written = tmp_path / "example-a" / f"example_a_{field}.csv"
        assert written.read_bytes() == (tmp_path / "fresh.csv").read_bytes()


@pytest.mark.parametrize("cov_n", [1, 4])
def test_fbm_cov_cell_finite_at_small_n(cov_n):
    # below n = 5 the first pick used to sit at t = 0, where the SE is 0
    from semimarket.experiments import _fbm_cov_cell

    cell = _fbm_cov_cell(0.75, 20, cov_n, 1)
    assert np.isfinite(cell["metrics"]["worst_dev_se"])


_BAD_RHOS = ({"rhos": [0.5]}, {"rhos": [0.01, 0.5], "n_agents": 20})


@pytest.mark.parametrize("params", _BAD_RHOS)
def test_mixed_market_spec_rejects_unusable_rhos(params):
    with pytest.raises(ValueError, match="rhos"):
        ExperimentSpec(kind="mixed-market", params=params)


@pytest.mark.parametrize("params", _BAD_RHOS)
def test_cli_rejects_unusable_rhos(tmp_path, capsys, params):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"kind": "mixed-market", "params": params}))
    rc = cli_main(["mixed-market", "--config", str(cfg)])
    assert rc == 2
    assert "rhos" in capsys.readouterr().err


def test_mixed_market_simulates_the_inert_block_once_per_replicate(monkeypatch):
    from semimarket import market

    calls = []

    def counted(cfg, replicate=0, _fn=market.simulate_market):
        calls.append(replicate)
        return _fn(cfg, replicate=replicate)

    params = {"epsilon": 1e-2, "n_agents": 40, "horizon": 2.0, "n_grid": 2**8 + 1,
              "seeds": 2, "qv_blocks": (16, 8, 4, 2), "c2_horizon": 10.0, "c2_dt": 0.05}
    monkeypatch.setattr(market, "simulate_market", counted)
    serial = run(ExperimentSpec(kind="mixed-market", params=dict(params), seed=5))
    assert sorted(calls) == [0, 1]
    monkeypatch.undo()
    parallel = run(ExperimentSpec(kind="mixed-market", params=dict(params), seed=5,
                                  threads=2))
    assert serial["cells"] == parallel["cells"]
