import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import semimarket
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
    chi2_sf,
    limit_constant_comparison,
    load_experiment,
    run,
    stationarity_check,
)
from semimarket.fbm import fit_line
from semimarket.semi_markov import states_at_times


# -- log-log slope fits ------------------------------------------------------------

def test_fit_slope_exact_power_law():
    xs = np.array([1.0, 2.0, 4.0, 8.0, 16.0])
    slope, intercept, stderr, r2 = fit_line(np.log(xs), np.log(xs**1.5))
    assert slope == pytest.approx(1.5, abs=1e-12)
    assert intercept == pytest.approx(0.0, abs=1e-12)
    assert r2 == pytest.approx(1.0)


def test_fit_slope_constant():
    xs = np.array([1.0, 2.0, 4.0])
    slope, *_ = fit_line(np.log(xs), np.log(np.full(3, 3.7)))
    assert slope == pytest.approx(0.0, abs=1e-12)


def test_fit_line_r2_is_nan_on_non_finite_input():
    # only a zero sum of squares means a constant y; a NaN one is no fit at all
    assert fit_line([1.0, 2.0, 4.0], [2.5, 2.5, 2.5])[3] == 1.0
    assert np.isnan(fit_line([1.0, 2.0, 4.0], [0.1, 0.2, np.nan])[3])


# -- model config ------------------------------------------------------------------

def test_model_from_dict_roundtrip():
    model = model_from_dict(EXAMPLE_A_MODEL)
    assert model.states == (-1, 0, 1)
    assert model.alpha == pytest.approx(1.5)
    assert type(model.law(0, 1)) is Pareto


def test_model_config_edge_override():
    cfg = json.loads(json.dumps(ASYMMETRIC_MODEL))
    cfg["edges"] = {"0->1": {"family": "pareto", "scale": 2.0, "alpha": 1.5}}
    model = model_from_dict(cfg)
    assert model.law(0, 1).scale == 2.0
    assert model.law(0, -1).scale == 1.0


def test_model_config_log_variant():
    from semimarket.distributions import ParetoLog

    cfg = json.loads(json.dumps(EXAMPLE_A_MODEL))
    cfg["sojourns"]["0"]["family"] = "pareto_log"
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
    bad3 = json.loads(json.dumps(EXAMPLE_A_MODEL))
    bad3["states"] = [-1, 0, 1.7]
    bad3["sojourns"]["1.7"] = bad3["sojourns"].pop("1")
    with pytest.raises(ValueError, match="state labels must be integers"):
        model_from_dict(bad3)
    # malformed fields fail with a ValueError that names them
    bad_fields = [
        ({"states": 5}, "states must be a list"),
        ({"sojourns": dict(EXAMPLE_A_MODEL["sojourns"], **{"0": "pareto"})},
         "sojourn law of state 0 must be a law object"),
        ({"sojourns": dict(EXAMPLE_A_MODEL["sojourns"],
                           **{"0": {"family": "pareto", "scale": 1.0}})},
         "sojourn law of state 0: missing field 'alpha'"),
        ({"edges": {"0->7": {"family": "exponential", "rate": 1.0}}},
         r"edge '0->7' joins a state not in \[-1, 0, 1\]"),
        ({"edges": {"0->1": {"family": "exponential", "rate": "fast"}}}, "edge '0->1'"),
        ({"edges": [["0->1"]]}, "edges must be an object"),
    ]
    for override, message in bad_fields:
        with pytest.raises(ValueError, match=message):
            model_from_dict(dict(EXAMPLE_A_MODEL, **override))
    # a misspelled key would silently drop the override it was meant to carry
    known = r"known: \['states', 'transitions', 'sojourns', 'edges'\]"
    for key in ("edge", "slowly_varying"):
        with pytest.raises(ValueError, match=rf"unknown model config keys \['{key}'\]; {known}"):
            model_from_dict(dict(EXAMPLE_A_MODEL, **{key: {}}))


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
    for name in ("example_a", "asymmetric", "markov", "limit"):
        model = load_model(f"configs/{name}.json")
        assert model.states == (-1, 0, 1)


def test_shipped_model_configs_equal_the_constants():
    for name, model in (("example_a", EXAMPLE_A_MODEL), ("asymmetric", ASYMMETRIC_MODEL),
                        ("markov", MARKOV_MODEL), ("limit", LIMIT_MODEL)):
        with open(f"configs/{name}.json") as fh:
            assert json.load(fh) == json.loads(json.dumps(model)), name


def test_shipped_specs_load_with_their_kinds_default_model():
    # a shipped spec reproduces its kind's defaults, whose verdicts pass at seed 7041
    specs = []
    for name in sorted(os.listdir("configs")):
        with open(f"configs/{name}") as fh:
            if "kind" in json.load(fh):
                specs.append(name)
    assert "limit_verification.json" in specs
    for name in specs:
        spec = load_experiment(f"configs/{name}")
        assert spec.model == json.loads(json.dumps(EXPERIMENT_KINDS[spec.kind][1])), name


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
    for name in ("example_a", "asymmetric", "markov", "limit"):
        with open(f"configs/{name}.json") as fh:
            shipped.append(json.load(fh))
    for model in shipped:
        # building a model checks it; example-a runs on every admissible model
        model_from_dict(model)
        ExperimentSpec(kind="example-a", model=model)


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


def _report_schema():
    path = os.path.join(os.path.dirname(__file__), os.pardir, "docs", "report_schema.json")
    with open(path) as fh:
        return json.load(fh)


def _schema_problems(report):
    """Messages of every way `report` breaks docs/report_schema.json."""
    import jsonschema

    return [e.message for e in jsonschema.Draft7Validator(_report_schema()).iter_errors(report)]


def _checked_report(out_dir):
    """report.json in out_dir, read by a parser that rejects Infinity, -Infinity and
    NaN, and checked against the schema."""
    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    report = json.loads((out_dir / "report.json").read_text(), parse_constant=reject)
    assert _schema_problems(report) == []
    return report


def test_report_schema_catches_problems():
    good = {"schema_version": "1", "kind": "key-renewal", "model": None, "params": {},
            "seed": 1, "passed": True,
            "cells": [{"name": "c", "metrics": {}, "verdicts":
                       [{"name": "v", "passed": True, "band": None, "value": 1.0}]}],
            "provenance": {}}
    assert _schema_problems(good) == []
    bad = {"kind": "x"}
    assert any("'schema_version' is a required property" in p for p in _schema_problems(bad))
    assert any("'params' is a required property" in p for p in _schema_problems(bad))
    assert any("is not one of" in p for p in _schema_problems(bad))
    assert _schema_problems(dict(good, model=[1])) != []
    assert _schema_problems(dict(good, schema_version="2")) != []
    good["cells"][0]["verdicts"][0] = {"name": "v", "passed": True, "band": [0.0, 1.0, 2.0]}
    assert _schema_problems(good) != []
    good["cells"][0]["verdicts"][0] = {"name": "v", "passed": True}
    assert any("'band' is a required property" in p for p in _schema_problems(good))


def test_report_schema_matches_the_kinds_and_a_report():
    # each kind's report is checked by test_every_kind_writes_a_report_its_schema_accepts
    assert _report_schema()["properties"]["kind"]["enum"] == list(EXPERIMENT_KINDS)


# small sizes of every kind; limit-verification's renewal half has no size param
_TINY_MARKET = {"n_agents": 20, "epsilon": 0.05, "horizon": 8.0, "n_grid": 2**10 + 1,
                "seeds": 1, "min_lag": 4}
_TINY_PARAMS = {
    "fbm-selftest": {"cov_paths": 100, "cov_n": 64, "cov_hs": [0.75], "calib_n": 2**10,
                     "calib_seeds": 1, "calib_hs": [0.6]},
    "example-a": _TINY_MARKET,
    "markov-baseline": _TINY_MARKET,
    "limit-verification": _TINY_MARKET,
    "renewal-tables": {"dt": 0.05, "horizon": 3.0, "mc_replicates": 2000,
                       "t_checks": [1.0, 2.0], "stationarity_rep": 200,
                       "stationarity_seeds": 2},
    "mixed-market": {"n_agents": 20, "epsilon": 1e-2, "horizon": 2.0, "n_grid": 2**10 + 1,
                     "seeds": 1},
    "integral-identities": {"n": 2**8, "seeds": 1},
    "key-renewal": {"dt": 0.1, "horizon": 2.1e3, "ladder": [1e2, 1e3, 2e3]},
}


@pytest.mark.parametrize("kind", list(EXPERIMENT_KINDS))
def test_every_kind_writes_a_report_its_schema_accepts(tmp_path, kind):
    run(ExperimentSpec(kind=kind, params=dict(_TINY_PARAMS[kind]), seed=5,
                       out_dir=str(tmp_path)))
    assert _checked_report(tmp_path)["kind"] == kind


def _loads_scipy(code):
    """Whether `code` run in a fresh interpreter leaves scipy in sys.modules."""
    src = os.path.dirname(os.path.dirname(semimarket.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code + "; print('scipy' in sys.modules)"],
                         env=env, capture_output=True, text=True, check=True, timeout=120)
    return out.stdout.strip().splitlines()[-1] == "True"


def test_package_import_loads_no_scipy():
    # scipy.stats and friends take most of a second to import; numpy is the
    # package's only run-time dependency, scipy only a test oracle
    assert not _loads_scipy("import sys, semimarket.experiments, semimarket.cli")


def test_renewal_tables_run_loads_no_scipy():
    # the chi-square p-values of the stationarity check come from chi2_sf
    params = {"dt": 0.05, "horizon": 3.0, "mc_replicates": 2000, "t_checks": [1.0, 2.0],
              "stationarity_rep": 200, "stationarity_seeds": 2}
    assert not _loads_scipy(
        "import sys; from semimarket.experiments import ExperimentSpec, run; "
        f"run(ExperimentSpec(kind='renewal-tables', params={params!r}))")


@pytest.mark.parametrize("dof", range(1, 16))
def test_chi2_sf_matches_scipy(dof):
    from scipy.stats import chi2

    xs = [0.0, 1e-8, 1e-3, *np.linspace(0.0, 60.0, 121), 700.0, 1500.0, 5000.0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x in xs:
            got, want = chi2_sf(x, dof), chi2.sf(x, dof)
            assert np.isfinite(got) and 0.0 <= got <= 1.0
            if want > 1e-290:
                assert got == pytest.approx(want, rel=1e-12, abs=0.0), x
            else:
                assert got <= 1e-280, x


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
    on_disk = _checked_report(tmp_path / "out")
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
    _checked_report(tmp_path)
    assert report["passed"]
    names = {v["name"] for c in report["cells"] for v in c["verdicts"]}
    assert "gamma_vs_closed_form" in names
    assert (tmp_path / "gamma.csv").exists()
    assert (tmp_path / "pstar_11.csv").exists()


def test_markov_linearity_lags_stay_on_the_path(tmp_path):
    # the lags stop at n_grid // 8: a lag past the path's end has a NaN variogram,
    # which report.json cannot hold as strict JSON
    params = dict(_TINY_MARKET, n_grid=1100, min_lag=1)
    run(ExperimentSpec(kind="markov-baseline", params=params, out_dir=str(tmp_path)))
    metrics = _checked_report(tmp_path)["cells"][1]["metrics"]
    assert metrics["lags"] == [1, 2, 4, 8, 16, 32, 64, 128]
    assert np.all(np.isfinite(metrics["variogram"]))


def test_var_loglog_slope_band_follows_the_model():
    # alpha 1.3 gives 2H = 1.7, and the renewal slope on [1e2, 1e4] reads 1.643
    report = run(ExperimentSpec(kind="limit-verification", params=dict(_TINY_MARKET),
                                model=alpha_variant(LIMIT_MODEL, 1.3)))
    (verdict,) = report["cells"][1]["verdicts"]
    assert verdict["band"] == pytest.approx([1.6, 1.8], abs=1e-12)
    assert verdict["value"] == pytest.approx(1.643, abs=5e-4)
    assert verdict["passed"]


def test_stationarity_check_pools_counts():
    model = model_from_dict(EXAMPLE_A_MODEL)
    out = stationarity_check(model, [0.0, 5.0, 10.0], 2000, 3, base_seed=9)
    assert out["min_pvalue"] > 0.01
    counts = np.asarray(out["counts"])
    assert counts.sum() == pytest.approx(3 * 2000 * 3)
    # the counts equal a per-time, per-label loop over the same draws
    loop = np.zeros((3, 3))
    for s in range(3):
        states = states_at_times(model, [0.0, 5.0, 10.0], 2000, np.random.default_rng([9, s]))
        for ti in range(3):
            for li, lab in enumerate(model.states):
                loop[ti, li] += np.sum(states[:, ti] == lab)
    assert out["counts"] == loop.tolist()


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


@pytest.mark.parametrize("kind", ["integral-identities", "renewal-tables", "key-renewal"])
def test_fast_kind_reports_are_strict_json(tmp_path, kind):
    run(ExperimentSpec(kind=kind, out_dir=str(tmp_path)))
    report = _checked_report(tmp_path)
    assert report["passed"]
    bands = {v["name"]: v["band"] for c in report["cells"] for v in c["verdicts"]}
    if kind == "integral-identities":
        assert bands["ibp_residual_shrinks"] == [1.5, None]


def test_degenerate_market_replicate_fails_its_verdicts(tmp_path, capsys):
    # every rate 1e-9: no agent jumps, so no replicate has a Hurst estimate
    model = json.loads(json.dumps(MARKOV_MODEL))
    for law in model["sojourns"].values():
        law["rate"] = 1e-9
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"kind": "markov-baseline", "model": model,
                                "params": {"n_agents": 10, "seeds": 2}}))
    rc = cli_main(["markov-baseline", "--config", str(spec), "--out", str(tmp_path)])
    assert rc == 1
    assert "[FAIL] markov_baseline::markov_baseline_median_hurst" in capsys.readouterr().out
    report = _checked_report(tmp_path)
    assert not report["passed"]
    cell = report["cells"][0]
    assert [v["passed"] for v in cell["verdicts"]] == [False, False]
    assert [v["value"] for v in cell["verdicts"]] == [None, None]
    assert cell["metrics"]["hurst_variogram"] == [None, None]
    assert [f.split(":")[0] for f in cell["metrics"]["failures"]] == \
        ["replicate 0", "replicate 1"]
    assert all("outside (0,1)" in f for f in cell["metrics"]["failures"])


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


@pytest.mark.parametrize("spec, key", [
    ({"kind": "key-renewal", "seed": [1]}, "seed"),
    ({"kind": "key-renewal", "seed": True}, "seed"),
    ({"kind": "key-renewal", "seed": 1.5}, "seed"),
    ({"kind": "key-renewal", "seed": -1}, "seed"),
    ({"kind": "key-renewal", "threads": "many"}, "threads"),
    ({"kind": "key-renewal", "threads": 0}, "threads"),
    ({"kind": "key-renewal", "threads": False}, "threads"),
    ([{"kind": "key-renewal"}], "JSON object"),
    # an out that is not a path used to fail in os.makedirs after the whole run
    ({"kind": "key-renewal", "out": 5}, "spec key out must be a string or null, got 5"),
    ({"kind": "key-renewal", "out": ["x"]}, "spec key out must be a string or null, got ['x']"),
    ({"params": {}}, "missing spec key kind; known kinds: ['example-a',"),
])
def test_cli_rejects_bad_spec_values(tmp_path, capsys, spec, key):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(spec))
    assert cli_main(["key-renewal", "--config", str(cfg)]) == 2
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("argv, key", [
    (["--seed", "-1"], "seed"),
    (["--threads", "0"], "threads"),
])
def test_cli_rejects_bad_seed_and_threads_overrides(capsys, argv, key):
    # checked before the run starts: exit 2 with a message, not numpy's traceback
    assert cli_main(["integral-identities"] + argv) == 2
    err = capsys.readouterr().err
    assert f"spec key {key} must be" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("fields, key", [
    ({"seed": -3, "threads": 0}, "seed"),
    ({"threads": 0}, "threads"),
    ({"seed": 1.0}, "seed"),
])
def test_spec_checks_seed_and_threads(fields, key):
    with pytest.raises(ValueError, match=f"spec key {key} must be"):
        ExperimentSpec(kind="integral-identities", **fields)


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
    # ProcessPool sweep must reproduce the serial per-seed results exactly; the
    # workers get the market function and the built model by pickle.  2^12 + 1
    # points cover markov-baseline's longest linearity lag, 2^11
    params = {"n_agents": 60, "epsilon": 0.05, "horizon": 8.0, "n_grid": 2**12 + 1,
              "seeds": 3, "min_lag": 4, "band": (0.0, 1.0)}
    for kind in ("example-a", "markov-baseline"):
        serial, parallel = (run(ExperimentSpec(kind=kind, params=dict(params), seed=11,
                                               threads=threads)) for threads in (1, 2))
        assert serial["cells"] == parallel["cells"], kind


def test_pool_never_has_more_workers_than_tasks(monkeypatch):
    # a forking pool starts every worker at its first submit, so --threads 5000
    # on a 2-seed run would fork 5000 processes; this stand-in maps in process
    from semimarket import experiments

    sizes = []

    class InProcessPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, args):
            return map(fn, args)

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", InProcessPool)
    for threads, tasks, expected in ((5000, 2, [2]), (2, 3, [2]), (4, 4, [4]), (8, 1, [])):
        sizes.clear()
        assert experiments._pmap(abs, [-k for k in range(tasks)], threads) == list(range(tasks))
        assert sizes == expected


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
    agg = market.simulate_market(_market_config(model_from_dict(EXAMPLE_A_MODEL), params,
                                                7041))
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


_BAD_COUNTS = (
    ("renewal-tables", {"t_checks": []}, "t_checks"),
    ("renewal-tables", {"t_checks": [-1.0]}, "t_checks"),
    ("renewal-tables", {"t_checks": [0.0, 5.0]}, "t_checks"),
    ("renewal-tables", {"t_checks": [13.0]}, "t_checks"),
    ("renewal-tables", {"t_checks": ["1.0"]}, "t_checks"),
    ("renewal-tables", {"mc_replicates": 0}, "mc_replicates"),
    ("renewal-tables", {"stationarity_rep": 0}, "stationarity_rep"),
    ("renewal-tables", {"stationarity_seeds": 0}, "stationarity_seeds"),
    ("example-a", {"seeds": 0}, "seeds"),
    ("markov-baseline", {"seeds": 0}, "seeds"),
    ("limit-verification", {"seeds": 0}, "seeds"),
    ("integral-identities", {"seeds": 0}, "seeds"),
    ("fbm-selftest", {"calib_seeds": 0}, "calib_seeds"),
    ("fbm-selftest", {"cov_paths": 0}, "cov_paths"),
    ("integral-identities", {"levels": 1}, "levels"),
    ("key-renewal", {"ladder": []}, "ladder"),
    ("key-renewal", {"ladder": [0.0, 1e3]}, "ladder"),
    ("key-renewal", {"ladder": [1e2, 2e4]}, "ladder"),
    # non-integer counts, and fbm-selftest sizes and Hurst lists the run cannot use
    ("example-a", {"seeds": "x"}, "seeds"),
    ("example-a", {"seeds": 2.5}, "seeds"),
    ("renewal-tables", {"mc_replicates": "100"}, "mc_replicates"),
    ("integral-identities", {"levels": True}, "levels"),
    ("fbm-selftest", {"cov_n": 0}, "cov_n"),
    ("fbm-selftest", {"cov_n": 2.5}, "cov_n"),
    ("fbm-selftest", {"calib_n": 512}, "calib_n"),
    ("fbm-selftest", {"calib_n": "16384"}, "calib_n"),
    ("fbm-selftest", {"cov_hs": []}, "cov_hs"),
    ("fbm-selftest", {"cov_hs": [1.5]}, "cov_hs"),
    ("fbm-selftest", {"cov_hs": 0.75}, "cov_hs"),
    ("fbm-selftest", {"calib_hs": [0.5, 0.0]}, "calib_hs"),
    ("fbm-selftest", {"calib_hs": ["0.6"]}, "calib_hs"),
    # market sizes, scales and grids, renewal steps and integral-identities paths
    ("example-a", {"n_agents": 0}, "n_agents"),
    ("mixed-market", {"n_agents": 0}, "n_agents"),
    ("markov-baseline", {"epsilon": 0}, "epsilon"),
    ("limit-verification", {"epsilon": "1e-3"}, "epsilon"),
    ("renewal-tables", {"dt": True}, "dt"),
    ("example-a", {"n_grid": 100}, "n_grid"),
    ("markov-baseline", {"n_grid": 2**10}, "n_grid"),
    ("limit-verification", {"n_grid": 2**14 - 1, "min_lag": 64}, "n_grid"),
    ("example-a", {"min_lag": 0}, "min_lag"),
    ("renewal-tables", {"dt": 0}, "dt"),
    ("key-renewal", {"dt": -0.05}, "dt"),
    ("renewal-tables", {"horizon": 0.0}, "horizon"),
    ("integral-identities", {"hurst": 1.5}, "hurst"),
    ("integral-identities", {"hurst": 0}, "hurst"),
    ("integral-identities", {"n": 100}, "n"),
    ("integral-identities", {"n": 2**12, "levels": 14}, "n"),
    ("integral-identities", {"n": 2**12, "levels": 10**12}, "n"),
    # params that used to fail only at run time, some after a full simulation
    ("mixed-market", {"n_grid": 1000}, "qv_blocks"),
    ("mixed-market", {"qv_blocks": [0, 8]}, "qv_blocks"),
    ("mixed-market", {"horizon": 0}, "horizon"),
    ("mixed-market", {"rhos": ["0.5", 1.0]}, "rhos"),
    # a ladder out of order: [1000, 10] used to pass both key-renewal verdicts
    ("key-renewal", {"ladder": [1e3, 10.0]}, "ladder"),
    ("key-renewal", {"ladder": [1e2, 1e2]}, "ladder"),
    ("key-renewal", {"ladder": [1e2, 1e3, 10**2.5]}, "ladder"),
    ("example-a", {"band": [0.5]}, "band"),
    ("key-renewal", {"alpha": 0.5}, "alpha"),
    ("key-renewal", {"band": [1.1]}, "band"),
    ("key-renewal", {"scale": -1}, "scale"),
)


def test_every_default_param_has_one_check():
    from semimarket.experiments import _PARAM_CHECKS

    names = {key for _, _, defaults in EXPERIMENT_KINDS.values() for key in defaults}
    assert names == set(_PARAM_CHECKS)


def test_spec_accepts_smallest_fbm_selftest_sizes():
    # one increment per covariance path; 2^10 calibration increments give the
    # estimators their five dyadic scales
    params = {"cov_n": 1, "calib_n": 2**10, "cov_paths": 3, "cov_hs": [0.5],
              "calib_hs": (0.05, 0.95)}
    ExperimentSpec(kind="fbm-selftest", params=params)


def test_spec_accepts_smallest_market_grids():
    # 16 * min_lag = n_grid // 16 leaves exactly five dyadic lags; 2^10 + 1
    # points give the estimators their 2^10 increments
    for n_grid, min_lag in ((2**10 + 1, 4), (2**14, 64), (2**14 + 1, 64)):
        ExperimentSpec(kind="example-a", params={"n_grid": n_grid, "min_lag": min_lag})
    ExperimentSpec(kind="integral-identities", params={"n": 24, "levels": 4, "hurst": 0.01})


@pytest.mark.parametrize("kind, params, key", _BAD_COUNTS)
def test_spec_rejects_empty_counts_and_bad_times(kind, params, key):
    with pytest.raises(ValueError, match=key):
        ExperimentSpec(kind=kind, params=params)


@pytest.mark.parametrize("kind, params, key", _BAD_COUNTS)
def test_cli_rejects_empty_counts_and_bad_times(tmp_path, capsys, kind, params, key):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"kind": kind, "params": params}))
    assert cli_main([kind, "--config", str(cfg)]) == 2
    assert f"params.{key}" in capsys.readouterr().err


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


# kind/model pairs each kind cannot run: each used to exit 1 with a traceback
# (limit-verification only after every market replicate had run), or to judge
# a right gamma against a closed form that does not hold for the model (the
# renewal-tables premise cases)
_NO_STATE_1 = {"states": [-1, 0], "transitions": [[0.0, 1.0], [1.0, 0.0]],
               "sojourns": {"-1": {"family": "exponential", "rate": 1.0},
                            "0": {"family": "pareto", "scale": 1.0, "alpha": 1.5}}}


def _moods(active=None, zero_to_1=None, states=(-1, 0, 1), transitions=None):
    """EXAMPLE_A_MODEL with its active law, its 0 -> 1 law, its labels or its chain replaced."""
    active = active or {"family": "exponential", "rate": 1.0}
    out = dict(EXAMPLE_A_MODEL, states=list(states),
               sojourns={str(states[0]): active, "0": EXAMPLE_A_MODEL["sojourns"]["0"],
                         str(states[2]): active})
    if zero_to_1:
        out["edges"] = {"0->1": zero_to_1}
    return dict(out, transitions=transitions) if transitions else out


_TABLES_PREMISE = ("model unusable by renewal-tables: the closed form 2 nu_1 e^-t needs states "
                   "{-1, 0, 1}, -1 and 1 held Exponential(rate 1) and left only for 0, and "
                   "mirror-symmetric exits from 0")
_UNUSABLE = {
    "markov-on-pareto": ("markov-baseline", EXAMPLE_A_MODEL, {}, "model unusable by "
                         "markov-baseline: markov_market requires all-exponential"),
    "limit-on-markov": ("limit-verification", MARKOV_MODEL, {}, "model unusable by "
                        "limit-verification: model has no heavy-tailed inactive state"),
    "tables-without-state-1": ("renewal-tables", _NO_STATE_1, {}, "model unusable by "
                               "renewal-tables: tail constant is defined for the active states only, not 1"),
    "tables-coarse-dt": ("renewal-tables", None, {"dt": 0.1}, "params.dt unusable by "
                         "renewal-tables: grid step 0.1 too coarse"),
    "tables-asymmetric": ("renewal-tables", ASYMMETRIC_MODEL, {}, _TABLES_PREMISE),
    "tables-zero-laws": ("renewal-tables", _moods(zero_to_1={"family": "pareto", "scale": 2.0,
                                                             "alpha": 1.5}), {}, _TABLES_PREMISE),
    "tables-states": ("renewal-tables", _moods(states=(-2, 0, 1)), {}, _TABLES_PREMISE),
    "tables-active-rate": ("renewal-tables", _moods({"family": "exponential", "rate": 2.0}), {},
                           _TABLES_PREMISE),
    "tables-active-uniform": ("renewal-tables", _moods({"family": "uniform", "lo": 0.5,
                                                        "hi": 1.5}), {}, _TABLES_PREMISE),
    "tables-active-loop": ("renewal-tables", _moods(transitions=[
        [0.5, 0.5, 0.0], [0.5, 0.0, 0.5], [0.0, 1.0, 0.0]]), {}, _TABLES_PREMISE),
}


@pytest.mark.parametrize("case", _UNUSABLE)
def test_cli_rejects_a_model_the_kind_cannot_use(tmp_path, capsys, case):
    kind, model, params, message = _UNUSABLE[case]
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"kind": kind, "model": model, "params": params}))
    assert cli_main([kind, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_renewal_tables_accepts_the_symmetric_models():
    # a zero self-loop keeps the exits from 0 mirror-symmetric
    looped = dict(EXAMPLE_A_MODEL, transitions=[[0.0, 1.0, 0.0], [0.25, 0.5, 0.25],
                                                [0.0, 1.0, 0.0]])
    for model in (EXAMPLE_A_MODEL, MARKOV_MODEL, looped):
        ExperimentSpec(kind="renewal-tables", model=model)


def test_limit_constant_comparison_rejects_a_window_past_its_grid():
    # with horizon 500 the default window (1e3, 1e4) read the held last value
    # of the variance and returned rel_err 1.098 for this model
    model = alpha_variant(ASYMMETRIC_MODEL, 1.4)
    for kwargs in ({"horizon": 500}, {"fit_window": (1e3, 2e4)},
                   {"fit_window": (0.0, 1e3)}, {"fit_window": (1e3, 1e3)}):
        with pytest.raises(ValueError, match="must satisfy 0 < low < high <= horizon"):
            limit_constant_comparison(model, dt=0.05, **kwargs)


def test_spec_rejects_the_removed_c2_params():
    # mixed-market's Wiener constant is a closed form now: its grid params are gone
    for key in ("c2_dt", "c2_horizon"):
        with pytest.raises(ValueError, match=f"unknown params \\['{key}'\\] for mixed-market"):
            ExperimentSpec(kind="mixed-market", params={key: 0.02})


def test_spec_rejects_the_removed_renewal_params(tmp_path, capsys):
    # limit-verification's renewal half runs at fixed dt, horizon, window and band
    cfg = tmp_path / "old.json"
    for key, value in (("renewal_dt", 0.025), ("renewal_horizon", 1.05e4),
                       ("slope_window", [1e2, 1e4]), ("slope_band", [1.4, 1.6])):
        with pytest.raises(ValueError,
                           match=f"unknown params \\['{key}'\\] for limit-verification"):
            ExperimentSpec(kind="limit-verification", params={key: value})
        cfg.write_text(json.dumps({"kind": "limit-verification", "params": {key: value}}))
        assert cli_main(["limit-verification", "--config", str(cfg)]) == 2
        assert f"unknown params ['{key}']" in capsys.readouterr().err


def test_mixed_market_simulates_the_inert_block_once_per_replicate(monkeypatch):
    from semimarket import market

    calls = []

    def counted(cfg, replicate=0, _fn=market.simulate_market):
        calls.append(replicate)
        return _fn(cfg, replicate=replicate)

    params = {"epsilon": 1e-2, "n_agents": 40, "horizon": 2.0, "n_grid": 2**8 + 1,
              "seeds": 2, "qv_blocks": (16, 8, 4, 2)}
    monkeypatch.setattr(market, "simulate_market", counted)
    serial = run(ExperimentSpec(kind="mixed-market", params=dict(params), seed=5))
    assert sorted(calls) == [0, 1]
    monkeypatch.undo()
    parallel = run(ExperimentSpec(kind="mixed-market", params=dict(params), seed=5,
                                  threads=2))
    assert serial["cells"] == parallel["cells"]
