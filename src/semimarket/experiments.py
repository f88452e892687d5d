"""Reproducible verification experiments and machine-readable reports.

Each experiment kind bundles one verification pipeline (generator self-test,
market scaling limits, renewal tables, integral identities, ...) into cells
with named verdicts against quantitative bands.  `EXPERIMENT_KINDS` defines
each kind by its runner, default model and default params; a spec may
override only those params, and its model is validated when it is built.
`run` merges the defaults once, writes report.json (which records the model
and params that ran) plus CSV artifacts, and is deterministic given
(spec, seed).
"""
from __future__ import annotations

import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy.stats import chi2

from . import __version__
from . import fbm as fbm_mod
from . import integrals as int_mod
from . import market as mkt
from . import renewal as rnw
from .config import model_from_dict
from .paths import SamplePath
from .semi_markov import limit_constant_c2, states_at_times, stationary_law, \
    validate_model

__all__ = [
    "ExperimentSpec",
    "EXPERIMENT_KINDS",
    "EXAMPLE_A_MODEL",
    "ASYMMETRIC_MODEL",
    "MARKOV_MODEL",
    "fit_slope",
    "run",
    "load_experiment",
    "validate_report",
    "stationarity_check",
    "market_hurst",
    "REPORT_SCHEMA_VERSION",
]

REPORT_SCHEMA_VERSION = "1"

# reference models used by the built-in experiment defaults
EXAMPLE_A_MODEL = {
    "states": [-1, 0, 1],
    "transitions": [[0.0, 1.0, 0.0], [0.5, 0.0, 0.5], [0.0, 1.0, 0.0]],
    "sojourns": {
        "-1": {"family": "exponential", "rate": 1.0},
        "0": {"family": "pareto", "scale": 1.0, "alpha": 1.5},
        "1": {"family": "exponential", "rate": 1.0},
    },
}

ASYMMETRIC_MODEL = {
    "states": [-1, 0, 1],
    "transitions": [[0.0, 1.0, 0.0], [0.3, 0.0, 0.7], [0.0, 1.0, 0.0]],
    "sojourns": {
        "-1": {"family": "exponential", "rate": 1.0},
        "0": {"family": "pareto", "scale": 1.0, "alpha": 1.5},
        "1": {"family": "exponential", "rate": 1.0},
    },
}

MARKOV_MODEL = {
    "states": [-1, 0, 1],
    "transitions": [[0.0, 1.0, 0.0], [0.5, 0.0, 0.5], [0.0, 1.0, 0.0]],
    "sojourns": {
        "-1": {"family": "exponential", "rate": 1.0},
        "0": {"family": "exponential", "rate": 1.0 / 3.0},
        "1": {"family": "exponential", "rate": 1.0},
    },
}


# Asymmetric model whose limit constant dominates the covariance bulk already at
# t ~ 10^2, so the fractional regime is reachable at desk-scale (eps, N); used by
# the limit-verification defaults.  Pilot-calibrated; see README.
LIMIT_MODEL = {
    "states": [-1, 0, 1],
    "transitions": [[0.0, 1.0, 0.0], [0.1, 0.0, 0.9], [0.0, 1.0, 0.0]],
    "sojourns": {
        "-1": {"family": "exponential", "rate": 1.0},
        "0": {"family": "pareto", "scale": 0.5, "alpha": 1.5},
        "1": {"family": "exponential", "rate": 1.0},
    },
}


def alpha_variant(base, alpha):
    """Copy of a model config with the inactive-state tail index replaced."""
    out = json.loads(json.dumps(base))
    out["sojourns"]["0"]["alpha"] = alpha
    return out


@dataclass
class ExperimentSpec:
    """A kind, its model and the params that override the kind's defaults."""

    kind: str
    model: dict | None = None
    params: dict = field(default_factory=dict)
    seed: int = 7041
    out_dir: str | None = None
    threads: int = 1

    def __post_init__(self):
        if self.kind not in EXPERIMENT_KINDS:
            raise ValueError(f"unknown experiment kind {self.kind!r}; "
                             f"known: {sorted(EXPERIMENT_KINDS)}")
        if not isinstance(self.params, dict) or not isinstance(self.model, (dict, type(None))):
            raise ValueError("params must be an object and model an object or null")
        _, default_model, defaults = EXPERIMENT_KINDS[self.kind]
        unknown = sorted(set(self.params) - set(defaults))
        if unknown:
            raise ValueError(f"unknown params {unknown} for {self.kind}; "
                             f"known: {sorted(defaults)}")
        if self.model is not None:
            if default_model is None:
                raise ValueError(f"{self.kind} takes no model")
            problems = validate_model(model_from_dict(self.model))
            if problems:
                raise ValueError(f"invalid model: {'; '.join(problems)}")
        if self.kind == "mixed-market":
            _check_rhos({**defaults, **self.params})


def _check_rhos(p):
    """mixed-market compares its first two rhos and needs active agents at each."""
    rhos, n_agents = p["rhos"], int(p["n_agents"])
    if not isinstance(rhos, (list, tuple)) or len(rhos) < 2:
        raise ValueError(f"params.rhos needs at least two values, got {rhos!r}")
    empty = [rho for rho in rhos if round(rho * n_agents) < 1]
    if empty:
        raise ValueError(f"params.rhos {empty} give no active agent at n_agents = {n_agents}")


_SPEC_KEYS = ("kind", "model", "params", "seed", "out", "threads")


def load_experiment(path) -> ExperimentSpec:
    with open(path) as fh:
        raw = json.load(fh)
    unknown = sorted(set(raw) - set(_SPEC_KEYS))
    if unknown:
        raise ValueError(f"unknown spec keys {unknown}; known: {list(_SPEC_KEYS)}")
    model = raw.get("model")
    if isinstance(model, str):
        base = os.path.dirname(os.path.abspath(path))
        model_path = model if os.path.isabs(model) else os.path.join(base, model)
        with open(model_path) as mf:
            model = json.load(mf)
    return ExperimentSpec(kind=raw["kind"], model=model, params=raw.get("params", {}),
                          seed=int(raw.get("seed", 7041)), out_dir=raw.get("out"),
                          threads=int(raw.get("threads", 1)))


# -- small shared helpers ----------------------------------------------------

def fit_slope(xs, ys):
    """Ordinary least squares in log-log coordinates: (slope, intercept, stderr, r2)."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.size < 3 or np.unique(xs).size != xs.size:
        raise ValueError("need at least 3 distinct abscissae")
    if np.any(xs <= 0.0) or np.any(ys <= 0.0):
        raise ValueError("log-log fit requires positive values")
    return fbm_mod.fit_line(np.log(xs), np.log(ys))


def _verdict(name, value, band=None, passed=None):
    if passed is None:
        passed = bool(band[0] <= value <= band[1])
    return {"name": name, "value": float(value) if np.isscalar(value) else value,
            "band": list(band) if band is not None else None, "passed": bool(passed)}


def _cell(name, metrics, verdicts):
    return {"name": name, "metrics": metrics, "verdicts": verdicts}


def market_hurst(path: SamplePath, min_lag=64, max_lag=None):
    """Hurst estimates of a market path on the coarse-lag window.

    Market paths are smooth below the agent jump scale (~eps) and mix toward
    the limit only above it, so estimation starts at `min_lag` grid steps and
    stops at n/16 where block counts keep the estimator noise in check.
    """
    n = path.values.size
    max_lag = max_lag or n // 16
    vario = fbm_mod.hurst_variogram(path, min_lag=min_lag, max_lag=max_lag)
    agg = fbm_mod.hurst_aggregated_variance(path, min_block=min_lag, max_block=max_lag)
    return vario, agg


def _pmap(fn, args_list, threads):
    if threads <= 1 or len(args_list) <= 1:
        return [fn(a) for a in args_list]
    with ProcessPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, args_list))


# -- fbm-selftest -------------------------------------------------------------

# standard normals drawn per chunk of covariance paths (2n per path): a cell's
# peak memory, about 1.2 MB at n = 1024, does not grow with its paths
_CHUNK_VALUES = 1 << 15


def _fbm_cov_cell(hurst, n_paths, n, seed):
    rng = np.random.default_rng([seed, int(hurst * 1000)])
    # t = 0 has zero variance, so every pick lies at index >= 1
    picks = np.maximum(np.linspace(n // 5, n, 5).astype(int), 1)
    dt = 1.0 / n
    rows = max(1, _CHUNK_VALUES // (2 * n))
    gram = np.zeros((picks.size, picks.size))
    for start in range(0, n_paths, rows):
        k = min(rows, n_paths - start)
        paths = np.zeros((k, n + 1))  # column 0 is B(0) = 0
        np.cumsum(fbm_mod.sample_fgn(hurst, n, rng, size=k) * dt**hurst, axis=1,
                  out=paths[:, 1:])
        samples = paths[:, picks]
        gram += samples.T @ samples
    t = picks * dt
    exact = 0.5 * (t[:, None] ** (2 * hurst) + t[None, :] ** (2 * hurst)
                   - np.abs(t[:, None] - t[None, :]) ** (2 * hurst))
    emp = gram / n_paths
    # SE of each covariance entry for Gaussian samples
    se = np.sqrt((np.outer(np.diag(exact), np.diag(exact)) + exact**2) / n_paths)
    dev = np.abs(emp - exact) / se
    worst = float(dev.max())
    return _cell(
        f"fbm_covariance_H{hurst}",
        {"worst_dev_se": worst, "n_paths": n_paths, "n": n},
        [_verdict(f"cov_within_4se_H{hurst}", worst, band=(0.0, 4.0))],
    )


def _fbm_calibration_cells(hs, n, n_seeds, seed):
    # scale window n/256: coarse lags carry too few blocks to keep the worst
    # seed inside the 0.05 band at H = 0.9
    max_scale = max(n // 256, 16)
    cells = []
    for hurst in hs:
        errs_v, errs_a, gaps = [], [], []
        for s in range(n_seeds):
            rng = np.random.default_rng([seed, int(hurst * 1000), s])
            path = fbm_mod.sample_fbm(hurst, n, 1.0, rng)
            est_v = fbm_mod.hurst_variogram(path, max_lag=max_scale)
            est_a = fbm_mod.hurst_aggregated_variance(path, max_block=max_scale)
            errs_v.append(abs(est_v.h_hat - hurst))
            errs_a.append(abs(est_a.h_hat - hurst))
            gaps.append(abs(est_v.h_hat - est_a.h_hat))
        cells.append(_cell(
            f"hurst_calibration_H{hurst}",
            {"max_err_variogram": max(errs_v), "max_err_aggvar": max(errs_a),
             "max_gap": max(gaps), "seeds": n_seeds},
            [
                _verdict(f"variogram_err_H{hurst}", max(errs_v), band=(0.0, 0.05)),
                _verdict(f"aggvar_err_H{hurst}", max(errs_a), band=(0.0, 0.05)),
                _verdict(f"estimator_agreement_H{hurst}", max(gaps), band=(0.0, 0.06)),
            ],
        ))
    return cells


def run_fbm_selftest(p, seed, model, threads):
    cells = [_fbm_cov_cell(h, p["cov_paths"], p["cov_n"], seed) for h in p["cov_hs"]]
    cells += _fbm_calibration_cells(p["calib_hs"], p["calib_n"], p["calib_seeds"], seed)
    return cells, {}


# -- market experiments --------------------------------------------------------

def _market_config(model_dict, p, seed):
    """Unit-amplitude market of the model with the params' size and scale."""
    return mkt.MarketConfig(model=model_from_dict(model_dict), n_agents=int(p["n_agents"]),
                            epsilon=float(p["epsilon"]), amplitude=mkt.AmplitudeModel(),
                            horizon=float(p["horizon"]), seed=seed, n_grid=int(p["n_grid"]))


def _one_market_hurst(args):
    """Hurst estimates of one replicate; replicate 0 also hands back its path."""
    model_dict, p, seed, replicate, scaling = args
    cfg = _market_config(model_dict, p, seed)
    simulate = mkt.markov_market if scaling == "markov" else mkt.simulate_market
    agg = simulate(cfg, replicate=replicate)
    vario, aggvar = market_hurst(agg.path(), min_lag=int(p["min_lag"]))
    return vario.h_hat, aggvar.h_hat, agg if replicate == 0 else None


def _replicate_hursts(model_dict, p, seed, scaling, threads):
    """Both Hurst estimates of each of the p["seeds"] replicates, and replicate 0's path."""
    args = [(model_dict, p, seed, rep, scaling) for rep in range(int(p["seeds"]))]
    results = _pmap(_one_market_hurst, args, threads)
    return [r[0] for r in results], [r[1] for r in results], results[0][2]


def _median_hurst_cells(name, model_dict, p, seed, scaling, threads):
    """Median-Hurst cell over the replicates, and replicate 0's aggregate path."""
    h_v, h_a, agg0 = _replicate_hursts(model_dict, p, seed, scaling, threads)
    med_v, med_a = float(np.median(h_v)), float(np.median(h_a))
    verdicts = [
        _verdict(f"{name}_median_hurst", med_v, band=tuple(p["band"])),
        _verdict(f"{name}_estimator_agreement", abs(med_v - med_a), band=(0.0, 0.1)),
    ]
    metrics = {"hurst_variogram": h_v, "hurst_aggvar": h_a,
               "median_variogram": med_v, "median_aggvar": med_a}
    return _cell(name, metrics, verdicts), agg0


def _path_artifacts(name, agg):
    return {f"{name}_x_scaled.csv": agg.path("x_scaled"),
            f"{name}_log_price.csv": agg.path("log_price")}


def run_example_a(p, seed, model, threads):
    cell, agg0 = _median_hurst_cells("example_a", model, p, seed, "fractional", threads)
    return [cell], _path_artifacts("example_a", agg0)


def run_markov_baseline(p, seed, model, threads):
    cell, agg0 = _median_hurst_cells("markov_baseline", model, p, seed, "markov", threads)
    # variance linear in t: by stationarity of increments the variogram of the
    # scaled path is rate * lag; fit it linearly on replicate 0's path
    x = agg0.x_scaled
    lags = (2 ** np.arange(6, 12)).astype(int)
    vario = [float(np.mean((x[lag:] - x[:-lag]) ** 2)) for lag in lags]
    r2 = fbm_mod.fit_line(lags, vario)[3]
    lin_cell = _cell(
        "markov_variance_linearity",
        {"lags": lags.tolist(), "variogram": vario, "r2": r2},
        [_verdict("variance_linear_r2", r2, band=(0.95, 1.0))],
    )
    return [cell, lin_cell], {}


def run_limit_verification(p, seed, model, threads):
    cell, agg0 = _median_hurst_cells("limit_verification", model, p, seed, "fractional",
                                     threads)
    artifacts = _path_artifacts("limit_verification", agg0)
    model_obj = model_from_dict(model)
    grid = rnw.Grid.for_horizon(p["renewal_horizon"], p["renewal_dt"])
    gamma = rnw.covariance_gamma(model_obj, grid)
    var = rnw.variance_of_integral(gamma)
    lo, hi = p["slope_window"]
    tt = np.geomspace(lo, hi, 25)
    slope, _, stderr, r2 = fit_slope(tt, var.at(tt))
    target_h = model_obj.hurst()
    pred = rnw.asymptotic_covariance(model_obj, 1e3)
    ratio_1e3 = float(gamma.at(1e3) / pred)
    var_cell = _cell(
        "variance_slope",
        {"slope": slope, "stderr": stderr, "r2": r2, "target": 2 * target_h,
         "gamma_ratio_at_1e3": ratio_1e3, "window": [lo, hi]},
        [_verdict("var_loglog_slope", slope, band=tuple(p["slope_band"]))],
    )
    artifacts["gamma.csv"] = ("gamma", gamma)
    artifacts["variance.csv"] = ("variance", var)
    cells = [cell, var_cell]
    # optional sweep cells: informational medians along an (epsilon, N) grid
    for eps in p["sweep_epsilon"]:
        q = dict(p, epsilon=eps, seeds=max(3, int(p["seeds"]) // 3))
        h_v, h_a, _ = _replicate_hursts(model, q, seed, "fractional", threads)
        cells.append(_cell(
            f"sweep_eps_{eps:g}",
            {"epsilon": eps, "median_variogram": float(np.median(h_v)),
             "median_aggvar": float(np.median(h_a))},
            [],
        ))
    return cells, artifacts


# -- renewal tables -------------------------------------------------------------

def stationarity_check(model, times, n_rep, seeds, base_seed):
    """Chi-square of the marginal state law at fixed times against nu, pooled over seeds."""
    law = stationary_law(model)
    labels = np.array(model.space.states)
    counts = np.zeros((len(times), labels.size))
    for s in range(seeds):
        rng = np.random.default_rng([base_seed, s])
        out = states_at_times(model, times, n_rep, rng, law=law)
        for ti in range(len(times)):
            for li, lab in enumerate(labels):
                counts[ti, li] += np.sum(out[:, ti] == lab)
    total = counts.sum(axis=1, keepdims=True)
    expected = law.nu[None, :] * total
    stat = ((counts - expected) ** 2 / expected).sum(axis=1)
    pvals = chi2.sf(stat, df=labels.size - 1)
    return {"times": list(map(float, times)), "pvalues": [float(v) for v in pvals],
            "counts": counts.tolist(), "min_pvalue": float(pvals.min())}


def run_renewal_tables(p, seed, model, threads):
    model_obj = model_from_dict(model)
    law = stationary_law(model_obj)
    grid = rnw.Grid.for_horizon(p["horizon"], p["dt"])
    pstar = rnw.stationary_transition(model_obj, grid, law=law)
    p11 = pstar[(1, 1)]
    rng = np.random.default_rng([seed, 11])
    t_checks = np.asarray(p["t_checks"], dtype=float)
    marg = states_at_times(model_obj, t_checks, int(p["mc_replicates"]), rng,
                           initial_state=1, law=law)
    verdicts = []
    mc_vals, num_vals = [], []
    for ti, t_q in enumerate(t_checks):
        frac = float(np.mean(marg[:, ti] == 1))
        se = np.sqrt(frac * (1.0 - frac) / marg.shape[0])
        num = float(p11.at(t_q))
        mc_vals.append(frac)
        num_vals.append(num)
        verdicts.append(_verdict(f"pstar11_vs_mc_t{t_q:g}", abs(num - frac) / se,
                                 band=(0.0, 3.0)))
    gamma = rnw.covariance_gamma(model_obj, grid, law=law)
    nu1 = law.nu[list(law.states).index(1)]
    exact = 2.0 * nu1 * np.exp(-grid.times())
    worst = float(np.abs(gamma.values - exact).max())
    verdicts.append(_verdict("gamma_vs_closed_form", worst, band=(0.0, 10.0 * grid.dt)))
    stat = stationarity_check(model_obj, [0.0, p["horizon"] / 2.0, p["horizon"]],
                              int(p["stationarity_rep"]), int(p["stationarity_seeds"]),
                              seed + 1)
    verdicts.append(_verdict("stationary_marginals_pvalue", stat["min_pvalue"],
                             band=(0.01, 1.0)))
    c1 = rnw.tail_constant_Cj(model_obj, 1, law=law)
    metrics = {"mc_p11": mc_vals, "numeric_p11": num_vals,
               "gamma_max_abs_err": worst, "C_1": c1,
               "stationarity": stat}
    var = rnw.variance_of_integral(gamma)
    artifacts = {"gamma.csv": ("gamma", gamma), "variance.csv": ("variance", var),
                 "pstar_11.csv": ("pstar_11", p11)}
    return [_cell("renewal_tables", metrics, verdicts)], artifacts


# -- mixed market ----------------------------------------------------------------

def _one_mixed_replicate(args):
    """Quadratic variations of one mixed-market replicate.

    Each rho's active block at the finest block, then the combined path (first
    rho) and the inert block along the block ladder.
    """
    model_dict, p, seed, replicate = args
    cfg = _market_config(model_dict, p, seed)
    blocks = tuple(int(b) for b in p["qv_blocks"])
    inert, actives = mkt.mixed_market(cfg, p["rhos"], model_from_dict(MARKOV_MODEL),
                                      replicate=replicate)
    qv_active = [fbm_mod.quadratic_variation(SamplePath(cfg.dt, active.x_scaled),
                                             block=blocks[-1]) for active in actives]
    combined = SamplePath(cfg.dt, inert.x_scaled + actives[0].x_scaled)
    inert_path = SamplePath(cfg.dt, inert.x_scaled)
    return (qv_active, [fbm_mod.quadratic_variation(combined, block=b) for b in blocks],
            [fbm_mod.quadratic_variation(inert_path, block=b) for b in blocks])


def run_mixed_market(p, seed, model, threads):
    markov_obj = model_from_dict(MARKOV_MODEL)
    blocks = tuple(int(b) for b in p["qv_blocks"])

    # c2^2 = 2 * ∫ gamma_markov for the active block's Wiener coefficient
    mgrid = rnw.Grid.for_horizon(p["c2_horizon"], p["c2_dt"])
    gamma_markov = rnw.covariance_gamma(markov_obj, mgrid)
    c2_sq = float(2.0 * np.trapezoid(gamma_markov.values, dx=mgrid.dt))

    args = [(model, p, seed, rep) for rep in range(int(p["seeds"]))]
    qv_active, qv_combined_ladder, qv_inert_ladder = zip(
        *_pmap(_one_mixed_replicate, args, threads))
    comb = np.mean(qv_combined_ladder, axis=0)
    inrt = np.mean(qv_inert_ladder, axis=0)
    rho0 = p["rhos"][0]
    expected_qv = c2_sq * rho0 * p["horizon"]
    ratio_fine = float(comb[-1] / expected_qv)
    # stability judged on the finest blocks, where the fractional component has
    # already vanished and only the Wiener level remains
    stability = float(comb[-3:].max() / comb[-3:].min())
    inert_decay = float(inrt[-1] / inrt[0])
    act_means = {rho: float(np.mean([qv[k] for qv in qv_active]))
                 for k, rho in enumerate(p["rhos"])}
    doubling = act_means[p["rhos"][1]] / act_means[p["rhos"][0]] \
        * (p["rhos"][0] / p["rhos"][1]) * 2.0
    verdicts = [
        _verdict("combined_qv_vs_c2_rho_T", ratio_fine, band=(0.75, 1.3)),
        _verdict("combined_qv_refinement_stable", stability, band=(1.0, 1.35)),
        _verdict("inert_qv_vanishes", inert_decay, band=(0.0, 0.6)),
        _verdict("rho_doubling_doubles_qv", doubling, band=(1.6, 2.4)),
    ]
    metrics = {"c2_sq": c2_sq, "qv_combined_ladder": comb.tolist(),
               "qv_inert_ladder": inrt.tolist(), "qv_active_means": act_means,
               "blocks": list(blocks)}
    return [_cell("mixed_market", metrics, verdicts)], {}


# -- integral identities -----------------------------------------------------------

def run_integral_identities(p, seed, model, threads):
    n, hurst = int(p["n"]), float(p["hurst"])
    dt = 1.0 / n
    rng = np.random.default_rng([seed, 1])
    rough = SamplePath(dt, np.concatenate([[0.0], np.cumsum(rng.standard_normal(n))]))
    residual, qv = int_mod.self_integral_identity(rough)
    ident_err = float(np.abs(residual - qv).max())
    scale = float(np.abs(qv).max())
    verdicts = [_verdict("self_integral_identity_machine_eps", ident_err / max(scale, 1.0),
                         band=(0.0, 1e-12))]
    # integration-by-parts refinement for smooth psi and fractional B
    shrink_ok = []
    worst_ratios = []
    for s in range(int(p["seeds"])):
        path_rng = np.random.default_rng([seed, 2, s])
        bh = fbm_mod.sample_fbm(hurst, n, dt, path_rng)
        t = bh.times
        psi = SamplePath(dt, np.exp(t))
        sups = []
        for stride in (4, 2, 1):
            sub_psi = SamplePath(dt * stride, psi.values[::stride])
            sub_bh = SamplePath(dt * stride, bh.values[::stride])
            res = int_mod.integration_by_parts_residual(sub_psi, sub_bh)
            sups.append(float(np.abs(res.values).max()))
        ratios = [sups[k] / sups[k + 1] for k in range(len(sups) - 1)]
        worst_ratios.append(min(ratios))
        shrink_ok.append(all(r >= 1.5 for r in ratios))
    verdicts.append(_verdict("ibp_residual_shrinks", float(min(worst_ratios)),
                             band=(1.5, np.inf)))
    # discrete Cauchy-Schwarz at every level
    ladder = int_mod.PartitionLadder(n_increments=n, n_levels=int(p["levels"]))
    w = fbm_mod.sample_fbm(0.5, n, dt, np.random.default_rng([seed, 3]))
    cv = int_mod.cross_variation(bh, w, ladder)
    cs_ok = all(level["cauchy_schwarz_ok"] for level in cv)
    verdicts.append(_verdict("cauchy_schwarz_exact", 1.0 if cs_ok else 0.0,
                             passed=cs_ok))
    metrics = {"identity_rel_err": ident_err / max(scale, 1.0),
               "ibp_min_shrink_ratio": float(min(worst_ratios)),
               "cross_variation": cv}
    return [_cell("integral_identities", metrics, verdicts)], {}


# -- key renewal --------------------------------------------------------------------

def run_key_renewal(p, seed, model, threads):
    from .distributions import Pareto

    law = Pareto(scale=float(p["scale"]), alpha=float(p["alpha"]))
    grid = rnw.Grid.for_horizon(p["horizon"], p["dt"])
    z = rnw.GridFunction(grid, np.exp(-grid.times()), kind="plain")
    h_num, h_pred, info = rnw.key_renewal_asymptote(law, z, grid)
    ladder = np.asarray(p["ladder"], dtype=float)
    ratios = h_num.at(ladder) / h_pred.at(ladder)
    gaps = np.abs(ratios - 1.0)
    # monotone approach with a slack of 20% of the band half-width: the limit
    # theorem has no rate, so wiggles far inside the band do not fail the run
    slack = 0.1 * (p["band"][1] - p["band"][0])
    monotone = bool(np.all(np.diff(gaps) <= slack))
    verdicts = [
        _verdict("key_renewal_ratio_at_horizon", float(ratios[-1]), band=tuple(p["band"])),
        _verdict("key_renewal_monotone_approach", 1.0 if monotone else 0.0, passed=monotone),
    ]
    metrics = {"ladder": ladder.tolist(), "ratios": [float(r) for r in ratios],
               "kappa": info["kappa"], "lambda": info["lambda"],
               "z_precondition_ok": info.get("z_precondition_ok")}
    artifacts = {"key_renewal_residual.csv": ("residual", h_num)}
    return [_cell("key_renewal", metrics, verdicts)], artifacts


# -- limit constants (used by the c^2 acceptance check) -------------------------------

def limit_constant_comparison(model_dict, dt=0.05, horizon=1.05e4,
                              fit_window=(1e3, 1e4)):
    """Closed-form c^2 against the fitted t^(2H) level of the solver variance.

    Var(t) ~ c^2 t^(2H) L(t) plus a subleading ~linear term from the covariance
    bulk, so the level is fitted by OLS on the basis {t, t^(2H)} over the
    window; the t^(2H) coefficient divided by the slowly varying factor L is
    compared with the closed-form constant.
    """
    model_obj = model_from_dict(model_dict)
    c2 = limit_constant_c2(model_obj)
    h = model_obj.hurst()
    grid = rnw.Grid.for_horizon(horizon, dt)
    gamma = rnw.covariance_gamma(model_obj, grid)
    var = rnw.variance_of_integral(gamma)
    lo, hi = fit_window
    tt = np.geomspace(lo, hi, 40)
    l_factor = float(model_obj.tail_scale(np.sqrt(lo * hi)))
    basis = np.column_stack([tt, tt ** (2.0 * h)])
    coef, *_ = np.linalg.lstsq(basis, var.at(tt), rcond=None)
    fitted_level = float(coef[1]) / l_factor
    return {"c2_closed_form": float(c2), "c2_fitted": fitted_level,
            "linear_coefficient": float(coef[0]),
            "rel_err": abs(fitted_level - c2) / c2, "hurst": h,
            "l_factor": l_factor}


# -- the experiment table ------------------------------------------------------------

_MARKET = {"epsilon": 1e-3, "n_agents": 1000, "horizon": 64.0, "n_grid": 2**14 + 1,
           "seeds": 10, "min_lag": 64, "band": (0.43, 0.57)}

# kind -> (runner, default model (None: the kind takes none), default params);
# a spec's params may only override keys listed here
EXPERIMENT_KINDS = {
    "fbm-selftest": (run_fbm_selftest, None, {
        "cov_paths": 20000, "cov_n": 1024, "cov_hs": (0.6, 0.75),
        "calib_n": 2**14, "calib_seeds": 20, "calib_hs": (0.5, 0.6, 0.75, 0.9)}),
    "example-a": (run_example_a, EXAMPLE_A_MODEL, _MARKET),
    "markov-baseline": (run_markov_baseline, MARKOV_MODEL, _MARKET),
    "limit-verification": (run_limit_verification, LIMIT_MODEL, dict(
        _MARKET, band=(0.67, 0.83), renewal_dt=0.025, renewal_horizon=1.05e4,
        slope_window=(1e2, 1e4), slope_band=(1.4, 1.6), sweep_epsilon=())),
    "renewal-tables": (run_renewal_tables, EXAMPLE_A_MODEL, {
        "dt": 0.005, "horizon": 12.0, "mc_replicates": 100000,
        "t_checks": (1.0, 5.0, 10.0), "stationarity_rep": 3000, "stationarity_seeds": 10}),
    # eps = 1e-4 puts the inert block's refinement ladder inside the fractional
    # regime, so its quadratic variation visibly vanishes while the active
    # block's stays put
    "mixed-market": (run_mixed_market, LIMIT_MODEL, {
        "epsilon": 1e-4, "n_agents": 200, "horizon": 8.0, "n_grid": 2**11 + 1,
        "seeds": 3, "rhos": (0.5, 1.0), "qv_blocks": (64, 32, 16, 8),
        "c2_dt": 0.02, "c2_horizon": 60.0}),
    "integral-identities": (run_integral_identities, None, {
        "n": 2**12, "hurst": 0.75, "seeds": 5, "levels": 4}),
    "key-renewal": (run_key_renewal, None, {
        "alpha": 1.5, "scale": 1.0, "dt": 0.05, "horizon": 1.05e4,
        "ladder": (1e2, 10**2.5, 1e3, 10**3.5, 1e4), "band": (0.9, 1.1)}),
}


def run(spec: ExperimentSpec) -> dict:
    """Execute the experiment, write artifacts, and return the report dict.

    The report's `kind`, `model`, `params` (the defaults merged with the
    spec's) and `seed` make a spec that replays the run.
    """
    t0 = time.perf_counter()
    runner, default_model, defaults = EXPERIMENT_KINDS[spec.kind]
    params = {**defaults, **spec.params}
    model = default_model if spec.model is None else spec.model
    cells, artifacts = runner(params, spec.seed, model, spec.threads)
    passed = all(v["passed"] for c in cells for v in c["verdicts"])
    report = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "kind": spec.kind,
        # as report.json holds them (tuples as lists), not aliasing the defaults
        **json.loads(json.dumps({"model": model, "params": params})),
        "seed": spec.seed,
        "passed": bool(passed),
        "cells": cells,
        "provenance": {
            "package_version": __version__,
            "numpy_version": np.__version__,
            "wall_time_s": round(time.perf_counter() - t0, 3),
            "threads": spec.threads,
        },
    }
    problems = validate_report(report)
    if problems:
        raise RuntimeError(f"internal error: report fails its schema: {problems}")
    if spec.out_dir:
        os.makedirs(spec.out_dir, exist_ok=True)
        with open(os.path.join(spec.out_dir, "report.json"), "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
        for fname, payload in artifacts.items():
            target = os.path.join(spec.out_dir, fname)
            if isinstance(payload, SamplePath):
                payload.to_csv(target)
            else:
                quantity, gf = payload
                rnw.write_grid_csv(target, quantity, gf)
    return report


def validate_report(report) -> list:
    """Structural validation against the published report schema (docs/report_schema.json)."""
    problems = []

    def need(obj, key, types, where):
        if key not in obj:
            problems.append(f"{where}: missing {key}")
            return None
        if not isinstance(obj[key], types):
            problems.append(f"{where}: {key} has type {type(obj[key]).__name__}")
        return obj.get(key)

    need(report, "schema_version", str, "report")
    need(report, "kind", str, "report")
    need(report, "model", (dict, type(None)), "report")
    need(report, "params", dict, "report")
    need(report, "seed", int, "report")
    need(report, "passed", bool, "report")
    cells = need(report, "cells", list, "report") or []
    need(report, "provenance", dict, "report")
    for k, cell in enumerate(cells):
        where = f"cells[{k}]"
        need(cell, "name", str, where)
        need(cell, "metrics", dict, where)
        verdicts = need(cell, "verdicts", list, where) or []
        for m, v in enumerate(verdicts):
            vw = f"{where}.verdicts[{m}]"
            need(v, "name", str, vw)
            need(v, "passed", bool, vw)
            if "band" not in v:
                problems.append(f"{vw}: missing band")
    return problems
