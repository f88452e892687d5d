"""Reproducible verification experiments and machine-readable reports.

Each experiment kind bundles one verification pipeline (generator self-test,
market scaling limits, renewal tables, integral identities, ...) into cells
with named verdicts against quantitative bands.  `EXPERIMENT_KINDS` defines
each kind by its runner, default model and default params; a spec may
override only those params.  A spec builds its model, which checks itself,
checks its merged params against `_PARAM_CHECKS` and checks that the kind can
use the model (`_MODEL_CHECKS`) when it is built; `run` hands that model and
those params to the runner, writes report.json (which records the model and
params that ran) plus CSV artifacts, and is deterministic given (spec, seed).
"""
from __future__ import annotations

import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from . import fbm as fbm_mod
from . import integrals as int_mod
from . import market as mkt
from . import renewal as rnw
from .config import model_from_dict
from .distributions import Exponential, Pareto
from .paths import SamplePath
from .semi_markov import SemiMarkovModel, limit_constant_c2, states_at_times, stationary_law, \
    tail_constant_Cj, wiener_constant_c2

__all__ = [
    "ExperimentSpec",
    "EXPERIMENT_KINDS",
    "EXAMPLE_A_MODEL",
    "ASYMMETRIC_MODEL",
    "MARKOV_MODEL",
    "alpha_variant",
    "limit_constant_comparison",
    "run",
    "load_experiment",
    "stationarity_check",
    "chi2_sf",
    "market_hurst",
    "REPORT_SCHEMA_VERSION",
]

REPORT_SCHEMA_VERSION = "1"

# reference models used by the built-in experiment defaults: moods -1, 0 and 1,
# the active ones held Exp(1) before returning to 0, which moves down or up with
# the weights `exits` after a sojourn of law `zero`
def _three_moods(exits, zero):
    active = {"family": "exponential", "rate": 1.0}
    return {"states": [-1, 0, 1],
            "transitions": [[0.0, 1.0, 0.0], [exits[0], 0.0, exits[1]], [0.0, 1.0, 0.0]],
            "sojourns": {"-1": dict(active), "0": zero, "1": dict(active)}}


EXAMPLE_A_MODEL = _three_moods((0.5, 0.5), {"family": "pareto", "scale": 1.0, "alpha": 1.5})
ASYMMETRIC_MODEL = _three_moods((0.3, 0.7), {"family": "pareto", "scale": 1.0, "alpha": 1.5})
MARKOV_MODEL = _three_moods((0.5, 0.5), {"family": "exponential", "rate": 1.0 / 3.0})
# Asymmetric model whose limit constant dominates the covariance bulk already at
# t ~ 10^2, so the fractional regime is reachable at desk-scale (eps, N); used by
# the limit-verification defaults.  Pilot-calibrated; see README.
LIMIT_MODEL = _three_moods((0.1, 0.9), {"family": "pareto", "scale": 0.5, "alpha": 1.5})


def alpha_variant(base, alpha):
    """Copy of a model config with the inactive-state tail index replaced."""
    out = json.loads(json.dumps(base))
    out["sojourns"]["0"]["alpha"] = alpha
    return out


@dataclass
class ExperimentSpec:
    """A kind, its model and the params that override the kind's defaults.

    A model of None becomes the kind's default config; `built_model` is the
    model built from it (None for a kind that takes none).
    """

    kind: str
    model: dict | None = None
    params: dict = field(default_factory=dict)
    seed: int = 7041
    out_dir: str | None = None
    threads: int = 1
    merged_params: dict = field(init=False, repr=False)
    built_model: SemiMarkovModel | None = field(init=False, repr=False)

    def __post_init__(self):
        if self.kind not in EXPERIMENT_KINDS:
            raise ValueError(f"unknown experiment kind {self.kind!r}; "
                             f"known: {sorted(EXPERIMENT_KINDS)}")
        # numpy seeds must be non-negative
        for key, (what, usable) in (("seed", _count(0)), ("threads", _count(1))):
            if not usable(getattr(self, key), None):
                raise ValueError(f"spec key {key} must be {what}, got {getattr(self, key)!r}")
        if not isinstance(self.out_dir, (str, type(None))):
            raise ValueError(f"spec key out must be a string or null, got {self.out_dir!r}")
        if not isinstance(self.params, dict) or not isinstance(self.model, (dict, type(None))):
            raise ValueError("params must be an object and model an object or null")
        _, default_model, defaults = EXPERIMENT_KINDS[self.kind]
        unknown = sorted(set(self.params) - set(defaults))
        if unknown:
            raise ValueError(f"unknown params {unknown} for {self.kind}; "
                             f"known: {sorted(defaults)}")
        if self.model is not None and default_model is None:
            raise ValueError(f"{self.kind} takes no model")
        self.model = default_model if self.model is None else self.model
        self.built_model = None if self.model is None else model_from_dict(self.model)
        merged = {**defaults, **self.params}
        for key, (what, usable) in _PARAM_CHECKS.items():
            if key in merged and not usable(merged[key], merged):
                raise ValueError(f"params.{key} must be {what}, got {merged[key]!r}")
        for name, usable in _MODEL_CHECKS.get(self.kind, ()):
            try:
                usable(self.built_model, merged)
            except ValueError as exc:
                raise ValueError(f"{name} unusable by {self.kind}: {exc}") from None
        self.merged_params = merged


def _number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _integer(v, least):
    return isinstance(v, int) and not isinstance(v, bool) and v >= least


def _numbers(v, inside, least=1):
    return isinstance(v, (list, tuple)) and len(v) >= least and all(
        _number(x) and inside(x) for x in v)


def _count(least):
    return f"an integer of at least {least}", lambda v, p: _integer(v, least)


_POSITIVE = ("a number in (0, inf)", lambda v, p: _number(v) and 0.0 < v < np.inf)
_PAIR = ("a [low, high] pair of numbers with low <= high",
         lambda v, p: _numbers(v, lambda x: x <= np.inf, 2) and len(v) == 2 and v[0] <= v[1])
_TIMES = ("one or more times in (0, horizon]",
          lambda v, p: _numbers(v, lambda t: 0.0 < t <= p["horizon"]))
_HURSTS = ("one or more Hurst values in (0, 1)", lambda v, p: _numbers(v, lambda h: 0.0 < h < 1.0))

# param name -> (what it must be, predicate(value, merged params)), checked in
# this order: a predicate reads only params checked above it, and each param
# means the same in every kind that has it
_PARAM_CHECKS = {
    **{key: _count(1) for key in ("seeds", "mc_replicates", "stationarity_rep",
                                  "stationarity_seeds", "calib_seeds", "cov_paths", "cov_n",
                                  "n_agents", "min_lag")},
    "calib_n": _count(2**10),  # the Hurst estimators need 2^10 increments
    "levels": _count(2),
    "n": ("an integer of at least 2 divisible by 2^(levels - 1)",
          lambda v, p: _integer(v, 2) and p["levels"] <= v.bit_length()
          and v % 2 ** (p["levels"] - 1) == 0),
    # market_hurst fits 5 dyadic lags from min_lag to n_grid // 16, on 2^10 increments
    "n_grid": ("an integer of at least 2 and, with min_lag, above 2^10 with 5 dyadic lags "
               "from min_lag to n_grid // 16", lambda v, p: _integer(v, 2) and (
                   "min_lag" not in p or (v > 2**10 and 16 * p["min_lag"] <= v // 16))),
    **{key: _POSITIVE for key in ("epsilon", "dt", "horizon", "scale")},
    "hurst": ("a number in (0, 1)", lambda v, p: _number(v) and 0.0 < v < 1.0),
    "alpha": ("a number in (1, 2)", lambda v, p: _number(v) and 1.0 < v < 2.0),
    "t_checks": _TIMES,
    # key-renewal judges the ratio at the last rung and the gaps in rung order
    "ladder": ("one or more strictly increasing times in (0, horizon]",
               lambda v, p: _TIMES[1](v, p) and all(a < b for a, b in zip(v, v[1:]))),
    "cov_hs": _HURSTS,
    "calib_hs": _HURSTS,
    "band": _PAIR,
    # mixed-market compares its first two rhos, each with round(rho * n_agents) >= 1
    "rhos": ("two or more numbers with rho * n_agents > 0.5, so each has an active agent",
             lambda v, p: _numbers(v, lambda r: 0.5 < r * p["n_agents"] < np.inf, least=2)),
    # the runner reads [-1] as the finest block and [-3:] as the finest three
    "qv_blocks": ("three or more strictly decreasing integers that divide n_grid - 1",
                  lambda v, p: isinstance(v, (list, tuple)) and len(v) >= 3
                  and all(_integer(b, 1) and (p["n_grid"] - 1) % b == 0 for b in v)
                  and all(a > b for a, b in zip(v, v[1:]))),
}


# kind -> (what, rule(model, merged params)) pairs, checked after the params:
# each raises ValueError where the runner would later fail or misread a number
_MODEL_CHECKS = {
    "markov-baseline": (("model", lambda m, p: mkt.require_exponential(m)),),
    "limit-verification": (("model", lambda m, p: limit_constant_c2(m)),),
    "renewal-tables": (("model", lambda m, p: tail_constant_Cj(m, 1)),
                       ("params.dt", lambda m, p: rnw.check_grid_step(m, p["dt"])),
                       ("model", lambda m, p: _symmetric_gamma(m, 0.0))),
}


_SPEC_KEYS = ("kind", "model", "params", "seed", "out", "threads")


def load_experiment(path) -> ExperimentSpec:
    with open(path) as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValueError(f"an experiment spec must be a JSON object, got {type(raw).__name__}")
    unknown = sorted(set(raw) - set(_SPEC_KEYS))
    if unknown:
        raise ValueError(f"unknown spec keys {unknown}; known: {list(_SPEC_KEYS)}")
    if "kind" not in raw:
        raise ValueError(f"missing spec key kind; known kinds: {sorted(EXPERIMENT_KINDS)}")
    model = raw.get("model")
    if isinstance(model, str):
        base = os.path.dirname(os.path.abspath(path))
        model_path = model if os.path.isabs(model) else os.path.join(base, model)
        with open(model_path) as mf:
            model = json.load(mf)
    return ExperimentSpec(kind=raw["kind"], model=model, params=raw.get("params", {}),
                          seed=raw.get("seed", 7041), out_dir=raw.get("out"),
                          threads=raw.get("threads", 1))


# -- small shared helpers ----------------------------------------------------

def _verdict(name, value, band=None, passed=None):
    """Value against band; a None value fails, an infinite band side is written as None."""
    if passed is None:
        passed = value is not None and bool(band[0] <= value <= band[1])
    band = None if band is None else [None if math.isinf(b) else b for b in band]
    return {"name": name, "value": float(value) if np.isscalar(value) else value,
            "band": band, "passed": bool(passed)}


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
    # a forking pool starts all its workers at once: no more than there are tasks
    with ProcessPoolExecutor(max_workers=min(threads, len(args_list))) as pool:
        return list(pool.map(fn, args_list))


# -- fbm-selftest -------------------------------------------------------------

# standard normals drawn per chunk of covariance paths (2n per path at n >= 16):
# a cell's tracemalloc peak, about 350 kB at n = 1024, does not grow with its paths
_CHUNK_VALUES = 1 << 15


def _fbm_cov_cell(hurst, n_paths, n, seed):
    rng = np.random.default_rng([seed, int(hurst * 1000)])
    # t = 0 has zero variance, so every pick lies at index >= 1
    picks = np.maximum(np.linspace(n // 5, n, 5).astype(int), 1)
    dt = 1.0 / n
    # B(pick * dt) = dt^H * (sum of the first `pick` fGn steps): one product of
    # the generator's normals reads the five values without building the paths
    pick_map = dt**hurst * fbm_mod.partial_sum_map(hurst, n, picks)
    width = pick_map.shape[0]
    rows = max(1, _CHUNK_VALUES // width)
    gram = np.zeros((picks.size, picks.size))
    for start in range(0, n_paths, rows):
        k = min(rows, n_paths - start)
        samples = rng.standard_normal((k, width)) @ pick_map
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

def _market_config(model, p, seed):
    """Unit-amplitude market of the model with the params' size and scale."""
    return mkt.MarketConfig(model=model, n_agents=p["n_agents"],
                            epsilon=p["epsilon"], amplitude=mkt.AmplitudeModel(),
                            horizon=p["horizon"], seed=seed, n_grid=p["n_grid"])


def _one_market_hurst(args):
    """Hurst estimates of one replicate, or None and why (a path no agent moved has none).

    Replicate 0 also hands back its path.
    """
    simulate, model, p, seed, replicate = args
    agg = simulate(_market_config(model, p, seed), replicate=replicate)
    agg0 = agg if replicate == 0 else None
    try:
        vario, aggvar = market_hurst(agg.path(), min_lag=p["min_lag"])
    except ValueError as exc:
        return None, None, agg0, f"replicate {replicate}: {exc}"
    return vario.h_hat, aggvar.h_hat, agg0, None


def _median_hurst_cells(name, simulate, model, p, seed, threads):
    """Median-Hurst cell over the p["seeds"] replicates, and replicate 0's aggregate path.

    `simulate` is the market function of `mkt` that makes each replicate.  A
    replicate without estimates leaves the medians None, failing both verdicts.
    """
    args = [(simulate, model, p, seed, rep) for rep in range(p["seeds"])]
    results = _pmap(_one_market_hurst, args, threads)
    h_v, h_a = [r[0] for r in results], [r[1] for r in results]
    failures = [r[3] for r in results if r[3] is not None]
    med_v = med_a = gap = None
    if not failures:
        med_v, med_a = float(np.median(h_v)), float(np.median(h_a))
        gap = abs(med_v - med_a)
    verdicts = [
        _verdict(f"{name}_median_hurst", med_v, band=tuple(p["band"])),
        _verdict(f"{name}_estimator_agreement", gap, band=(0.0, 0.1)),
    ]
    metrics = {"hurst_variogram": h_v, "hurst_aggvar": h_a,
               "median_variogram": med_v, "median_aggvar": med_a}
    if failures:
        metrics["failures"] = failures
    return _cell(name, metrics, verdicts), results[0][2]


def _path_artifacts(name, agg):
    return {f"{name}_x_scaled.csv": agg.path("x_scaled"),
            f"{name}_log_price.csv": agg.path("log_price")}


def run_example_a(p, seed, model, threads):
    cell, agg0 = _median_hurst_cells("example_a", mkt.simulate_market, model, p, seed, threads)
    return [cell], _path_artifacts("example_a", agg0)


def run_markov_baseline(p, seed, model, threads):
    cell, agg0 = _median_hurst_cells("markov_baseline", mkt.markov_market, model, p, seed,
                                     threads)
    # variance linear in t: by stationarity of increments the variogram of the
    # scaled path is rate * lag; fit it linearly on replicate 0's path at the
    # dyadic lags from min_lag to n_grid // 8
    x = agg0.x_scaled
    lags = [p["min_lag"]]
    while 2 * lags[-1] <= p["n_grid"] // 8:
        lags.append(2 * lags[-1])
    vario = [float(np.mean((x[lag:] - x[:-lag]) ** 2)) for lag in lags]
    r2 = fbm_mod.fit_line(lags, vario)[3]
    lin_cell = _cell(
        "markov_variance_linearity",
        {"lags": lags, "variogram": vario, "r2": r2},
        [_verdict("variance_linear_r2", r2, band=(0.95, 1.0))],
    )
    return [cell, lin_cell], {}


def run_limit_verification(p, seed, model, threads):
    cell, agg0 = _median_hurst_cells("limit_verification", mkt.simulate_market, model, p, seed,
                                     threads)
    artifacts = _path_artifacts("limit_verification", agg0)
    # the renewal half: gamma on a dt = 0.025 grid out to t = 1.05e4, and the
    # slope of log Var fitted on [1e2, 1e4] against the band 2H +- 0.1
    grid = rnw.Grid.for_horizon(1.05e4, 0.025)
    gamma = rnw.covariance_gamma(model, grid)
    var = rnw.variance_of_integral(gamma)
    lo, hi = 1e2, 1e4
    tt = np.geomspace(lo, hi, 25)
    slope, _, stderr, r2 = fbm_mod.fit_line(np.log(tt), np.log(var.at(tt)))
    pred = rnw.asymptotic_covariance(model, 1e3)
    ratio_1e3 = float(gamma.at(1e3) / pred)
    target = 2 * model.hurst()
    var_cell = _cell(
        "variance_slope",
        {"slope": slope, "stderr": stderr, "r2": r2, "target": target,
         "gamma_ratio_at_1e3": ratio_1e3, "window": [lo, hi]},
        [_verdict("var_loglog_slope", slope, band=(target - 0.1, target + 0.1))],
    )
    artifacts["gamma.csv"] = ("gamma", gamma)
    artifacts["variance.csv"] = ("variance", var)
    return [cell, var_cell], artifacts


# -- renewal tables -------------------------------------------------------------

def chi2_sf(x, dof):
    """P(X > x) for X chi-square with an integer number dof >= 1 of degrees of freedom.

    With h = x/2 this is e^-h sum_{i < dof/2} h^i / i! for even dof and
    erfc(sqrt h) + e^-h sum_{i < (dof-1)/2} h^(i+1/2) / Gamma(i+3/2) for odd
    dof.  Each term is the one before it times h/(i+1) or h/(i+3/2), from e^-h
    on, so no term exceeds 1 and none overflows.  The terms are exact to
    rounding while e^-h is a normal float (x < 1 416); past that they lose
    digits and underflow with it, where for dof <= 16 the sum is below 1e-290.
    """
    h = 0.5 * x
    if dof % 2:
        total, offset = math.erfc(math.sqrt(h)), 1.5
        term = 2.0 * math.exp(-h) * math.sqrt(h / math.pi)
    else:
        total, term, offset = 0.0, math.exp(-h), 1.0
    for i in range(dof // 2):
        total += term
        term *= h / (i + offset)
    return total


def stationarity_check(model, times, n_rep, seeds, base_seed):
    """Chi-square of the marginal state law at fixed times against nu, pooled over seeds."""
    labels = np.array(model.states)
    counts = np.zeros((len(times), labels.size))
    for s in range(seeds):
        rng = np.random.default_rng([base_seed, s])
        out = states_at_times(model, times, n_rep, rng)
        counts += (out[:, :, None] == labels).sum(axis=0)
    total = counts.sum(axis=1, keepdims=True)
    expected = stationary_law(model).nu[None, :] * total
    stat = ((counts - expected) ** 2 / expected).sum(axis=1)
    pvals = [chi2_sf(v, labels.size - 1) for v in stat.tolist()]
    return {"times": list(map(float, times)), "pvalues": pvals,
            "counts": counts.tolist(), "min_pvalue": min(pvals)}


def _symmetric_gamma(model, t):
    """gamma(t) = 2 nu_1 e^-t: after its first jump the model's mean mood is 0.

    That needs states {-1, 0, 1}, -1 and 1 held Exponential(rate 1) and left
    only for 0, and exits from 0 of equal probability and law toward -1 and 1.
    """
    s, p, law = model.states, model.p, model.law
    premise = set(s) == {-1, 0, 1} and all(
        p[s.index(k), s.index(0)] == 1.0 and law(k, 0) == Exponential(1.0) for k in (-1, 1)
    ) and p[s.index(0), s.index(-1)] == p[s.index(0), s.index(1)] and law(0, -1) == law(0, 1)
    if not premise:
        raise ValueError("the closed form 2 nu_1 e^-t needs states {-1, 0, 1}, -1 and 1 held "
                         "Exponential(rate 1) and left only for 0, and mirror-symmetric exits "
                         "from 0")
    return 2.0 * stationary_law(model).nu[s.index(1)] * np.exp(-np.asarray(t, dtype=float))


def run_renewal_tables(p, seed, model, threads):
    grid = rnw.Grid.for_horizon(p["horizon"], p["dt"])
    pstar = rnw.stationary_transition(model, grid)
    p11 = pstar[(1, 1)]
    rng = np.random.default_rng([seed, 11])
    t_checks = np.asarray(p["t_checks"], dtype=float)
    marg = states_at_times(model, t_checks, p["mc_replicates"], rng,
                           initial_state=1)
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
    gamma = rnw.covariance_gamma(model, grid)
    worst = float(np.abs(gamma.values - _symmetric_gamma(model, grid.times())).max())
    verdicts.append(_verdict("gamma_vs_closed_form", worst, band=(0.0, 10.0 * grid.dt)))
    stat = stationarity_check(model, [0.0, p["horizon"] / 2.0, p["horizon"]],
                              p["stationarity_rep"], p["stationarity_seeds"],
                              seed + 1)
    verdicts.append(_verdict("stationary_marginals_pvalue", stat["min_pvalue"],
                             band=(0.01, 1.0)))
    c1 = tail_constant_Cj(model, 1)
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
    model, markov, p, seed, replicate = args
    cfg = _market_config(model, p, seed)
    blocks = p["qv_blocks"]
    inert, actives = mkt.mixed_market(cfg, p["rhos"], markov, replicate=replicate)
    qv_active = [fbm_mod.quadratic_variation(SamplePath(cfg.dt, active.x_scaled),
                                             block=blocks[-1]) for active in actives]
    combined = SamplePath(cfg.dt, inert.x_scaled + actives[0].x_scaled)
    inert_path = SamplePath(cfg.dt, inert.x_scaled)
    return (qv_active, [fbm_mod.quadratic_variation(combined, block=b) for b in blocks],
            [fbm_mod.quadratic_variation(inert_path, block=b) for b in blocks])


def run_mixed_market(p, seed, model, threads):
    markov = model_from_dict(MARKOV_MODEL)  # the active block's model
    c2_sq = wiener_constant_c2(markov)  # and its Wiener level
    args = [(model, markov, p, seed, rep) for rep in range(p["seeds"])]
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
               "blocks": list(p["qv_blocks"])}
    return [_cell("mixed_market", metrics, verdicts)], {}


# -- integral identities -----------------------------------------------------------

def run_integral_identities(p, seed, model, threads):
    n, hurst = p["n"], p["hurst"]
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
    for s in range(p["seeds"]):
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
    ladder = int_mod.PartitionLadder(n_increments=n, n_levels=p["levels"])
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
    law = Pareto(scale=p["scale"], alpha=p["alpha"])
    grid = rnw.Grid.for_horizon(p["horizon"], p["dt"])
    z = SamplePath(grid.dt, np.exp(-grid.times()))
    h_num, h_pred, info = rnw.key_renewal_asymptote(law, z)
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
               "z_precondition_ok": info["z_precondition_ok"]}
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
    lo, hi = fit_window
    if not 0.0 < lo < hi <= horizon:  # past its grid the variance holds its last value
        raise ValueError(f"fit_window {fit_window} must satisfy 0 < low < high <= horizon "
                         f"{horizon:g}")
    model_obj = model_from_dict(model_dict)
    c2 = limit_constant_c2(model_obj)
    h = model_obj.hurst()
    grid = rnw.Grid.for_horizon(horizon, dt)
    gamma = rnw.covariance_gamma(model_obj, grid)
    var = rnw.variance_of_integral(gamma)
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
    "limit-verification": (run_limit_verification, LIMIT_MODEL, dict(_MARKET, band=(0.67, 0.83))),
    "renewal-tables": (run_renewal_tables, EXAMPLE_A_MODEL, {
        "dt": 0.005, "horizon": 12.0, "mc_replicates": 100000,
        "t_checks": (1.0, 5.0, 10.0), "stationarity_rep": 3000, "stationarity_seeds": 10}),
    # eps = 1e-4 puts the inert block's refinement ladder inside the fractional
    # regime, so its quadratic variation visibly vanishes while the active
    # block's stays put
    "mixed-market": (run_mixed_market, LIMIT_MODEL, {
        "epsilon": 1e-4, "n_agents": 200, "horizon": 8.0, "n_grid": 2**11 + 1,
        "seeds": 3, "rhos": (0.5, 1.0), "qv_blocks": (64, 32, 16, 8)}),
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
    runner = EXPERIMENT_KINDS[spec.kind][0]
    params = spec.merged_params
    cells, artifacts = runner(params, spec.seed, spec.built_model, spec.threads)
    passed = all(v["passed"] for c in cells for v in c["verdicts"])
    report = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "kind": spec.kind,
        # as report.json holds them (tuples as lists), not aliasing the defaults
        **json.loads(json.dumps({"model": spec.model, "params": params})),
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
