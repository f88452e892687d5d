import functools
import tracemalloc

import numpy as np
import pytest

from semimarket import market
from semimarket.config import model_from_dict
from semimarket.market import (
    AmplitudeModel,
    MarketConfig,
    markov_market,
    mixed_market,
    simulate_amplitude,
    simulate_market,
)
from semimarket.semi_markov import jump_rounds, sample_stationary_path, stationary_law

from oracles import integrate_trajectory, theorem_condition

EXAMPLE_A = {
    "states": [-1, 0, 1],
    "transitions": [[0.0, 1.0, 0.0], [0.5, 0.0, 0.5], [0.0, 1.0, 0.0]],
    "sojourns": {
        "-1": {"family": "exponential", "rate": 1.0},
        "0": {"family": "pareto", "scale": 1.0, "alpha": 1.5},
        "1": {"family": "exponential", "rate": 1.0},
    },
}
ASYM = dict(EXAMPLE_A, transitions=[[0.0, 1.0, 0.0], [0.3, 0.0, 0.7], [0.0, 1.0, 0.0]])
MARKOV = {
    "states": [-1, 0, 1],
    "transitions": [[0.0, 1.0, 0.0], [0.5, 0.0, 0.5], [0.0, 1.0, 0.0]],
    "sojourns": {
        "-1": {"family": "exponential", "rate": 1.0},
        "0": {"family": "exponential", "rate": 1.0 / 3.0},
        "1": {"family": "exponential", "rate": 1.0},
    },
}

UNIT = AmplitudeModel(kind="constant", level=1.0)


def small_cfg(model_dict, **kw):
    args = dict(model=model_from_dict(model_dict), n_agents=50, epsilon=0.05,
                amplitude=UNIT, horizon=8.0, seed=1234, n_grid=257)
    args.update(kw)
    return MarketConfig(**args)


def _start_agents(monkeypatch, **start):
    """Let the markets start their agents with jump_rounds' start options."""
    monkeypatch.setattr(market, "jump_rounds", functools.partial(jump_rounds, **start))


# -- amplitude ----------------------------------------------------------------

def test_amplitude_constant():
    path = simulate_amplitude(AmplitudeModel(kind="constant", level=1.0), 0.1, 11,
                              np.random.default_rng(0))
    np.testing.assert_array_equal(path.values, np.ones(11))


def test_amplitude_zero_vol_is_exponential_growth():
    amp = AmplitudeModel(kind="diffusion", drift=0.3, vol=0.0, initial=2.0)
    path = simulate_amplitude(amp, 0.01, 101, np.random.default_rng(0))
    t = path.times
    np.testing.assert_allclose(path.values, 2.0 * np.exp(0.3 * t), rtol=1e-12)


def test_amplitude_mean_matches_moment():
    amp = AmplitudeModel(kind="diffusion", drift=0.2, vol=0.5, initial=1.0)
    rng = np.random.default_rng(1)
    finals = [simulate_amplitude(amp, 0.01, 101, rng).values[-1] for _ in range(4000)]
    finals = np.asarray(finals)
    se = finals.std(ddof=1) / np.sqrt(finals.size)
    assert abs(finals.mean() - np.exp(0.2)) < 4 * se


def test_amplitude_positive():
    amp = AmplitudeModel(kind="diffusion", drift=-0.5, vol=1.0, initial=0.5)
    path = simulate_amplitude(amp, 0.05, 201, np.random.default_rng(2))
    assert np.all(path.values > 0.0)


# -- aggregate path basics -------------------------------------------------------

def test_frozen_agent_integrates_time(monkeypatch):
    # one agent pinned in state 1: the uncentred integral (log_price, s0 = 0) is t exactly
    frozen = {
        "states": [0, 1],
        "transitions": [[0.0, 1.0], [1.0, 0.0]],
        "sojourns": {
            "0": {"family": "uniform", "lo": 9e5, "hi": 1e6},
            "1": {"family": "uniform", "lo": 9e5, "hi": 1e6},
        },
    }
    cfg = small_cfg(frozen, n_agents=1, epsilon=1.0, horizon=4.0, n_grid=41)
    _start_agents(monkeypatch, stationary=False, initial_state=1)
    agg = simulate_market(cfg)
    np.testing.assert_allclose(agg.log_price, agg.times, atol=1e-12)
    np.testing.assert_allclose(agg.y, 1.0)


def test_x_starts_at_zero_and_scaling():
    cfg = small_cfg(EXAMPLE_A)
    agg = simulate_market(cfg)
    assert agg.x_raw[0] == 0.0
    h = 0.75
    expected = cfg.epsilon ** (1 - h) * np.sqrt(cfg.n_agents * 1.0)
    assert agg.scaling == pytest.approx(expected)
    np.testing.assert_allclose(agg.x_scaled, agg.x_raw / expected)


def test_log_price_is_uncentered_integral():
    cfg = small_cfg(ASYM, s0=3.0)
    agg = simulate_market(cfg)
    law = stationary_law(cfg.model)
    # d(log price) - dX = mu * N * Psi dt cellwise
    lhs = np.diff(agg.log_price - 3.0) - np.diff(agg.x_raw)
    rhs = law.mu * cfg.n_agents * agg.psi[:-1] * cfg.dt
    np.testing.assert_allclose(lhs, rhs, atol=1e-10)
    assert agg.log_price[0] == pytest.approx(3.0)


def test_centering_zero_mean():
    cfg = small_cfg(ASYM, n_agents=400, epsilon=0.02, horizon=6.0)
    finals, mids = [], []
    for rep in range(60):
        agg = simulate_market(cfg, replicate=rep)
        finals.append(agg.x_raw[-1])
        mids.append(agg.x_raw[agg.x_raw.size // 2])
    for vals in (np.asarray(finals), np.asarray(mids)):
        se = vals.std(ddof=1) / np.sqrt(vals.size)
        assert abs(vals.mean()) < 4 * se


def test_variance_grows_linearly_in_n():
    reps = 120
    finals = {}
    for n in (50, 100):
        cfg = small_cfg(EXAMPLE_A, n_agents=n, epsilon=0.05, horizon=4.0)
        vals = [simulate_market(cfg, replicate=r).x_raw[-1] for r in range(reps)]
        finals[n] = np.var(vals, ddof=1)
    ratio = finals[100] / finals[50]
    assert 1.4 < ratio < 2.7  # agents independent: Var scales with N


def test_one_agent_market_equals_its_trajectory_integral():
    # dual route: the binned market integral of one agent against the exact
    # closed form on the trajectory sample_stationary_path draws from the same stream
    cfg = small_cfg(EXAMPLE_A, n_agents=1, epsilon=0.5, horizon=200.0, n_grid=1001)
    agg = simulate_market(cfg, replicate=2)
    traj = sample_stationary_path(cfg.model, cfg.horizon / cfg.epsilon,
                                  np.random.default_rng([cfg.seed, 2, 1]))
    assert traj.states.size > 100
    grid = np.linspace(0.0, cfg.horizon, cfg.n_grid) / cfg.epsilon
    exact = cfg.epsilon * integrate_trajectory(traj, grid_times=grid).values
    # log_price (s0 = 0) holds the uncentred integral
    np.testing.assert_allclose(agg.log_price, exact, rtol=0.0,
                               atol=1e-12 * np.abs(exact).max())
    held = traj.states[np.searchsorted(traj.jump_times, grid, side="right") - 1]
    np.testing.assert_array_equal(agg.y, held)


def _argsort_occupation(x0_sum, ev_t, ev_d, horizon, query_times):
    """Oracle: sort every event, integrate the step function, interpolate at the queries."""
    order = np.argsort(ev_t, kind="stable")
    tau = np.concatenate([[0.0], ev_t[order]])
    z = x0_sum + np.concatenate([[0.0], np.cumsum(ev_d[order])])
    tau_x = np.concatenate([tau, [horizon]])
    v = np.concatenate([[0.0], np.cumsum(z * np.diff(tau_x))])
    cum = np.interp(query_times, tau_x, v)
    z_idx = np.clip(np.searchsorted(tau, query_times, side="right") - 1, 0, z.size - 1)
    return cum, z[z_idx]


def test_binner_matches_sorted_aggregation_oracle(monkeypatch):
    monkeypatch.setattr(market, "_FLUSH_EVENTS", 3000)   # several flushes
    rng = np.random.default_rng(9)
    grid = np.linspace(0.0, 8.0, 257) / 0.01
    t = rng.uniform(0.0, grid[-1], 20000)
    t[:5] = grid[[1, 2, 2, 100, 255]]                   # events on grid points
    d = rng.choice([-2.0, -1.0, 1.0, 2.0], t.size)
    binner = market._GridBinner(grid)
    for part in np.array_split(np.arange(t.size), 13):
        binner.add(t[part], d[part])
    cum, rate = binner.occupation(3.0)
    ref_cum, ref_rate = _argsort_occupation(3.0, t, d, grid[-1], grid)
    np.testing.assert_array_equal(rate, ref_rate)
    np.testing.assert_allclose(cum, ref_cum, rtol=0.0, atol=1e-12 * np.abs(ref_cum).max())


def test_initial_state_conditions_the_start(monkeypatch):
    cfg = small_cfg(EXAMPLE_A, n_agents=1)
    _start_agents(monkeypatch, initial_state=1)
    for rep in range(20):
        assert simulate_market(cfg, replicate=rep).y[0] == 1.0
    with pytest.raises(ValueError, match="initial_state"):
        next(jump_rounds(cfg.model, 1, 1.0, np.random.default_rng(0), stationary=False))


def test_market_memory_does_not_grow_with_the_event_count():
    # 1.6 M against 6.4 M agent events: only the grid and one event buffer are held
    peaks = []
    for horizon in (16.0, 64.0):
        cfg = small_cfg(EXAMPLE_A, n_agents=200, epsilon=1e-3, horizon=horizon,
                        n_grid=4097)
        tracemalloc.start()
        simulate_market(cfg)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert peaks[1] < 1.25 * peaks[0]


def test_determinism_bit_identical():
    cfg = small_cfg(ASYM)
    a = simulate_market(cfg, replicate=3)
    b = simulate_market(cfg, replicate=3)
    np.testing.assert_array_equal(a.x_raw, b.x_raw)
    np.testing.assert_array_equal(a.y, b.y)
    c = simulate_market(cfg, replicate=4)
    assert not np.array_equal(a.x_raw, c.x_raw)


# -- markov and mixed markets ------------------------------------------------------

def test_markov_market_requires_exponential():
    cfg = small_cfg(EXAMPLE_A)
    with pytest.raises(ValueError, match="exponential"):
        markov_market(cfg)


def test_markov_market_scaling():
    cfg = small_cfg(MARKOV)
    agg = markov_market(cfg)
    assert agg.scaling == pytest.approx(np.sqrt(cfg.epsilon * cfg.n_agents))


def test_mixed_market_rho_zero_reduces_to_inert():
    cfg = small_cfg(ASYM)
    inert, actives = mixed_market(cfg, [0.0], model_from_dict(MARKOV))
    assert actives == [None]
    ref = simulate_market(cfg)
    np.testing.assert_array_equal(inert.x_scaled, ref.x_scaled)


def test_mixed_market_requires_unit_amplitude():
    cfg = small_cfg(ASYM, amplitude=AmplitudeModel(kind="constant", level=2.0))
    with pytest.raises(ValueError, match="unit amplitude"):
        mixed_market(cfg, [0.5], model_from_dict(MARKOV))


def test_mixed_market_combined_is_sum():
    # one inert block serves every rho, so inert + active adds a plain inert
    # market to an active block that does not depend on the other rhos
    cfg = small_cfg(ASYM, n_agents=100)
    markov = model_from_dict(MARKOV)
    inert, (half, full) = mixed_market(cfg, [0.5, 1.0], markov)
    np.testing.assert_array_equal(inert.x_scaled, simulate_market(cfg).x_scaled)
    _, (alone,) = mixed_market(cfg, [0.5], markov)
    np.testing.assert_array_equal(half.x_scaled, alone.x_scaled)
    for active in (half, full):
        assert active.scaling == pytest.approx(np.sqrt(cfg.n_agents * cfg.epsilon))


def test_theorem_condition_reports():
    ok_a, report_a = theorem_condition(model_from_dict(EXAMPLE_A))
    assert not ok_a and report_a["mu"] == pytest.approx(0.0, abs=1e-12)
    ok_b, report_b = theorem_condition(model_from_dict(ASYM))
    assert ok_b and report_b["product"] > 0.0
    # flipping the sign of all states flips both factors: product invariant
    flipped = {
        "states": [1, 0, -1],
        "transitions": ASYM["transitions"],
        "sojourns": ASYM["sojourns"],
    }
    ok_c, report_c = theorem_condition(model_from_dict(flipped))
    assert ok_c
    assert report_c["product"] == pytest.approx(report_b["product"])
    assert report_c["mu"] == pytest.approx(-report_b["mu"])


def test_invalid_configs_rejected():
    with pytest.raises(ValueError):
        small_cfg(EXAMPLE_A, n_agents=0)
    with pytest.raises(ValueError):
        small_cfg(EXAMPLE_A, epsilon=0.0)
    with pytest.raises(ValueError):
        AmplitudeModel(kind="brownian")


def test_hurst_approaches_target_along_epsilon_ladder():
    # speeding up the agents' clock moves the estimate toward H = (3-alpha)/2;
    # the approach is non-strict, the final point must be closest
    from semimarket.experiments import LIMIT_MODEL, market_hurst

    model = model_from_dict(LIMIT_MODEL)
    target = model.hurst()
    gaps = []
    for eps in (1e-1, 1e-2, 1e-3):
        cfg = MarketConfig(model=model, n_agents=300, epsilon=eps,
                           amplitude=UNIT, horizon=32.0, seed=77, n_grid=2**13 + 1)
        estimates = []
        for rep in range(5):
            agg = simulate_market(cfg, replicate=rep)
            vario, _ = market_hurst(agg.path(), min_lag=64, max_lag=1024)
            estimates.append(vario.h_hat)
        gaps.append(abs(float(np.median(estimates)) - target))
    assert gaps[-1] < 0.1
    assert gaps[-1] <= gaps[0]


def test_markov_market_qv_refinement_stable():
    # semimartingale signature: QV level survives grid refinement (an H = 0.75
    # path would drop by (4/16)^0.5 = 0.5 between these blocks)
    from semimarket.fbm import quadratic_variation

    model = model_from_dict(MARKOV)
    ratios = []
    for rep in range(6):
        cfg = MarketConfig(model=model, n_agents=400, epsilon=0.01,
                           amplitude=UNIT, horizon=8.0, seed=21, n_grid=257)
        agg = markov_market(cfg, replicate=rep)
        path = agg.path("x_scaled")
        ratios.append(quadratic_variation(path, block=4) / quadratic_variation(path, block=16))
    assert 0.7 < np.mean(ratios) < 1.6
