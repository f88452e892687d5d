import gc
import tracemalloc

import numpy as np
import pytest

from semimarket.config import model_from_dict
from semimarket.distributions import Exponential, Pareto
from semimarket import renewal
from semimarket.renewal import (
    Grid,
    GridFunction,
    _simpson_integral,
    _stationary_pieces,
    asymptotic_covariance,
    conv_stieltjes,
    covariance_gamma,
    first_passage,
    kernel_on_grid,
    key_renewal_asymptote,
    solve_volterra,
    stationary_first_passage,
    stationary_transition,
    tail_constant_Cj,
    variance_of_integral,
    write_grid_csv,
)
from semimarket.semi_markov import expected_visits_before_hit, states_at_times, stationary_law

from oracles import of_state, renewal_function

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

TWO_STATE_MARKOV = {
    "states": [0, 1],
    "transitions": [[0.0, 1.0], [1.0, 0.0]],
    "sojourns": {
        "0": {"family": "exponential", "rate": 1.0},
        "1": {"family": "exponential", "rate": 1.0},
    },
}


@pytest.fixture(scope="module")
def example_a():
    return model_from_dict(EXAMPLE_A)


@pytest.fixture(scope="module")
def asym():
    return model_from_dict(ASYM)


# -- grid plumbing -------------------------------------------------------------

def test_grid_basics():
    g = Grid.for_horizon(10.0, 0.1)
    assert g.n_points == 101
    assert g.horizon == pytest.approx(10.0)
    with pytest.raises(ValueError):
        Grid(dt=-0.1, n_points=10)
    with pytest.raises(ValueError):
        Grid(dt=0.1, n_points=1)


def test_gridfunction_distribution_bounds():
    g = Grid(dt=0.001, n_points=5)
    GridFunction(g, np.array([0.0, 0.2, 0.5, 0.9, 1.0]), kind="distribution")
    with pytest.raises(ValueError, match="out of bounds"):
        GridFunction(g, np.array([0.0, 0.5, 3.0, 0.9, 1.0]), kind="distribution")
    with pytest.raises(ValueError, match="out of bounds"):
        GridFunction(g, np.array([0.0, 0.9, 0.5, 0.9, 1.0]), kind="distribution")
    # the slack scales with dt: a mild overshoot within 10*dt is tolerated
    GridFunction(Grid(dt=0.1, n_points=3), np.array([0.0, 0.9, 1.5]), kind="distribution")


def test_kernel_identity_q_plus_h(example_a):
    g = Grid.for_horizon(20.0, 0.05)
    kernel = kernel_on_grid(example_a, g)
    total = kernel.q.sum(axis=1) + kernel.survival
    np.testing.assert_allclose(total, 1.0, atol=1e-12)


def test_survival_markov_kernel_exponential():
    model = model_from_dict(TWO_STATE_MARKOV)
    g = Grid.for_horizon(5.0, 0.01)
    h = kernel_on_grid(model, g).survival
    np.testing.assert_allclose(h[0], np.exp(-g.times()), atol=1e-12)


def test_survival_heavy_state_is_pareto_tail(example_a):
    g = Grid.for_horizon(5.0, 0.01)
    kernel = kernel_on_grid(example_a, g)
    h0 = kernel.survival[kernel.states.index(0)]
    np.testing.assert_allclose(h0, example_a.law(0, 1).tail(g.times()), atol=1e-12)


# -- convolution / solver ---------------------------------------------------------

def test_conv_stieltjes_against_direct_quadrature():
    # oracle: dense Stieltjes sum with the same trapezoid rule
    rng = np.random.default_rng(0)
    m1 = 60
    g = np.cumsum(rng.random(m1))
    f_cdf = np.concatenate([[0.0], np.sort(rng.random(m1 - 1))])
    df = np.concatenate([[0.0], np.diff(f_cdf)])
    direct = np.zeros(m1)
    for m in range(1, m1):
        acc = 0.0
        for l in range(1, m + 1):
            acc += 0.5 * (g[m - l] + g[m - l + 1]) * df[l]
        direct[m] = acc
    np.testing.assert_allclose(conv_stieltjes(df, g), direct, atol=1e-10)


def test_conv_stieltjes_atom():
    g = np.arange(5.0)
    out = conv_stieltjes(np.zeros(5), g, atom0=2.0)
    np.testing.assert_allclose(out, 2.0 * g)


def _volterra_forward(forcing, dk):
    """Plain O(M^2) forward substitution; oracle for solve_volterra."""
    forcing = np.atleast_2d(np.asarray(forcing, dtype=float))
    dk = np.asarray(dk, dtype=float)
    q, m1 = forcing.shape
    x = np.zeros((q, m1))
    x[:, 0] = forcing[:, 0]
    ainv = np.linalg.inv(np.eye(q) - 0.5 * dk[:, :, 1])
    for m in range(1, m1):
        rhs = forcing[:, m].copy()
        for i in range(q):
            for k in range(q):
                rhs[i] += 0.5 * dk[i, k, 1] * x[k, m - 1]
                if m >= 2:
                    lags = np.arange(2, m + 1)
                    rhs[i] += np.sum(0.5 * (x[k, m - lags] + x[k, m - lags + 1]) * dk[i, k, lags])
        x[:, m] = ainv @ rhs
    return x


def _random_volterra(rng, q, m1):
    f = rng.normal(size=(q, m1))
    dk = np.zeros((q, q, m1))
    dk[:, :, 1:] = np.abs(rng.normal(size=(q, q, m1 - 1))) * (0.5 / m1)
    return f, dk


def test_volterra_fast_equals_forward_oracle():
    rng = np.random.default_rng(1)
    for q, m1, block in ((1, 257, 32), (2, 300, 64), (3, 123, 16)):
        f, dk = _random_volterra(rng, q, m1)
        np.testing.assert_allclose(solve_volterra(f, dk, block=block),
                                   _volterra_forward(f, dk), atol=1e-10)


@pytest.mark.parametrize("q, m1, block", [
    (1, 2, 16), (2, 3, 16),            # one or two unknowns, a single short leaf
    (1, 4 * 16 + 1, 16),               # m1 - 1 a whole number of leaves
    (2, 5 * 16 + 2, 16),               # ... plus one point in a last leaf
    (1, 8 * 16 + 1, 16), (2, 8 * 16 + 2, 16),   # around the direct/FFT switch
    (1, 9 * 16 + 1, 16), (1, 40 * 16 + 2, 16),
    (2, 60, 1),                        # leaves of one point
])
def test_volterra_edge_cases_match_oracle(q, m1, block):
    f, dk = _random_volterra(np.random.default_rng(m1), q, m1)
    np.testing.assert_allclose(solve_volterra(f, dk, block=block),
                               _volterra_forward(f, dk), rtol=0, atol=1e-12)


def test_volterra_with_an_all_zero_kernel_pair_matches_oracle():
    f, dk = _random_volterra(np.random.default_rng(3), 3, 301)
    dk[1, 2] = 0.0
    np.testing.assert_allclose(solve_volterra(f, dk, block=16),
                               _volterra_forward(f, dk), rtol=0, atol=1e-12)


def test_volterra_pareto_renewal_equation_matches_oracle():
    # R = 1 + F * R on 2001 points: 125 leaves of 16, so 7 levels of halving
    g = Grid(dt=0.01, n_points=2001)
    df = np.zeros(g.n_points)
    df[1:] = np.diff(Pareto(scale=0.1, alpha=1.5).cdf(g.times()))
    f = np.ones((1, g.n_points))
    np.testing.assert_allclose(solve_volterra(f, df[None, None, :], block=16),
                               _volterra_forward(f, df[None, None, :]), rtol=0, atol=1e-12)


def test_volterra_frees_its_work_arrays_on_return():
    # with the cycle collector off, memory the solver left in a reference
    # cycle would stay allocated after the call
    f, dk = _random_volterra(np.random.default_rng(4), 2, 20001)
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        x = solve_volterra(f, dk)
        del x
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
        gc.enable()
    assert after - before < 1e6


def test_volterra_solution_satisfies_equation():
    rng = np.random.default_rng(2)
    m1 = 200
    f = rng.normal(size=(1, m1))
    dk = np.zeros((1, 1, m1))
    dk[0, 0, 1:] = np.abs(rng.normal(size=m1 - 1)) * 0.004
    x = solve_volterra(f, dk)
    rhs = f[0] + conv_stieltjes(dk[0, 0], x[0])
    np.testing.assert_allclose(x[0], rhs, atol=1e-10)


def test_convolution_commutes_with_distributions():
    # distributions acting on a locally bounded function commute
    g = Grid.for_horizon(10.0, 0.01)
    t = g.times()
    f1 = 1.0 - np.exp(-t)
    f2 = np.clip(t / 4.0, 0.0, 1.0)
    h = np.cos(t) + 1.5
    d1 = np.concatenate([[0.0], np.diff(f1)])
    d2 = np.concatenate([[0.0], np.diff(f2)])
    a = conv_stieltjes(d1, conv_stieltjes(d2, h))
    b = conv_stieltjes(d2, conv_stieltjes(d1, h))
    assert np.abs(a - b).max() < 10.0 * g.dt * np.abs(h).max()


def test_simpson_integral():
    g = Grid.for_horizon(1.0, 0.001)
    t = g.times()
    assert _simpson_integral(np.exp(-t), 0.001) == pytest.approx(1.0 - np.exp(-1.0), rel=1e-9)


# -- first passage ------------------------------------------------------------------

def test_first_passage_single_jump_exponential():
    model = model_from_dict(TWO_STATE_MARKOV)
    g = Grid.for_horizon(10.0, 0.01)
    fp = first_passage(model, g, 1)
    np.testing.assert_allclose(fp[0].values, 1.0 - np.exp(-g.times()), atol=5e-3)


def test_first_passage_return_time_mean(example_a):
    # eta_1 = ∫ t dF(1,1,dt): truncated tail integral plus the exact heavy-tail
    # correction 4/sqrt(T) from F̄(1,1,t) ~ 2 t^{-3/2}
    g = Grid.for_horizon(400.0, 0.01)
    fp = first_passage(example_a, g, 1)
    eta_trunc = np.trapezoid(1.0 - fp[1].values, dx=g.dt)
    assert eta_trunc + 4.0 / np.sqrt(g.horizon) == pytest.approx(8.0, abs=0.02)


def test_first_passage_tail_constants(example_a):
    # F̄(i,1,t) / t^-alpha -> E[visits to 0] + delta_{i,0} (equals 2.0 for all i here)
    g = Grid.for_horizon(2000.0, 0.02)
    fp = first_passage(example_a, g, 1)
    for start in (-1, 0, 1):
        expected = expected_visits_before_hit(example_a, start, 1) + (1.0 if start == 0 else 0.0)
        t_checks = np.array([200.0, 500.0, 1500.0])
        ratios = (1.0 - fp[start].at(t_checks)) / t_checks**-1.5
        assert ratios[-1] == pytest.approx(expected, rel=0.12)


def _first_passage_loops(model, grid, target):
    """first_passage with its equations assembled entry by entry; oracle."""
    kernel = kernel_on_grid(model, grid)
    states = list(kernel.states)
    jj = states.index(target)
    others = [k for k in range(len(states)) if k != jj]
    dq = kernel.dq
    forcing = np.stack([kernel.q[i, jj] for i in others])
    dk = np.zeros((len(others), len(others), grid.n_points))
    for a, i in enumerate(others):
        for b, k in enumerate(others):
            dk[a, b] = dq[i, k]
    x = solve_volterra(forcing, dk)
    out = {states[i]: np.clip(x[a], 0.0, None) for a, i in enumerate(others)}
    ret = kernel.q[jj, jj].copy()
    for b, k in enumerate(others):
        ret += conv_stieltjes(dq[jj, k], x[b])
    out[target] = np.clip(ret, 0.0, None)
    return out


@pytest.mark.parametrize("target", [-1, 0, 1])
def test_first_passage_equals_loop_assembly(asym, target):
    g = Grid.for_horizon(100.0, 0.01)
    fp = first_passage(asym, g, target)
    oracle = _first_passage_loops(asym, g, target)
    for start in (-1, 0, 1):
        assert np.array_equal(fp[start].values, oracle[start])


def test_first_passage_garbage_flagged_by_distribution_kind():
    # a solve that leaves the [0, 1+10dt] envelope is rejected as non-convergent
    g = Grid(dt=0.001, n_points=4)
    with pytest.raises(ValueError, match="out of bounds"):
        GridFunction(g, np.array([0.0, 0.4, 1.3, 1.2]), kind="distribution")


# -- renewal functions ----------------------------------------------------------------

def test_poisson_renewal_function():
    g = Grid.for_horizon(20.0, 0.01)
    f = GridFunction(g, 1.0 - np.exp(-g.times()), kind="distribution")
    r = renewal_function(f)
    np.testing.assert_allclose(r.values, 1.0 + g.times(), atol=2e-3)
    assert r.values[0] == pytest.approx(1.0)
    assert np.all(np.diff(r.values) >= -1e-12)


def test_renewal_series_truncation_oracle():
    # R = sum F^n cross-checked by explicit convolution powers at small horizon
    g = Grid.for_horizon(3.0, 0.005)
    f_vals = 1.0 - np.exp(-g.times())
    f = GridFunction(g, f_vals, kind="distribution")
    r = renewal_function(f)
    df = np.concatenate([[0.0], np.diff(f_vals)])
    series = np.ones(g.n_points)
    term = f_vals.copy()
    for _ in range(30):
        series += term
        term = conv_stieltjes(df, term)
    np.testing.assert_allclose(r.values, series, atol=5e-3)


def test_elementary_renewal_slope(example_a):
    law = stationary_law(example_a)
    g = Grid.for_horizon(3000.0, 0.05)
    fp = first_passage(example_a, g, 1)
    r = renewal_function(fp[1])
    eta = of_state(law, law.eta, 1)
    assert r.at(3000.0) / 3000.0 == pytest.approx(1.0 / eta, rel=0.05)


def _delayed_renewal(r_jj: GridFunction, f_ij: GridFunction) -> GridFunction:
    """R(i,j,t) = ∫_0^t R(j,j,t-u) F(i,j,du); a step of the P* oracle route."""
    df = np.zeros(f_ij.grid.n_points)
    df[1:] = np.diff(f_ij.values)
    vals = conv_stieltjes(df, r_jj.values, atom0=float(f_ij.values[0]))
    return GridFunction(r_jj.grid, vals, kind="plain")


def test_delayed_and_stationary_renewal(example_a):
    g = Grid.for_horizon(50.0, 0.01)
    law = stationary_law(example_a)
    fp = first_passage(example_a, g, 1)
    r11 = renewal_function(fp[1])
    r_delayed = _delayed_renewal(r11, fp[-1])
    assert r_delayed.values[0] == pytest.approx(0.0)
    assert np.all(np.diff(r_delayed.values) >= -1e-9)
    fstar = stationary_first_passage(example_a, g, -1, 1, law=law)
    rstar = _delayed_renewal(r11, fstar)
    assert rstar.values[0] == pytest.approx(0.0)
    # both renewal measures share the 1/eta slope at large t
    assert (r_delayed.at(50.0) - r_delayed.at(30.0)) / 20.0 == pytest.approx(
        (rstar.at(50.0) - rstar.at(30.0)) / 20.0, rel=0.1)


# -- stationary first passage and transition ---------------------------------------

def test_stationary_first_passage_matches_mc():
    model = model_from_dict(TWO_STATE_MARKOV)
    g = Grid.for_horizon(8.0, 0.01)
    fstar = stationary_first_passage(model, g, 0, 1)
    # MC oracle: time of first visit to 1 from stationary start at 0
    rng = np.random.default_rng(3)
    law = stationary_law(model)
    from semimarket.semi_markov import sample_stationary_path

    hits = []
    want = 4000
    while len(hits) < want:
        traj = sample_stationary_path(model, 8.0, rng, law=law)
        if traj.states[0] != 0:
            continue
        entered = traj.jump_times[traj.states == 1]
        hits.append(entered[0] if entered.size else np.inf)
    hits = np.array(hits)
    for t_q in (0.5, 2.0, 5.0):
        frac = (hits <= t_q).mean()
        se = max(np.sqrt(frac * (1 - frac) / want), 1e-3)
        assert abs(fstar.at(t_q) - frac) < 4 * se


def test_stationary_first_passage_zero_at_origin(example_a):
    g = Grid.for_horizon(10.0, 0.01)
    for start in (-1, 0, 1):
        fstar = stationary_first_passage(example_a, g, start, 1)
        assert fstar.values[0] == pytest.approx(0.0)


def test_stationary_fp_tail_constant(asym):
    # F̄*(i,j,t)/t^-alpha -> E[visits] for i, j != 0
    g = Grid.for_horizon(2000.0, 0.02)
    law = stationary_law(asym)
    fstar = stationary_first_passage(asym, g, -1, 1, law=law)
    expected = expected_visits_before_hit(asym, -1, 1)
    ratio = (1.0 - fstar.at(1500.0)) / 1500.0**-1.5
    assert ratio == pytest.approx(expected, rel=0.12)


def _stationary_transition_oracle(model, grid, law):
    """P*(i, j) as an (n, n, M) array by the renewal-measure route.

    R(j,j) from its renewal equation, R*(i,j) = R(j,j) * F*(i,j) by
    convolution, then P* = delta_ij s(i,.)/nu_i + h(j,.) * dR*(i,j).
    """
    kernel = kernel_on_grid(model, grid)
    states = list(model.space.states)
    n = len(states)
    pieces = _stationary_pieces(model, law, grid)
    s = pieces[0]
    out = np.zeros((n, n, grid.n_points))
    for jj, j in enumerate(states):
        passage = first_passage(model, grid, j, kernel=kernel)
        r_jj = renewal_function(passage[j])
        for ii, i in enumerate(states):
            fstar = stationary_first_passage(model, grid, i, j, passage=passage,
                                             law=law, pieces=pieces)
            rstar = _delayed_renewal(r_jj, fstar)
            drs = np.zeros(grid.n_points)
            drs[1:] = np.diff(rstar.values)
            out[ii, jj] = conv_stieltjes(drs, kernel.survival[jj], atom0=float(rstar.values[0]))
            if ii == jj:
                out[ii, jj] += s[ii] / law.nu[ii]
    return out


@pytest.mark.parametrize("name, horizon, dt", [("example_a", 12.0, 0.005),
                                               ("asym", 3000.0, 0.05)])
def test_stationary_transition_matches_renewal_route_oracle(request, name, horizon, dt):
    model = request.getfixturevalue(name)
    g = Grid.for_horizon(horizon, dt)
    law = stationary_law(model)
    ps = stationary_transition(model, g, law=law)
    states = model.space.states
    got = np.array([[ps[(i, j)].values for j in states] for i in states])
    oracle = _stationary_transition_oracle(model, g, law)
    assert np.abs(got - oracle).max() <= 1e-11 * np.abs(oracle).max()


def test_stationary_transition_identity_at_zero(example_a):
    g = Grid.for_horizon(12.0, 0.01)
    ps = stationary_transition(example_a, g)
    for i in (-1, 0, 1):
        for j in (-1, 0, 1):
            assert ps[(i, j)].values[0] == pytest.approx(1.0 if i == j else 0.0, abs=1e-9)


def test_stationary_transition_rows_and_mc(example_a):
    g = Grid.for_horizon(12.0, 0.005)
    law = stationary_law(example_a)
    ps = stationary_transition(example_a, g, law=law)
    rows = sum(ps[(1, j)].values for j in (-1, 0, 1))
    assert np.abs(rows - 1.0).max() < 10 * g.dt
    # MC oracle at a few times
    rng = np.random.default_rng(4)
    times = np.array([1.0, 5.0, 10.0])
    marg = states_at_times(example_a, times, 40000, rng, initial_state=1, law=law)
    for ti, t_q in enumerate(times):
        frac = (marg[:, ti] == 1).mean()
        se = np.sqrt(frac * (1 - frac) / marg.shape[0])
        assert abs(ps[(1, 1)].at(t_q) - frac) < 3.5 * se


def test_stationary_transition_refinement_order(example_a):
    # halving dt shrinks the defect against a fine reference by >= 1.8
    t_checks = np.array([1.0, 3.0, 7.0])
    vals = {}
    for dt in (0.04, 0.02, 0.005):
        g = Grid.for_horizon(8.0, dt)
        ps = stationary_transition(example_a, g)
        vals[dt] = np.array([ps[(1, 1)].at(t_checks), ps[(0, 1)].at(t_checks)])
    err_coarse = np.abs(vals[0.04] - vals[0.005]).max()
    err_fine = np.abs(vals[0.02] - vals[0.005]).max()
    assert err_coarse / err_fine >= 1.8


def test_stationary_transition_decay_constant(asym):
    # (P*_t(i,j) - nu_j) / t^{1-alpha} -> C_j / (alpha - 1) for i, j != 0
    g = Grid.for_horizon(3000.0, 0.05)
    law = stationary_law(asym)
    ps = stationary_transition(asym, g, law=law)
    c1 = tail_constant_Cj(asym, 1, law=law)
    t_q = 2500.0
    dev = ps[(-1, 1)].at(t_q) - of_state(law, law.nu, 1)
    predicted = c1 / 0.5 * t_q**-0.5
    assert dev == pytest.approx(predicted, rel=0.15)


def test_coarse_grid_rejected_by_precondition(example_a):
    g = Grid.for_horizon(10.0, 0.2)  # min mean sojourn = 1 => dt must be <= 0.05
    with pytest.raises(ValueError, match="coarse"):
        stationary_transition(example_a, g)


# -- tail constants, covariance, variance ----------------------------------------------

def test_tail_constant_example_a(example_a):
    assert tail_constant_Cj(example_a, 1) == pytest.approx(0.03125)
    assert tail_constant_Cj(example_a, -1) == pytest.approx(0.03125)  # symmetry
    with pytest.raises(ValueError):
        tail_constant_Cj(example_a, 0)


def test_tail_constant_scaling_under_doubled_means():
    # doubling all sojourn means doubles m_j and eta_j, so C_j halves
    base = model_from_dict(EXAMPLE_A)
    doubled_cfg = {
        "states": [-1, 0, 1],
        "transitions": EXAMPLE_A["transitions"],
        "sojourns": {
            "-1": {"family": "exponential", "rate": 0.5},
            "0": {"family": "pareto", "scale": 2.0, "alpha": 1.5},
            "1": {"family": "exponential", "rate": 0.5},
        },
    }
    doubled = model_from_dict(doubled_cfg)
    assert tail_constant_Cj(doubled, 1) == pytest.approx(tail_constant_Cj(base, 1) / 2.0)


def test_gamma_example_a_closed_form(example_a):
    g = Grid.for_horizon(10.0, 0.005)
    law = stationary_law(example_a)
    gamma = covariance_gamma(example_a, g, law=law)
    exact = 2.0 * of_state(law, law.nu, 1) * np.exp(-g.times())
    assert np.abs(gamma.values - exact).max() < 10.0 * g.dt
    assert gamma.values[0] == pytest.approx(0.25, abs=1e-6)


def test_gamma_zero_value_is_variance(asym):
    g = Grid.for_horizon(5.0, 0.005)
    law = stationary_law(asym)
    gamma = covariance_gamma(asym, g, law=law)
    k = np.array(law.states, dtype=float)
    expected = float((k**2 * law.nu).sum() - law.mu**2)
    assert gamma.values[0] == pytest.approx(expected, abs=5e-3)


def test_variance_closed_form_double_integral():
    # gamma = e^-t  =>  Var = 2(t - 1 + e^-t)
    g = Grid.for_horizon(5.0, 0.001)
    gamma = GridFunction(g, np.exp(-g.times()))
    var = variance_of_integral(gamma)
    for t_q in (1.0, 2.0, 5.0):
        assert var.at(t_q) == pytest.approx(2.0 * (t_q - 1.0 + np.exp(-t_q)), rel=1e-5)


def test_gamma_tail_ratio_and_slope(asym):
    from semimarket.experiments import fit_slope

    g = Grid.for_horizon(2000.0, 0.05)
    gamma = covariance_gamma(asym, g)
    t_q = np.geomspace(100.0, 2000.0, 12)
    ratios = gamma.at(t_q) / asymptotic_covariance(asym, t_q)
    assert np.all(np.abs(ratios - 1.0) < 0.15)
    slope, *_ = fit_slope(t_q, gamma.at(t_q))
    assert slope == pytest.approx(-0.5, abs=0.1)


def _covariance_gamma_oracle(model, grid, law):
    """gamma as the sum over active pairs (i, j) of i j nu_i (P*(i,j) - nu_j).

    One renewal solve per pair: w = z + dF(j,j) * w with z = dF*(i,j) * h(j,.).
    """
    kernel = kernel_on_grid(model, grid)
    states = list(model.space.states)
    pieces = _stationary_pieces(model, law, grid)
    s = pieces[0]
    gamma = np.zeros(grid.n_points)
    for j in states:
        if j == 0:
            continue
        jj = states.index(j)
        passage = first_passage(model, grid, j, kernel=kernel)
        df = np.zeros(grid.n_points)
        df[1:] = np.diff(passage[j].values)
        for ii, i in enumerate(states):
            if i == 0:
                continue
            fstar = stationary_first_passage(model, grid, i, j, passage=passage,
                                             law=law, pieces=pieces)
            dfs = np.zeros(grid.n_points)
            dfs[1:] = np.diff(fstar.values)
            z = conv_stieltjes(dfs, kernel.survival[jj])
            dev = solve_volterra(z[None, :], df[None, None, :])[0] - law.nu[jj]
            if i == j:
                dev = dev + s[ii] / law.nu[ii]
            gamma += i * j * law.nu[ii] * dev
    return gamma


def test_gamma_matches_per_pair_oracle(asym):
    g = Grid.for_horizon(2000.0, 0.05)
    law = stationary_law(asym)
    gamma = covariance_gamma(asym, g, law=law).values
    oracle = _covariance_gamma_oracle(asym, g, law)
    assert np.abs(gamma - oracle).max() <= 1e-11 * np.abs(oracle).max()


def test_renewal_solve_counts(monkeypatch, asym):
    # one first passage and one renewal solve per active target for gamma,
    # one first passage per target plus one solve per state pair for P*
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return solve_volterra(*args, **kwargs)

    monkeypatch.setattr(renewal, "solve_volterra", counting)
    g = Grid.for_horizon(10.0, 0.01)
    covariance_gamma(asym, g)
    assert len(calls) == 4
    calls.clear()
    stationary_transition(asym, g)
    assert len(calls) == 3 + 9
    calls.clear()
    key_renewal_asymptote(Pareto(scale=1.0, alpha=1.5), GridFunction(g, np.exp(-g.times())), g)
    assert len(calls) == 1


def test_asymptotic_covariance_requires_condition(example_a):
    with pytest.raises(ValueError, match="condition"):
        asymptotic_covariance(example_a, 100.0)


# -- key renewal ------------------------------------------------------------------

def test_key_renewal_pareto_exponential_forcing():
    g = Grid.for_horizon(3000.0, 0.05)
    law = Pareto(scale=1.0, alpha=1.5)
    z = GridFunction(g, np.exp(-g.times()))
    h_num, h_pred, info = key_renewal_asymptote(law, z, g)
    assert info["applicable"] and info["z_precondition_ok"]
    assert info["kappa"] == pytest.approx(3.0)
    assert info["lambda"] == pytest.approx(1.0, rel=1e-6)
    t_q = 2000.0
    assert h_pred.at(t_q) == pytest.approx(-(2.0 / 9.0) * t_q**-0.5, rel=1e-6)
    assert h_num.at(t_q) / h_pred.at(t_q) == pytest.approx(1.0, abs=0.1)


def test_key_renewal_zero_forcing():
    g = Grid.for_horizon(50.0, 0.01)
    law = Pareto(scale=1.0, alpha=1.5)
    z = GridFunction(g, np.zeros(g.n_points))
    h_num, _, info = key_renewal_asymptote(law, z, g)
    np.testing.assert_allclose(h_num.values, 0.0, atol=1e-12)
    assert info["lambda"] == 0.0


def test_key_renewal_light_tail_not_applicable():
    g = Grid.for_horizon(60.0, 0.01)
    law = Exponential(rate=1.0)
    z = GridFunction(g, np.exp(-2.0 * g.times()))
    h_num, h_pred, info = key_renewal_asymptote(law, z, g)
    assert h_pred is None and not info["applicable"]
    # residual decays below the quadrature floor, far faster than any power tail
    assert abs(h_num.at(50.0)) < 1e-4
    assert abs(h_num.at(50.0)) < 0.5 * 50.0**-0.5 * 1e-2


def test_key_renewal_flags_bad_z():
    g = Grid.for_horizon(200.0, 0.05)
    law = Pareto(scale=1.0, alpha=1.5)
    z = GridFunction(g, 1.0 / (1.0 + g.times()))  # heavier than F̄: violates o(F̄)
    *_, info = key_renewal_asymptote(law, z, g)
    assert not info["z_precondition_ok"]
    assert "warning" in info


def test_write_grid_csv(tmp_path):
    g = Grid(dt=0.5, n_points=3)
    gf = GridFunction(g, np.array([0.0, 1.0, 4.0]))
    out = tmp_path / "table.csv"
    write_grid_csv(out, "demo", gf)
    lines = out.read_text().splitlines()
    assert lines[0] == "t,quantity,value"
    assert lines[2].split(",")[1] == "demo"
    assert float(lines[2].split(",")[2]) == 1.0
