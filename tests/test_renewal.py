import gc
import math
import tracemalloc
from decimal import Decimal

import numpy as np
import pytest

from semimarket.config import model_from_dict
from semimarket.experiments import ASYMMETRIC_MODEL, EXAMPLE_A_MODEL, alpha_variant
from semimarket.distributions import Exponential, Pareto, ParetoLog
from semimarket import renewal
from semimarket.paths import SamplePath
from semimarket.renewal import (
    Grid,
    _simpson_integral,
    _stationary_pieces,
    asymptotic_covariance,
    conv_stieltjes,
    covariance_gamma,
    first_passage,
    kernel_on_grid,
    key_renewal_asymptote,
    solve_volterra,
    stationary_transition,
    variance_of_integral,
    write_grid_csv,
)
from semimarket.semi_markov import states_at_times, stationary_law, tail_constant_Cj, \
    wiener_constant_c2

from oracles import expected_visits_before_hit, of_state, renewal_function, \
    stationary_first_passage, volterra_longdouble

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


# decimal horizons k dt (as typed) whose float quotient by dt lands just above
# k, such as 0.14 / 0.02 = 7.000000000000001; k < 3 000 on nine common steps
_STEPS = (0.001, 0.002, 0.005, 0.01, 0.02, 0.025, 0.05, 0.1, 0.2)
_WHOLE_ABOVE = [(float(Decimal(str(dt)) * k), dt, k) for dt in _STEPS for k in range(1, 3000)
                if math.ceil(float(Decimal(str(dt)) * k) / dt) > k]


def test_grid_horizons_with_a_quotient_above_the_whole_steps():
    assert len(_WHOLE_ABOVE) == 216


@pytest.mark.parametrize("horizon, dt, k", _WHOLE_ABOVE)
def test_for_horizon_takes_no_extra_step(horizon, dt, k):
    g = Grid.for_horizon(horizon, dt)
    assert g.n_points == k + 1
    assert g.horizon == pytest.approx(horizon, rel=1e-12)


@pytest.mark.parametrize("horizon, dt, n_points", [
    (12.0, 0.005, 2401),      # renewal-tables
    (60.0, 0.02, 3001),       # mixed-market c2 grid
    (1050.0, 0.05, 21001),    # perfbench limit-constant fits
    (1.05e4, 0.1, 105001),    # perfbench key-renewal
    (1.05e4, 0.05, 210001),   # key-renewal, limit_constant_comparison
    (1.05e4, 0.025, 420001),  # limit-verification gamma
    (10.05, 0.1, 102),        # no whole number of steps: the first grid point past it
])
def test_for_horizon_keeps_the_default_sizes(horizon, dt, n_points):
    assert Grid.for_horizon(horizon, dt).n_points == n_points


def test_cdf_path_bounds():
    path = renewal._cdf_path(0.001, np.array([0.0, 0.2, 0.5, 0.9, 1.0]))
    assert isinstance(path, SamplePath) and path.dt == 0.001
    with pytest.raises(ValueError, match="out of bounds"):
        renewal._cdf_path(0.001, np.array([0.0, 0.5, 3.0, 0.9, 1.0]))
    with pytest.raises(ValueError, match="out of bounds"):
        renewal._cdf_path(0.001, np.array([0.0, 0.9, 0.5, 0.9, 1.0]))
    # the slack scales with dt: a mild overshoot within 10*dt is tolerated
    renewal._cdf_path(0.1, np.array([0.0, 0.9, 1.5]))
    # negative values are clipped to 0 before the check, however large
    clipped = renewal._cdf_path(0.001, np.array([-3.0, 0.2, 0.5]))
    np.testing.assert_array_equal(clipped.values, [0.0, 0.2, 0.5])


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
    np.testing.assert_allclose(conv_stieltjes(f_cdf, g), direct, atol=1e-10)


def test_conv_stieltjes_atom():
    # F(0), an atom of F at t = 0, is ignored: a caller adds atom * g itself
    g = np.arange(5.0)
    out = conv_stieltjes(np.full(5, 2.0), g)
    np.testing.assert_array_equal(out, np.zeros(5))


def _volterra_forward(forcing, kern):
    """Plain O(M^2) forward substitution; oracle for solve_volterra."""
    forcing = np.atleast_2d(np.asarray(forcing, dtype=float))
    dk = np.zeros(np.shape(kern))
    dk[..., 1:] = np.diff(kern, axis=-1)
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
    """Forcing (q, m1) and kernel values (q, q, m1): random increments summed from 0."""
    f = rng.normal(size=(q, m1))
    dk = np.zeros((q, q, m1))
    dk[:, :, 1:] = np.abs(rng.normal(size=(q, q, m1 - 1))) * (0.5 / m1)
    return f, np.cumsum(dk, axis=-1)


def test_volterra_fast_equals_forward_oracle():
    rng = np.random.default_rng(1)
    for q, m1 in ((1, 257), (2, 300), (3, 123)):
        f, kern = _random_volterra(rng, q, m1)
        np.testing.assert_allclose(solve_volterra(f, kern), _volterra_forward(f, kern), atol=1e-10)


# n unknowns at and around the Newton doubling boundaries h = 2^k
@pytest.mark.parametrize("q", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5] + [2**k + d for k in range(3, 9) for d in (-1, 0, 1)])
def test_volterra_edge_cases_match_oracle(q, n):
    f, kern = _random_volterra(np.random.default_rng(n), q, n + 1)
    np.testing.assert_allclose(solve_volterra(f, kern), _volterra_forward(f, kern),
                               rtol=0, atol=1e-12)


def test_volterra_with_an_all_zero_kernel_pair_matches_oracle():
    f, kern = _random_volterra(np.random.default_rng(3), 3, 301)
    kern[1, 2] = 0.0
    np.testing.assert_allclose(solve_volterra(f, kern), _volterra_forward(f, kern),
                               rtol=0, atol=1e-12)


def _pareto_renewal_matches_oracle(n_points):
    # R = 1 + F * R for a Pareto law F
    g = Grid(dt=0.01, n_points=n_points)
    kern = Pareto(scale=0.1, alpha=1.5).cdf(g.times())[None, None]
    f = np.ones((1, g.n_points))
    np.testing.assert_allclose(solve_volterra(f, kern), _volterra_forward(f, kern),
                               rtol=0, atol=1e-12)


def test_volterra_pareto_renewal_equation_matches_oracle():
    _pareto_renewal_matches_oracle(2001)  # 2 000 unknowns: 11 doublings, the last one cut short


def test_volterra_long_pareto_renewal_matches_oracle():
    _pareto_renewal_matches_oracle(16385)  # 2^14 unknowns: 14 full doublings


def test_volterra_asymmetric_kernel_matches_oracle(asym):
    # the q = 2 first-passage system of the asymmetric model on 4 097 points
    g = Grid(dt=0.01, n_points=4097)
    kernel = kernel_on_grid(asym, g)
    f = kernel.q[:2, 2]
    kern = kernel.q[:2, :2]
    np.testing.assert_allclose(solve_volterra(f, kern), _volterra_forward(f, kern),
                               rtol=0, atol=1e-12)


def _dense_leaf(coef, size):
    """The block lower-triangular Toeplitz matrix of lag blocks coef (q, q, .), block by block."""
    q = coef.shape[0]
    leaf = np.zeros((size * q, size * q))
    for r in range(size):
        for c in range(r + 1):
            leaf[r * q:(r + 1) * q, c * q:(c + 1) * q] = coef[:, :, r - c]
    return leaf


@pytest.mark.parametrize("q", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 5, 127, 128, 300])
def test_leaf_inverse_matches_dense_inverse(asym, q, n):
    # lag blocks of I - dK as solve_volterra forms them: dK is a Pareto renewal
    # law at q = 1 and the asymmetric model's kernel on its first q states else;
    # the series inverse's lag blocks are the first block column of the dense inverse
    g = Grid(dt=0.02, n_points=n + 2)
    if q == 1:
        kern = Pareto(scale=0.01, alpha=1.5).cdf(g.times())[None, None]
    else:
        kern = kernel_on_grid(asym, g).q[:q, :q]
    dk = np.diff(kern, axis=-1)
    coef = np.empty((q, q, n))
    coef[:, :, 0] = np.eye(q) - 0.5 * dk[:, :, 0]
    coef[:, :, 1:] = -0.5 * (dk[:, :, :n - 1] + dk[:, :, 1:n])
    got = renewal._series_inverse(coef)
    oracle = np.linalg.inv(_dense_leaf(coef, n))[:, :q].reshape(n, q, q).transpose(1, 2, 0)
    assert got.shape == oracle.shape == (q, q, n)
    assert np.abs(got - oracle).max() <= 1e-12 * np.abs(oracle).max()


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="long double is float64 on this platform")
def test_volterra_is_as_accurate_as_its_float64_rounding(monkeypatch):
    # the q = 2 first-passage system and the scalar return-law renewal solve
    # of the alpha = 1.6 asymmetric model, as covariance_gamma forms them,
    # against the same float64 systems solved in long double.  Bound, set
    # before any run: one float64 rounding of the largest entry.
    systems = []

    def recording(forcing, kern):
        systems.append((np.atleast_2d(forcing), kern))
        return solve_volterra(forcing, kern)

    monkeypatch.setattr(renewal, "solve_volterra", recording)
    covariance_gamma(model_from_dict(alpha_variant(ASYMMETRIC_MODEL, 1.6)),
                     Grid(dt=0.05, n_points=8193))
    firsts = {f.shape[0]: (f, kern) for f, kern in reversed(systems)}
    assert sorted(firsts) == [1, 2]
    for f, kern in firsts.values():
        oracle = volterra_longdouble(f, kern)
        assert np.abs(solve_volterra(f, kern) - oracle).max() <= 2.2e-16 * np.abs(oracle).max()


def test_split_is_exact():
    rng = np.random.default_rng(8)
    a = rng.normal(size=(3, 1000)) * np.exp(rng.uniform(-30, 30, size=(3, 1000)))
    scale = renewal._scale(a, 14)
    hi, lo = renewal._split(a, scale)
    assert np.abs(hi).max() <= 2.0**14
    assert np.array_equal(hi, np.rint(hi))
    assert np.array_equal(hi / scale + lo, a)
    assert np.abs(lo).max() <= 0.5 / scale


@pytest.mark.parametrize("signs", ["equal", "random"])
def test_toeplitz_product_rounds_its_integer_part_exactly(signs):
    # the largest FFT the package takes, limit-verification's 420 001-point
    # gamma with its q = 2 first passages, and every high part at its bound
    # 2^bits: the integer sums are as large as they can get, and the
    # FFT's rounding error with them
    q, n = 2, 420000
    size = renewal._next_fast_len(2 * n - 1)
    bits = renewal._hi_bits(q, size)
    rng = np.random.default_rng(5)

    def signs_of(shape):
        return np.ones(shape) if signs == "equal" else rng.choice([-1.0, 1.0], size=shape)

    # just below 1, so the split scales by 2^bits and rounds up to |hi| = 2^bits
    top = 1.0 - 2.0 ** -(bits + 2)
    coef_signs, y_signs = signs_of((q, q, n)), signs_of((q, n))
    exact, _ = renewal._toeplitz_product(top * coef_signs, top * y_signs, size)
    got = exact * 2.0 ** (2 * bits)
    hi_c = coef_signs.astype(np.int64) << bits
    hi_y = y_signs.astype(np.int64) << bits
    for m in np.concatenate([np.arange(5), rng.integers(5, n - 5, 30), np.arange(n - 5, n)]):
        want = [sum(int(np.dot(hi_c[i, k, :m + 1], hi_y[k, m::-1])) for k in range(q))
                for i in range(q)]
        assert np.array_equal(got[:, m], want)


def test_volterra_frees_its_work_arrays_on_return():
    # with the cycle collector off, memory the solver left in a reference
    # cycle would stay allocated after the call
    f, kern = _random_volterra(np.random.default_rng(4), 2, 20001)
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        x = solve_volterra(f, kern)
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
    kern = np.cumsum(dk, axis=-1)
    x = solve_volterra(f, kern)
    rhs = f[0] + conv_stieltjes(kern[0, 0], x[0])
    np.testing.assert_allclose(x[0], rhs, atol=1e-10)


def test_convolution_commutes_with_distributions():
    # distributions acting on a locally bounded function commute
    g = Grid.for_horizon(10.0, 0.01)
    t = g.times()
    f1 = 1.0 - np.exp(-t)
    f2 = np.clip(t / 4.0, 0.0, 1.0)
    h = np.cos(t) + 1.5
    a = conv_stieltjes(f1, conv_stieltjes(f2, h))
    b = conv_stieltjes(f2, conv_stieltjes(f1, h))
    assert np.abs(a - b).max() < 10.0 * g.dt * np.abs(h).max()


def test_simpson_integral():
    g = Grid.for_horizon(1.0, 0.001)
    t = g.times()
    assert _simpson_integral(np.exp(-t), 0.001) == pytest.approx(1.0 - np.exp(-1.0), rel=1e-9)


# -- first passage ------------------------------------------------------------------

def test_first_passage_single_jump_exponential():
    model = model_from_dict(TWO_STATE_MARKOV)
    g = Grid.for_horizon(10.0, 0.01)
    fp = first_passage(kernel_on_grid(model, g), 1)
    np.testing.assert_allclose(fp[0].values, 1.0 - np.exp(-g.times()), atol=5e-3)


def test_first_passage_return_time_mean(example_a):
    # eta_1 = ∫ t dF(1,1,dt): truncated tail integral plus the exact heavy-tail
    # correction 4/sqrt(T) from F̄(1,1,t) ~ 2 t^{-3/2}
    g = Grid.for_horizon(400.0, 0.01)
    fp = first_passage(kernel_on_grid(example_a, g), 1)
    eta_trunc = np.trapezoid(1.0 - fp[1].values, dx=g.dt)
    assert eta_trunc + 4.0 / np.sqrt(g.horizon) == pytest.approx(8.0, abs=0.02)


def test_first_passage_tail_constants(example_a):
    # F̄(i,1,t) / t^-alpha -> E[visits to 0] + delta_{i,0} (equals 2.0 for all i here)
    g = Grid.for_horizon(2000.0, 0.02)
    fp = first_passage(kernel_on_grid(example_a, g), 1)
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
    forcing = np.stack([kernel.q[i, jj] for i in others])
    kern = np.zeros((len(others), len(others), grid.n_points))
    for a, i in enumerate(others):
        for b, k in enumerate(others):
            kern[a, b] = kernel.q[i, k]
    x = solve_volterra(forcing, kern)
    out = {states[i]: np.clip(x[a], 0.0, None) for a, i in enumerate(others)}
    ret = kernel.q[jj, jj].copy()
    for b, k in enumerate(others):
        ret += conv_stieltjes(kernel.q[jj, k], x[b])
    out[target] = np.clip(ret, 0.0, None)
    return out


@pytest.mark.parametrize("target", [-1, 0, 1])
def test_first_passage_equals_loop_assembly(asym, target):
    g = Grid.for_horizon(100.0, 0.01)
    fp = first_passage(kernel_on_grid(asym, g), target)
    oracle = _first_passage_loops(asym, g, target)
    for start in (-1, 0, 1):
        assert np.array_equal(fp[start].values, oracle[start])


def test_first_passage_garbage_flagged_by_cdf_check():
    # a solve that leaves the [0, 1+10dt] envelope is rejected as non-convergent
    with pytest.raises(ValueError, match="out of bounds"):
        renewal._cdf_path(0.001, np.array([0.0, 0.4, 1.3, 1.2]))


# -- renewal functions ----------------------------------------------------------------

def test_poisson_renewal_function():
    g = Grid.for_horizon(20.0, 0.01)
    f = SamplePath(g.dt, 1.0 - np.exp(-g.times()))
    r = renewal_function(f)
    np.testing.assert_allclose(r.values, 1.0 + g.times(), atol=2e-3)
    assert r.values[0] == pytest.approx(1.0)
    assert np.all(np.diff(r.values) >= -1e-12)


def test_renewal_series_truncation_oracle():
    # R = sum F^n cross-checked by explicit convolution powers at small horizon
    g = Grid.for_horizon(3.0, 0.005)
    f_vals = 1.0 - np.exp(-g.times())
    f = SamplePath(g.dt, f_vals)
    r = renewal_function(f)
    series = np.ones(g.n_points)
    term = f_vals.copy()
    for _ in range(30):
        series += term
        term = conv_stieltjes(f_vals, term)
    np.testing.assert_allclose(r.values, series, atol=5e-3)


def test_elementary_renewal_slope(example_a):
    law = stationary_law(example_a)
    g = Grid.for_horizon(3000.0, 0.05)
    fp = first_passage(kernel_on_grid(example_a, g), 1)
    r = renewal_function(fp[1])
    eta = of_state(law, law.eta, 1)
    assert r.at(3000.0) / 3000.0 == pytest.approx(1.0 / eta, rel=0.05)


def _delayed_renewal(r_jj: SamplePath, f_ij: SamplePath) -> SamplePath:
    """R(i,j,t) = ∫_0^t R(j,j,t-u) F(i,j,du); a step of the P* oracle route."""
    vals = conv_stieltjes(f_ij.values, r_jj.values) + f_ij.values[0] * r_jj.values
    return SamplePath(r_jj.dt, vals)


def test_delayed_and_stationary_renewal(example_a):
    g = Grid.for_horizon(50.0, 0.01)
    fp = first_passage(kernel_on_grid(example_a, g), 1)
    r11 = renewal_function(fp[1])
    r_delayed = _delayed_renewal(r11, fp[-1])
    assert r_delayed.values[0] == pytest.approx(0.0)
    assert np.all(np.diff(r_delayed.values) >= -1e-9)
    fstar = stationary_first_passage(example_a, g, -1, 1)
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
    from oracles import sample_stationary_path

    hits = []
    want = 4000
    while len(hits) < want:
        traj = sample_stationary_path(model, 8.0, rng)
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
    fstar = stationary_first_passage(asym, g, -1, 1)
    expected = expected_visits_before_hit(asym, -1, 1)
    ratio = (1.0 - fstar.at(1500.0)) / 1500.0**-1.5
    assert ratio == pytest.approx(expected, rel=0.12)


def _stationary_transition_oracle(model, grid):
    """P*(i, j) as an (n, n, M) array by the renewal-measure route.

    R(j,j) from its renewal equation, R*(i,j) = R(j,j) * F*(i,j) by
    convolution, then P* = delta_ij s(i,.)/nu_i + h(j,.) * dR*(i,j).
    """
    law = stationary_law(model)
    kernel = kernel_on_grid(model, grid)
    states = list(model.states)
    n = len(states)
    s, _ = _stationary_pieces(model, grid)
    out = np.zeros((n, n, grid.n_points))
    for jj, j in enumerate(states):
        passage = first_passage(kernel, j)
        r_jj = renewal_function(passage[j])
        for ii, i in enumerate(states):
            fstar = stationary_first_passage(model, grid, i, j)
            rstar = _delayed_renewal(r_jj, fstar)
            out[ii, jj] = (conv_stieltjes(rstar.values, kernel.survival[jj])
                           + rstar.values[0] * kernel.survival[jj])
            if ii == jj:
                out[ii, jj] += s[ii] / law.nu[ii]
    return out


@pytest.mark.parametrize("name, horizon, dt", [("example_a", 12.0, 0.005),
                                               ("asym", 3000.0, 0.05)])
def test_stationary_transition_matches_renewal_route_oracle(request, name, horizon, dt):
    model = request.getfixturevalue(name)
    g = Grid.for_horizon(horizon, dt)
    ps = stationary_transition(model, g)
    states = model.states
    got = np.array([[ps[(i, j)].values for j in states] for i in states])
    oracle = _stationary_transition_oracle(model, g)
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
    ps = stationary_transition(example_a, g)
    rows = sum(ps[(1, j)].values for j in (-1, 0, 1))
    assert np.abs(rows - 1.0).max() < 10 * g.dt
    # MC oracle at a few times
    rng = np.random.default_rng(4)
    times = np.array([1.0, 5.0, 10.0])
    marg = states_at_times(example_a, times, 40000, rng, initial_state=1)
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
    ps = stationary_transition(asym, g)
    c1 = tail_constant_Cj(asym, 1)
    t_q = 2500.0
    dev = ps[(-1, 1)].at(t_q) - of_state(law, law.nu, 1)
    predicted = c1 / 0.5 * t_q**-0.5
    assert dev == pytest.approx(predicted, rel=0.15)


def test_coarse_grid_rejected_by_precondition(example_a):
    g = Grid.for_horizon(10.0, 0.2)  # min mean sojourn = 1 => dt must be <= 0.05
    with pytest.raises(ValueError, match="coarse"):
        stationary_transition(example_a, g)


@pytest.mark.parametrize("config", [EXAMPLE_A_MODEL, ASYMMETRIC_MODEL],
                         ids=["example_a", "asymmetric"])
def test_renewal_layer_takes_no_zero_kernel_convolution(config, monkeypatch):
    # a Stieltjes convolution with zero increments adds exact zeros, so the
    # three-mood models' zero kernel pairs are skipped: 6 of 14 convolutions
    # in covariance_gamma and 12 of 33 in stationary_transition
    model = model_from_dict(config)
    g = Grid.for_horizon(4.0, 0.02)
    increments = []

    def recorded(F, values):
        increments.append(np.diff(F))
        return conv_stieltjes(F, values)

    monkeypatch.setattr(renewal, "conv_stieltjes", recorded)
    covariance_gamma(model, g)
    n_gamma = len(increments)
    stationary_transition(model, g)
    assert (n_gamma, len(increments) - n_gamma) == (8, 21)
    assert all(dF.any() for dF in increments)


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
    gamma = covariance_gamma(example_a, g)
    exact = 2.0 * of_state(law, law.nu, 1) * np.exp(-g.times())
    assert np.abs(gamma.values - exact).max() < 10.0 * g.dt
    assert gamma.values[0] == pytest.approx(0.25, abs=1e-6)


def test_gamma_zero_value_is_variance(asym):
    g = Grid.for_horizon(5.0, 0.005)
    law = stationary_law(asym)
    gamma = covariance_gamma(asym, g)
    k = np.array(law.states, dtype=float)
    expected = float((k**2 * law.nu).sum() - law.mu**2)
    assert gamma.values[0] == pytest.approx(expected, abs=5e-3)


def test_variance_closed_form_double_integral():
    # gamma = e^-t  =>  Var = 2(t - 1 + e^-t)
    g = Grid.for_horizon(5.0, 0.001)
    gamma = SamplePath(g.dt, np.exp(-g.times()))
    var = variance_of_integral(gamma)
    for t_q in (1.0, 2.0, 5.0):
        assert var.at(t_q) == pytest.approx(2.0 * (t_q - 1.0 + np.exp(-t_q)), rel=1e-5)


def test_gamma_tail_ratio_and_slope(asym):
    from semimarket.fbm import fit_line

    g = Grid.for_horizon(2000.0, 0.05)
    gamma = covariance_gamma(asym, g)
    t_q = np.geomspace(100.0, 2000.0, 12)
    ratios = gamma.at(t_q) / asymptotic_covariance(asym, t_q)
    assert np.all(np.abs(ratios - 1.0) < 0.15)
    slope, *_ = fit_line(np.log(t_q), np.log(gamma.at(t_q)))
    assert slope == pytest.approx(-0.5, abs=0.1)


# an uncentred four-state Markov model: one exponential law per state, rates 2, 1/2, 1, 3/2
FOUR_STATE_MARKOV = {
    "states": [-1, 0, 1, 2],
    "transitions": [[0.0, 0.6, 0.4, 0.0], [0.3, 0.0, 0.5, 0.2], [0.2, 0.5, 0.0, 0.3],
                    [0.0, 0.5, 0.5, 0.0]],
    "sojourns": {"-1": {"family": "exponential", "rate": 2.0},
                 "0": {"family": "exponential", "rate": 0.5},
                 "1": {"family": "exponential", "rate": 1.0},
                 "2": {"family": "exponential", "rate": 1.5}},
}


def test_wiener_constant_matches_integrated_gamma():
    # the closed form against 2 ∫ gamma of the solver: trapezoid and solver
    # errors fall as dt^2, so halving dt cuts the gap four-fold
    model = model_from_dict(FOUR_STATE_MARKOV)
    assert abs(stationary_law(model).mu) > 0.1
    closed = wiener_constant_c2(model)
    gaps = []
    for dt in (0.02, 0.01):
        gamma = covariance_gamma(model, Grid.for_horizon(40.0, dt))
        gaps.append(abs(2.0 * np.trapezoid(gamma.values, dx=dt) - closed))
        assert gaps[-1] < 0.5 * dt**2
    assert 3.5 < gaps[0] / gaps[1] < 4.5
    # the two-state chain flipping at rate 1: gamma = nu_1 nu_0 e^-2t, c2^2 = 1/4
    assert wiener_constant_c2(model_from_dict(TWO_STATE_MARKOV)) == pytest.approx(0.25, rel=1e-14)


def test_wiener_constant_rejects_non_markov_models():
    with pytest.raises(ValueError, match="exits from each state must share one exponential law"):
        wiener_constant_c2(model_from_dict(EXAMPLE_A))
    # exponential everywhere, but the rate out of 0 depends on the edge
    by_edge = dict(TWO_STATE_MARKOV, states=[-1, 0, 1],
                   transitions=[[0.0, 1.0, 0.0], [0.5, 0.0, 0.5], [0.0, 1.0, 0.0]],
                   sojourns=dict(TWO_STATE_MARKOV["sojourns"],
                                 **{"-1": {"family": "exponential", "rate": 1.0}}),
                   edges={"0->1": {"family": "exponential", "rate": 2.0}})
    with pytest.raises(ValueError, match="exits from each state must share"):
        wiener_constant_c2(model_from_dict(by_edge))


def _covariance_gamma_oracle(model, grid):
    """gamma as the sum over active pairs (i, j) of i j nu_i (P*(i,j) - nu_j).

    One renewal solve per pair: w = z + dF(j,j) * w with z = dF*(i,j) * h(j,.).
    """
    law = stationary_law(model)
    kernel = kernel_on_grid(model, grid)
    states = list(model.states)
    s, _ = _stationary_pieces(model, grid)
    gamma = np.zeros(grid.n_points)
    for j in states:
        if j == 0:
            continue
        jj = states.index(j)
        passage = first_passage(kernel, j)
        for ii, i in enumerate(states):
            if i == 0:
                continue
            fstar = stationary_first_passage(model, grid, i, j)
            z = conv_stieltjes(fstar.values, kernel.survival[jj])
            dev = solve_volterra(z[None, :], passage[j].values[None, None, :])[0] - law.nu[jj]
            if i == j:
                dev = dev + s[ii] / law.nu[ii]
            gamma += i * j * law.nu[ii] * dev
    return gamma


def test_gamma_matches_per_pair_oracle(asym):
    g = Grid.for_horizon(2000.0, 0.05)
    gamma = covariance_gamma(asym, g).values
    oracle = _covariance_gamma_oracle(asym, g)
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
    key_renewal_asymptote(Pareto(scale=1.0, alpha=1.5), SamplePath(g.dt, np.exp(-g.times())))
    assert len(calls) == 1


def test_asymptotic_covariance_requires_condition(example_a):
    with pytest.raises(ValueError, match="condition"):
        asymptotic_covariance(example_a, 100.0)


# -- key renewal ------------------------------------------------------------------

def test_key_renewal_pareto_exponential_forcing():
    g = Grid.for_horizon(3000.0, 0.05)
    law = Pareto(scale=1.0, alpha=1.5)
    z = SamplePath(g.dt, np.exp(-g.times()))
    h_num, h_pred, info = key_renewal_asymptote(law, z)
    assert info["applicable"] and info["z_precondition_ok"]
    assert info["kappa"] == pytest.approx(3.0)
    assert info["lambda"] == pytest.approx(1.0, rel=1e-6)
    t_q = 2000.0
    assert h_pred.at(t_q) == pytest.approx(-(2.0 / 9.0) * t_q**-0.5, rel=1e-6)
    assert h_num.at(t_q) / h_pred.at(t_q) == pytest.approx(1.0, abs=0.1)


def test_key_renewal_zero_forcing():
    g = Grid.for_horizon(50.0, 0.01)
    law = Pareto(scale=1.0, alpha=1.5)
    z = SamplePath(g.dt, np.zeros(g.n_points))
    h_num, _, info = key_renewal_asymptote(law, z)
    np.testing.assert_allclose(h_num.values, 0.0, atol=1e-12)
    assert info["lambda"] == 0.0


def test_key_renewal_light_tail_not_applicable():
    g = Grid.for_horizon(60.0, 0.01)
    law = Exponential(rate=1.0)
    z = SamplePath(g.dt, np.exp(-2.0 * g.times()))
    h_num, h_pred, info = key_renewal_asymptote(law, z)
    assert not info["applicable"]
    # residual decays below the quadrature floor, far faster than any power tail
    assert abs(h_num.at(50.0)) < 1e-4
    assert abs(h_num.at(50.0)) < 0.5 * 50.0**-0.5 * 1e-2


def test_key_renewal_flags_bad_z():
    g = Grid.for_horizon(200.0, 0.05)
    law = Pareto(scale=1.0, alpha=1.5)
    z = SamplePath(g.dt, 1.0 / (1.0 + g.times()))  # heavier than F̄: violates o(F̄)
    *_, info = key_renewal_asymptote(law, z)
    assert not info["z_precondition_ok"]


def test_key_renewal_paretolog_prediction_is_the_integrated_tail():
    # -lambda/kappa^2 times the integrated tail keeps the log law's second-order
    # term 1/((alpha-1)(1 + log t)), which t^(1-alpha) L(t) alone misses
    g = Grid.for_horizon(1.05e4, 0.05)
    law = ParetoLog(scale=1.0, alpha=1.5)
    h_num, h_pred, info = key_renewal_asymptote(law, SamplePath(g.dt, np.exp(-g.times())))
    assert info["applicable"] and info["z_precondition_ok"]
    np.testing.assert_array_equal(
        h_pred.values, -info["lambda"] / info["kappa"] ** 2 * law.integrated_tail(g.times()))
    ladder = np.array([1e2, 10**2.5, 1e3, 10**3.5, 1e4])
    gaps = np.abs(h_num.at(ladder) / h_pred.at(ladder) - 1.0)
    assert gaps[-1] < 0.05
    assert np.all(np.diff(gaps) < 0.0)


def test_write_grid_csv(tmp_path):
    g = Grid(dt=0.5, n_points=3)
    gf = SamplePath(g.dt, np.array([0.0, 1.0, 4.0]))
    out = tmp_path / "table.csv"
    write_grid_csv(out, "demo", gf)
    lines = out.read_text().splitlines()
    assert lines[0] == "t,quantity,value"
    assert lines[2].split(",")[1] == "demo"
    assert float(lines[2].split(",")[2]) == 1.0


def test_write_grid_csv_bytes_match_row_repr(tmp_path):
    # one row per grid point, each float as its shortest round-trip repr
    rng = np.random.default_rng(5)
    g = Grid(dt=0.1, n_points=1001)
    values = rng.standard_normal(g.n_points) * 10.0 ** rng.integers(-20, 20, g.n_points)
    values[:3] = [0.0, -0.0, 1e-310]
    gf = SamplePath(g.dt, values)
    out = tmp_path / "table.csv"
    write_grid_csv(out, "gamma", gf)
    rows = [f"{float(t)!r},gamma,{float(v)!r}\n" for t, v in zip(g.times(), values)]
    assert out.read_text() == "t,quantity,value\n" + "".join(rows)


def test_fft_helpers_match_scipy():
    # the numpy stand-ins give scipy's results bit for bit
    from scipy.fft import next_fast_len
    from scipy.integrate import cumulative_trapezoid
    from scipy.signal import fftconvolve

    lengths = list(range(1, 5000)) + [420001, 840001, 2**20 + 3, 3**12 + 1]
    assert [renewal._next_fast_len(n) for n in lengths] == \
        [next_fast_len(n, real=True) for n in lengths]
    rng = np.random.default_rng(6)
    for n in (1, 2, 3, 7, 64, 1000, 4097):
        a, b = rng.random(n), rng.random(n + 5)
        np.testing.assert_array_equal(renewal._fftconvolve(a, b), fftconvolve(a, b))
        np.testing.assert_array_equal(renewal._cumulative_trapezoid(b, 0.3),
                                      cumulative_trapezoid(b, dx=0.3, initial=0.0))
