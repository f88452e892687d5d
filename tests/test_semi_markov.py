import numpy as np
import pytest
from scipy.stats import kstest

from semimarket.config import model_from_dict
from semimarket.paths import SamplePath
from semimarket.semi_markov import (
    SemiMarkovModel,
    StateSpace,
    Trajectory,
    expected_visits_before_hit,
    hurst_from_alpha,
    jump_rounds,
    limit_constant_c2,
    sample_path,
    states_at_times,
    stationary_law,
    validate_model,
)

from oracles import integral_at, integrate_trajectory, occupation_times, of_state

EXAMPLE_A = {
    "states": [-1, 0, 1],
    "transitions": [[0.0, 1.0, 0.0], [0.5, 0.0, 0.5], [0.0, 1.0, 0.0]],
    "sojourns": {
        "-1": {"family": "exponential", "rate": 1.0},
        "0": {"family": "pareto", "scale": 1.0, "alpha": 1.5},
        "1": {"family": "exponential", "rate": 1.0},
    },
}

ASYM = {
    "states": [-1, 0, 1],
    "transitions": [[0.0, 1.0, 0.0], [0.3, 0.0, 0.7], [0.0, 1.0, 0.0]],
    "sojourns": EXAMPLE_A["sojourns"],
}


@pytest.fixture(scope="module")
def example_a():
    return model_from_dict(EXAMPLE_A)


@pytest.fixture(scope="module")
def asym():
    return model_from_dict(ASYM)


# -- types and validation ----------------------------------------------------

def test_state_space_invariants():
    with pytest.raises(ValueError, match="distinct"):
        StateSpace((0, 1, 1))
    with pytest.raises(ValueError, match="inactive state 0"):
        StateSpace((1, 2))
    with pytest.raises(ValueError, match="two states"):
        StateSpace((0,))
    assert StateSpace((-1, 0, 1)).index_of_zero == 1


def test_validate_example_a_clean(example_a):
    assert validate_model(example_a) == []


def test_validate_flags_bad_row():
    bad = dict(EXAMPLE_A, transitions=[[0.0, 0.9, 0.0], [0.5, 0.0, 0.5], [0.0, 1.0, 0.0]])
    out = validate_model(model_from_dict(bad))
    assert any("row 0" in v for v in out)


def test_validate_flags_heavy_active_exit():
    bad = {
        "states": [-1, 0, 1],
        "transitions": EXAMPLE_A["transitions"],
        "sojourns": {
            "-1": {"family": "exponential", "rate": 1.0},
            "0": {"family": "pareto", "scale": 1.0, "alpha": 1.5},
            "1": {"family": "pareto", "scale": 1.0, "alpha": 1.5},
        },
    }
    out = validate_model(model_from_dict(bad))
    assert any("thin-tailed" in v for v in out)


def test_validate_flags_missing_heavy_state():
    mixed = {
        "states": [-1, 0, 1],
        "transitions": EXAMPLE_A["transitions"],
        "sojourns": {
            "-1": {"family": "exponential", "rate": 1.0},
            "0": {"family": "exponential", "rate": 0.5},
            "1": {"family": "exponential", "rate": 1.0},
        },
    }
    model = model_from_dict(mixed)
    # all-light model is the Markov regime: allowed, alpha undefined
    assert validate_model(model) == []
    assert model.alpha is None
    with pytest.raises(ValueError, match="Hurst"):
        model.hurst()


def test_validate_flags_reducible_chain():
    cfg = {
        "states": [-1, 0, 1],
        "transitions": [[1.0, 0.0, 0.0], [0.5, 0.0, 0.5], [0.0, 1.0, 0.0]],
        "sojourns": EXAMPLE_A["sojourns"],
    }
    out = validate_model(model_from_dict(cfg))
    assert any("irreducible" in v for v in out)


# -- stationary law -----------------------------------------------------------

def test_stationary_law_example_a(example_a):
    law = stationary_law(example_a)
    np.testing.assert_allclose(law.pi, [0.25, 0.5, 0.25], atol=1e-12)
    np.testing.assert_allclose(law.nu, [0.125, 0.75, 0.125], atol=1e-12)
    np.testing.assert_allclose(law.m, [1.0, 3.0, 1.0], atol=1e-12)
    assert of_state(law, law.eta, 1) == pytest.approx(8.0)
    assert law.mu == pytest.approx(0.0, abs=1e-12)


def test_stationary_law_identities(example_a, asym):
    for model in (example_a, asym):
        law = stationary_law(model)
        np.testing.assert_allclose(law.pi @ model.chain.p, law.pi, atol=1e-10)
        assert law.pi.sum() == pytest.approx(1.0, abs=1e-12)
        # nu_j = m_j / eta_j componentwise
        np.testing.assert_allclose(law.nu, law.m / law.eta, atol=1e-12)
        # m_i = sum_j p_ij m_ij
        np.testing.assert_allclose(law.m, (model.chain.p * law.m_cond).sum(axis=1))


def test_stationary_law_asymmetric_positive_drift(asym):
    law = stationary_law(asym)
    np.testing.assert_allclose(law.nu, [0.075, 0.75, 0.175], atol=1e-12)
    assert law.mu == pytest.approx(0.1)


def test_occupation_fractions_match_nu_simulated(example_a):
    # long-run occupation oracle for nu: one long non-stationary path
    rng = np.random.default_rng(5)
    traj = sample_path(example_a, 1, 40000.0, rng)
    occ = occupation_times(traj, [-1, 0, 1]) / traj.horizon
    law = stationary_law(example_a)
    np.testing.assert_allclose(occ, law.nu, atol=0.02)


def test_embedded_visit_frequencies_match_pi(example_a):
    rng = np.random.default_rng(6)
    traj = sample_path(example_a, 1, 20000.0, rng)
    states, counts = np.unique(traj.states, return_counts=True)
    freq = counts / counts.sum()
    law = stationary_law(example_a)
    order = [list(states).index(s) for s in (-1, 0, 1)]
    np.testing.assert_allclose(freq[order], law.pi, atol=0.02)


# -- visits before hit ----------------------------------------------------------

def _visits_mc(model, start, target, n=200000, seed=2):
    # embedded-chain Monte Carlo oracle
    rng = np.random.default_rng(seed)
    p = model.chain.p
    states = list(model.space.states)
    cum = np.cumsum(p, axis=1)
    total = 0
    for _ in range(n):
        cur = states.index(start)
        count = 0
        while True:
            cur = int(np.searchsorted(cum[cur], rng.random(), side="right"))
            if states[cur] == target:
                break
            if states[cur] == 0:
                count += 1
        total += count
    return total / n


def test_visits_example_a_return(example_a):
    assert expected_visits_before_hit(example_a, 1, 1) == pytest.approx(2.0)
    mc = _visits_mc(example_a, 1, 1, n=100000)
    assert mc == pytest.approx(2.0, abs=0.03)


def test_visits_cross_state(example_a):
    assert expected_visits_before_hit(example_a, -1, 1) == pytest.approx(2.0)
    assert expected_visits_before_hit(example_a, 0, 1) == pytest.approx(1.0)


def test_visits_immediate_absorption():
    cfg = {
        "states": [0, 1],
        "transitions": [[0.0, 1.0], [1.0, 0.0]],
        "sojourns": {
            "0": {"family": "pareto", "scale": 1.0, "alpha": 1.5},
            "1": {"family": "exponential", "rate": 1.0},
        },
    }
    model = model_from_dict(cfg)
    assert expected_visits_before_hit(model, 0, 1) == 0.0


def test_visits_bounded_by_geometric_series():
    # with all off-diagonals positive, E[visits] <= sum n (1-p)^n = (1-p)/p^2
    cfg = {
        "states": [-1, 0, 1],
        "transitions": [[0.1, 0.5, 0.4], [0.3, 0.2, 0.5], [0.25, 0.25, 0.5]],
        "sojourns": EXAMPLE_A["sojourns"],
    }
    model = model_from_dict(cfg)
    p_min = 0.25
    bound = (1 - p_min) / p_min**2
    for i in (-1, 0, 1):
        for j in (-1, 0, 1):
            assert expected_visits_before_hit(model, i, j) <= bound


def test_visits_asymmetric_values(asym):
    assert expected_visits_before_hit(asym, 1, 1) == pytest.approx(10.0 / 7.0)
    assert expected_visits_before_hit(asym, -1, -1) == pytest.approx(10.0 / 3.0)


# -- limit constants -------------------------------------------------------------

def test_c2_requires_positive_condition(example_a):
    with pytest.raises(ValueError, match="condition violated"):
        limit_constant_c2(example_a)


def test_c2_asymmetric_value(asym):
    # mu * sum_j j C_j / (2H(1-H)(2H-1)) with the oracle pieces:
    # mu=0.1, C_1 = 7/160, C_-1 = 3/160, H = 0.75
    law = stationary_law(asym)
    c_plus = of_state(law, law.m, 1) / of_state(law, law.eta, 1) ** 2 \
        * expected_visits_before_hit(asym, 1, 1)
    c_minus = of_state(law, law.m, -1) / of_state(law, law.eta, -1) ** 2 \
        * expected_visits_before_hit(asym, -1, -1)
    oracle = 0.1 * (c_plus - c_minus) / (2 * 0.75 * 0.25 * 0.5)
    assert limit_constant_c2(asym) == pytest.approx(oracle)
    assert limit_constant_c2(asym) == pytest.approx(2.0 / 150.0)


def test_c2_rejects_exact_zero_sum():
    # states scaled so the weighted sum of C_j vanishes: symmetric chain again
    with pytest.raises(ValueError):
        limit_constant_c2(model_from_dict(EXAMPLE_A))


def test_hurst_from_alpha():
    assert hurst_from_alpha(1.5) == pytest.approx(0.75)
    assert hurst_from_alpha(1.2) == pytest.approx(0.9)
    for bad in (1.0, 2.0, 0.5, 2.5):
        with pytest.raises(ValueError):
            hurst_from_alpha(bad)


def test_hurst_strictly_decreasing_in_alpha():
    alphas = np.linspace(1.01, 1.99, 50)
    hs = [hurst_from_alpha(a) for a in alphas]
    assert np.all(np.diff(hs) < 0)


def test_tail_scale_pure_pareto(example_a):
    t = np.array([2.0, 10.0, 1e4])
    np.testing.assert_allclose(example_a.tail_scale(t), np.ones(3))


# -- samplers ----------------------------------------------------------------------

def test_sample_path_tiny_horizon(example_a):
    rng = np.random.default_rng(0)
    traj = sample_path(example_a, 0, 1e-9, rng)
    assert traj.states.tolist() == [0]
    assert traj.jump_times.tolist() == [0.0]


def test_sample_path_reproducible(example_a):
    t1 = sample_path(example_a, 1, 100.0, np.random.default_rng(11))
    t2 = sample_path(example_a, 1, 100.0, np.random.default_rng(11))
    np.testing.assert_array_equal(t1.jump_times, t2.jump_times)
    np.testing.assert_array_equal(t1.states, t2.states)


def test_stationary_marginal_matches_nu(example_a):
    # the defining test of the equilibrium initialisation: marginal at any t is nu
    law = stationary_law(example_a)
    rng = np.random.default_rng(17)
    times = np.array([0.0, 7.0, 15.0])
    out = states_at_times(example_a, times, 30000, rng, law=law)
    for ti in range(times.size):
        freq = np.array([(out[:, ti] == s).mean() for s in (-1, 0, 1)])
        np.testing.assert_allclose(freq, law.nu, atol=0.012)


def _first_sojourns_from_zero(model, n_agents, seed):
    # the engine's first round with no horizon: every agent leaves xi_0 at T_1
    rounds = jump_rounds(model, n_agents, np.inf, np.random.default_rng(seed))
    next(rounds)
    _, t1, src, _ = next(rounds)
    return t1[src == model.space.index(0)]


def test_stationary_residual_sojourn_tail(example_a):
    # T_1 | xi_0 = k has tail  ∫_t^∞ h(k,s) ds / m_k  (numeric-integral oracle)
    draws = _first_sojourns_from_zero(example_a, 6000, 23)
    assert draws.size > 4000
    zero_law = example_a.law(0, 1)

    def resid_cdf(v):
        return 1.0 - np.asarray(zero_law.integrated_tail(v)) / zero_law.mean

    stat = kstest(draws, resid_cdf).statistic
    assert stat < 1.36 / np.sqrt(draws.size) * 1.5


def test_stationary_exponential_residual_is_exponential():
    cfg = {
        "states": [0, 1],
        "transitions": [[0.0, 1.0], [1.0, 0.0]],
        "sojourns": {
            "0": {"family": "exponential", "rate": 2.0},
            "1": {"family": "exponential", "rate": 1.0},
        },
    }
    draws = _first_sojourns_from_zero(model_from_dict(cfg), 12000, 3)
    assert draws.size > 3500
    stat = kstest(draws, lambda v: 1.0 - np.exp(-2.0 * v)).statistic
    assert stat < 1.36 / np.sqrt(draws.size) * 1.5


def test_engine_rounds_are_consistent(asym):
    # each round leaves the state the agent holds and enters a feasible one,
    # and every agent's epochs increase inside (0, horizon)
    rounds = jump_rounds(asym, 200, 50.0, np.random.default_rng(4))
    cur = next(rounds)
    last = np.zeros(200)
    p = asym.chain.p
    for agents, t, src, dst in rounds:
        np.testing.assert_array_equal(src, cur[agents])
        assert np.all(p[src, dst] > 0.0)
        assert np.all((t > last[agents]) & (t < 50.0))
        cur[agents], last[agents] = dst, t


def test_states_at_times_time_invariance_chisquare(example_a):
    from scipy.stats import chisquare

    law = stationary_law(example_a)
    rng = np.random.default_rng(31)
    times = np.array([0.0, 10.0, 20.0])
    out = states_at_times(example_a, times, 20000, rng, law=law)
    for ti in range(3):
        counts = np.array([(out[:, ti] == s).sum() for s in (-1, 0, 1)])
        res = chisquare(counts, f_exp=law.nu * counts.sum())
        assert res.pvalue > 0.01


# -- trajectory integration -----------------------------------------------------

def test_integrate_constant_trajectory():
    traj = Trajectory(np.array([0.0]), np.array([1]), horizon=5.0)
    grid = np.linspace(0.0, 5.0, 11)
    path = integrate_trajectory(traj, grid_times=grid)
    np.testing.assert_allclose(path.values, grid)


def test_integrate_two_segments_cancellation():
    traj = Trajectory(np.array([0.0, 1.0]), np.array([1, -1]), horizon=2.0)
    grid = np.linspace(0.0, 2.0, 21)
    path = integrate_trajectory(traj, grid_times=grid)
    assert path.values[-1] == pytest.approx(0.0)
    assert path.values[10] == pytest.approx(1.0)  # t = 1


def test_integrate_with_constant_weight_doubles():
    traj = Trajectory(np.array([0.0, 1.0]), np.array([1, -1]), horizon=2.0)
    grid = np.linspace(0.0, 2.0, 21)
    plain = integrate_trajectory(traj, grid_times=grid)
    weight = SamplePath(dt=0.1, values=np.full(21, 2.0))
    weighted = integrate_trajectory(traj, weight=weight)
    np.testing.assert_allclose(weighted.values, 2.0 * plain.values, atol=1e-12)


def test_integrate_grid_mismatch_raises():
    traj = Trajectory(np.array([0.0]), np.array([1]), horizon=1.0)
    with pytest.raises(ValueError, match="horizon"):
        integrate_trajectory(traj, grid_times=np.linspace(0.0, 2.0, 5))
    short = SamplePath(dt=0.1, values=np.zeros(5))
    with pytest.raises(ValueError, match="cover"):
        integrate_trajectory(traj, weight=short)


def test_integral_at_exactness(example_a):
    # exact closed form vs fine Riemann sum on a random trajectory
    rng = np.random.default_rng(8)
    traj = sample_path(example_a, 0, 50.0, rng)
    ts = np.linspace(0.0, 50.0, 7)
    fine = np.linspace(0.0, 50.0, 2_000_001)
    states_fine = traj.states[np.searchsorted(traj.jump_times, fine, side="right") - 1]
    riemann = np.cumsum(states_fine[:-1] * np.diff(fine))
    idx = np.searchsorted(fine, ts)[1:] - 1
    np.testing.assert_allclose(integral_at(traj, ts)[1:], riemann[idx], atol=2e-3)
