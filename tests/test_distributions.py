import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.stats import kstest

from semimarket.distributions import (
    Exponential,
    Pareto,
    ParetoLog,
    Uniform,
    law_from_config,
)

from oracles import equilibrium_cdf

ALL_LAWS = [
    Pareto(scale=1.0, alpha=1.5),
    Pareto(scale=2.0, alpha=1.2),
    ParetoLog(scale=1.0, alpha=1.5),
    Exponential(rate=1.0),
    Exponential(rate=2.0),
    Uniform(lo=0.0, hi=2.0),
    Uniform(lo=0.5, hi=1.5),
]


def test_pareto_tail_values():
    law = Pareto(scale=1.0, alpha=1.5)
    assert law.tail(1.0) == 1.0
    assert law.tail(0.5) == 1.0  # below the scale
    assert law.tail(4.0) == pytest.approx(0.125)  # 4^-1.5


def test_exponential_tail():
    law = Exponential(rate=1.0)
    t = np.array([0.0, 1.0, 3.0])
    np.testing.assert_allclose(law.tail(t), np.exp(-t))


def test_means_closed_form():
    assert Pareto(1.0, 1.5).mean == pytest.approx(3.0)  # alpha/(alpha-1)
    assert Exponential(2.0).mean == pytest.approx(0.5)
    assert Uniform(0.0, 2.0).mean == pytest.approx(1.0)


def _tail_integral_oracle(law, t, split=100.0):
    """∫_t^∞ tail by quadrature, substituting u = 1/s beyond the split point."""
    body, _ = quad(lambda s: float(law.tail(s)), t, split, limit=200)
    far, _ = quad(lambda u: float(law.tail(1.0 / u)) / u**2, 1e-12, 1.0 / split, limit=200)
    return body + far


@pytest.mark.parametrize("law", ALL_LAWS, ids=lambda l: type(l).__name__ + repr(l)[:24])
def test_mean_equals_integral_of_tail(law):
    assert _tail_integral_oracle(law, 0.0) == pytest.approx(law.mean, rel=1e-6)


@pytest.mark.parametrize("law", ALL_LAWS, ids=lambda l: type(l).__name__ + repr(l)[:24])
def test_integrated_tail_matches_quadrature(law):
    for t in (0.0, 0.3, 1.0, 2.5, 7.0):
        assert float(law.integrated_tail(t)) == pytest.approx(
            _tail_integral_oracle(law, t), rel=1e-6, abs=1e-8)


@pytest.mark.parametrize("law", ALL_LAWS, ids=lambda l: type(l).__name__ + repr(l)[:24])
def test_tail_monotone_and_normalized(law):
    t = np.linspace(0.0, 50.0, 2001)
    vals = law.tail(t)
    assert vals[0] == pytest.approx(1.0)
    assert np.all(np.diff(vals) <= 1e-15)
    assert np.all((vals >= 0.0) & (vals <= 1.0))


@pytest.mark.parametrize("law", ALL_LAWS, ids=lambda l: type(l).__name__ + repr(l)[:24])
def test_sampling_matches_cdf(law):
    rng = np.random.default_rng(42)
    x = law.sample(rng, 10**5)
    stat = kstest(x, lambda v: np.asarray(law.cdf(v))).statistic
    assert stat < 1.36 / np.sqrt(10**5) * 1.3  # 95% KS band with slack for ties


@pytest.mark.parametrize("law", ALL_LAWS, ids=lambda l: type(l).__name__ + repr(l)[:24])
def test_equilibrium_sampling_matches_integrated_tail_cdf(law):
    rng = np.random.default_rng(7)
    x = law.equilibrium_sample(rng, 10**5)
    stat = kstest(x, lambda v: np.asarray(equilibrium_cdf(law, v))).statistic
    assert stat < 1.36 / np.sqrt(10**5) * 1.3


def test_equilibrium_of_exponential_is_exponential():
    # memorylessness: residual law equals the law itself
    law = Exponential(rate=1.7)
    u = np.linspace(1e-6, 1 - 1e-6, 1001)
    np.testing.assert_allclose(law.equilibrium_ppf(u), law.ppf(u), rtol=1e-12)


def test_equilibrium_transform_twice_exponential_identity():
    # distributional identity checked by KS on two independent draws
    law = Exponential(rate=1.0)
    rng = np.random.default_rng(3)
    once = law.equilibrium_sample(rng, 10**5)
    stat = kstest(once, lambda v: np.asarray(law.cdf(v))).statistic
    assert stat < 1.36 / np.sqrt(10**5) * 1.3


def test_equilibrium_pareto_quantiles_against_numeric_inversion():
    # numeric-inversion oracle for the closed-form residual quantile function
    law = Pareto(scale=1.0, alpha=1.5)
    for u in (0.05, 0.333333, 0.7, 0.95, 0.999):
        target = (1.0 - u) * law.mean
        lo, hi = 0.0, 10.0
        while float(law.integrated_tail(hi)) > target:
            hi *= 2
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if float(law.integrated_tail(mid)) > target:
                lo = mid
            else:
                hi = mid
        assert float(law.equilibrium_ppf(u)) == pytest.approx(0.5 * (lo + hi), abs=1e-8)


def test_equilibrium_pareto_heavy_mean():
    # residual law of Pareto(1, 1.5) has tail index alpha-1 < 1: infinite mean,
    # so only quantiles are asserted; the 99.99% quantile is already huge
    law = Pareto(scale=1.0, alpha=1.5)
    q = float(law.equilibrium_ppf(0.9999))
    assert q > 1e6


@given(st.floats(min_value=1.05, max_value=1.95), st.floats(min_value=0.1, max_value=5.0))
@settings(max_examples=25, deadline=None)
def test_pareto_ppf_inverts_cdf(alpha, scale):
    law = Pareto(scale=scale, alpha=alpha)
    u = np.linspace(0.01, 0.99, 21)
    np.testing.assert_allclose(law.cdf(law.ppf(u)), u, atol=1e-10)


def test_paretolog_ppf_inverts_cdf():
    law = ParetoLog(scale=1.0, alpha=1.5)
    u = np.linspace(0.0, 0.999, 200)
    np.testing.assert_allclose(law.cdf(law.ppf(u)), u, atol=1e-9)


def test_paretolog_slowly_varying_factor():
    law = ParetoLog(scale=1.0, alpha=1.5)
    t = np.array([10.0, 1e3, 1e6])
    np.testing.assert_allclose(law.tail(t), t**-1.5 * law.slowly_varying_factor(t))
    # slowly varying: L(2t)/L(t) -> 1
    ratio = law.slowly_varying_factor(2e8) / law.slowly_varying_factor(1e8)
    assert abs(ratio - 1.0) < 0.05


def test_law_from_config_and_errors():
    law = law_from_config({"family": "pareto", "scale": 1.0, "alpha": 1.5})
    assert isinstance(law, Pareto)
    with pytest.raises(ValueError, match="unknown sojourn family"):
        law_from_config({"family": "weibull", "k": 2})
    with pytest.raises(ValueError, match="alpha > 1"):
        Pareto(scale=1.0, alpha=1.0)
    with pytest.raises(ValueError, match="lo < hi"):
        Uniform(lo=2.0, hi=1.0)
