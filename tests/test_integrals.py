import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semimarket.fbm import sample_fbm
from semimarket.integrals import (
    PartitionLadder,
    cross_variation,
    integration_by_parts_residual,
    self_integral_identity,
    stieltjes_integral,
)
from semimarket.market import AmplitudeModel, simulate_amplitude
from semimarket.paths import SamplePath

from oracles import goodness_moments


def _ladder(n=1024, levels=5):
    return PartitionLadder(n_increments=n, n_levels=levels)


def _wiener(n, dt, seed):
    return sample_fbm(0.5, n, dt, np.random.default_rng(seed))


# -- partition ladder ------------------------------------------------------------

def test_ladder_structure():
    lad = _ladder(64, 4)
    assert lad.stride(0) == 8 and lad.stride(3) == 1
    idx = lad.indices(0)
    assert idx[0] == 0 and idx[-1] == 64
    with pytest.raises(ValueError):
        PartitionLadder(n_increments=100, n_levels=5)  # 100 not divisible by 16
    with pytest.raises(ValueError):
        PartitionLadder(n_increments=64, n_levels=1)


# -- stieltjes sums ----------------------------------------------------------------

def test_constant_integrand_exact_every_level():
    n = 1024
    z = _wiener(n, 1.0 / n, 0)
    phi = SamplePath(dt=z.dt, values=np.ones(n + 1))
    path, report = stieltjes_integral(phi, z, _ladder(n))
    assert path.values[-1] == pytest.approx(z.values[-1] - z.values[0], abs=1e-14)
    assert report["converged"]
    assert all(v == pytest.approx(path.values[-1], abs=1e-14) for v in report["level_values"])


def test_smooth_case_converges_to_riemann():
    n = 4096
    t = np.linspace(0.0, 1.0, n + 1)
    z = SamplePath(dt=t[1], values=t.copy())
    phi = SamplePath(dt=t[1], values=t.copy())
    path, report = stieltjes_integral(phi, z, _ladder(n, 6))
    assert path.values[-1] == pytest.approx(0.5, abs=1.0 / n)
    assert report["converged"]


def test_integral_matches_ibp_construction():
    n = 4096
    dt = 1.0 / n
    bh = sample_fbm(0.75, n, dt, np.random.default_rng(1))
    amp = AmplitudeModel(drift=0.1, vol=0.4, initial=1.0)
    psi = simulate_amplitude(amp, dt, n + 1, np.random.default_rng(2))
    direct, report = stieltjes_integral(psi, bh, _ladder(n, 6))
    residual = integration_by_parts_residual(psi, bh)
    # residual(t) = [-∫B dPsi + Psi B] - ∫Psi dB on the same grid
    assert abs(residual.values[-1]) < 0.05
    assert report["converged"]


@given(st.floats(min_value=-3.0, max_value=3.0), st.floats(min_value=-3.0, max_value=3.0))
@settings(max_examples=20, deadline=None)
def test_left_sums_linear_in_integrand(a, b):
    n = 256
    rng = np.random.default_rng(5)
    z = SamplePath(dt=1.0 / n, values=np.concatenate([[0.0], np.cumsum(rng.standard_normal(n))]))
    p1 = SamplePath(dt=z.dt, values=rng.standard_normal(n + 1))
    p2 = SamplePath(dt=z.dt, values=rng.standard_normal(n + 1))
    lad = _ladder(n, 3)
    combo = SamplePath(dt=z.dt, values=a * p1.values + b * p2.values)
    lhs, _ = stieltjes_integral(combo, z, lad)
    r1, _ = stieltjes_integral(p1, z, lad)
    r2, _ = stieltjes_integral(p2, z, lad)
    np.testing.assert_allclose(lhs.values, a * r1.values + b * r2.values, atol=1e-9)


def test_left_sums_additive_in_integrator():
    n = 256
    rng = np.random.default_rng(6)
    z1 = SamplePath(dt=1.0 / n, values=np.concatenate([[0.0], np.cumsum(rng.standard_normal(n))]))
    z2 = SamplePath(dt=1.0 / n, values=np.concatenate([[0.0], np.cumsum(rng.standard_normal(n))]))
    phi = SamplePath(dt=z1.dt, values=rng.standard_normal(n + 1))
    lad = _ladder(n, 3)
    zs = SamplePath(dt=z1.dt, values=z1.values + z2.values)
    lhs, _ = stieltjes_integral(phi, zs, lad)
    r1, _ = stieltjes_integral(phi, z1, lad)
    r2, _ = stieltjes_integral(phi, z2, lad)
    np.testing.assert_allclose(lhs.values, r1.values + r2.values, atol=1e-10)


# -- integration by parts -------------------------------------------------------------

def test_ibp_constant_psi_exact_zero():
    n = 512
    bh = sample_fbm(0.75, n, 1.0 / n, np.random.default_rng(7))
    psi = SamplePath(dt=bh.dt, values=np.full(n + 1, 3.2))
    res = integration_by_parts_residual(psi, bh)
    np.testing.assert_allclose(res.values, 0.0, atol=1e-12)


def test_ibp_residual_shrinks_for_smooth_psi():
    n = 2**12
    dt = 1.0 / n
    for seed in range(5):
        bh = sample_fbm(0.75, n, dt, np.random.default_rng([10, seed]))
        psi_full = np.exp(bh.times)
        sups = []
        for stride in (4, 2, 1):
            res = integration_by_parts_residual(
                SamplePath(dt * stride, psi_full[::stride]),
                SamplePath(dt * stride, bh.values[::stride]))
            sups.append(np.abs(res.values).max())
        assert sups[0] / sups[1] >= 1.5
        assert sups[1] / sups[2] >= 1.5


def test_ibp_residual_equals_discrete_cross_variation():
    # algebraic identity of the left-endpoint construction
    n = 256
    rng = np.random.default_rng(11)
    psi = SamplePath(1.0 / n, rng.standard_normal(n + 1))
    bh = SamplePath(1.0 / n, rng.standard_normal(n + 1))
    res = integration_by_parts_residual(psi, bh)
    cross = np.concatenate([[0.0], np.cumsum(np.diff(psi.values) * np.diff(bh.values))])
    np.testing.assert_allclose(res.values, cross, atol=1e-12)


# -- self integral / quadratic variation -----------------------------------------------

@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=30, deadline=None)
def test_self_integral_identity_machine_precision(seed):
    rng = np.random.default_rng(seed)
    n = 257
    values = np.concatenate([[0.0], np.cumsum(rng.standard_normal(n))])
    z = SamplePath(dt=0.01, values=values)
    residual, qv = self_integral_identity(z)
    scale = max(np.abs(qv).max(), 1.0)
    assert np.abs(residual - qv).max() <= 1e-12 * scale


def test_self_integral_requires_zero_start():
    z = SamplePath(dt=0.1, values=np.array([1.0, 2.0, 3.0]))
    with pytest.raises(ValueError, match="z\\(0\\) = 0"):
        self_integral_identity(z)


def test_self_integral_fbm_vanishes_wiener_does_not():
    n = 2**14
    dt = 1.0 / n
    fbm_path = sample_fbm(0.75, n, dt, np.random.default_rng(12))
    w_path = _wiener(n, dt, 13)
    # residual at T over dyadic coarsenings: fBm scales like m^{1-2H}
    def residual_at(path, stride):
        sub = SamplePath(dt * stride, path.values[::stride])
        residual, _ = self_integral_identity(sub)
        return residual[-1]

    f_coarse, f_fine = residual_at(fbm_path, 16), residual_at(fbm_path, 1)
    w_coarse, w_fine = residual_at(w_path, 16), residual_at(w_path, 1)
    assert f_fine < f_coarse / 2.0         # 16^{-0.5} = 1/4 expected
    assert 0.7 < w_fine / w_coarse < 1.3   # Wiener path flagged: no decay


# -- cross variation ----------------------------------------------------------------

def test_cross_variation_constant_psi_zero():
    n = 256
    z = _wiener(n, 1.0 / n, 14)
    psi = SamplePath(dt=z.dt, values=np.ones(n + 1))
    for level in cross_variation(z, psi, _ladder(n, 4)):
        assert level["cross"] == 0.0
        assert level["cauchy_schwarz_ok"]


def test_cross_variation_cauchy_schwarz_all_levels():
    n = 1024
    rng = np.random.default_rng(15)
    z = SamplePath(1.0 / n, np.concatenate([[0.0], np.cumsum(rng.standard_normal(n))]))
    psi = SamplePath(1.0 / n, np.concatenate([[0.0], np.cumsum(rng.standard_normal(n))]))
    for level in cross_variation(z, psi, _ladder(n, 5)):
        assert level["cross"] ** 2 <= level["qv_z"] * level["qv_psi"] * (1 + 1e-12)


def test_cross_variation_independent_processes_vanishes():
    n = 2**13
    dt = 1.0 / n
    bh = sample_fbm(0.75, n, dt, np.random.default_rng(16))
    w = _wiener(n, dt, 17)
    levels = cross_variation(bh, w, _ladder(n, 5))
    finest = levels[-1]
    # |cross| <= sqrt(qv_z * qv_psi); for independent paths it is much smaller
    assert abs(finest["cross"]) < 0.3 * np.sqrt(finest["qv_z"] * finest["qv_psi"])
    assert abs(levels[-1]["cross"]) < abs(levels[0]["cross"]) + 0.05


# -- goodness moments ----------------------------------------------------------------

def test_goodness_constant_amplitude():
    out = goodness_moments(AmplitudeModel(initial=2.0), 1.0, 10,
                           np.random.default_rng(0))
    assert out["qv_mean"] == 0.0 and out["tv_mean"] == 0.0


def test_goodness_pure_drift():
    amp = AmplitudeModel(drift=0.5, vol=0.0, initial=1.0)
    out = goodness_moments(amp, 1.0, 50, np.random.default_rng(1))
    assert out["qv_mean"] == 0.0
    # |A|_T = ∫ 0.5 e^{0.5 t} dt = e^0.5 - 1
    assert out["tv_mean"] == pytest.approx(np.exp(0.5) - 1.0, rel=1e-3)


def test_goodness_diffusion_matches_closed_form():
    amp = AmplitudeModel(drift=0.1, vol=0.4, initial=1.0)
    out = goodness_moments(amp, 2.0, 800, np.random.default_rng(2))
    assert abs(out["qv_mean"] - out["qv_reference"]) < 4 * out["qv_stderr"] + 1e-3
    assert np.isfinite(out["tv_mean"]) and out["tv_stderr"] >= 0.0


# -- distributional drift toward the fractional limit ---------------------------------

def test_integral_distribution_drifts_toward_target():
    # with Psi fixed, the law of ∫ Psi dZ_n at T approaches that of ∫ Psi dB^H
    # as H_n -> 0.75; T = 4 so the self-similar variances T^2H separate the laws
    n = 2**10
    horizon = 4.0
    dt = horizon / n
    psi = simulate_amplitude(AmplitudeModel(drift=0.0, vol=0.3, initial=1.0),
                             dt, n + 1, np.random.default_rng(100))
    lad = _ladder(n, 3)

    def samples(hurst, base, count=1500):
        out = np.empty(count)
        for k in range(count):
            z = sample_fbm(hurst, n, dt, np.random.default_rng([base, k]))
            path, _ = stieltjes_integral(psi, z, lad)
            out[k] = path.values[-1]
        return np.sort(out)

    ref = samples(0.75, 1)

    def ks(a, b):
        grid = np.sort(np.concatenate([a, b]))
        fa = np.searchsorted(a, grid, side="right") / a.size
        fb = np.searchsorted(b, grid, side="right") / b.size
        return np.abs(fa - fb).max()

    dists = [ks(samples(h, 2 + i), ref) for i, h in enumerate([0.6, 0.65, 0.7, 0.74])]
    assert dists[-1] < dists[0]
    assert dists[-1] < 0.06  # matched-sample KS noise floor ~ 0.035
