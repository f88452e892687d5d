import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semimarket.fbm import (
    HurstEstimate,
    fgn_autocovariance,
    hurst_aggregated_variance,
    hurst_variogram,
    quadratic_variation,
    sample_fbm,
    sample_fgn,
)
from semimarket import experiments
from semimarket import fbm as fbm_mod
from semimarket.paths import SamplePath

from oracles import reference_fbm_picks, reference_sample_fgn


def sample_mixed(hurst, delta, n, dt, rng) -> SamplePath:
    """Mixed path B^H + delta * W from independent fractional and Wiener streams."""
    r1, r2 = rng.spawn(2)
    bh = sample_fbm(hurst, n, dt, r1)
    if delta == 0.0:
        return bh
    w = sample_fbm(0.5, n, dt, r2)
    return SamplePath(dt=dt, values=bh.values + delta * w.values)


def per_path_fgn(hurst, n, rng):
    """Oracle: one path per call, eigenvalues recomputed, complex 2n-point ifft."""
    row = fgn_autocovariance(hurst, np.arange(n + 1))
    eig = np.clip(np.fft.fft(np.concatenate([row, row[-2:0:-1]])).real, 0.0, None)
    m = 2 * n
    z = np.empty(m, dtype=complex)
    z[0] = rng.standard_normal()
    z[n] = rng.standard_normal()
    v = rng.standard_normal((n - 1, 2))
    z[1:n] = (v[:, 0] + 1j * v[:, 1]) / np.sqrt(2.0)
    z[n + 1:] = np.conj(z[1:n][::-1])
    return (np.sqrt(m) * np.fft.ifft(np.sqrt(eig) * z).real)[:n]


def per_path_cov_cell(hurst, n_paths, n, seed):
    """Oracle: fbm-selftest's covariance statistic from one sample_fbm per path."""
    rng = np.random.default_rng([seed, int(hurst * 1000)])
    picks = np.linspace(n // 5, n, 5).astype(int)
    dt = 1.0 / n
    samples = np.array([sample_fbm(hurst, n, dt, rng).values[picks] for _ in range(n_paths)])
    t = picks * dt
    exact = 0.5 * (t[:, None] ** (2 * hurst) + t[None, :] ** (2 * hurst)
                   - np.abs(t[:, None] - t[None, :]) ** (2 * hurst))
    emp = samples.T @ samples / n_paths
    se = np.sqrt((np.outer(np.diag(exact), np.diag(exact)) + exact**2) / n_paths)
    return float((np.abs(emp - exact) / se).max())


def test_fgn_autocovariance_values():
    assert fgn_autocovariance(0.5, 0) == pytest.approx(1.0)
    for k in (1, 2, 5):
        assert fgn_autocovariance(0.5, k) == pytest.approx(0.0, abs=1e-14)
    assert fgn_autocovariance(0.75, 1) == pytest.approx(0.5 * (2**1.5 - 2))
    assert fgn_autocovariance(0.75, 0) == pytest.approx(1.0)


def test_fgn_autocovariance_alpha_domain():
    with pytest.raises(ValueError):
        fgn_autocovariance(1.0, 1)
    with pytest.raises(ValueError):
        fgn_autocovariance(0.0, 1)


@given(st.floats(min_value=0.55, max_value=0.95), st.integers(min_value=1, max_value=200))
@settings(max_examples=40, deadline=None)
def test_fgn_autocovariance_telescoping(hurst, n):
    # Var(sum of n+1 consecutive increments) = (n+1)^{2H}, i.e. the lag sums telescope
    k = np.arange(-n, n + 1)
    total = np.sum((n + 1 - np.abs(k)) * fgn_autocovariance(hurst, np.abs(k)))
    assert total == pytest.approx((n + 1) ** (2 * hurst), rel=1e-9)


def test_fgn_matches_cholesky_covariance():
    # circulant embedding vs the dense-covariance construction, distributionally
    rng = np.random.default_rng(0)
    n, reps, hurst = 64, 4000, 0.75
    sims = np.array([sample_fgn(hurst, n, rng) for _ in range(reps)])
    emp = sims.T @ sims / reps
    exact = fgn_autocovariance(hurst, np.abs(np.subtract.outer(np.arange(n), np.arange(n))))
    se = np.sqrt((1.0 + exact**2) / reps)
    assert np.all(np.abs(emp - exact) < 5 * se)


def test_fbm_variance_selfsimilar():
    rng = np.random.default_rng(1)
    n, reps, hurst, dt = 256, 3000, 0.7, 0.125
    ends = np.array([sample_fbm(hurst, n, dt, rng).values[[64, 128, 256]] for _ in range(reps)])
    var = ends.var(axis=0)
    t = np.array([64, 128, 256]) * dt
    expected = t ** (2 * hurst)
    se = expected * np.sqrt(2.0 / reps)
    assert np.all(np.abs(var - expected) < 4 * se)


def test_fbm_increment_autocovariance():
    rng = np.random.default_rng(2)
    n, reps, hurst = 128, 5000, 0.75
    acov = np.zeros(6)
    for _ in range(reps):
        inc = np.diff(sample_fbm(hurst, n, 1.0, rng).values)
        for k in range(6):
            acov[k] += np.mean(inc[k:] * inc[: n - k] if k else inc * inc)
    acov /= reps
    expected = fgn_autocovariance(hurst, np.arange(6))
    assert np.all(np.abs(acov - expected) < 4 / np.sqrt(reps * n / 4))


def test_fbm_h_half_is_brownian():
    rng = np.random.default_rng(3)
    inc = np.diff(sample_fbm(0.5, 2**12, 1.0, rng).values)
    lag1 = np.mean(inc[1:] * inc[:-1])
    assert abs(lag1) < 4 / np.sqrt(inc.size)


def test_fbm_starts_at_zero_and_shapes():
    path = sample_fbm(0.6, 100, 0.25, np.random.default_rng(0))
    assert path.values[0] == 0.0
    assert path.n == 101
    assert path.horizon == pytest.approx(25.0)


def test_partial_sum_map_is_exact_for_small_n():
    # the embedding is the only route, down to n = 1: L^T L is the exact fBm
    # covariance of B at the integer times 1..n
    for n in range(1, 16):
        k = np.arange(1, n + 1)
        for hurst in (0.05, 0.3, 0.5, 0.75, 0.95):
            pick_map = fbm_mod.partial_sum_map(hurst, n, k)
            assert pick_map.shape == (2 * n, n)
            two_h = 2.0 * hurst
            exact = 0.5 * (k[:, None] ** two_h + k ** two_h
                           - np.abs(k[:, None] - k).astype(float) ** two_h)
            np.testing.assert_allclose(pick_map.T @ pick_map, exact, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("n", [8, 16, 1024, 2**14])
@pytest.mark.parametrize("hurst", [0.3, 0.5, 0.75, 0.9])
def test_batched_fgn_matches_per_path_draws(hurst, n):
    # row r of one size-k draw is the r-th of k per-path draws on the same stream
    k = 3
    rngs = [np.random.default_rng([17, n]) for _ in range(3)]
    batched = sample_fgn(hurst, n, rngs[0], size=k)
    oracle = np.array([per_path_fgn(hurst, n, rngs[1]) for _ in range(k)])
    single = np.array([sample_fgn(hurst, n, rngs[2]) for _ in range(k)])
    assert batched.shape == (k, n)
    np.testing.assert_allclose(batched, oracle, rtol=0.0, atol=1e-14)
    np.testing.assert_allclose(batched, single, rtol=0.0, atol=1e-14)
    assert rngs[0].bit_generator.state == rngs[1].bit_generator.state
    assert rngs[0].bit_generator.state == rngs[2].bit_generator.state


@pytest.mark.parametrize("size", [None, 4])
@pytest.mark.parametrize("n", [16, 1024, 2**14])
@pytest.mark.parametrize("hurst", [0.3, 0.75, 0.9])
def test_fgn_matches_frozen_assembly(hurst, n, size):
    # the pre-scaled root changes only the rounding of the same draws
    rngs = [np.random.default_rng([23, n]) for _ in range(2)]
    got = sample_fgn(hurst, n, rngs[0], size=size)
    want = reference_sample_fgn(hurst, n, rngs[1], size=size)
    assert got.shape == want.shape
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-14 * np.abs(want).max())
    assert rngs[0].bit_generator.state == rngs[1].bit_generator.state


@pytest.mark.parametrize("n", [8, 16, 1024])
@pytest.mark.parametrize("hurst", [0.3, 0.75, 0.9])
def test_partial_sum_map_matches_cumsum_of_fgn(hurst, n):
    # normals @ map equals the cumulative fGn rows drawn from the same stream,
    # read at the ends
    ends = np.array([1, 3, n // 2, n - 1, n])
    rngs = [np.random.default_rng([31, n]) for _ in range(2)]
    pick_map = fbm_mod.partial_sum_map(hurst, n, ends)
    assert pick_map.shape == (2 * n, ends.size)
    got = rngs[0].standard_normal((5, pick_map.shape[0])) @ pick_map
    want = np.cumsum(sample_fgn(hurst, n, rngs[1], size=5), axis=1)[:, ends - 1]
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-14 * np.abs(want).max())
    assert rngs[0].bit_generator.state == rngs[1].bit_generator.state


class _Replay:
    """Stands in for a generator whose next draw is `normals`."""

    def __init__(self, normals):
        self.normals = normals

    def standard_normal(self, shape):
        assert shape == self.normals.shape
        return self.normals


@pytest.mark.parametrize("n", [16, 100, 1024])
def test_cov_cell_picks_match_cumsum_route(n, monkeypatch):
    # the cell's one product per chunk of normals gives B at the picks that the
    # full cumulative paths built from the same normals give, and the chunks
    # are the normals one `sample_fgn` call of all the paths would draw
    draws, products = [], []

    class RecordedDraw(np.ndarray):
        """Normals that keep each matrix product taken of them."""

        def __matmul__(self, other):
            out = np.asarray(self) @ other
            products.append(out)
            return out

    class RecordingRng:
        def __init__(self, rng):
            self.rng = rng

        def standard_normal(self, shape):
            normals = self.rng.standard_normal(shape)
            draws.append(normals)
            return normals.view(RecordedDraw)

    default_rng = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda seed: RecordingRng(default_rng(seed)))
    hurst, n_paths, seed = 0.75, 1100, 7
    experiments._fbm_cov_cell(hurst, n_paths, n, seed)  # at least two chunks at every n
    picks = np.maximum(np.linspace(n // 5, n, 5).astype(int), 1)
    assert len(products) == len(draws) > 1
    np.testing.assert_array_equal(
        np.concatenate(draws),
        default_rng([seed, int(hurst * 1000)]).standard_normal((n_paths, 2 * n)))
    for normals, got in zip(draws, products):
        rows = sample_fgn(hurst, n, _Replay(normals), size=normals.shape[0])
        want = reference_fbm_picks(rows, picks, hurst)
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-14 * np.abs(want).max())


def test_embedding_root_is_cached_and_read_only():
    root = fbm_mod._embedding_root(0.75, 1024)
    assert root is fbm_mod._embedding_root(0.75, 1024)
    assert root.shape == (1025,)
    with pytest.raises(ValueError):
        root[0] = 1.0


@pytest.mark.parametrize("n", [16, 100, 1024])
def test_chunked_cov_cell_matches_per_path_oracle(n):
    # 300 paths leave a partial last chunk at every n
    for hurst in (0.6, 0.75):
        cell = experiments._fbm_cov_cell(hurst, 300, n, 7)
        assert cell["metrics"]["worst_dev_se"] == pytest.approx(
            per_path_cov_cell(hurst, 300, n, 7), rel=1e-12)


def test_cov_cell_memory_does_not_grow_with_paths():
    experiments._fbm_cov_cell(0.75, 400, 1024, 3)  # fill the spectrum and FFT caches

    def peak(n_paths):
        tracemalloc.start()
        try:
            experiments._fbm_cov_cell(0.75, n_paths, 1024, 3)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    big, small = peak(4000), peak(400)
    assert big < 4 * 2**20
    # equal up to a few kB of interpreter noise; 5 picks per path kept for
    # 3 600 more paths would add 144 kB
    assert big <= small + 16 * 2**10


def test_mixed_path_delta_zero_is_pure_fbm():
    rng1 = np.random.default_rng(5)
    rng2 = np.random.default_rng(5)
    pure = sample_mixed(0.75, 0.0, 256, 1.0, rng1)
    spawned = rng2.spawn(2)[0]
    ref = sample_fbm(0.75, 256, 1.0, spawned)
    np.testing.assert_allclose(pure.values, ref.values)


def test_mixed_path_qv_tracks_wiener_component():
    rng = np.random.default_rng(6)
    n, dt, delta = 2**12, 1.0 / 2**12, 1.5
    qvs = [quadratic_variation(sample_mixed(0.75, delta, n, dt, rng)) for _ in range(40)]
    assert np.mean(qvs) == pytest.approx(delta**2, rel=0.15)  # QV ≈ delta^2 * T, T = 1


def test_mixed_small_scale_hurst_near_half():
    rng = np.random.default_rng(7)
    path = sample_mixed(0.75, 1.0, 2**14, 1.0 / 2**10, rng)
    # the Wiener component dominates fine lags, the fractional one coarse lags
    fine = hurst_variogram(path, min_lag=1, max_lag=16)
    coarse = hurst_variogram(path, min_lag=64, max_lag=path.n // 4)
    assert abs(fine.h_hat - 0.5) < 0.07
    assert coarse.h_hat > fine.h_hat


# -- estimators -----------------------------------------------------------------

@pytest.mark.parametrize("hurst", [0.5, 0.75])
def test_estimators_recover_hurst(hurst):
    rng = np.random.default_rng(8)
    path = sample_fbm(hurst, 2**14, 1.0, rng)
    est_v = hurst_variogram(path)
    est_a = hurst_aggregated_variance(path)
    assert abs(est_v.h_hat - hurst) < 0.05
    assert abs(est_a.h_hat - hurst) < 0.05
    assert est_v.r_squared > 0.98


def test_estimators_scale_invariant():
    rng = np.random.default_rng(9)
    path = sample_fbm(0.7, 2**12, 1.0, rng)
    scaled = SamplePath(dt=path.dt, values=-3.7 * path.values)
    assert hurst_variogram(scaled).h_hat == pytest.approx(hurst_variogram(path).h_hat, rel=1e-9)
    assert hurst_aggregated_variance(scaled).h_hat == pytest.approx(
        hurst_aggregated_variance(path).h_hat, rel=1e-9)


def test_variogram_robust_to_drift_aggvar_flags_it():
    rng = np.random.default_rng(10)
    path = sample_fbm(0.75, 2**14, 1.0, rng)
    t = path.times
    drifted = SamplePath(dt=path.dt, values=path.values + 0.1 * t)
    small = hurst_variogram(drifted, max_lag=32)
    assert abs(small.h_hat - 0.75) < 0.08  # small lags barely see the drift
    flagged = hurst_aggregated_variance(drifted)
    clean = hurst_aggregated_variance(path)
    # drift bends the aggregated-moment curve at coarse blocks: fit quality drops
    assert flagged.r_squared < clean.r_squared - 0.001


def test_estimator_rejects_short_and_degenerate():
    with pytest.raises(ValueError, match="2\\^10"):
        hurst_variogram(SamplePath(dt=1.0, values=np.random.default_rng(0).standard_normal(100)))
    flat = SamplePath(dt=1.0, values=np.zeros(2**11))
    with pytest.raises(ValueError, match="degenerate"):
        hurst_variogram(flat)


def test_hurst_estimate_invariants():
    with pytest.raises(ValueError):
        HurstEstimate(h_hat=1.2, stderr=0.01, method="x", r_squared=1.0, n_scales=5)
    with pytest.raises(ValueError):
        HurstEstimate(h_hat=0.5, stderr=-1.0, method="x", r_squared=1.0, n_scales=5)


# -- quadratic variation -----------------------------------------------------------

def test_qv_wiener_near_horizon():
    rng = np.random.default_rng(11)
    qvs = [quadratic_variation(sample_fbm(0.5, 2**12, 1.0 / 2**12, rng)) for _ in range(50)]
    assert np.mean(qvs) == pytest.approx(1.0, abs=0.02)


def test_qv_fbm_vanishes_under_refinement():
    rng = np.random.default_rng(12)
    path = sample_fbm(0.75, 2**14, 1.0 / 2**14, rng)
    qv_coarse = quadratic_variation(path, block=64)
    qv_mid = quadratic_variation(path, block=16)
    qv_fine = quadratic_variation(path, block=4)
    # QV scales like (block dt)^{2H-1}: factor 2 per two dyadic levels
    assert qv_mid < qv_coarse / 1.6
    assert qv_fine < qv_mid / 1.6


def test_qv_wiener_refinement_stable():
    rng = np.random.default_rng(13)
    path = sample_fbm(0.5, 2**14, 1.0 / 2**14, rng)
    ratios = quadratic_variation(path, block=1) / quadratic_variation(path, block=16)
    assert 0.9 < ratios < 1.1


def test_qv_smooth_path_zero():
    # QV of a C^1 path scales like dt: refining the grid drives it to zero
    def qv_at(n):
        t = np.linspace(0.0, 1.0, n + 1)
        return quadratic_variation(SamplePath(dt=t[1], values=np.sin(2 * np.pi * t)))

    assert qv_at(2**14) < 2e-3
    assert qv_at(2**14) < qv_at(2**10) / 10


def test_qv_block_must_divide():
    path = sample_fbm(0.5, 100, 0.01, np.random.default_rng(0))
    with pytest.raises(ValueError):
        quadratic_variation(path, block=7)
