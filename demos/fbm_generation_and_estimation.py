"""Generate exact fractional Brownian motion and recover H with two estimators.

The circulant-embedding generator is exact in law; the aggregated-variance and
variogram estimators are the instruments later used on simulated markets, so
this script doubles as their calibration check.
"""
import numpy as np

from semimarket import fgn_autocovariance, hurst_aggregated_variance, hurst_variogram, \
    sample_fbm, sample_fgn

rng = np.random.default_rng(2024)

print("autocovariance of fGn at H=0.75, lags 0..5:")
print("  ", np.round(fgn_autocovariance(0.75, np.arange(6)), 4))

for hurst in (0.5, 0.6, 0.75, 0.9):
    path = sample_fbm(hurst, n=2**14, dt=1.0, rng=rng)
    est_v = hurst_variogram(path, max_lag=64)
    est_a = hurst_aggregated_variance(path, max_block=64)
    print(f"H = {hurst:4.2f}: variogram {est_v.h_hat:.3f} +- {est_v.stderr:.3f}"
          f" | aggregated variance {est_a.h_hat:.3f} (R^2 {est_a.r_squared:.3f})")

# empirical variance at a few times vs the self-similar law t^{2H}
hurst = 0.75
# 4000 paths in one draw: row k is the k-th path's increments, scaled by dt^H
paths = np.cumsum(sample_fgn(hurst, 512, rng, size=4000) * (1 / 512) ** hurst, axis=1)
ends = paths[:, [127, 255, 511]]  # B at steps 128, 256, 512
t = np.array([128, 256, 512]) / 512
print("Var(B_t) empirical:", np.round(ends.var(axis=0), 4), " exact:", np.round(t ** (2 * hurst), 4))
