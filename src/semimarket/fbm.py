"""Fractional Brownian motion generation and Hurst estimation.

The generator embeds the fractional-Gaussian-noise covariance in a 2n-point
circulant (Davies-Harte, Wood-Chan), exact in law and O(n log n).  Its
spectrum depends only on (H, n), so its square root, with the FFT's sqrt(2n)
and the 1/sqrt(2) of the complex pairs folded in, is computed once by a real
FFT and cached; k paths are one (k, 2n) normal draw, one complex multiply by
that root and one real inverse FFT over the rows.  The minimal embedding of
fGn is nonnegative definite for every H in (0, 1) and every n (Craigmile
2003), so it is the only route.  A row is one fixed linear map of its
normals, and `partial_sum_map` is that map transposed onto a few partial
sums: a caller that needs B at a handful of times reads them by one product
with the same normals, with no inverse FFT.  Two independent log-log
regression estimators (aggregated variance, variogram) serve as the
verification instruments for the scaling-limit experiments.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .paths import SamplePath

__all__ = [
    "HurstEstimate",
    "fgn_autocovariance",
    "sample_fgn",
    "partial_sum_map",
    "sample_fbm",
    "hurst_aggregated_variance",
    "hurst_variogram",
    "fit_line",
    "quadratic_variation",
]


@dataclass(frozen=True)
class HurstEstimate:
    h_hat: float
    stderr: float
    method: str
    r_squared: float
    n_scales: int

    def __post_init__(self):
        if not 0.0 < self.h_hat < 1.0:
            raise ValueError(f"Hurst estimate {self.h_hat} outside (0,1); degenerate input?")
        if self.stderr < 0.0:
            raise ValueError("stderr must be nonnegative")


def fgn_autocovariance(hurst, lag):
    """Autocovariance of unit-variance fractional Gaussian noise at integer lag."""
    if not 0.0 < hurst < 1.0:
        raise ValueError(f"Hurst parameter must lie in (0,1), got {hurst}")
    k = np.abs(np.asarray(lag, dtype=float))
    two_h = 2.0 * hurst
    return 0.5 * ((k + 1.0) ** two_h - 2.0 * k**two_h + np.abs(k - 1.0) ** two_h)


@functools.lru_cache(maxsize=8)
def _embedding_root(hurst, n):
    """Read-only scaled sqrt of the 2n circulant-embedding eigenvalues 0..n.

    The circulant is symmetric, so `rfft` gives its eigenvalues and the other
    n - 1 repeat these; an eigenvalue below -1e-8, which fGn's embedding never
    has, raises ValueError.  Entry k is sqrt(2n * eig_k), halved in variance
    (sqrt(n * eig_k)) for the complex terms 0 < k < n, so one product with the
    normals is the spectrum whose `irfft` is the path.
    """
    if n < 1:
        raise ValueError("need at least one increment")
    row = fgn_autocovariance(hurst, np.arange(n + 1))
    eig = np.fft.rfft(np.concatenate([row, row[-2:0:-1]])).real
    if eig.min() < -1e-8:
        raise ValueError(f"circulant embedding of fGn (H={hurst}, n={n}) has a negative "
                         f"eigenvalue {eig.min():.3e}")
    scale = np.full(n + 1, float(n))
    scale[[0, n]] = 2.0 * n
    root = np.sqrt(np.clip(eig, 0.0, None) * scale)
    root.flags.writeable = False
    return root


def sample_fgn(hurst, n, rng, size=None):
    """Unit-variance fGn by circulant embedding: shape (n,), or (size, n) for an int size.

    Each row draws 2n standard normals (z0, z_n, then re/im pairs), so row r
    equals the r-th of `size` single-path calls on the same stream.
    """
    k = 1 if size is None else size
    root = _embedding_root(hurst, n)
    g = rng.standard_normal((k, 2 * n))
    spec = np.empty((k, n + 1), dtype=complex)
    np.multiply(g.view(complex), root[:n], out=spec[:, :n])
    spec[:, 0] = g[:, 0] * root[0]
    spec[:, n] = g[:, 1] * root[n]
    rows = np.fft.irfft(spec, 2 * n, axis=1)[:, :n]
    return rows[0] if size is None else rows


def partial_sum_map(hurst, n, ends):
    """Matrix L with (normals @ L)[:, c] = sum of the first ends[c] fGn steps.

    `normals` are the rows of 2n that `sample_fgn(hurst, n, ...)` draws, so L
    has 2n rows.  L is the adjoint of the rows' `irfft`: the length-2n `rfft`
    of the step indicators, weighted by the root, with z0 and z_n taking the
    real k = 0 and k = n terms and the pair (2k, 2k + 1) the real and
    imaginary part of term k.
    """
    ind = np.arange(n)[:, None] < np.asarray(ends)
    # irfft divides by 2n and counts each complex term 0 < k < n twice
    spec = np.fft.rfft(ind, 2 * n, axis=0) * (_embedding_root(hurst, n)[:, None] / n)
    out = np.empty((n, 2, ind.shape[1]))
    out[:, 0] = spec[:n].real
    out[:, 1] = spec[:n].imag
    out[0] = 0.5 * spec[[0, n]].real
    return out.reshape(2 * n, ind.shape[1])


def sample_fbm(hurst, n, dt, rng) -> SamplePath:
    """Fractional Brownian motion on n+1 grid points, B(0) = 0.

    Exact Gaussian law: Cov(B_s, B_t) = (s^2H + t^2H - |t-s|^2H)/2; increments
    are fGn scaled by dt^H.
    """
    if n < 2:
        raise ValueError("need at least two increments")
    fgn = sample_fgn(hurst, n, rng) * dt**hurst
    return SamplePath(dt=dt, values=np.concatenate([[0.0], np.cumsum(fgn)]))


def fit_line(x, y):
    """Ordinary least squares y = slope * x + intercept: (slope, intercept, stderr, r2).

    stderr is the standard error of the slope (0 for two points); r2 is 1 for
    a y constant to rounding (ss_tot <= eps sum y^2) and NaN for a non-finite one.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    a = np.column_stack([x, np.ones_like(x)])
    coef, *_ = np.linalg.lstsq(a, y, rcond=None)
    ss_res = float(np.sum((y - a @ coef) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot <= np.finfo(float).eps * np.sum(y**2) else 1.0 - ss_res / ss_tot
    if x.size > 2:
        stderr = float(np.sqrt(ss_res / (x.size - 2) / np.sum((x - x.mean()) ** 2)))
    else:
        stderr = 0.0
    return float(coef[0]), float(coef[1]), stderr, r2


def _loglog_hurst(n, min_scale, max_scale, moment, h_at_zero_slope, method):
    """Hurst estimate from the log-log OLS slope of `moment` on dyadic scales.

    `n` samples must reach 2^10; the scales double from `min_scale` to
    `max_scale` (default n // 32), and H = h_at_zero_slope + slope / 2.
    """
    if n < 2**10:
        raise ValueError("need at least 2^10 samples for a stable estimate")
    scales = [min_scale]
    while 2 * scales[-1] <= (max_scale or n // 32):
        scales.append(2 * scales[-1])
    scales = np.array(scales)
    if scales.size < 5:
        raise ValueError(f"fewer than 5 dyadic scales available for the {method}")
    moments = np.array([moment(s) for s in scales])
    if np.any(moments <= 0.0):
        raise ValueError(f"degenerate path: zero {method} moment")
    slope, _, stderr, r2 = fit_line(np.log(scales), np.log(moments))
    return HurstEstimate(h_hat=h_at_zero_slope + slope / 2.0, stderr=stderr / 2.0,
                         method=method, r_squared=r2, n_scales=scales.size)


def hurst_aggregated_variance(path: SamplePath, min_block=1, max_block=None) -> HurstEstimate:
    """Hurst estimate from block-aggregated increment variance.

    Uncentered second moments of block means of the increments scale like
    m^(2H-2); the log-log OLS slope maps to H = 1 + slope/2.  Increments are
    taken as mean zero, so a deterministic drift shows up as a poor R^2.
    """
    inc = np.diff(path.values)

    def block_moment(m):
        k = inc.size // m
        return np.mean(inc[: k * m].reshape(k, m).mean(axis=1) ** 2)

    return _loglog_hurst(inc.size, min_block, max_block, block_moment, 1.0,
                         "aggregated_variance")


def hurst_variogram(path: SamplePath, min_lag=1, max_lag=None) -> HurstEstimate:
    """Hurst estimate from the order-2 variogram E(X_{t+tau} - X_t)^2 ~ tau^2H."""
    x = path.values
    return _loglog_hurst(x.size, min_lag, max_lag,
                         lambda lag: np.mean((x[lag:] - x[:-lag]) ** 2), 0.0, "variogram")


def quadratic_variation(path: SamplePath, block=1):
    """Sum of squared increments over a coarsened grid with the given block spacing."""
    x = path.values
    n_inc = x.size - 1
    if block < 1 or n_inc % block != 0:
        raise ValueError("block must divide the number of increments")
    sub = x[::block]
    return float(np.sum(np.diff(sub) ** 2))
