"""Fractional Brownian motion generation and Hurst estimation.

The generator embeds the fractional-Gaussian-noise covariance in a 2n-point
circulant (Davies-Harte, Wood-Chan), exact in law and O(n log n).  Its
spectrum depends only on (H, n), so it is computed once by a real FFT and
cached; k paths are one (k, 2n) normal draw and one real inverse FFT over the
rows.  A Cholesky fallback covers n < 16 and embeddings with negative
eigenvalues.  Two
independent log-log regression estimators (aggregated variance, variogram)
serve as the verification instruments for the scaling-limit experiments.
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
    """Read-only sqrt of the 2n circulant-embedding eigenvalues 0..n, or None.

    The circulant is symmetric, so `rfft` gives its eigenvalues and the other
    n - 1 repeat these; None means the embedding is not nonnegative definite.
    """
    row = fgn_autocovariance(hurst, np.arange(n + 1))
    eig = np.fft.rfft(np.concatenate([row, row[-2:0:-1]])).real
    if eig.min() < -1e-8:
        return None
    root = np.sqrt(np.clip(eig, 0.0, None))
    root.flags.writeable = False
    return root


def sample_fgn(hurst, n, rng, size=None):
    """Unit-variance fGn: shape (n,) for size None, (size, n) for an int.

    Each row draws 2n standard normals (z0, z_n, then re/im pairs), so row r
    equals the r-th of `size` single-path calls on the same stream.
    """
    if n < 1:
        raise ValueError("need at least one increment")
    k = 1 if size is None else size
    root = _embedding_root(hurst, n) if n >= 16 else None
    if root is None:
        lags = np.arange(n)
        chol = np.linalg.cholesky(fgn_autocovariance(hurst, np.abs(lags[:, None] - lags)))
        rows = rng.standard_normal((k, n)) @ chol.T
    else:
        g = rng.standard_normal((k, 2 * n))
        z = np.empty((k, n + 1), dtype=complex)
        z[:, 0] = g[:, 0]
        z[:, n] = g[:, 1]
        z[:, 1:n] = g[:, 2:].view(complex) / np.sqrt(2.0)
        rows = np.sqrt(2 * n) * np.fft.irfft(root * z, 2 * n, axis=1)[:, :n]
    return rows[0] if size is None else rows


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
    a constant y.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    a = np.column_stack([x, np.ones_like(x)])
    coef, *_ = np.linalg.lstsq(a, y, rcond=None)
    ss_res = float(np.sum((y - a @ coef) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0.0 else 1.0
    if x.size > 2:
        stderr = float(np.sqrt(ss_res / (x.size - 2) / np.sum((x - x.mean()) ** 2)))
    else:
        stderr = 0.0
    return float(coef[0]), float(coef[1]), stderr, r2


def _dyadic_scales(start, stop):
    scales = []
    s = start
    while s <= stop:
        scales.append(s)
        s *= 2
    return np.array(scales, dtype=int)


def hurst_aggregated_variance(path: SamplePath, min_block=1, max_block=None) -> HurstEstimate:
    """Hurst estimate from block-aggregated increment variance.

    Uncentered second moments of block means of the increments scale like
    m^(2H-2); the log-log OLS slope maps to H = 1 + slope/2.  Increments are
    taken as mean zero, so a deterministic drift shows up as a poor R^2.
    """
    inc = np.diff(path.values)
    n = inc.size
    if n < 2**10:
        raise ValueError("need at least 2^10 samples for a stable estimate")
    max_block = max_block or n // 32
    scales = _dyadic_scales(min_block, max_block)
    if scales.size < 5:
        raise ValueError("fewer than 5 dyadic scales available")
    moments = []
    for m in scales:
        k = n // m
        means = inc[: k * m].reshape(k, m).mean(axis=1)
        moments.append(np.mean(means**2))
    moments = np.asarray(moments)
    if np.any(moments <= 0.0):
        raise ValueError("degenerate path: zero block variance")
    slope, _, stderr, r2 = fit_line(np.log(scales), np.log(moments))
    return HurstEstimate(h_hat=1.0 + slope / 2.0, stderr=stderr / 2.0,
                         method="aggregated_variance", r_squared=r2, n_scales=scales.size)


def hurst_variogram(path: SamplePath, min_lag=1, max_lag=None) -> HurstEstimate:
    """Hurst estimate from the order-2 variogram E(X_{t+tau} - X_t)^2 ~ tau^2H."""
    x = path.values
    n = x.size
    if n < 2**10:
        raise ValueError("need at least 2^10 samples for a stable estimate")
    max_lag = max_lag or n // 32
    lags = _dyadic_scales(min_lag, max_lag)
    if lags.size < 5:
        raise ValueError("fewer than 5 dyadic lags available")
    vario = np.array([np.mean((x[lag:] - x[:-lag]) ** 2) for lag in lags])
    if np.any(vario <= 0.0):
        raise ValueError("degenerate path: zero variogram")
    slope, _, stderr, r2 = fit_line(np.log(lags), np.log(vario))
    return HurstEstimate(h_hat=slope / 2.0, stderr=stderr / 2.0,
                         method="variogram", r_squared=r2, n_scales=lags.size)


def quadratic_variation(path: SamplePath, block=1):
    """Sum of squared increments over a coarsened grid with the given block spacing."""
    x = path.values
    n_inc = x.size - 1
    if block < 1 or n_inc % block != 0:
        raise ValueError("block must divide the number of increments")
    sub = x[::block]
    return float(np.sum(np.diff(sub) ** 2))
