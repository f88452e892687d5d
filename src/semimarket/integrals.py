"""Left-endpoint Stieltjes-sum stochastic integration and its exact identities.

All integrals are limits (in probability) of sums phi_{tau_i} (Z_{tau_{i+1}} -
Z_{tau_i}) over refining partitions; only the left-endpoint convention is
implemented.  The module provides the refinement ladder, the integration-by-
parts construction against fractional Brownian motion, the self-integral /
quadratic-variation identity, and cross variation with its Cauchy-Schwarz
bound.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .paths import SamplePath

__all__ = [
    "PartitionLadder",
    "stieltjes_integral",
    "integration_by_parts_residual",
    "self_integral_identity",
    "cross_variation",
]


@dataclass(frozen=True)
class PartitionLadder:
    """Dyadic refinements of [0, T]: level L-1 is the paths' own grid."""

    n_increments: int
    n_levels: int

    def __post_init__(self):
        if self.n_levels < 2:
            raise ValueError("a ladder needs at least two levels")
        if self.n_increments % 2 ** (self.n_levels - 1) != 0:
            raise ValueError("finest grid size must be divisible by 2^(levels-1)")

    def stride(self, level):
        return 2 ** (self.n_levels - 1 - level)

    def indices(self, level):
        """Indices of the level's partition points in the finest grid (0 and T included)."""
        return np.arange(0, self.n_increments + 1, self.stride(level))


def _left_sum_path(phi, z, idx):
    """Cumulative left-endpoint sums along one partition level."""
    increments = phi[idx[:-1]] * np.diff(z[idx])
    return np.concatenate([[0.0], np.cumsum(increments)])


def stieltjes_integral(phi: SamplePath, z: SamplePath, ladder: PartitionLadder):
    """Left-endpoint sums of ∫ phi dZ across the ladder.

    Returns the cumulative integral path on the finest level and a diagnostic
    with the per-level values at T; `converged` requires the level-to-level
    change at T to shrink by a factor >= 1.5 per level over the last 3 levels.
    """
    if phi.values.size != z.values.size:
        raise ValueError("integrand and integrator must share the finest grid")
    if phi.values.size != ladder.n_increments + 1:
        raise ValueError("ladder does not match the paths' grid")
    levels = []
    for level in range(ladder.n_levels):
        idx = ladder.indices(level)
        levels.append(float(_left_sum_path(phi.values, z.values, idx)[-1]))
    finest = _left_sum_path(phi.values, z.values, ladder.indices(ladder.n_levels - 1))
    diffs = np.abs(np.diff(levels))
    tail = diffs[-3:]
    if np.all(tail == 0.0):
        converged = True
    elif tail.size < 3 or np.any(tail == 0.0):
        converged = bool(tail[-1] == 0.0)
    else:
        ratios = tail[:-1] / tail[1:]
        converged = bool(np.all(ratios >= 1.5))
    report = {
        "level_values": levels,
        "level_changes": [float(d) for d in diffs],
        "converged": converged,
    }
    return SamplePath(dt=phi.dt, values=finest), report


def integration_by_parts_residual(psi: SamplePath, bh: SamplePath) -> SamplePath:
    """Residual of  -∫ B dPsi + Psi B  =  ∫ Psi dB  on the common grid.

    Both sides use left-endpoint sums on the finest partition; the residual
    equals the discrete cross variation sum(dPsi dB) and vanishes under
    refinement when Psi is a continuous semimartingale and B has zero
    quadratic variation.
    """
    if psi.values.size != bh.values.size:
        raise ValueError("paths must share one grid")
    p, b = psi.values, bh.values
    left_b_dpsi = np.concatenate([[0.0], np.cumsum(b[:-1] * np.diff(p))])
    left_psi_db = np.concatenate([[0.0], np.cumsum(p[:-1] * np.diff(b))])
    product = p * b - p[0] * b[0]
    residual = (-left_b_dpsi + product) - left_psi_db
    return SamplePath(dt=psi.dt, values=residual)


def self_integral_identity(z: SamplePath):
    """Residual z(T)^2 - 2 * sum z dz (left sums); equals sum (dz)^2 exactly.

    The identity holds path by path at machine precision; the verification that
    z has zero quadratic variation is that this quantity vanishes under grid
    refinement (true for fBm with H > 1/2, false for a Wiener path).
    """
    if z.values[0] != 0.0:
        raise ValueError("self-integral identity assumes z(0) = 0")
    v = z.values
    left = np.concatenate([[0.0], np.cumsum(v[:-1] * np.diff(v))])
    residual = v**2 - v[0] ** 2 - 2.0 * left
    qv = np.concatenate([[0.0], np.cumsum(np.diff(v) ** 2)])
    return residual, qv


def cross_variation(z: SamplePath, psi: SamplePath, ladder: PartitionLadder):
    """Per-level discrete cross variation sum(dz dpsi) with its Cauchy-Schwarz bound."""
    if z.values.size != psi.values.size:
        raise ValueError("paths must share one grid")
    out = []
    for level in range(ladder.n_levels):
        idx = ladder.indices(level)
        dz = np.diff(z.values[idx])
        dp = np.diff(psi.values[idx])
        cross = float(np.sum(dz * dp))
        qv_z = float(np.sum(dz**2))
        qv_p = float(np.sum(dp**2))
        out.append({
            "level": level,
            "cross": cross,
            "qv_z": qv_z,
            "qv_psi": qv_p,
            "cauchy_schwarz_ok": cross**2 <= qv_z * qv_p * (1.0 + 1e-12),
        })
    return out
