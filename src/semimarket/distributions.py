"""Sojourn-time distributions: exact tails, means and samplers.

Two regimes matter for the market model: heavy-tailed (regularly varying,
index 1 < alpha < 2) laws for the inactive state and light-tailed laws for
the active states.  Every family exposes closed-form survival/CDF/mean,
inverse-CDF sampling, and the length-biased residual ("equilibrium")
transform used to initialise stationary trajectories.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SojournLaw",
    "Pareto",
    "ParetoLog",
    "Exponential",
    "Uniform",
    "law_from_config",
]


def _bisect_decreasing(fn, targets, lo, hi, iters=80):
    """Vectorized bisection: find t with fn(t) = target for decreasing fn."""
    lo = np.broadcast_to(np.asarray(lo, dtype=float), targets.shape).copy()
    hi = np.broadcast_to(np.asarray(hi, dtype=float), targets.shape).copy()
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        high = fn(mid) > targets
        lo = np.where(high, mid, lo)
        hi = np.where(high, hi, mid)
    return 0.5 * (lo + hi)


class SojournLaw:
    """Positive sojourn-time law. Subclasses are immutable value types.

    `tail_index` is the regular-variation index of the survival function,
    or None for light-tailed families.
    """

    tail_index: float | None = None

    # -- closed-form characteristics -------------------------------------
    def tail(self, t):
        """P{X >= t} (survival function)."""
        raise NotImplementedError

    def cdf(self, t):
        return 1.0 - self.tail(t)

    @property
    def mean(self):
        raise NotImplementedError

    def integrated_tail(self, t):
        """∫_t^∞ tail(s) ds; integrated_tail(0) == mean."""
        raise NotImplementedError

    @property
    def is_heavy(self):
        return self.tail_index is not None

    # -- sampling ---------------------------------------------------------
    def ppf(self, u):
        raise NotImplementedError

    def equilibrium_ppf(self, u):
        """Quantile of the residual-life law with density tail(t)/mean."""
        u = np.asarray(u, dtype=float)
        targets = (1.0 - u) * self.mean
        hi = self._equilibrium_upper(np.min(targets))
        return _bisect_decreasing(self.integrated_tail, targets, 0.0, hi)

    def _equilibrium_upper(self, smallest_target):
        hi = max(self.mean, 1.0)
        while self.integrated_tail(hi) > smallest_target:
            hi *= 2.0
        return hi

    def sample(self, rng, size=None):
        return self.ppf(rng.random(size))

    def equilibrium_sample(self, rng, size=None):
        return self.equilibrium_ppf(rng.random(size))


@dataclass(frozen=True)
class Pareto(SojournLaw):
    """Support [scale, inf), tail (t/scale)^(-alpha). Finite mean needs alpha > 1."""

    scale: float
    alpha: float

    def __post_init__(self):
        if not self.alpha > 1.0:
            raise ValueError(f"Pareto needs alpha > 1 for a finite mean, got {self.alpha}")
        if not self.scale > 0.0:
            raise ValueError(f"Pareto scale must be positive, got {self.scale}")

    @property
    def tail_index(self):
        return self.alpha

    def tail(self, t):
        t = np.asarray(t, dtype=float)
        with np.errstate(divide="ignore"):
            return np.where(t < self.scale, 1.0, (np.maximum(t, self.scale) / self.scale) ** -self.alpha)

    @property
    def mean(self):
        return self.scale * self.alpha / (self.alpha - 1.0)

    def integrated_tail(self, t):
        t = np.asarray(t, dtype=float)
        above = (self.scale / (self.alpha - 1.0)) * (np.maximum(t, self.scale) / self.scale) ** (1.0 - self.alpha)
        return np.where(t < self.scale, self.mean - t, above)

    def ppf(self, u):
        u = np.asarray(u, dtype=float)
        return self.scale * (1.0 - u) ** (-1.0 / self.alpha)

    def equilibrium_ppf(self, u):
        u = np.asarray(u, dtype=float)
        below = u * self.mean
        above = self.scale * (self.alpha * (1.0 - u)) ** (1.0 / (1.0 - self.alpha))
        return np.where(u < self.scale / self.mean, below, above)


@dataclass(frozen=True)
class ParetoLog(SojournLaw):
    """Heavy tail with a logarithmic slowly varying factor.

    tail(t) = (t/scale)^(-alpha) * (1 + log(t/scale)) for t >= scale.
    The log factor keeps integrated tails elementary.
    """

    scale: float
    alpha: float

    def __post_init__(self):
        if not self.alpha > 1.0:
            raise ValueError(f"ParetoLog needs alpha > 1, got {self.alpha}")
        if not self.scale > 0.0:
            raise ValueError(f"ParetoLog scale must be positive, got {self.scale}")

    @property
    def tail_index(self):
        return self.alpha

    def tail(self, t):
        t = np.asarray(t, dtype=float)
        y = np.maximum(t, self.scale) / self.scale
        return np.where(t < self.scale, 1.0, y**-self.alpha * (1.0 + np.log(y)))

    @property
    def mean(self):
        a = self.alpha
        return self.scale * (1.0 + (1.0 + 1.0 / (a - 1.0)) / (a - 1.0))

    def integrated_tail(self, t):
        t = np.asarray(t, dtype=float)
        a = self.alpha
        y = np.maximum(t, self.scale) / self.scale
        above = (self.scale / (a - 1.0)) * y ** (1.0 - a) * (1.0 + np.log(y) + 1.0 / (a - 1.0))
        return np.where(t < self.scale, self.mean - t, above)

    def ppf(self, u):
        u = np.asarray(u, dtype=float)
        targets = 1.0 - u
        hi = self.scale * np.maximum(np.min(targets), 1e-300) ** (-2.0 / self.alpha) * 4.0
        return _bisect_decreasing(self.tail, targets, self.scale, hi)


@dataclass(frozen=True)
class Exponential(SojournLaw):
    rate: float

    def __post_init__(self):
        if not self.rate > 0.0:
            raise ValueError(f"Exponential rate must be positive, got {self.rate}")

    def tail(self, t):
        return np.exp(-self.rate * np.asarray(t, dtype=float))

    @property
    def mean(self):
        return 1.0 / self.rate

    def integrated_tail(self, t):
        return self.tail(t) / self.rate

    def ppf(self, u):
        return -np.log1p(-np.asarray(u, dtype=float)) / self.rate

    def equilibrium_ppf(self, u):
        # memoryless: residual life is the law itself
        return self.ppf(u)


@dataclass(frozen=True)
class Uniform(SojournLaw):
    lo: float
    hi: float

    def __post_init__(self):
        if not (0.0 <= self.lo < self.hi):
            raise ValueError(f"Uniform needs 0 <= lo < hi, got ({self.lo}, {self.hi})")

    def tail(self, t):
        t = np.asarray(t, dtype=float)
        return np.clip((self.hi - t) / (self.hi - self.lo), 0.0, 1.0)

    @property
    def mean(self):
        return 0.5 * (self.lo + self.hi)

    def integrated_tail(self, t):
        t = np.asarray(t, dtype=float)
        mid = (self.hi - np.clip(t, self.lo, self.hi)) ** 2 / (2.0 * (self.hi - self.lo))
        return np.where(t < self.lo, self.mean - t, mid)

    def ppf(self, u):
        return self.lo + (self.hi - self.lo) * np.asarray(u, dtype=float)

    def equilibrium_ppf(self, u):
        u = np.asarray(u, dtype=float)
        m = self.mean
        below = u * m
        inner = np.clip((self.hi - self.lo) ** 2 - 2.0 * (self.hi - self.lo) * (u * m - self.lo), 0.0, None)
        above = self.hi - np.sqrt(inner)
        return np.where(u < self.lo / m, below, above)


_FAMILIES = {
    "pareto": lambda p: Pareto(scale=float(p["scale"]), alpha=float(p["alpha"])),
    "pareto_log": lambda p: ParetoLog(scale=float(p["scale"]), alpha=float(p["alpha"])),
    "exponential": lambda p: Exponential(rate=float(p["rate"])),
    "uniform": lambda p: Uniform(lo=float(p["lo"]), hi=float(p["hi"])),
}


def law_from_config(params: dict) -> SojournLaw:
    """Build a law from a config literal, e.g. {"family": "pareto", "scale": 1.0, "alpha": 1.5}."""
    kind = params.get("family")
    if kind not in _FAMILIES:
        raise ValueError(f"unknown sojourn family {kind!r}; known: {sorted(_FAMILIES)}")
    return _FAMILIES[kind](params)
