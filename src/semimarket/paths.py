"""Uniformly sampled real-valued paths shared by the generators and estimators."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["SamplePath"]


@dataclass(frozen=True)
class SamplePath:
    """Discretely sampled path on the uniform grid t_k = k * dt."""

    dt: float
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1 or values.size < 2:
            raise ValueError("SamplePath needs a 1-d array of at least two samples")
        if not np.all(np.isfinite(values)):
            raise ValueError("SamplePath values must be finite")
        if not self.dt > 0.0:
            raise ValueError("SamplePath dt must be positive")
        object.__setattr__(self, "values", values)

    @property
    def n(self):
        return self.values.size

    @property
    def horizon(self):
        return self.dt * (self.n - 1)

    @property
    def times(self):
        return self.dt * np.arange(self.n)

    def at(self, t):
        """Linear interpolation of the path at time(s) t."""
        return np.interp(t, self.times, self.values)

    def to_csv(self, path):
        """Write the path as CSV with columns t,value."""
        rows = np.column_stack([self.times, self.values]).ravel().tolist()
        with open(path, "w") as fh:
            fh.write("t,value\n" + ("%.18e,%.18e\n" * self.n) % tuple(rows))
