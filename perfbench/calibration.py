"""Calibration kernels: fixed work of the same character as each workload.

The benchmark runs on machines shared with other tenants, where the speed of
a core moves by a quarter or more for minutes at a time.  No statistic over
one 30-second run removes a drift that lasts longer than the run.  So the
kernel of the workload is timed right before and after every operation (and
right after set-up).  The operation's time is then scaled by
REFERENCE_S / (mean of the kernel times): it is reported in seconds at the
speed at which the kernel takes REFERENCE_S.  The kernels are benchmark code
and use only numpy, so no change to the semimarket package can move them.

Each kernel imitates the hot loop of its workload, because kinds of code gain
or lose by different shares when the machine's speed moves:
  renewal  one Python step per grid point with a windowed dot product, as in
           the forward substitution of the Volterra solver;
  market   vectorised jump rounds over 1 000 agents, then a sort and an
           interpolation of the merged events;
  stats    many short complex FFTs, as in circulant-embedding fGn sampling.
"""
from __future__ import annotations

import time

import numpy as np

_WINDOWED = np.random.default_rng(1).random(20000)
_CUM_ROW = np.array([0.3, 0.6, 1.0])
_GRID = np.linspace(0.0, 1.0, 16385)


def _renewal():
    acc = 0.0
    for m in range(1, 16000):
        lo = max(0, m - 512)
        acc += float(np.dot(_WINDOWED[lo:m], _WINDOWED[: m - lo][::-1]))
    return acc


def _market():
    rng = np.random.default_rng(3)
    for _ in range(250):
        nxt = (rng.random(1000)[:, None] > _CUM_ROW).sum(axis=1)
        rng.pareto(1.5, int(np.count_nonzero(nxt == 1)) + 1)
    t = rng.random(200000)
    order = np.argsort(t, kind="stable")
    return np.interp(_GRID, t[order], np.cumsum(t[order]))[-1]


def _stats():
    rng = np.random.default_rng(2)
    acc = 0.0
    for _ in range(400):
        z = rng.standard_normal(2048) + 1j * rng.standard_normal(2048)
        acc += float(np.fft.ifft(z).real[:1024].cumsum()[-1])
    return acc


KERNELS = {"renewal-long": _renewal, "market-replicates": _market, "stats-short": _stats}

# Reference kernel times: about the typical times on the machine the first
# baseline was measured on (a 2-vCPU Intel Xeon VM at 2.1 GHz, Python 3.11.7,
# numpy 2.4.6).  They fix the unit of the reported times and never change.
REFERENCE_S = {"renewal-long": 0.055, "market-replicates": 0.048, "stats-short": 0.060}


def kernel_time(workload):
    """Wall seconds of one run of the workload's kernel."""
    t0 = time.perf_counter()
    KERNELS[workload]()
    return time.perf_counter() - t0
