"""Aggregate market built from many independent semi-Markov agents.

Each agent holds a trading mood x^a on a sped-up clock t/eps; the market
amplitude Psi scales order sizes.  The centered integrated imbalance

    X_t = ∫_0^t sum_a Psi_s (x^a_{s/eps} - mu) ds

is accumulated exactly: all agents run through one stream of the vectorized
engine of semi_markov, and their jump events are streamed into per-cell sums
from which the piecewise-linear cumulative occupation integral follows at the
grid points.  Neither agents' paths nor their events are stored whole.  Every
market starts its agents in equilibrium and is fixed by (cfg, replicate); the
mixed market shares one inert block among its active blocks.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .distributions import Exponential
from .paths import SamplePath
from .semi_markov import SemiMarkovModel, jump_rounds, stationary_law

__all__ = [
    "AmplitudeModel",
    "MarketConfig",
    "AggregatePath",
    "simulate_amplitude",
    "simulate_market",
    "require_exponential",
    "markov_market",
    "mixed_market",
]


@dataclass(frozen=True)
class AmplitudeModel:
    """Trade-size process: the geometric diffusion dPsi = drift*Psi dt + vol*Psi dW.

    Stepped in exponential form: paths keep their sign, E[Psi_t] = initial *
    exp(drift * t) exactly at the grid points, and drift = vol = 0 gives the
    constant `initial` exactly (0 * z = ±0, exp(±0) = 1); defaults: unit Psi.
    """

    drift: float = 0.0
    vol: float = 0.0
    initial: float = 1.0

    def __post_init__(self):
        if not np.isfinite(self.initial):
            raise ValueError("amplitude initial value must be finite")
        if not self.vol >= 0.0:
            raise ValueError("diffusion volatility must be nonnegative")

    @property
    def is_unit(self):
        return self.drift == 0.0 and self.vol == 0.0 and self.initial == 1.0


def simulate_amplitude(amp: AmplitudeModel, dt, n_points, rng) -> SamplePath:
    shocks = (amp.drift - 0.5 * amp.vol**2) * dt \
        + amp.vol * np.sqrt(dt) * rng.standard_normal(n_points - 1)
    log_path = np.concatenate([[0.0], np.cumsum(shocks)])
    return SamplePath(dt=dt, values=amp.initial * np.exp(log_path))


@dataclass(frozen=True)
class MarketConfig:
    model: SemiMarkovModel
    n_agents: int
    epsilon: float
    amplitude: AmplitudeModel
    horizon: float
    seed: int
    n_grid: int = 2**13

    def __post_init__(self):
        if self.n_agents < 1:
            raise ValueError("need at least one agent")
        if not self.epsilon > 0.0:
            raise ValueError("epsilon must be positive")
        if not self.horizon > 0.0:
            raise ValueError("horizon must be positive")
        if self.n_grid < 2:
            raise ValueError("need at least two grid points")

    @property
    def dt(self):
        return self.horizon / (self.n_grid - 1)


@dataclass(frozen=True)
class AggregatePath:
    """Aggregate rate, raw and rescaled integrated imbalance, amplitude, log-price from 0."""

    dt: float
    y: np.ndarray
    x_raw: np.ndarray
    x_scaled: np.ndarray
    psi: np.ndarray
    log_price: np.ndarray
    scaling: float
    mu: float

    @property
    def times(self):
        return self.dt * np.arange(self.y.size)

    def path(self, field="x_scaled") -> SamplePath:
        return SamplePath(dt=self.dt, values=getattr(self, field))


# -- streamed occupation of the agent engine's events --------------------------

# events buffered between two binning passes.  A flush makes about ten passes
# over its events; at 2^16 events each array is 512 KB and stays in a 2 MB L2
# cache, while 2^20-event arrays (8 MB) spill to main memory and bin at half speed
_FLUSH_EVENTS = 1 << 16


class _GridBinner:
    """Streamed per-cell sums of jump events on a grid.

    An event is an epoch tau and the indices of the states left and entered;
    its mood change is delta = labels[entered] - labels[left].  An event with
    grid[g-1] < tau <= grid[g] adds delta to D_g and delta * (grid[g] - tau)
    to F_g, its share of the cell's occupation integral; only the grid and one
    buffer of events are held.  The grid is uniform from 0 (np.linspace),
    which locates a cell in O(1).
    """

    def __init__(self, grid, labels):
        self.grid = grid
        self.labels = labels
        self._below = np.concatenate([[-np.inf], grid])   # _below[g] = grid[g-1]
        self._per_step = (grid.size - 1) / grid[-1]
        self.d = np.zeros(grid.size)
        self.f = np.zeros(grid.size)
        self._times, self._src, self._dst, self._count = [], [], [], 0

    def add(self, times, src, dst):
        self._times.append(times)
        self._src.append(src)
        self._dst.append(dst)
        self._count += times.size
        if self._count >= _FLUSH_EVENTS:
            self._flush()

    def _flush(self):
        if not self._times:
            return
        t = np.concatenate(self._times)
        # the mood changes in one gather per flush: cheaper than one per jump round
        d = self.labels[np.concatenate(self._dst)] - self.labels[np.concatenate(self._src)]
        self._times, self._src, self._dst, self._count = [], [], [], 0
        cell, upper = self._cells(t)
        self.d += np.bincount(cell, d, minlength=self.grid.size)
        self.f += np.bincount(cell, d * (upper - t), minlength=self.grid.size)

    def _cells(self, t):
        """(np.searchsorted(self.grid, t), the grid value there) for 0 <= t <= grid[-1].

        The uniform spacing gives the cell in O(1) up to one step, since the
        grid values differ from k * step by rounding only; one comparison each
        way settles it.
        """
        cell = np.minimum(np.ceil(t * self._per_step).astype(np.intp), self.grid.size - 1)
        cell -= self._below[cell] >= t
        upper = self.grid[cell]
        late = upper < t
        if late.any():
            cell += late
            upper = self.grid[cell]
        return cell, upper

    def occupation(self, x0):
        """(∫_0^s Z du, Z(s)) at the grid points for Z = x0 + sum of the deltas up to s."""
        self._flush()
        rate = x0 + np.cumsum(self.d)
        cells = rate[:-1] * np.diff(self.grid) + self.f[1:]
        return np.concatenate([[0.0], np.cumsum(cells)]), rate


def _aggregate_occupation(cfg: MarketConfig, replicate, stream_base):
    """Summed mood's cumulative occupation integral and rate at the grid points.

    The cfg.n_agents agents of cfg.model run through the engine on the stream
    (seed, replicate, stream_base); time is on the agents' clock t/eps.
    """
    labels = np.array(cfg.model.states, dtype=float)
    binner = _GridBinner(np.linspace(0.0, cfg.horizon, cfg.n_grid) / cfg.epsilon, labels)
    rng = np.random.default_rng([cfg.seed, replicate, stream_base])
    rounds = jump_rounds(cfg.model, cfg.n_agents, cfg.horizon / cfg.epsilon, rng)
    x0 = float(labels[next(rounds)].sum())
    for _, t, src, dst in rounds:
        binner.add(t, src, dst)
    return binner.occupation(x0)


def _assemble(cfg, psi, cum, rate, scaling):
    dt = cfg.dt
    mu = stationary_law(cfg.model).mu
    inflow = cfg.epsilon * np.diff(cum)          # ∫_cell sum_a x^a_{s/eps} ds, exact
    x_inc = psi.values[:-1] * (inflow - mu * cfg.n_agents * dt)
    x_raw = np.concatenate([[0.0], np.cumsum(x_inc)])
    price = np.concatenate([[0.0], np.cumsum(psi.values[:-1] * inflow)])
    return AggregatePath(
        dt=dt,
        y=psi.values * rate,
        x_raw=x_raw,
        x_scaled=x_raw / scaling,
        psi=psi.values,
        log_price=price,
        scaling=scaling,
        mu=mu,
    )


def simulate_market(cfg: MarketConfig, replicate=0) -> AggregatePath:
    """Aggregate path of N inert agents under the fractional scaling.

    x_scaled = x_raw / (eps^(1-H) sqrt(N L(1/eps))) with H = (3-alpha)/2.
    Degenerate light-tailed models (diagnostics only) fall back to the
    sqrt(eps N) normalisation.
    """
    return _market(cfg, replicate)


def _market(cfg, replicate):
    if cfg.model.alpha is not None:
        h = cfg.model.hurst()
        l_eps = float(cfg.model.tail_scale(1.0 / cfg.epsilon))
        scaling = cfg.epsilon ** (1.0 - h) * np.sqrt(cfg.n_agents * l_eps)
    else:
        scaling = float(np.sqrt(cfg.epsilon * cfg.n_agents))
    psi_rng = np.random.default_rng([cfg.seed, replicate, 0])
    psi = simulate_amplitude(cfg.amplitude, cfg.dt, cfg.n_grid, psi_rng)
    cum, rate = _aggregate_occupation(cfg, replicate, 1)
    return _assemble(cfg, psi, cum, rate, scaling)


def require_exponential(model: SemiMarkovModel):
    """ValueError unless every sojourn law of the model is exponential."""
    for law in model.sojourns.values():
        if not isinstance(law, Exponential):
            raise ValueError("markov_market requires all-exponential sojourn laws")


def markov_market(cfg: MarketConfig, replicate=0) -> AggregatePath:
    """Aggregate path of exponential (Markov) agents under the 1/sqrt(eps N) scaling."""
    require_exponential(cfg.model)
    # exponential laws carry no tail index, so the sqrt(eps N) normalisation applies
    return _market(cfg, replicate)


def mixed_market(cfg: MarketConfig, rhos, markov_model: SemiMarkovModel, replicate=0):
    """One inert block and, for each rho, rho*N active Markov agents.

    Requires Psi = 1.  Returns (inert AggregatePath, [active AggregatePath per
    rho]); the inert block is simulated once for all rho, and a rho with no
    active agent gets None.  Each active block is scaled by 1/sqrt(N eps) with
    N the inert count, so inert.x_scaled + active.x_scaled approximates
    c1 B^H + c2 sqrt(rho) W.
    """
    if not cfg.amplitude.is_unit:
        raise ValueError("mixed market is defined for unit amplitude Psi = 1")
    if any(rho < 0.0 for rho in rhos):
        raise ValueError("rho must be nonnegative")
    inert = simulate_market(cfg, replicate=replicate)
    scaling = float(np.sqrt(cfg.n_agents * cfg.epsilon))
    psi = SamplePath(dt=cfg.dt, values=np.ones(cfg.n_grid))
    actives = []
    for rho in rhos:
        n_active = int(round(rho * cfg.n_agents))
        if n_active == 0:
            actives.append(None)
            continue
        active_cfg = replace(cfg, model=markov_model, n_agents=n_active)
        cum, rate = _aggregate_occupation(active_cfg, replicate, 10_000)
        actives.append(_assemble(active_cfg, psi, cum, rate, scaling))
    return inert, actives
