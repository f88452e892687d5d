"""Closed-form and Monte Carlo oracles that the tests check the package against.

They live beside the tests because no experiment kind calls them: the exact
integral of a one-agent trajectory, the renewal function, the equilibrium CDF,
the drift-condition report and the goodness moments of an amplitude model.
"""
import numpy as np

from semimarket.market import simulate_amplitude
from semimarket.paths import SamplePath
from semimarket.renewal import GridFunction, _renewal_solve
from semimarket.semi_markov import theorem_condition_value


def of_state(law, vec, label):
    """The entry of a per-state vector of a StationaryLaw at a state label."""
    return vec[law.states.index(label)]


def equilibrium_cdf(law, t):
    """CDF of the residual-life law with density tail(t)/mean."""
    return 1.0 - law.integrated_tail(np.asarray(t, dtype=float)) / law.mean


def renewal_function(f_jj: GridFunction) -> GridFunction:
    """R(t) = expected entrances in [0,t] counting the one at 0; solves R = 1 + F*R."""
    r = _renewal_solve(np.ones(f_jj.grid.n_points), f_jj.values)
    return GridFunction(f_jj.grid, r, kind="plain")


def theorem_condition(model):
    """The positivity condition mu sum_k k m_k/eta_k^2 > 0 with a factor report."""
    holds, product, mu, s = theorem_condition_value(model)
    return bool(holds), {"mu": mu, "sum_k_mk_over_eta2": s, "product": product,
                         "holds": bool(holds)}


# -- one trajectory ------------------------------------------------------------

def occupation_times(traj, labels):
    """Total time a Trajectory spends in each label over [0, horizon]."""
    ends = np.minimum(np.append(traj.jump_times[1:], traj.horizon), traj.horizon)
    durations = np.clip(ends - np.minimum(traj.jump_times, traj.horizon), 0.0, None)
    return np.array([durations[traj.states == s].sum() for s in labels])


def integral_at(traj, t):
    """∫_0^t x_s ds along a Trajectory, exact (closed form over segments)."""
    t = np.asarray(t, dtype=float)
    seg_end = np.append(traj.jump_times[1:], max(traj.horizon, traj.jump_times[-1]))
    cum = np.concatenate([[0.0], np.cumsum(traj.states * (seg_end - traj.jump_times))])
    idx = np.clip(np.searchsorted(traj.jump_times, t, side="right") - 1, 0, traj.states.size - 1)
    return cum[idx] + traj.states[idx] * (t - traj.jump_times[idx])


def integrate_trajectory(traj, grid_times=None, weight: SamplePath | None = None):
    """Integrated path t -> ∫_0^t w_s x_s ds on a uniform grid.

    Without a weight the integral is exact (closed form over segments).  With a
    weight the trajectory is integrated exactly inside each grid cell and the
    weight enters by trapezoid quadrature on its own grid.
    """
    if weight is not None:
        if weight.horizon + 1e-12 < traj.horizon:
            raise ValueError("weight grid does not cover the trajectory horizon")
        times = weight.times
    else:
        if grid_times is None:
            raise ValueError("provide grid_times when no weight path is given")
        times = np.asarray(grid_times, dtype=float)
        if times.max() > traj.horizon + 1e-12:
            raise ValueError("grid extends beyond the trajectory horizon")
    base = integral_at(traj, np.clip(times, 0.0, traj.horizon))
    if weight is None:
        return SamplePath(dt=float(times[1] - times[0]), values=base)
    w_mid = 0.5 * (weight.values[:-1] + weight.values[1:])
    out = np.concatenate([[0.0], np.cumsum(w_mid * np.diff(base))])
    return SamplePath(dt=weight.dt, values=out)


# -- amplitude -----------------------------------------------------------------

def goodness_moments(amp, horizon, n_paths, rng, n_steps=1024):
    """Monte Carlo estimates of E[M,M]_T and E|A|_T for the amplitude decomposition.

    For the geometric diffusion, M collects the vol term ([M,M]_T = ∫ vol^2
    Psi^2 dt) and A the drift term (|A|_T = ∫ |drift| Psi dt); both finite
    means certify the sequence as good.  A constant amplitude gives (0, 0).
    """
    dt = horizon / n_steps
    if amp.kind == "constant":
        return {"qv_mean": 0.0, "qv_stderr": 0.0, "tv_mean": 0.0, "tv_stderr": 0.0,
                "qv_reference": 0.0}
    qv, tv = np.empty(n_paths), np.empty(n_paths)
    for k in range(n_paths):
        path = simulate_amplitude(amp, dt, n_steps + 1, rng)
        qv[k] = np.trapezoid(amp.vol**2 * path.values**2, dx=dt)
        tv[k] = np.trapezoid(np.abs(amp.drift) * path.values, dx=dt)
    rate = 2.0 * amp.drift + amp.vol**2
    if abs(rate) > 1e-12:
        qv_ref = amp.vol**2 * amp.initial**2 * (np.expm1(rate * horizon)) / rate
    else:
        qv_ref = amp.vol**2 * amp.initial**2 * horizon
    return {
        "qv_mean": float(qv.mean()),
        "qv_stderr": float(qv.std(ddof=1) / np.sqrt(n_paths)),
        "tv_mean": float(tv.mean()),
        "tv_stderr": float(tv.std(ddof=1) / np.sqrt(n_paths)),
        "qv_reference": float(qv_ref),
    }
