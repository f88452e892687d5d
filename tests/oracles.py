"""Closed-form and Monte Carlo oracles that the tests check the package against.

They live beside the tests because no experiment kind calls them: the
one-agent sampler and the exact integral of its trajectory, the first passage
from the equilibrium start, the renewal function, the embedded chain's
expected visits to 0 before a hit, the equilibrium CDF, the drift-condition
report, the goodness moments of an amplitude model, a
reference agent engine whose random streams the package engine must reproduce,
and the plain forms of the marginal sampler, the fGn assembly and the
covariance self-test's path values that the package's faster forms must match.
"""
from dataclasses import dataclass

import numpy as np

from semimarket.fbm import fgn_autocovariance
from semimarket.market import simulate_amplitude
from semimarket.paths import SamplePath
from semimarket.renewal import _fstar, _stationary_pieces, _volterra_system, first_passage, \
    kernel_on_grid, solve_volterra
from semimarket.semi_markov import _cumulative, _pick, jump_rounds, stationary_law, \
    theorem_condition_value


def of_state(law, vec, label):
    """The entry of a per-state vector of a StationaryLaw at a state label."""
    return vec[law.states.index(label)]


def equilibrium_cdf(law, t):
    """CDF of the residual-life law with density tail(t)/mean."""
    return 1.0 - law.integrated_tail(np.asarray(t, dtype=float)) / law.mean


def stationary_first_passage(model, grid, start, target):
    """F*(start, target, .): first passage to target under the equilibrium initial law."""
    _, shat = _stationary_pieces(model, grid)
    return _fstar(shat[model.states.index(start)],
                  first_passage(kernel_on_grid(model, grid), target), model.states, target)


def renewal_function(f_jj: SamplePath) -> SamplePath:
    """R(t) = expected entrances in [0,t] counting the one at 0; solves R = 1 + F*R."""
    r = solve_volterra(np.ones((1, f_jj.n)), f_jj.values[None, None])[0]
    return SamplePath(f_jj.dt, r)


def expected_visits_before_hit(model, start, target):
    """Expected visits of the embedded chain to state 0 strictly before hitting `target`.

    Starting at xi_0 = start; a visit at time 0 is not counted.  Computed from
    the fundamental matrix of the chain with `target` absorbing.
    """
    p = model.p
    states = list(model.states)
    t_idx = states.index(target)
    keep = [k for k in range(len(states)) if k != t_idx]
    sub = p[np.ix_(keep, keep)]
    fundamental = np.linalg.inv(np.eye(len(keep)) - sub)
    zero_col = keep.index(states.index(0)) if states.index(0) in keep else None
    if zero_col is None:
        # counting visits to the absorbing state itself: none before the hit
        return 0.0
    if start == target:
        # one step out of target, then absorb on return
        visits = 0.0
        for col, k in enumerate(keep):
            visits += p[t_idx, k] * fundamental[col, zero_col]
        return float(visits)
    s_row = keep.index(states.index(start))
    correction = 1.0 if start == 0 else 0.0
    return float(fundamental[s_row, zero_col] - correction)


def volterra_longdouble(forcing, kern):
    """solve_volterra's float64 system T x = b, solved by forward substitution in np.longdouble.

    The lag blocks and right-hand side are the ones `solve_volterra` builds;
    only the solve runs in extended precision, row by row, so the result is
    the exact solution of that system to about 1e-19 relative (x86-64).
    """
    forcing = np.atleast_2d(np.asarray(forcing, dtype=float))
    coef, b = _volterra_system(forcing, np.asarray(kern, dtype=float))
    q, n = b.shape
    coef = coef.astype(np.longdouble)
    # C_0^-1 by Gauss-Jordan, since np.linalg has no long double
    inv0 = np.eye(q, dtype=np.longdouble)
    c0 = coef[:, :, 0].copy()
    for p in range(q):
        inv0[p] /= c0[p, p]
        c0[p] /= c0[p, p]
        for r in range(q):
            if r != p:
                inv0[r] -= c0[r, p] * inv0[p]
                c0[r] -= c0[r, p] * c0[p]
    lags = coef[:, :, 1:][:, :, ::-1].copy()  # lags n-1 .. 1
    x = np.zeros((q, n), dtype=np.longdouble)
    for m in range(n):
        rhs = b[:, m] - np.einsum("ikd,kd->i", lags[:, :, n - 1 - m:], x[:, :m])
        x[:, m] = inv0 @ rhs
    return np.concatenate([forcing[:, :1].astype(np.longdouble), x], axis=1)


def theorem_condition(model):
    """The positivity condition mu sum_k k m_k/eta_k^2 > 0 with a factor report."""
    holds, product, mu, s = theorem_condition_value(model)
    return bool(holds), {"mu": mu, "sum_k_mk_over_eta2": s, "product": product,
                         "holds": bool(holds)}


# -- the reference agent engine ------------------------------------------------

def reference_jump_rounds(model, n_agents, horizon, rng, initial_state=None):
    """Plain form of `semi_markov.jump_rounds` with the same draw order.

    It holds full-size state arrays and gathers the live agents each round:
    one rng.random call picks the next states, then one ppf call per sojourn
    group (state entered, or (entered, next) pair when some row has several
    laws) on its own consecutive uniforms, groups in ascending order.
    """
    states = model.states
    n_states = len(states)
    p = model.p
    kernel_cum = _cumulative(p)
    law = stationary_law(model)
    weights = p * law.m_cond
    start_cum = _cumulative(weights / weights.sum(axis=1, keepdims=True))
    if initial_state is None:
        cur = _pick(_cumulative(law.nu), rng.random(n_agents))
    else:
        cur = np.full(n_agents, states.index(initial_state), dtype=np.int64)
    yield cur.copy()

    nxt = np.empty(n_agents, dtype=np.int64)
    t_now = np.empty(n_agents)
    for k_idx in range(n_states):
        mask = cur == k_idx
        count = int(mask.sum())
        if count == 0:
            continue
        nxt[mask] = _pick(start_cum[k_idx], rng.random(count))
        for j_idx in range(n_states):
            sub = mask & (nxt == j_idx)
            hits = int(sub.sum())
            if hits:
                t_now[sub] = model.law(states[k_idx], states[j_idx]).equilibrium_sample(rng, hits)

    pairs = []
    per_state = True
    for ii, i in enumerate(states):
        row = [(ii, jj, model.law(i, j)) for jj, j in enumerate(states) if p[ii, jj] > 0.0]
        per_state = per_state and len({lw for _, _, lw in row}) <= 1
        pairs += row
    state_laws = {ii: lw for ii, _, lw in pairs}
    idx = np.flatnonzero(t_now < horizon)
    while idx.size:
        src, dst = cur[idx], nxt[idx]
        yield idx, t_now[idx], src, dst
        cur[idx] = dst
        nxt_a = _pick(kernel_cum[dst], rng.random(idx.size))
        nxt[idx] = nxt_a
        sojourn = np.empty(idx.size)
        if per_state:
            for ii, lw in state_laws.items():
                sub = np.flatnonzero(dst == ii)
                if sub.size:
                    sojourn[sub] = lw.sample(rng, sub.size)
        else:
            code = dst * n_states + nxt_a
            for ii, jj, lw in pairs:
                sub = np.flatnonzero(code == ii * n_states + jj)
                if sub.size:
                    sojourn[sub] = lw.sample(rng, sub.size)
        t_now[idx] += sojourn
        idx = idx[t_now[idx] < horizon]


def reference_states_at_times(model, times, n_replicates, rng, initial_state=None):
    """Plain form of `semi_markov.states_at_times` on the same engine rounds.

    Every jump rewrites the agent's whole row from its epoch on.
    """
    times = np.asarray(times, dtype=float)
    order = np.argsort(times)
    sorted_times = times[order]
    labels = np.array(model.states)
    rounds = jump_rounds(model, n_replicates, float(times.max()), rng,
                         initial_state=initial_state)
    out = np.repeat(labels[next(rounds)][:, None], times.size, axis=1)
    columns = np.arange(times.size)
    for agents, t, _, dst in rounds:
        later = columns >= np.searchsorted(sorted_times, t)[:, None]
        out[agents] = np.where(later, labels[dst][:, None], out[agents])
    return out[:, np.argsort(order)]


# -- fractional Gaussian noise ---------------------------------------------------

def reference_sample_fgn(hurst, n, rng, size=None):
    """Plain form of the circulant branch of `fbm.sample_fgn` (n >= 16).

    Unscaled root, complex pairs divided by sqrt(2) and sqrt(2n) applied to
    the inverse FFT; same draws, so the same rows up to rounding.
    """
    k = 1 if size is None else size
    row = fgn_autocovariance(hurst, np.arange(n + 1))
    root = np.sqrt(np.clip(np.fft.rfft(np.concatenate([row, row[-2:0:-1]])).real, 0.0, None))
    g = rng.standard_normal((k, 2 * n))
    z = np.empty((k, n + 1), dtype=complex)
    z[:, 0] = g[:, 0]
    z[:, n] = g[:, 1]
    z[:, 1:n] = g[:, 2:].view(complex) / np.sqrt(2.0)
    rows = np.sqrt(2 * n) * np.fft.irfft(root * z, 2 * n, axis=1)[:, :n]
    return rows[0] if size is None else rows


def reference_fbm_picks(fgn, picks, hurst):
    """B at grid indices `picks` from (k, n) fGn rows: the full cumulative paths, gathered."""
    k, n = fgn.shape
    paths = np.zeros((k, n + 1))  # column 0 is B(0) = 0
    np.cumsum(fgn * (1.0 / n) ** hurst, axis=1, out=paths[:, 1:])
    return paths[:, picks]


# -- one trajectory ------------------------------------------------------------

@dataclass(frozen=True)
class Trajectory:
    """Piecewise-constant path: states[k] on [jump_times[k], jump_times[k+1])."""

    jump_times: np.ndarray
    states: np.ndarray
    horizon: float

    def __post_init__(self):
        jt = np.asarray(self.jump_times, dtype=float)
        st = np.asarray(self.states)
        if jt[0] != 0.0 or np.any(np.diff(jt) <= 0.0):
            raise ValueError("jump times must start at 0 and strictly increase")
        if jt.size != st.size:
            raise ValueError("one state per inter-jump segment required")
        object.__setattr__(self, "jump_times", jt)
        object.__setattr__(self, "states", st)


def one_agent_path(model, horizon, rng, stationary=True, initial_state=None):
    """One agent's Trajectory on [0, horizon) by a plain loop over its jumps.

    Stationary, it takes the draws `jump_rounds(model, 1, ...)` takes, in the
    same order: rng.random(1) for xi_0 unless initial_state is given,
    rng.random(1) for xi_1 and one sampler call for the residual first
    sojourn, then rng.random(2) per jump: the next state, then the sojourn
    uniform for the law of the (entered, next) pair.  stationary=False starts
    at initial_state with a fresh kernel sojourn instead, the start the
    first-passage Monte Carlo needs.
    """
    if not horizon > 0.0:
        raise ValueError("horizon must be positive")
    if not stationary and initial_state is None:
        raise ValueError("a non-stationary start needs an initial_state")
    states, p = model.states, model.p

    def pick(cum, u):
        return int(_pick(cum, u)[0])

    kernel_cum = _cumulative(p)
    start_cum = kernel_cum
    if stationary:
        law = stationary_law(model)
        weights = p * law.m_cond
        start_cum = _cumulative(weights / weights.sum(axis=1, keepdims=True))
    if initial_state is None:
        cur = pick(_cumulative(law.nu), rng.random(1))
    else:
        cur = states.index(initial_state)
    nxt = pick(start_cum[cur], rng.random(1))
    first = model.law(states[cur], states[nxt])
    t = float((first.equilibrium_sample if stationary else first.sample)(rng, 1)[0])
    times, visited = [0.0], [cur]
    while t < horizon:
        times.append(t)
        visited.append(nxt)
        u = rng.random(2)
        cur, nxt = nxt, pick(kernel_cum[nxt], u[:1])
        t += float(model.law(states[cur], states[nxt]).ppf(u[1:])[0])
    return Trajectory(np.array(times), np.array(states)[visited], horizon)


def sample_path(model, initial_state, horizon, rng):
    """One agent from a fixed initial state at time 0, fresh kernel sojourns."""
    return one_agent_path(model, horizon, rng, stationary=False, initial_state=initial_state)


def sample_stationary_path(model, horizon, rng):
    """One agent under the stationary law: equilibrium initial triple, then the kernel."""
    return one_agent_path(model, horizon, rng)


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
