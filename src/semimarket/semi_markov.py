"""Semi-Markov trading-mood model: kernel, equilibrium law, limit constants, samplers.

A model is (E, P, G): a finite integer state space E containing the inactive
state 0, the embedded chain transition matrix P, and per-transition sojourn
laws G(i,j,.).  Exits from state 0 are heavy-tailed with common index
alpha in (1,2); the induced self-similarity exponent is H = (3-alpha)/2.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import SojournLaw

__all__ = [
    "StateSpace",
    "TransitionMatrix",
    "SemiMarkovModel",
    "StationaryLaw",
    "Trajectory",
    "validate_model",
    "stationary_law",
    "expected_visits_before_hit",
    "limit_constant_c2",
    "hurst_from_alpha",
    "sample_path",
    "sample_stationary_path",
    "jump_rounds",
    "states_at_times",
]

_ROW_TOL = 1e-12


@dataclass(frozen=True)
class StateSpace:
    """Ordered integer trading moods, containing the inactive state 0."""

    states: tuple

    def __post_init__(self):
        states = tuple(int(s) for s in self.states)
        if len(set(states)) != len(states):
            raise ValueError("state labels must be distinct")
        if 0 not in states:
            raise ValueError("state space must contain the inactive state 0")
        if len(states) < 2:
            raise ValueError("need at least two states")
        object.__setattr__(self, "states", states)

    @property
    def size(self):
        return len(self.states)

    @property
    def index_of_zero(self):
        return self.states.index(0)

    def index(self, label):
        return self.states.index(label)


@dataclass(frozen=True)
class TransitionMatrix:
    """Row-stochastic embedded-chain matrix; off-diagonal entries positive."""

    p: np.ndarray

    def __post_init__(self):
        p = np.array(self.p, dtype=float)
        if p.ndim != 2 or p.shape[0] != p.shape[1]:
            raise ValueError("transition matrix must be square")
        p.setflags(write=False)
        object.__setattr__(self, "p", p)

    def violations(self):
        out = []
        rows = self.p.sum(axis=1)
        for k, s in enumerate(rows):
            if abs(s - 1.0) > _ROW_TOL:
                out.append(f"row {k} of the transition matrix sums to {s!r}, not 1")
        if np.any(self.p < 0.0):
            out.append("transition matrix has negative entries")
        elif not self._irreducible():
            out.append("embedded chain is not irreducible: no unique stationary law")
        return out

    def _irreducible(self):
        n = self.p.shape[0]
        reach = (self.p > 0.0) | np.eye(n, dtype=bool)
        for _ in range(n):
            reach = reach @ reach
        return bool(reach.all())


@dataclass(frozen=True)
class SemiMarkovModel:
    """sojourns maps (i, j) state labels to the law of the holding time in i before a jump to j."""

    space: StateSpace
    chain: TransitionMatrix
    sojourns: dict
    alpha: float | None = None

    def __post_init__(self):
        n = self.space.size
        if self.chain.p.shape != (n, n):
            raise ValueError("transition matrix does not match the state space size")
        heavy = sorted({law.tail_index for law in self._zero_exit_laws() if law.is_heavy})
        if self.alpha is None and heavy:
            if len(heavy) > 1:
                raise ValueError(f"inactive-state exits carry distinct tail indices {heavy}")
            object.__setattr__(self, "alpha", heavy[0])
        if self.alpha is not None and not (1.0 < self.alpha < 2.0):
            raise ValueError(f"tail index must satisfy 1 < alpha < 2, got {self.alpha}")

    def law(self, i, j) -> SojournLaw:
        return self.sojourns[(i, j)]

    def _zero_exit_laws(self):
        return [self.sojourns[(0, j)] for j in self.space.states if (0, j) in self.sojourns]

    def hurst(self):
        if self.alpha is None:
            raise ValueError("model has no heavy-tailed inactive state; Hurst exponent undefined")
        return hurst_from_alpha(self.alpha)

    def tail_scale(self, t):
        """Effective slowly varying factor L(t) = t^alpha * P{sojourn at 0 >= t}.

        Exact for the built-in heavy families once t exceeds their scale; used
        for the 1/(eps^(1-H) sqrt(N L(1/eps))) normalisation at large arguments.
        """
        if self.alpha is None:
            raise ValueError("tail scale undefined without a heavy-tailed inactive state")
        t = np.asarray(t, dtype=float)
        zero = self.space.index_of_zero
        p = self.chain.p
        h0 = np.zeros_like(t)
        for j_idx, j in enumerate(self.space.states):
            if p[zero, j_idx] > 0.0:
                h0 = h0 + p[zero, j_idx] * self.law(0, j).tail(t)
        return t**self.alpha * h0


@dataclass(frozen=True)
class StationaryLaw:
    """Every equilibrium quantity of the model, indexed like space.states."""

    states: tuple
    pi: np.ndarray
    nu: np.ndarray
    m: np.ndarray
    m_cond: np.ndarray
    eta: np.ndarray
    mu: float


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


# -- validation and equilibrium --------------------------------------------

def validate_model(model: SemiMarkovModel):
    """Return the list of assumption violations (empty when the model is admissible)."""
    out = list(model.chain.violations())
    states = model.space.states
    for i in states:
        for j in states:
            if model.chain.p[model.space.index(i), model.space.index(j)] <= 0.0:
                continue
            key = (i, j)
            if key not in model.sojourns:
                out.append(f"missing sojourn law for transition {i} -> {j}")
                continue
            law = model.sojourns[key]
            if not np.isfinite(law.mean) or law.mean <= 0.0:
                out.append(f"sojourn law for {i} -> {j} has non-finite mean")
            if i != 0 and law.is_heavy:
                out.append(
                    f"heavy-tailed sojourn on active exit {i} -> {j}: active states must be "
                    "thin-tailed relative to t^-(alpha+1)")
            if i == 0 and model.alpha is not None and not law.is_heavy:
                out.append(f"inactive-state exit 0 -> {j} is not heavy-tailed")
            if i == 0 and law.is_heavy and model.alpha is not None and law.tail_index != model.alpha:
                out.append(f"inactive-state exit 0 -> {j} has tail index {law.tail_index}, "
                           f"expected the common alpha = {model.alpha}")
    return out


def stationary_law(model: SemiMarkovModel) -> StationaryLaw:
    """Solve pi P = pi and assemble the occupation law, mean sojourns and recurrence times."""
    p = model.chain.p
    n = model.space.size
    a = np.vstack([p.T - np.eye(n), np.ones(n)])
    b = np.zeros(n + 1)
    b[-1] = 1.0
    pi, *_ = np.linalg.lstsq(a, b, rcond=None)
    residual = np.abs(pi @ p - pi).max()
    if residual > 1e-10 or np.any(pi <= 0.0):
        raise np.linalg.LinAlgError(
            f"stationary solve failed (residual {residual:.2e}); chain not irreducible?")
    states = model.space.states
    m_cond = np.zeros((n, n))
    for ii, i in enumerate(states):
        for jj, j in enumerate(states):
            if p[ii, jj] > 0.0:
                m_cond[ii, jj] = model.law(i, j).mean
    m = (p * m_cond).sum(axis=1)
    nu = pi * m / (pi @ m)
    eta = m / nu
    mu = float(np.array(states) @ nu)
    return StationaryLaw(states=states, pi=pi, nu=nu, m=m, m_cond=m_cond, eta=eta, mu=mu)


def expected_visits_before_hit(model: SemiMarkovModel, start, target):
    """Expected visits of the embedded chain to state 0 strictly before hitting `target`.

    Starting at xi_0 = start; a visit at time 0 is not counted.  Computed from
    the fundamental matrix of the chain with `target` absorbing.
    """
    p = model.chain.p
    states = list(model.space.states)
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


def hurst_from_alpha(alpha):
    """Self-similarity exponent H = (3 - alpha)/2 for tail index alpha in (1,2)."""
    if not 1.0 < alpha < 2.0:
        raise ValueError(f"alpha must lie strictly inside (1, 2), got {alpha}")
    return (3.0 - alpha) / 2.0


def theorem_condition_value(model: SemiMarkovModel, law: StationaryLaw | None = None):
    """The product mu * sum_k k m_k / eta_k^2 whose positivity the limit theorem requires.

    Returns (holds, product, mu, sum); `holds` uses a relative zero threshold so
    exactly-centered models (mu = 0 up to roundoff) are reported as violations.
    """
    law = law or stationary_law(model)
    k = np.array(law.states, dtype=float)
    s = float((k * law.m / law.eta**2).sum())
    product = law.mu * s
    scale = float((np.abs(k) * law.m / law.eta**2).sum()) + 1e-300
    holds = product > 1e-9 * scale
    return holds, product, law.mu, s


def limit_constant_c2(model: SemiMarkovModel):
    """Limit constant c^2 = [mu sum_j j (m_j/eta_j^2) E N_j] / [2H(1-H)(2H-1)].

    E N_j is the expected number of inactive-state visits between successive
    entrances to j.  Requires the positivity condition mu * sum_k k m_k/eta_k^2 > 0.
    """
    law = stationary_law(model)
    holds, product, mu, s = theorem_condition_value(model, law)
    if not holds:
        raise ValueError(
            f"limit-theorem condition violated: mu * sum_k k m_k/eta_k^2 = {product!r} "
            "must be strictly positive (fails e.g. for centered models with mu = 0)")
    h = model.hurst()
    total = 0.0
    for jj, j in enumerate(law.states):
        if j == 0:
            continue
        visits = expected_visits_before_hit(model, j, j)
        total += j * (law.m[jj] / law.eta[jj] ** 2) * visits
    c2 = mu * total / (2.0 * h * (1.0 - h) * (2.0 * h - 1.0))
    if not c2 > 0.0:
        raise ValueError(f"degenerate limit constant c^2 = {c2!r}")
    return c2


# -- the agent engine ---------------------------------------------------------

def _cumulative(weights):
    """Row-wise cumulative probabilities with the last entry pinned to 1.

    With `_pick`, every u in [0, 1) then lands on a state of positive weight
    even when the row sums to 1 only up to rounding.
    """
    cum = np.cumsum(weights, axis=-1)
    cum[..., -1] = 1.0
    return cum


def _pick(cum, u):
    """Index k with cum[k-1] <= u < cum[k]; `cum` is one row or one row per draw."""
    return (u[:, None] >= cum).sum(axis=1)


def _transition_pairs(model):
    """Feasible (i_idx, j_idx, law) transitions, and whether each row has a single law."""
    states = model.space.states
    pairs = []
    per_state = True
    for ii, i in enumerate(states):
        row = [(ii, jj, model.law(i, j)) for jj, j in enumerate(states)
               if model.chain.p[ii, jj] > 0.0]
        per_state = per_state and len({lw for _, _, lw in row}) <= 1
        pairs += row
    return pairs, per_state


def jump_rounds(model: SemiMarkovModel, n_agents, horizon, rng,
                law: StationaryLaw | None = None, stationary=True, initial_state=None):
    """The agent engine: n_agents independent copies of the process on [0, horizon).

    The first item yielded is the array of initial state indices xi_0.  Each
    later item is one jump round (agents, times, src, dst): the agents that
    jump next, their jump epochs in (0, horizon), and the state indices they
    leave and enter.  An agent jumps at most once per round and its epochs
    increase from round to round; epochs of different agents are not sorted.

    stationary=True starts from the equilibrium law: xi_0 ~ nu (or
    xi_0 = initial_state when given), xi_1 = j with weight p_kj m_kj / m_k and
    a residual first sojourn from the integrated-tail law of G(k, j, .), which
    reproduces the joint density prop. to pi_k p_kj (1 - G(k, j, t)).
    stationary=False starts at initial_state with a fresh kernel sojourn.
    """
    states = model.space.states
    n_states = len(states)
    p = model.chain.p
    kernel_cum = _cumulative(p)
    if stationary:
        law = law or stationary_law(model)
        weights = p * law.m_cond
        start_cum = _cumulative(weights / weights.sum(axis=1, keepdims=True))
    elif initial_state is None:
        raise ValueError("a non-stationary start needs an initial_state")
    else:
        start_cum = kernel_cum
    if initial_state is None:
        cur = _pick(_cumulative(law.nu), rng.random(n_agents))
    else:
        cur = np.full(n_agents, model.space.index(initial_state), dtype=np.int64)
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
                lw = model.law(states[k_idx], states[j_idx])
                draw = lw.equilibrium_sample if stationary else lw.sample
                t_now[sub] = draw(rng, hits)

    pairs, per_state = _transition_pairs(model)
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


def _trajectory(model, horizon, rng, law=None, stationary=True, initial_state=None):
    """One agent's path from the engine: every jump round adds one segment."""
    if not horizon > 0.0:
        raise ValueError("horizon must be positive")
    rounds = jump_rounds(model, 1, horizon, rng, law=law, stationary=stationary,
                         initial_state=initial_state)
    times, visited = [0.0], [int(next(rounds)[0])]
    for _, t, _, dst in rounds:
        times.append(float(t[0]))
        visited.append(int(dst[0]))
    labels = np.array(model.space.states)
    return Trajectory(np.asarray(times), labels[visited], horizon)


def sample_path(model: SemiMarkovModel, initial_state, horizon, rng) -> Trajectory:
    """Simulate from a fixed initial state at time 0 until the horizon is covered."""
    return _trajectory(model, horizon, rng, stationary=False, initial_state=initial_state)


def sample_stationary_path(model: SemiMarkovModel, horizon, rng,
                           law: StationaryLaw | None = None) -> Trajectory:
    """Simulate under the stationary law: equilibrium initial triple, then the kernel."""
    return _trajectory(model, horizon, rng, law=law)


def states_at_times(model: SemiMarkovModel, times, n_replicates, rng,
                    initial_state=None, law: StationaryLaw | None = None):
    """Vectorized marginal sampler: state of independent replicates at fixed times.

    Stationary initialisation throughout; `initial_state` conditions xi_0.
    Returns an (n_replicates, len(times)) integer array of state labels.
    """
    times = np.asarray(times, dtype=float)
    order = np.argsort(times)
    sorted_times = times[order]
    labels = np.array(model.space.states)
    rounds = jump_rounds(model, n_replicates, float(times.max()), rng, law=law,
                         initial_state=initial_state)
    out = np.repeat(labels[next(rounds)][:, None], times.size, axis=1)
    columns = np.arange(times.size)
    for agents, t, _, dst in rounds:
        # the jump sets the state at every sampling time from its epoch on
        later = columns >= np.searchsorted(sorted_times, t)[:, None]
        out[agents] = np.where(later, labels[dst][:, None], out[agents])
    return out[:, np.argsort(order)]
