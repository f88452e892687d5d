"""Semi-Markov trading-mood model: kernel, equilibrium law, limit constants, samplers.

A model is (E, P, G): a finite integer state space E containing the inactive
state 0, the embedded chain transition matrix P, and per-transition sojourn
laws G(i,j,.).  Exits from state 0 are heavy-tailed with common index
alpha in (1,2), or all light; H = (3-alpha)/2.  A model is checked when built.

The model owns its equilibrium law (pi, nu, m, eta, mu): `stationary_law`
solves it on first request and keeps it on the model, read-only, so every
routine that needs it asks the model instead of taking it as an argument.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .distributions import Exponential, SojournLaw

__all__ = [
    "SemiMarkovModel",
    "StationaryLaw",
    "stationary_law",
    "tail_constant_Cj",
    "limit_constant_c2",
    "wiener_constant_c2",
    "hurst_from_alpha",
    "jump_rounds",
    "states_at_times",
]

_ROW_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class SemiMarkovModel:
    """The model (E, P, G) and, once asked for, its equilibrium law.

    states are distinct integer labels containing the inactive state 0; p is
    the read-only embedded-chain matrix, indexed like states; sojourns maps
    each transition (i, j) of the chain (p_ij > 0) to the law of the holding
    time in i before a jump to j, and edges (derived) walks them row by row as
    (index of i, index of j, p_ij, law).  alpha (derived) is the exits from
    0's tail index, None if light.  Models compare by identity; an
    inadmissible model raises a ValueError.
    """

    states: tuple
    p: np.ndarray
    sojourns: dict
    alpha: float | None = field(default=None, init=False)
    edges: tuple = field(default=(), init=False, repr=False)
    _law: StationaryLaw | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        states = tuple(int(s) for s in self.states)
        if states != tuple(self.states):
            raise ValueError(f"state labels must be integers, got {self.states!r}")
        if len(set(states)) != len(states):
            raise ValueError("state labels must be distinct")
        if 0 not in states:
            raise ValueError("state space must contain the inactive state 0")
        if len(states) < 2:
            raise ValueError("need at least two states")
        p = np.array(self.p, dtype=float)
        if p.shape != (len(states), len(states)):
            raise ValueError("transition matrix must be square and match the state space size")
        p.setflags(write=False)
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "p", p)
        problems, alpha, edges = _problems(self)
        if problems:
            raise ValueError(f"invalid model: {'; '.join(problems)}")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "sojourns",
                           {(states[ii], states[jj]): law for ii, jj, _, law in edges})

    def law(self, i, j) -> SojournLaw:
        return self.sojourns[(i, j)]

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
        h0 = np.zeros_like(t)
        for ii, _, pij, law in self.edges:
            if self.states[ii] == 0:
                h0 = h0 + pij * law.tail(t)
        return t**self.alpha * h0


@dataclass(frozen=True)
class StationaryLaw:
    """Every equilibrium quantity of the model, indexed like its states."""

    states: tuple
    pi: np.ndarray
    nu: np.ndarray
    m: np.ndarray
    m_cond: np.ndarray
    eta: np.ndarray
    mu: float


# -- admissibility and equilibrium -------------------------------------------

def _problems(model):
    """The assumptions the model breaks, its exits from 0's common tail index, and its edges."""
    p, states = model.p, model.states
    out = [f"row {k} of the transition matrix sums to {s!r}, not 1"
           for k, s in enumerate(p.sum(axis=1).tolist()) if not abs(s - 1.0) <= _ROW_TOL]
    if np.any(p < 0.0):
        out.append("transition matrix has negative entries")
    elif not _irreducible(p):
        out.append("embedded chain is not irreducible: no unique stationary law")
    edges, zero_exits = [], {}
    for ii, i in enumerate(states):
        for jj, j in enumerate(states):
            if p[ii, jj] <= 0.0:
                continue
            if (i, j) not in model.sojourns:
                out.append(f"missing sojourn law for transition {i} -> {j}")
                continue
            law = model.sojourns[(i, j)]
            edges.append((ii, jj, p[ii, jj], law))
            if not np.isfinite(law.mean) or law.mean <= 0.0:
                out.append(f"sojourn law for {i} -> {j} has non-finite mean")
            if i != 0 and law.is_heavy:
                out.append(f"heavy-tailed sojourn on active exit {i} -> {j}: active states "
                           "must be thin-tailed relative to t^-(alpha+1)")
            if i == 0:
                zero_exits[j] = law
    indices = sorted({law.tail_index for law in zero_exits.values() if law.is_heavy})
    if len(indices) > 1 or indices and not 1.0 < indices[0] < 2.0:
        out.append(f"inactive-state exits must share one tail index in (1, 2), got {indices}")
    if indices:
        out += [f"inactive-state exit 0 -> {j} is not heavy-tailed"
                for j, law in zero_exits.items() if not law.is_heavy]
    return out, indices[0] if indices else None, tuple(edges)


def _irreducible(p):
    n = p.shape[0]
    reach = (p > 0.0) | np.eye(n, dtype=bool)
    for _ in range(n):
        reach = reach @ reach
    return bool(reach.all())


def stationary_law(model: SemiMarkovModel) -> StationaryLaw:
    """The model's equilibrium law, solved on the first call and kept on the model.

    Every caller shares the one StationaryLaw, so its arrays are read-only.
    """
    if model._law is None:
        object.__setattr__(model, "_law", _solve_stationary_law(model))
    return model._law


def _solve_stationary_law(model):
    """Solve pi P = pi and assemble the occupation law, mean sojourns and recurrence times."""
    p = model.p
    n = len(model.states)
    a = np.vstack([p.T - np.eye(n), np.ones(n)])
    b = np.zeros(n + 1)
    b[-1] = 1.0
    pi, *_ = np.linalg.lstsq(a, b, rcond=None)
    residual = np.abs(pi @ p - pi).max()
    if residual > 1e-10 or np.any(pi <= 0.0):
        raise np.linalg.LinAlgError(f"stationary solve failed (residual {residual:.2e})")
    m_cond = np.zeros((n, n))
    for ii, jj, _, law in model.edges:
        m_cond[ii, jj] = law.mean
    m = (p * m_cond).sum(axis=1)
    nu = pi * m / (pi @ m)
    eta = m / nu
    mu = float(np.array(model.states) @ nu)
    for arr in (pi, nu, m, m_cond, eta):
        arr.setflags(write=False)
    return StationaryLaw(states=model.states, pi=pi, nu=nu, m=m, m_cond=m_cond, eta=eta, mu=mu)


def hurst_from_alpha(alpha):
    """Self-similarity exponent H = (3 - alpha)/2 for tail index alpha in (1,2)."""
    if not 1.0 < alpha < 2.0:
        raise ValueError(f"alpha must lie strictly inside (1, 2), got {alpha}")
    return (3.0 - alpha) / 2.0


def theorem_condition_value(model: SemiMarkovModel):
    """The product mu * sum_k k m_k / eta_k^2 whose positivity the limit theorem requires.

    Returns (holds, product, mu, sum); `holds` uses a relative zero threshold so
    exactly-centered models (mu = 0 up to roundoff) are reported as violations.
    """
    law = stationary_law(model)
    k = np.array(law.states, dtype=float)
    s = float((k * law.m / law.eta**2).sum())
    product = law.mu * s
    scale = float((np.abs(k) * law.m / law.eta**2).sum()) + 1e-300
    holds = product > 1e-9 * scale
    return holds, product, law.mu, s


def tail_constant_Cj(model: SemiMarkovModel, target):
    """C_j = (m_j / eta_j^2) E N_j = pi_0 nu_j / (pi . m) for an active state j.

    E N_j, the mean number of inactive-state visits between two entrances to j,
    is pi_0 / pi_j by the cycle formula (Norris 1997, Thm 1.7.6), and
    m_j / eta_j^2 = pi_j nu_j / (pi . m).
    """
    if target == 0 or target not in model.states:
        raise ValueError(f"tail constant is defined for the active states only, not {target}")
    law = stationary_law(model)
    return float(law.pi[law.states.index(0)] * law.nu[law.states.index(target)] / (law.pi @ law.m))


def limit_constant_c2(model: SemiMarkovModel):
    """c^2 = mu sum_j j C_j / [2H(1-H)(2H-1)] = pi_0 mu^2 / [(pi . m) 2H(1-H)(2H-1)].

    The closed form is `tail_constant_Cj`'s with sum_j j nu_j = mu.  Requires a
    heavy-tailed inactive state and the positivity condition
    mu * sum_k k m_k/eta_k^2 > 0: a ValueError says which fails.
    """
    h = model.hurst()
    holds, product, mu, _ = theorem_condition_value(model)
    if not holds:
        raise ValueError(
            f"limit-theorem condition violated: mu * sum_k k m_k/eta_k^2 = {product!r} "
            "must be strictly positive (fails e.g. for centered models with mu = 0)")
    law = stationary_law(model)
    pi0 = law.pi[law.states.index(0)]
    return float(pi0 * mu**2 / (law.pi @ law.m) / (2.0 * h * (1.0 - h) * (2.0 * h - 1.0)))


def wiener_constant_c2(model: SemiMarkovModel):
    """c2^2 = 2 ∫_0^∞ gamma = 2 k^T diag(nu) Z k for a Markov model, k the state labels.

    The exits from each state must share one exponential law; Z = (1 nu^T - G)^-1
    - 1 nu^T is the deviation matrix of the generator G = diag(1/m)(P - I).
    """
    width, laws = _sojourn_groups(model)
    if width > 1 or not all(isinstance(lw, Exponential) for lw in laws.values()):
        raise ValueError("the exits from each state must share one exponential law")
    law, n = stationary_law(model), len(model.states)
    a = np.outer(np.ones(n), law.nu) - (model.p - np.eye(n)) / law.m[:, None]  # 1 nu^T - G
    k = np.asarray(model.states, dtype=float)
    return float(2.0 * (law.nu * k) @ (np.linalg.solve(a, k) - law.nu @ k))  # Z k = a^-1 k - nu k


# -- the agent engine ---------------------------------------------------------

def _cumulative(weights):
    """Row-wise cumulative probabilities, pinned to 1 where they reach the row's total.

    The total is reached at the row's last positive weight, so with `_pick`
    every u in [0, 1) lands on a state of positive weight even when the row
    sums to 1 only up to rounding, trailing zeros or not.
    """
    cum = np.cumsum(weights, axis=-1)
    cum[cum >= cum[..., -1:]] = 1.0
    return cum


def _pick(cum, u):
    """Index k with cum[k-1] <= u < cum[k]; `cum` is one row or one row per draw."""
    return (u[:, None] >= cum).sum(axis=1)


def _sojourn_groups(model):
    """Group width w and the law of each sojourn group key.

    An agent entering state i with next state j draws its sojourn in group i
    (w = 1) when every row of the kernel has a single law, else in group
    i * w + j (w = number of states).
    """
    firsts = {}
    for ii, _, _, law in model.edges:
        firsts.setdefault(ii, law)
    if all(law == firsts[ii] for ii, _, _, law in model.edges):
        return 1, firsts
    width = len(model.states)
    return width, {ii * width + jj: law for ii, jj, _, law in model.edges}


def jump_rounds(model: SemiMarkovModel, n_agents, horizon, rng, initial_state=None):
    """The agent engine: n_agents independent copies of the process on [0, horizon).

    The first item yielded is the array of initial state indices xi_0.  Each
    later item is one jump round (agents, times, src, dst): the agents that
    jump next, their jump epochs in (0, horizon), and the state indices they
    leave and enter.  An agent jumps at most once per round and its epochs
    increase from round to round; epochs of different agents are not sorted.

    Every agent starts in equilibrium: xi_0 ~ nu (or xi_0 = initial_state
    when given), xi_1 = j with weight p_kj m_kj / m_k and a residual first
    sojourn from the integrated-tail law of G(k, j, .), which reproduces the
    joint density prop. to pi_k p_kj (1 - G(k, j, t)).

    Draw order, which fixes every stream built on the engine: the start takes
    rng.random(n_agents) for xi_0 (unless initial_state is given), then for
    each state k in turn one rng.random call for the next states of the agents
    in k and one sampler call per (k, j) for their first sojourns.  A round of
    m agents then takes one rng.random(2m): the first m values pick the next
    states, the last m are the sojourn uniforms, handed out group by group in
    ascending group order and in agent order within a group.  The group is the
    state entered, or the (entered, next) pair when some row of the kernel
    carries several laws; each group's ppf is called once on exactly its own
    uniforms, since a batch quantile (ParetoLog's bisection) depends on the
    whole batch.

    An array once yielded is never written again, so consumers may keep it.
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
    row = None
    for k_idx, j_idx, _, edge_law in model.edges:
        if k_idx != row:  # a new row: its agents pick their next states first
            row, mask = k_idx, cur == k_idx
            count = int(mask.sum())
            if count:
                nxt[mask] = _pick(start_cum[k_idx], rng.random(count))
        sub = mask & (nxt == j_idx)
        hits = int(sub.sum())
        if hits:
            t_now[sub] = edge_law.equilibrium_sample(rng, hits)

    width, group_law = _sojourn_groups(model)
    n_keys = width * n_states
    key_type = np.min_scalar_type(n_keys)  # a narrow key sorts by radix
    ppfs = [group_law[g].ppf if g in group_law else None for g in range(n_keys)]
    columns = [np.ascontiguousarray(column) for column in kernel_cum[:, :-1].T]
    live = np.flatnonzero(t_now < horizon)
    agents, t, src, dst = live, t_now[live], cur[live], nxt[live]
    while agents.size:
        yield agents, t, src, dst
        n = agents.size
        u = rng.random(2 * n)
        nxt = sum(u[:n] >= column[dst] for column in columns)
        key = (dst if width == 1 else dst * width + nxt).astype(key_type)
        # the groups' spans of u[n:], in Python ints: cheaper than numpy scalars
        start = n
        for ppf, count in zip(ppfs, np.bincount(key, minlength=n_keys).tolist()):
            if count:
                u[start:start + count] = ppf(u[start:start + count])
                start += count
        sojourn = np.empty(n)
        sojourn[np.argsort(key, kind="stable")] = u[n:]
        src, dst, t = dst, nxt, t + sojourn
        live = t < horizon
        if not live.all():
            agents, t, src, dst = agents[live], t[live], src[live], dst[live]


def states_at_times(model: SemiMarkovModel, times, n_replicates, rng, initial_state=None):
    """Vectorized marginal sampler: state of independent replicates at fixed times.

    Stationary initialisation throughout; `initial_state` conditions xi_0.
    Returns an (n_replicates, len(times)) integer array of state labels.
    A jump writes its new state once, at the first sorted time it reaches;
    each agent's epochs grow round by round, so the last write there wins,
    and one forward fill along the times completes the table.
    """
    times = np.asarray(times, dtype=float)
    order = np.argsort(times)
    sorted_times = times[order]
    rounds = jump_rounds(model, n_replicates, float(times.max()), rng,
                         initial_state=initial_state)
    # column 0 holds the start state, column c + 1 the state at sorted time c;
    # -1 marks a column no jump reached
    last = np.full((n_replicates, times.size + 1), -1, dtype=np.int64)
    last[:, 0] = next(rounds)
    for agents, t, _, dst in rounds:
        last[agents, np.searchsorted(sorted_times, t) + 1] = dst
    columns = np.where(last >= 0, np.arange(times.size + 1), 0)
    np.maximum.accumulate(columns, axis=1, out=columns)
    filled = np.take_along_axis(last, columns, axis=1)
    return np.array(model.states)[filled[:, np.argsort(order) + 1]]
