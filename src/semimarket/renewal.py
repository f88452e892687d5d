"""Discretized Markov-renewal solver.

Computes first-passage laws, stationary transition probabilities, the
covariance function of the stationary mood process and its predicted
heavy-tail asymptotics, and the heavy-tailed key renewal check.
Stationary transitions and the covariance are two reductions of one routine
that forms the equilibrium equations: the equations are linear in the start
state, so weighted start states are summed first and each target state and
weight row costs one scalar renewal solve.

Numerics: uniform time grid; Stieltjes convolutions pair exact CDF increments
with a piecewise-linear (trapezoid) interpolant of the continuous factor;
implicit renewal-type equations are solved by divide and conquer, with one
inverse of the shift-invariant leaf matrix and direct or FFT coupling between
halves, in O(M log^2 M + M * block) for M grid points, then refined once with
an extended-precision residual, so horizons of ~10^4 time units at fine steps
stay cheap and accurate to the last digits.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.fft import next_fast_len
from scipy.integrate import cumulative_trapezoid
from scipy.signal import fftconvolve

from .semi_markov import SemiMarkovModel, StationaryLaw, stationary_law, \
    expected_visits_before_hit, limit_constant_c2

__all__ = [
    "Grid",
    "GridFunction",
    "KernelGrid",
    "kernel_on_grid",
    "first_passage",
    "stationary_first_passage",
    "stationary_transition",
    "tail_constant_Cj",
    "covariance_gamma",
    "variance_of_integral",
    "asymptotic_covariance",
    "key_renewal_asymptote",
    "write_grid_csv",
]


@dataclass(frozen=True)
class Grid:
    """Uniform time grid t_m = m * dt, m = 0..n_points-1."""

    dt: float
    n_points: int

    def __post_init__(self):
        if not self.dt > 0.0:
            raise ValueError("grid step must be positive")
        if self.n_points < 2:
            raise ValueError("grid needs at least two points")

    @property
    def horizon(self):
        return self.dt * (self.n_points - 1)

    def times(self):
        return self.dt * np.arange(self.n_points)

    @classmethod
    def for_horizon(cls, horizon, dt):
        return cls(dt=dt, n_points=int(np.ceil(horizon / dt)) + 1)


@dataclass(frozen=True)
class GridFunction:
    grid: Grid
    values: np.ndarray
    kind: str = "plain"  # distribution | plain

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.n_points,):
            raise ValueError("values must match the grid size")
        object.__setattr__(self, "values", v)
        slack = 10.0 * self.grid.dt
        if self.kind == "distribution":
            if np.any(np.diff(v) < -slack) or v.min() < -slack or v.max() > 1.0 + slack:
                raise ValueError("distribution-kind grid function out of bounds; "
                                 "grid step too coarse for this kernel")

    def at(self, t):
        return np.interp(np.asarray(t, dtype=float), self.grid.times(), self.values)


@dataclass(frozen=True)
class KernelGrid:
    """Semi-Markov kernel Q(i,j,t) = p_ij G(i,j,t) tabulated on a grid."""

    grid: Grid
    states: tuple
    q: np.ndarray          # (E, E, M)
    survival: np.ndarray   # h(i, t) = 1 - sum_j Q(i,j,t), exact

    @property
    def dq(self):
        inc = np.zeros_like(self.q)
        inc[:, :, 1:] = np.diff(self.q, axis=2)
        return inc


def kernel_on_grid(model: SemiMarkovModel, grid: Grid) -> KernelGrid:
    states = model.space.states
    n = len(states)
    t = grid.times()
    q = np.zeros((n, n, grid.n_points))
    h = np.ones((n, grid.n_points))
    for ii, i in enumerate(states):
        for jj, j in enumerate(states):
            pij = model.chain.p[ii, jj]
            if pij > 0.0:
                q[ii, jj] = pij * model.law(i, j).cdf(t)
        h[ii] = 1.0 - q[ii].sum(axis=0)
    total = q[:, :, -1].sum(axis=1)
    if np.any(total > 1.0 + 1e-9):
        raise ValueError("kernel mass exceeds 1; inconsistent transition laws")
    return KernelGrid(grid=grid, states=states, q=q, survival=h)


# -- Stieltjes convolution and Volterra solver ------------------------------

def conv_stieltjes(dF, g, atom0=0.0):
    """(F * g)(t_m) = atom0 g(t_m) + sum_l (g(t_{m-l}) + g(t_{m-l+1}))/2 dF_l.

    dF holds exact increments dF[l] = F(t_l) - F(t_{l-1}) (dF[0] ignored);
    atom0 is a point mass of F at t = 0.
    """
    dF = np.asarray(dF, dtype=float)
    g = np.asarray(g, dtype=float)
    m1 = g.size
    u = dF[1:m1]
    conv = fftconvolve(u, g)
    out = np.empty(m1)
    out[0] = 0.0
    upad = np.concatenate([u, [0.0, 0.0]])
    out[1:] = 0.5 * (conv[: m1 - 1] + conv[1:m1] - upad[1:m1] * g[0])
    if atom0 != 0.0:
        out = out + atom0 * g
    else:
        out[0] = 0.0
    return out


class _ToeplitzSolver:
    """Divide-and-conquer solver of sum_{d=0}^{n} coef[..., d] x[:, n-d] = rhs[:, n].

    coef: (q, q, N) lag blocks of a block lower-triangular Toeplitz matrix.
    Leaves of width `block` are solved with one inverse of the leaf matrix,
    which the shift invariance makes the same for every leaf; a solved left
    half is folded into the right half's rhs by direct convolution for spans
    up to DIRECT_LEAVES leaves and by FFT beyond, the kernel spectra being
    computed once per FFT length.
    """

    # below this span a direct convolution beats the FFT round trip
    DIRECT_LEAVES = 8

    def __init__(self, coef, block):
        q, _, n = coef.shape
        self.coef = coef
        self.block = block
        size = min(block, n)
        lag = np.subtract.outer(np.arange(size), np.arange(size))
        leaf = np.where(lag >= 0, coef[:, :, np.maximum(lag, 0)], 0.0)
        self.leaf_inv = np.linalg.inv(leaf.transpose(2, 0, 3, 1).reshape(size * q, size * q))
        self.active = [(i, k) for i in range(q) for k in range(q) if np.any(coef[i, k, 1:])]
        self.spectra = {}

    def solve(self, rhs):
        """Solution for the right-hand side rhs (q, N); rhs is overwritten."""
        x = np.empty_like(rhs)
        self._span(x, rhs, 0, rhs.shape[1])
        return x

    def _span(self, x, rhs, lo, hi):
        """Solve unknowns lo..hi-1; rhs[:, lo:hi] already holds every earlier one."""
        n = hi - lo
        if n <= self.block:
            q = x.shape[0]
            b = rhs[:, lo:hi].T.reshape(-1)
            x[:, lo:hi] = (self.leaf_inv[: n * q, : n * q] @ b).reshape(n, q).T
            return
        leaves = -(-n // self.block)
        mid = lo + self.block * ((leaves + 1) // 2)
        self._span(x, rhs, lo, mid)
        if n <= self.DIRECT_LEAVES * self.block:
            for i, k in self.active:
                rhs[i, mid:hi] -= np.convolve(self.coef[i, k, 1:n], x[k, lo:mid], "valid")
        elif self.active:
            rhs[:, mid:hi] -= self._far_field(x[:, lo:mid], n)
        self._span(x, rhs, mid, hi)

    def _far_field(self, left, n):
        """Contribution of the solved left part to the rest of a span of n unknowns.

        Only outputs h-1..n-2 of the linear convolution of `left` (length h)
        with lags 1..n-1 are wanted, and a cyclic convolution of length
        fft_len >= n-1 gets them right, whatever lags beyond n-1 it adds.
        """
        h = left.shape[1]
        fft_len = next_fast_len(n - 1, real=True)
        spec = self.spectra.get(fft_len)
        if spec is None:
            lags = self.coef[:, :, 1 : fft_len + 1]
            spec = self.spectra[fft_len] = np.fft.rfft(lags, fft_len, axis=-1)
        prod = np.einsum("ikf,kf->if", spec, np.fft.rfft(left, fft_len, axis=-1))
        return np.fft.irfft(prod, fft_len, axis=-1)[:, h - 1 : n - 1]


def solve_volterra(forcing, dk, block=128):
    """Solve x_i(t) = f_i(t) + sum_k ∫_0^t x_k(t-u) dK_ik(u) on the grid.

    forcing: (q, M) values of f_i; dk: (q, q, M) exact kernel increments with
    dk[..., 0] == 0.  Trapezoid coupling in x, same quadrature as
    conv_stieltjes.  The discretized equation is a block lower-triangular
    Toeplitz system in x_1..x_{M-1}, solved by divide and conquer (Hairer,
    Lubich & Schlichte 1985): leaves of width `block` are solved with one
    precomputed inverse of the shift-invariant leaf matrix, and each solved
    left half is folded into the right half by direct or FFT convolution, so
    the cost is O(M log^2 M + M * block).

    The renewal structure carries the rounding errors of a solve forward and
    lets them grow along the grid, so one step of iterative refinement
    follows, with the residual taken in extended precision (np.longdouble,
    80-bit on x86-64) by FFT; the result is then about as accurate as its
    float64 rounding, whatever the leaf width.
    """
    forcing = np.atleast_2d(np.asarray(forcing, dtype=float))
    dk = np.asarray(dk, dtype=float)
    q, m1 = forcing.shape
    if dk.shape != (q, q, m1):
        raise ValueError("kernel increment array must have shape (q, q, M)")
    x = np.empty((q, m1))
    x[:, 0] = forcing[:, 0]
    n = m1 - 1
    if n == 0:
        return x
    # coef[..., 0] = I - dk_1/2 multiplies x_m itself; coef[..., d] =
    # -(dk_d + dk_{d+1})/2 multiplies x_{m-d} for 1 <= d <= m-1; the known
    # x_0 terms dk_m/2 x_0 go to the right-hand side b
    coef = np.empty((q, q, n))
    coef[:, :, 0] = np.eye(q) - 0.5 * dk[:, :, 1]
    coef[:, :, 1:] = -0.5 * (dk[:, :, 1:n] + dk[:, :, 2:])
    b = forcing[:, 1:] + 0.5 * np.einsum("ikm,k->im", dk[:, :, 1:], x[:, 0])
    solver = _ToeplitzSolver(coef, block)
    y = solver.solve(b.copy())
    # residual b - T y in extended precision; the lags >= 1 by FFT
    resid = np.einsum("ik,kn->in", coef[:, :, 0], y, dtype=np.longdouble)
    np.subtract(b, resid, out=resid)
    fft_len = next_fast_len(2 * n - 1, real=True)
    for i, k in solver.active:
        spec = np.fft.rfft(coef[i, k, 1:].astype(np.longdouble), fft_len)
        spec *= np.fft.rfft(y[k].astype(np.longdouble), fft_len)
        resid[i, 1:] -= np.fft.irfft(spec, fft_len)[: n - 1]
    x[:, 1:] = y + solver.solve(resid.astype(float))
    return x


# -- first passage and stationary transition ---------------------------------

def first_passage(model: SemiMarkovModel, grid: Grid, target, kernel: KernelGrid | None = None):
    """First-passage distributions F(i, target, .) for every start state i.

    F(i,j,t) = Q(i,j,t) + sum_{k != j} ∫_0^t F(k,j,t-u) Q(i,k,du); the
    (target, target) entry is the law of the next entrance time.
    """
    kernel = kernel if kernel is not None else kernel_on_grid(model, grid)
    states = list(kernel.states)
    jj = states.index(target)
    others = [k for k in range(len(states)) if k != jj]
    dq = kernel.dq
    x = solve_volterra(kernel.q[others, jj], dq[np.ix_(others, others)])
    out = {}
    for a, i in enumerate(others):
        out[states[i]] = GridFunction(grid, np.clip(x[a], 0.0, None), kind="distribution")
    ret = kernel.q[jj, jj].copy()
    for b, k in enumerate(others):
        ret += conv_stieltjes(dq[jj, k], x[b])
    out[target] = GridFunction(grid, np.clip(ret, 0.0, None), kind="distribution")
    return out


def _renewal_solve(forcing, f_values):
    """Solve w = forcing + F * w on the grid, F given by its values there."""
    df = np.zeros(f_values.size)
    df[1:] = np.diff(f_values)
    return solve_volterra(forcing[None, :], df[None, None, :])[0]


def _stationary_pieces(model, law: StationaryLaw, grid: Grid):
    """Exact s(i,t) = P*{xi_0 = i, T_1 > t} and shat(i,k,t) = P*{xi_1=k, T_1<=t | xi_0=i}."""
    states = model.space.states
    n = len(states)
    t = grid.times()
    p = model.chain.p
    total_pm = float(law.pi @ law.m)
    s = np.zeros((n, grid.n_points))
    shat = np.zeros((n, n, grid.n_points))
    for ii, i in enumerate(states):
        tail_int = np.zeros(grid.n_points)
        for kk, k in enumerate(states):
            if p[ii, kk] <= 0.0:
                continue
            it = model.law(i, k).integrated_tail(t)
            tail_int += p[ii, kk] * it
            shat[ii, kk] = p[ii, kk] * (law.m_cond[ii, kk] - it) / law.m[ii]
        s[ii] = law.pi[ii] * tail_int / total_pm
    return s, shat


def stationary_first_passage(model: SemiMarkovModel, grid: Grid, start, target,
                             passage=None, law: StationaryLaw | None = None,
                             pieces=None):
    """F*(i,j,.) under the equilibrium initial law.

    F* = shat(i,j,.) + sum_{k != j} F(k,j,.) * shat(i,k,d.).
    """
    law = law if law is not None else stationary_law(model)
    passage = passage if passage is not None else first_passage(model, grid, target)
    _, shat = pieces if pieces is not None else _stationary_pieces(model, law, grid)
    states = list(model.space.states)
    ii = states.index(start)
    jj = states.index(target)
    out = shat[ii, jj].copy()
    for kk, k in enumerate(states):
        if kk == jj:
            continue
        dsh = np.zeros(grid.n_points)
        dsh[1:] = np.diff(shat[ii, kk])
        out += conv_stieltjes(dsh, passage[k].values)
    return GridFunction(grid, np.clip(out, 0.0, None), kind="distribution")


def _equilibrium_deviations(model, grid, law: StationaryLaw, targets, weights):
    """D[t, r] = sum_i weights[r, i] (P*(i, targets[t]) - nu_targets[t]) on the grid.

    P*_t(i,j) = delta_ij s(i,t)/nu_i + ∫_0^t h(j,t-u) R*(i,j,du) with
    R*(i,j,.) = R(j,j,.) * F*(i,j,.).  Every step is linear in the start
    state, so each weight row is applied to F*(., j) first.  The convolution
    against the renewal measure is rolled into one renewal equation
    w = z + dF(j,j)*w with z = dF*_row * h(j,.) (so w = z * dR), and the exact
    limit nu_j = m_j/eta_j is subtracted afterwards; the Stieltjes increments
    keep the renewal mass exact, so no spurious offset survives under the
    heavy-tail decay.  Cost: one first passage and one scalar renewal solve
    per weight row for each target.
    """
    kernel = kernel_on_grid(model, grid)
    pieces = _stationary_pieces(model, law, grid)
    s = pieces[0]
    states = list(model.space.states)
    weights = np.asarray(weights, dtype=float)
    starts = [ii for ii in range(len(states)) if np.any(weights[:, ii])]
    out = np.empty((len(targets), weights.shape[0], grid.n_points))
    for t, j in enumerate(targets):
        jj = states.index(j)
        passage = first_passage(model, grid, j, kernel=kernel)
        fstar = np.zeros((len(states), grid.n_points))
        for ii in starts:
            fstar[ii] = stationary_first_passage(model, grid, states[ii], j, passage=passage,
                                                 law=law, pieces=pieces).values
        for r, row in enumerate(weights @ fstar):
            drow = np.zeros(grid.n_points)
            drow[1:] = np.diff(row)
            z = conv_stieltjes(drow, kernel.survival[jj])
            w = _renewal_solve(z, passage[j].values)
            out[t, r] = (w - law.nu[jj] * weights[r].sum()
                         + weights[r, jj] * s[jj] / law.nu[jj])
    return out


def stationary_transition(model: SemiMarkovModel, grid: Grid,
                          law: StationaryLaw | None = None):
    """Equilibrium transition probabilities P*_t(i,j) for all state pairs.

    P*_t(i,j) = delta_ij s(i,t)/nu_i + ∫_0^t h(j,t-s) R*(i,j,ds), formed in
    deviation form with one renewal solve per state pair and nu_j added back.
    Rows must sum to 1 within 10*dt and approach nu at the horizon.
    """
    law = law if law is not None else stationary_law(model)
    if grid.dt > min(law.m) / 20.0 + 1e-12:
        raise ValueError(
            f"grid step {grid.dt} too coarse: need dt <= min mean sojourn / 20 "
            f"= {min(law.m) / 20.0}")
    states = list(model.space.states)
    dev = _equilibrium_deviations(model, grid, law, states, np.eye(len(states)))
    out = dev.transpose(1, 0, 2) + law.nu[None, :, None]  # out[i, j] = P*(i, j)
    drift = np.abs(out.sum(axis=1) - 1.0).max()
    if drift > 10.0 * grid.dt:
        raise ValueError(f"P* row sums drift {drift:.3e} beyond 10*dt; refine the grid")
    return {(i, j): GridFunction(grid, out[ii, jj], kind="plain")
            for ii, i in enumerate(states) for jj, j in enumerate(states)}


# -- limit constants and covariance -----------------------------------------

def tail_constant_Cj(model: SemiMarkovModel, target, law: StationaryLaw | None = None):
    """C_j = (m_j / eta_j^2) * expected inactive-state visits between entrances to j."""
    if target == 0:
        raise ValueError("tail constant is defined for active states only (j != 0)")
    law = law if law is not None else stationary_law(model)
    jj = list(law.states).index(target)
    visits = expected_visits_before_hit(model, target, target)
    return float(law.m[jj] / law.eta[jj] ** 2 * visits)


def covariance_gamma(model: SemiMarkovModel, grid: Grid,
                     law: StationaryLaw | None = None) -> GridFunction:
    """Equilibrium covariance gamma(t) = sum_{i,j} i j nu_i (P*_t(i,j) - nu_j).

    Only i, j != 0 contribute.  The start states are summed with weights
    i nu_i before the solve, so each active target j costs one first passage
    and one scalar renewal solve.  Each summand is in deviation form, so
    gamma -> 0 exactly on the grid; the heavy-tail decay at large t is then
    visible instead of drowning under a constant discretization offset.
    """
    law = law if law is not None else stationary_law(model)
    states = list(model.space.states)
    active = [st for st in states if st != 0]
    weights = (np.asarray(states, dtype=float) * law.nu)[None, :]
    dev = _equilibrium_deviations(model, grid, law, active, weights)
    gamma = np.asarray(active, dtype=float) @ dev[:, 0]
    return GridFunction(grid, gamma, kind="plain")


def variance_of_integral(gamma: GridFunction) -> GridFunction:
    """Var(t) = 2 ∫_0^t ∫_0^v gamma(u) du dv by cumulative trapezoid."""
    inner = cumulative_trapezoid(gamma.values, dx=gamma.grid.dt, initial=0.0)
    outer = cumulative_trapezoid(inner, dx=gamma.grid.dt, initial=0.0)
    return GridFunction(gamma.grid, 2.0 * outer, kind="plain")


def asymptotic_covariance(model: SemiMarkovModel, t):
    """Predicted large-t covariance c^2 H (2H-1) t^(2H-2) L(t)."""
    c2 = limit_constant_c2(model)
    h = model.hurst()
    t = np.asarray(t, dtype=float)
    return c2 * h * (2.0 * h - 1.0) * t ** (2.0 * h - 2.0) * model.tail_scale(t)


# -- heavy-tailed key renewal check ------------------------------------------

def _simpson_integral(values, dt):
    """Composite Simpson over the whole grid (trapezoid closing an odd leftover)."""
    n = values.size
    if n < 3:
        return float(np.trapezoid(values, dx=dt))
    m = n if n % 2 == 1 else n - 1
    core = values[:m]
    total = core[0] + core[-1] + 4.0 * core[1:-1:2].sum() + 2.0 * core[2:-2:2].sum()
    total *= dt / 3.0
    if m < n:
        total += 0.5 * dt * (values[-2] + values[-1])
    return float(total)


def key_renewal_asymptote(f_law, z: GridFunction, grid: Grid):
    """Residual h(t) = lambda/kappa - ∫_0^t z(t-s) U(ds) and its predicted tail.

    U is the renewal function of `f_law`; kappa its mean, lambda = ∫ z.  For a
    heavy law with index alpha in (1,2) the predicted residual is
    -lambda/((alpha-1) kappa^2) t^(1-alpha) L(t).  Light-tailed laws are
    computed but reported not applicable.
    """
    t = grid.times()
    if np.any(z.values < -1e-12):
        raise ValueError("z must be nonnegative")
    fbar = f_law.tail(t)
    kappa = f_law.mean
    lam = _simpson_integral(z.values, grid.dt)
    w = _renewal_solve(z.values, f_law.cdf(t))
    h_num = lam / kappa - w
    report = {"kappa": kappa, "lambda": lam, "ratio_limit": float(lam / kappa),
              "applicable": bool(f_law.is_heavy)}
    predicted = None
    if f_law.is_heavy:
        alpha = f_law.tail_index
        with np.errstate(divide="ignore", invalid="ignore"):
            pred = -lam / ((alpha - 1.0) * kappa**2) * t ** (1.0 - alpha) \
                * f_law.slowly_varying_factor(t)
        pred[0] = 0.0
        tail_ratio = float(z.values[-1] / max(fbar[-1], 1e-300))
        mid_ratio = float(z.at(0.5 * grid.horizon) / max(f_law.tail(0.5 * grid.horizon), 1e-300))
        report["z_tail_ratio"] = tail_ratio
        report["z_precondition_ok"] = bool(tail_ratio <= max(0.1 * mid_ratio, 1e-6))
        if not report["z_precondition_ok"]:
            report["warning"] = "z(t) does not vanish relative to the survival function"
        predicted = GridFunction(grid, pred, kind="plain")
    return GridFunction(grid, h_num, kind="plain"), predicted, report


def write_grid_csv(path, quantity, gf: GridFunction):
    """Emit a grid table as CSV with columns t,quantity,value."""
    t = gf.grid.times()
    with open(path, "w") as fh:
        fh.write("t,quantity,value\n")
        for ti, vi in zip(t, gf.values):
            fh.write(f"{float(ti)!r},{quantity},{float(vi)!r}\n")
