"""Discretized Markov-renewal solver.

Computes first-passage laws, stationary transition probabilities, the
covariance function of the stationary mood process and its predicted
heavy-tail asymptotics, and the heavy-tailed key renewal check.
Stationary transitions and the covariance are two reductions of one routine
that forms the equilibrium equations: the equations are linear in the start
state, so weighted start states are summed first and each target state and
weight row costs one scalar renewal solve.

Numerics: uniform time grid, results as `SamplePath`s; CDFs come in as grid
values, and Stieltjes convolutions pair their exact increments with a
piecewise-linear (trapezoid) interpolant of the continuous factor; implicit
renewal-type equations are solved by the Newton series inverse of their lag
blocks, O(M log M) for M grid points, then refined once.  The refinement's
residual needs more than float64 precision and gets it from float64 alone:
the lag blocks and the first solution are each split into an integer-valued
high part and a remainder; the high parts' FFT product is rounded back to its
exact integers, and the remainder's product is 2^-bits smaller than the
whole, so its rounding error is too.  Horizons of ~10^4 time units at fine
steps thus stay cheap and meet the discretized equations to the last digits
on any platform; those are O(dt^2) off the continuous ones (gamma(1e3) of
LIMIT_MODEL is 3.3e-6 low at dt 0.025, a factor 4 less per halving of dt).
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .paths import SamplePath
from .semi_markov import SemiMarkovModel, limit_constant_c2, stationary_law

__all__ = [
    "Grid",
    "KernelGrid",
    "kernel_on_grid",
    "first_passage",
    "check_grid_step",
    "stationary_transition",
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
        """The grid of step dt that reaches horizon; a whole number of steps lands on it.

        horizon / dt is taken as whole when within 4 ulps of an integer, so
        a rounding error such as 0.14 / 0.02 = 7.000000000000001 costs no
        extra step.
        """
        steps = horizon / dt
        whole = round(steps)
        if abs(steps - whole) > 4.0 * math.ulp(whole):
            whole = math.ceil(steps)
        return cls(dt=dt, n_points=whole + 1)


@dataclass(frozen=True)
class KernelGrid:
    """Semi-Markov kernel Q(i,j,t) = p_ij G(i,j,t) tabulated on a grid."""

    grid: Grid
    states: tuple
    q: np.ndarray          # (E, E, M)
    survival: np.ndarray   # h(i, t) = 1 - sum_j Q(i,j,t), exact


def kernel_on_grid(model: SemiMarkovModel, grid: Grid) -> KernelGrid:
    states = model.states
    n = len(states)
    t = grid.times()
    q = np.zeros((n, n, grid.n_points))
    h = np.ones((n, grid.n_points))
    for ii, i in enumerate(states):
        for jj, j in enumerate(states):
            pij = model.p[ii, jj]
            if pij > 0.0:
                q[ii, jj] = pij * model.law(i, j).cdf(t)
        h[ii] = 1.0 - q[ii].sum(axis=0)
    return KernelGrid(grid=grid, states=states, q=q, survival=h)


# -- Stieltjes convolution and Volterra solver ------------------------------

@functools.lru_cache(maxsize=256)
def _next_fast_len(target):
    """Smallest 2^a 3^b 5^c >= target, a fast real FFT length for pocketfft."""
    best = 1 << (target - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << (-(-target // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _fftconvolve(a, b):
    """Full linear convolution of two real 1-d arrays by FFT at a fast length."""
    if min(a.size, b.size) <= 1:  # a plain product, exact
        return a * b
    n = a.size + b.size - 1
    m = _next_fast_len(n)
    return np.fft.irfft(np.fft.rfft(a, m) * np.fft.rfft(b, m), m)[:n]


def _cumulative_trapezoid(y, dx):
    """Running trapezoid integral of samples y at spacing dx, starting from 0."""
    return np.concatenate([[0.0], np.cumsum(dx * (y[1:] + y[:-1]) / 2.0)])


def conv_stieltjes(F, g):
    """(F * g)(t_m) = sum_l (g(t_{m-l}) + g(t_{m-l+1}))/2 dF_l over l = 1..m.

    F holds values on the grid, dF_l = F(t_l) - F(t_{l-1}) its exact
    increments; an atom F(t_0) at t = 0 is ignored.
    """
    g = np.asarray(g, dtype=float)
    m1 = g.size
    u = np.diff(np.asarray(F, dtype=float)[:m1])
    conv = _fftconvolve(u, g)
    out = np.empty(m1)
    out[0] = 0.0
    upad = np.concatenate([u, [0.0, 0.0]])
    out[1:] = 0.5 * (conv[: m1 - 1] + conv[1:m1] - upad[1:m1] * g[0])
    return out


def _lag_product(a, b, n, size=None):
    """Lags 0..n-1 of the series product a(z) b(z), lag blocks multiplied as matrices.

    a: (q, r, la), b: (r, p, lb).  One FFT product of cyclic length `size`,
    by default a fast length >= la + lb - 1 where nothing wraps round; a
    shorter one folds lags size.. onto lags 0.. .  Each spectrum is freed as
    soon as it is used.
    """
    if size is None:
        size = _next_fast_len(a.shape[-1] + b.shape[-1] - 1)
    spec = np.fft.rfft(a, size)
    spec = np.einsum("ikf,kjf->ijf", spec, np.fft.rfft(b, size))
    full = np.fft.irfft(spec, size)
    del spec
    return full[..., :n].copy()


def _series_inverse(coef):
    """Lag blocks D (q, q, n) of C(z)^-1 mod z^n for C's lag blocks coef (q, q, n).

    Newton doubling from C_0^-1: with D right in lags below h,
    D <- D + D (I - C D) mod z^2h, where I - C D vanishes below lag h.
    Each doubling is two FFT products.
    """
    n = coef.shape[-1]
    inv = np.linalg.inv(coef[:, :, 0])[:, :, None]
    while (h := inv.shape[-1]) < n:
        w = min(2 * h, n)
        # lags h..w-1 of I - C D; a cyclic length >= w folds only onto lags < h
        resid = -_lag_product(coef[:, :, :w], inv, w, _next_fast_len(w))[:, :, h:]
        inv = np.concatenate([inv, _lag_product(inv[:, :, : w - h], resid, w - h)], axis=-1)
    return inv


def _hi_bits(q, size):
    """Bits of the integer high parts in `_toeplitz_product` at q rows and FFT length size.

    One output lag of the integer product sums at most q * size/2 products
    below 2^(2 bits) each, so it stays below 2^47 and its FFT comes back
    within far less than 1/2 of the exact integer (Percival 2003).
    """
    return int(47 - np.log2(q * size)) // 2


def _scale(a, bits):
    """The power of two that takes max|a| below 2^bits."""
    return np.ldexp(1.0, bits - int(np.frexp(np.abs(a).max())[1]))


def _split(a, scale):
    """[hi, lo] with a = hi / scale + lo exactly, hi integer-valued; scale a power of two."""
    out = np.empty((2,) + a.shape)
    np.rint(a * scale, out=out[0])
    np.subtract(a, out[0] / scale, out=out[1])
    return out


def _toeplitz_product(coef, y, size):
    """T y = exact + rest for the block lower-triangular Toeplitz T with lag blocks coef.

    coef (q, q, n) and y (q, n) are each split as hi / scale + lo with one
    power-of-two scale per array and |hi| <= 2^bits (`_split`, after Ozaki
    et al. 2012).  `exact` is hi * hi / scales: an integer convolution, taken
    by FFT at cyclic length `size` (>= 2n - 1) and rounded back to the exact
    integers, so it carries no rounding error at all.  `rest` =
    hi * lo / scale + lo * y is 2^-bits smaller than T y, and so is its
    float64 rounding.  Lag 0 is a plain product.  Lags >= 1 are transformed
    for the nonzero kernel pairs only and each y[k] once; each row's sums
    are transformed back once per part, and each spectrum is freed as soon
    as it is used.
    """
    q, _, n = coef.shape
    bits = _hi_bits(q, size)
    sc, sy = _scale(coef, bits), _scale(y, bits)
    c0, ys = _split(coef[:, :, 0], sc), _split(y, sy)
    exact = c0[0] @ ys[0]
    rest = c0[1] @ y + c0[0] @ ys[1] / sc
    ys = np.fft.rfft(ys, size)
    for i in range(q):
        acc = None
        for k in np.flatnonzero(np.any(coef[i, :, 1:], axis=-1)):
            # [C_hi, C_lo] -> [C_hi Y_hi, C_hi Y_lo / sc + C_lo Y], in place
            spec = np.fft.rfft(_split(coef[i, k, 1:], sc), size)
            tmp = spec[1] * ys[1, k]
            spec[1] *= ys[0, k]
            spec[1] /= sy
            spec[1] += tmp
            np.multiply(spec[0], ys[1, k], out=tmp)
            tmp /= sc
            spec[1] += tmp
            spec[0] *= ys[0, k]
            del tmp
            if acc is None:
                acc = spec
            else:
                acc += spec
        if acc is not None:
            part = np.fft.irfft(acc[0], size)[: n - 1]
            exact[i, 1:] += np.rint(part, out=part)
            del part
            rest[i, 1:] += np.fft.irfft(acc[1], size)[: n - 1]
    return exact / sc / sy, rest


def _volterra_system(forcing, kern):
    """Lag blocks coef (q, q, n) and right-hand side b (q, n) of the discretized equation.

    With dk_d = K(t_d) - K(t_{d-1}): coef[..., 0] = I - dk_1/2 multiplies x_m
    itself; coef[..., d] = -(dk_d + dk_{d+1})/2 multiplies x_{m-d} for
    1 <= d <= m-1; the known x_0 = forcing[:, 0] terms dk_m/2 x_0 go to b.
    """
    q, m1 = forcing.shape
    n = m1 - 1
    dk = np.diff(kern, axis=-1)  # dk[..., d - 1] = dk_d
    coef = np.empty((q, q, n))
    coef[:, :, 0] = np.eye(q) - 0.5 * dk[:, :, 0]
    coef[:, :, 1:] = -0.5 * (dk[:, :, : n - 1] + dk[:, :, 1:])
    b = forcing[:, 1:] + 0.5 * np.einsum("ikm,k->im", dk, forcing[:, 0])
    return coef, b


def solve_volterra(forcing, kern):
    """Solve x_i(t) = f_i(t) + sum_k ∫_0^t x_k(t-u) dK_ik(u) on the grid.

    forcing: (q, M) values of f_i; kern: (q, q, M) values of K_ik, differenced
    here.  Trapezoid coupling in x, same quadrature as conv_stieltjes.  The
    discretized equation is a block lower-triangular Toeplitz system T x = b
    in x_1..x_{M-1} with lag blocks C_d, so its inverse is block
    lower-triangular Toeplitz too, with the lag blocks D of the series
    C(z)^-1.  D comes from the Newton series inverse (Kung 1974; Brent & Kung
    1978) in O(M log M); its spectrum, taken once, applies it.

    The renewal structure carries the rounding errors of a solve forward and
    lets them grow along the grid, so one step of iterative refinement
    follows.  Its residual b - T y is formed in float64 from an error-free
    split (`_toeplitz_product`): T y = exact + rest, where `exact`, the FFT
    product of integer-valued high parts, is rounded back to its exact
    integers and `rest` is 2^-bits times smaller than T y.  The residual is
    then as good as one taken in far wider arithmetic, on every platform,
    and the result about as accurate as its float64 rounding.
    """
    forcing = np.atleast_2d(np.asarray(forcing, dtype=float))
    kern = np.asarray(kern, dtype=float)
    q, m1 = forcing.shape
    if kern.shape != (q, q, m1):
        raise ValueError("kernel value array must have shape (q, q, M)")
    n = m1 - 1
    if n == 0:
        return forcing.copy()
    coef, b = _volterra_system(forcing, kern)
    size = _next_fast_len(2 * n - 1)
    inv = np.fft.rfft(_series_inverse(coef), size)

    def apply_inverse(v):
        return np.fft.irfft(np.einsum("ikf,kf->if", inv, np.fft.rfft(v, size)), size)[:, :n]

    y = apply_inverse(b).copy()
    exact, rest = _toeplitz_product(coef, y, size)
    y += apply_inverse((b - exact) - rest)
    return np.concatenate([forcing[:, :1], y], axis=1)


# -- first passage and stationary transition ---------------------------------

def _cdf_path(dt, values):
    """The CDF values clipped at 0, as a path; a fall or an overshoot of 1 beyond 10*dt raises."""
    v = np.clip(values, 0.0, None)
    slack = 10.0 * dt
    if np.any(np.diff(v) < -slack) or v.max() > 1.0 + slack:
        raise ValueError("distribution out of bounds; grid step too coarse for this kernel")
    return SamplePath(dt, v)


def first_passage(kernel: KernelGrid, target):
    """First-passage distributions F(i, target, .) for every start state i.

    F(i,j,t) = Q(i,j,t) + sum_{k != j} ∫_0^t F(k,j,t-u) Q(i,k,du); the
    (target, target) entry is the law of the next entrance time.
    """
    states, q, dt = list(kernel.states), kernel.q, kernel.grid.dt
    jj = states.index(target)
    others = [k for k in range(len(states)) if k != jj]
    x = solve_volterra(q[others, jj], q[np.ix_(others, others)])
    out = {states[i]: _cdf_path(dt, x[a]) for a, i in enumerate(others)}
    ret = q[jj, jj].copy()
    for b, k in enumerate(others):
        if q[jj, k].any():  # a zero kernel pair adds exact zeros
            ret += conv_stieltjes(q[jj, k], x[b])
    out[target] = _cdf_path(dt, ret)
    return out


def _stationary_pieces(model, grid: Grid):
    """Exact s(i,t) = P*{xi_0 = i, T_1 > t} and shat(i,k,t) = P*{xi_1=k, T_1<=t | xi_0=i}."""
    law = stationary_law(model)
    states = model.states
    n = len(states)
    t = grid.times()
    p = model.p
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


def _fstar(shat_row, passage, states, target):
    """F*(i,j,.) = shat(i,j,.) + sum_{k != j} F(k,j,.) * shat(i,k,d.) for j = target.

    shat_row is shat(i,.,.) of `_stationary_pieces`, passage the first
    passages F(., j, .) of `first_passage`.
    """
    jj = states.index(target)
    out = shat_row[jj].copy()
    for kk, k in enumerate(states):
        if kk == jj or not shat_row[kk].any():  # a zero pair adds exact zeros
            continue
        out += conv_stieltjes(shat_row[kk], passage[k].values)
    return _cdf_path(passage[target].dt, out)


def _equilibrium_deviations(model, grid, targets, weights):
    """D[t, r] = sum_i weights[r, i] (P*(i, targets[t]) - nu_targets[t]) on the grid.

    P*_t(i,j) = delta_ij s(i,t)/nu_i + ∫_0^t h(j,t-u) R*(i,j,du) with
    R*(i,j,.) = R(j,j,.) * F*(i,j,.).  Every step is linear in the start
    state, so each weight row is applied to F*(., j) first.  The convolution
    against the renewal measure is rolled into one renewal equation
    w = z + dF(j,j)*w with z = dF*_row * h(j,.) (so w = z * dR), and the exact
    limit nu_j = m_j/eta_j is subtracted afterwards; the Stieltjes increments
    keep the discretized renewal mass exact, so under the heavy-tail decay no
    offset survives beyond the O(dt^2) discretization error (module docstring).
    Cost: one first passage and one scalar renewal solve per weight row for
    each target.
    """
    law = stationary_law(model)
    kernel = kernel_on_grid(model, grid)
    s, shat = _stationary_pieces(model, grid)
    states = model.states
    weights = np.asarray(weights, dtype=float)
    starts = [ii for ii in range(len(states)) if np.any(weights[:, ii])]
    out = np.empty((len(targets), weights.shape[0], grid.n_points))
    for t, j in enumerate(targets):
        jj = states.index(j)
        passage = first_passage(kernel, j)
        fstar = np.zeros((len(states), grid.n_points))
        for ii in starts:
            fstar[ii] = _fstar(shat[ii], passage, states, j).values
        for r, row in enumerate(weights @ fstar):
            z = conv_stieltjes(row, kernel.survival[jj])
            w = solve_volterra(z[None], passage[j].values[None, None])[0]
            out[t, r] = (w - law.nu[jj] * weights[r].sum()
                         + weights[r, jj] * s[jj] / law.nu[jj])
    return out


def check_grid_step(model: SemiMarkovModel, dt):
    """ValueError when dt exceeds 1/20 of the model's shortest mean sojourn."""
    bound = min(stationary_law(model).m) / 20.0
    if dt > bound + 1e-12:
        raise ValueError(f"grid step {dt} too coarse: need dt <= min mean sojourn / 20 = {bound}")


def stationary_transition(model: SemiMarkovModel, grid: Grid):
    """Equilibrium transition probabilities P*_t(i,j) for all state pairs.

    P*_t(i,j) = delta_ij s(i,t)/nu_i + ∫_0^t h(j,t-s) R*(i,j,ds), formed in
    deviation form with one renewal solve per state pair and nu_j added back.
    Rows must sum to 1 within 10*dt and approach nu at the horizon.
    """
    check_grid_step(model, grid.dt)
    law = stationary_law(model)
    states = model.states
    dev = _equilibrium_deviations(model, grid, states, np.eye(len(states)))
    out = dev.transpose(1, 0, 2) + law.nu[None, :, None]  # out[i, j] = P*(i, j)
    drift = np.abs(out.sum(axis=1) - 1.0).max()
    if drift > 10.0 * grid.dt:
        raise ValueError(f"P* row sums drift {drift:.3e} beyond 10*dt; refine the grid")
    return {(i, j): SamplePath(grid.dt, out[ii, jj])
            for ii, i in enumerate(states) for jj, j in enumerate(states)}


# -- limit constants and covariance -----------------------------------------

def covariance_gamma(model: SemiMarkovModel, grid: Grid) -> SamplePath:
    """Equilibrium covariance gamma(t) = sum_{i,j} i j nu_i (P*_t(i,j) - nu_j).

    Only i, j != 0 contribute.  The start states are summed with weights
    i nu_i before the solve, so each active target j costs one first passage
    and one scalar renewal solve.  Each summand is in deviation form, so
    gamma -> 0 exactly on the grid; the heavy-tail decay at large t is then
    visible instead of drowning under a constant discretization offset.
    """
    states = model.states
    active = [st for st in states if st != 0]
    weights = (np.asarray(states, dtype=float) * stationary_law(model).nu)[None, :]
    dev = _equilibrium_deviations(model, grid, active, weights)
    gamma = np.asarray(active, dtype=float) @ dev[:, 0]
    return SamplePath(grid.dt, gamma)


def variance_of_integral(gamma: SamplePath) -> SamplePath:
    """Var(t) = 2 ∫_0^t ∫_0^v gamma(u) du dv by cumulative trapezoid."""
    inner = _cumulative_trapezoid(gamma.values, gamma.dt)
    outer = _cumulative_trapezoid(inner, gamma.dt)
    return SamplePath(gamma.dt, 2.0 * outer)


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


def key_renewal_asymptote(f_law, z: SamplePath):
    """Residual h(t) = lambda/kappa - ∫_0^t z(t-s) U(ds) and its predicted tail, on z's grid.

    U is the renewal function of `f_law`; kappa its mean, lambda = ∫ z.  The
    predicted residual is -lambda/kappa^2 ∫_t^∞ F̄, the first-order term of the
    key renewal theorem for a regularly varying F̄ of index alpha in (1, 2)
    (Teugels 1968); for F̄ = t^-alpha L(t) it is asymptotic to
    -lambda/((alpha-1) kappa^2) t^(1-alpha) L(t).  Light-tailed laws get the
    same prediction, reported not applicable.  `z_precondition_ok` says
    whether z/F̄ at the horizon is below a tenth of its midpoint value (or
    below 1e-6), as z = o(F̄) needs.
    """
    t = z.times
    if np.any(z.values < -1e-12):
        raise ValueError("z must be nonnegative")
    kappa = f_law.mean
    lam = _simpson_integral(z.values, z.dt)
    w = solve_volterra(z.values[None], f_law.cdf(t)[None, None])[0]
    predicted = -lam / kappa**2 * f_law.integrated_tail(t)
    tail_ratio = float(z.values[-1] / max(f_law.tail(z.horizon), 1e-300))
    mid_ratio = float(z.at(0.5 * z.horizon) / max(f_law.tail(0.5 * z.horizon), 1e-300))
    report = {"kappa": kappa, "lambda": lam, "applicable": bool(f_law.is_heavy),
              "z_precondition_ok": bool(tail_ratio <= max(0.1 * mid_ratio, 1e-6))}
    return SamplePath(z.dt, lam / kappa - w), SamplePath(z.dt, predicted), report


def write_grid_csv(path, quantity, gf: SamplePath):
    """Emit a grid table as CSV with columns t,quantity,value.

    Rows are formatted and written 8 192 at a time, so a long table never
    exists as one list of Python strings.
    """
    times = gf.times
    with open(path, "w") as fh:
        fh.write("t,quantity,value\n")
        for lo in range(0, times.size, 8192):
            hi = lo + 8192
            fh.write("".join(f"{t!r},{quantity},{v!r}\n" for t, v in zip(
                times[lo:hi].tolist(), gf.values[lo:hi].tolist())))
