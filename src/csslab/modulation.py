"""Orthogonality profiles, the soliton-tube decomposition, corrected
modulation parameters, and the finite-dimensional modulation ODE.

The decomposition writes u = [P(.; b, eta) + eps]^sharp_{lambda, gamma}
with the four real orthogonality conditions

    (eps, Z1)_r = (eps, Z2)_r = (eps1, Z3t)_r = (eps1, Z4t)_r = 0,

where eps1 = D_w w - P1 at w = u^flat and P, P1 are profiles.assemble's
chart, solved by Newton iteration in (log lambda, gamma, b, eta) with the
Jacobian in closed form (see decompose). The ODE's phase integral
(_phase_integral) keeps its own cutoff, at y = min(1/beta, r_max/4): that
is one below min(1/BETA_MAX, r_max/4), where a run pairs the expansions'
rows once, so each call evaluates the integrand up to r_max/2 only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import gauge as GA
from . import grid as G
from . import linops as L
from . import profiles as PR
from .grid import Grid, RadialField
from .profiles import TTable
from .soliton import (ScaleOutOfRange, SymmetryParams, flat, proximity_fit,
                      q_values, sampler, soliton_q)


class NotInTube(ValueError):
    pass


class NoConvergence(RuntimeError):
    pass


class DegenerateGauge(ValueError):
    pass


class OdeFailure(RuntimeError):
    """A modulation ODE run left the range of its closed system, or its
    integrator failed."""


# the typed numerical failures of decompose, its grid's T-table's among them
DECOMPOSE_FAILURES = (ScaleOutOfRange, NotInTube, NoConvergence,
                      PR.SolvabilityViolated)


@dataclass(frozen=True)
class OrthoProfiles:
    Z1: RadialField
    Z2: RadialField
    Z3t: RadialField
    Z4t: RadialField
    R_circ: float
    transversality: tuple  # ((LambdaQ, Z1)_r, (-iQ, -iZ2)_r-type diagonal)
    support: int  # Z1-Z4t vanish from this node on
    q_hdot1: float  # ||Q||_{H1-dot}, the tube distance's scale


@dataclass(frozen=True)
class ModState:
    lam: float
    gamma: float
    b: float
    eta: float

    def __post_init__(self):
        if not (self.lam > 0):
            raise ValueError(f"lambda must be positive, got {self.lam}")

    @property
    def beta(self) -> float:
        return math.hypot(self.b, self.eta)


@dataclass(frozen=True)
class DecompResult:
    state: ModState
    eps: RadialField
    eps1: RadialField
    eps2: RadialField
    ortho_residuals: tuple
    mu: float
    tube_distance: float
    converged: bool
    iterations: int


@lru_cache(maxsize=16)
def build_ortho_profiles(m: int, grid: Grid) -> OrthoProfiles:
    """Compactly supported orthogonality profiles with the gauge conditions
    (rho, Z1)_r = 0 and ((y^2/4)Q, -i Z2)_r = 0 built in; shared as the T-table."""
    y = grid.r
    q = q_values(m, y)
    yq_norm2 = G.l2_samples(grid, y * q, decay=m + 1) ** 2
    # smallest radius with the outer mass of yQ at most a quarter of the total
    tail2 = yq_norm2 - 2.0 * math.pi * G.cumulative(grid, (y * q) ** 2, 2)
    idx = int(np.argmax(tail2 <= 0.25 * yq_norm2))
    r_circ = float(y[idx])
    chi = G.smooth_bump(y / r_circ)

    qf = soliton_q(m, grid)
    lam_qf = G.scale_gen(qf)
    lam_q = np.real(lam_qf.values)
    rho = np.real(L.rho(m, grid).values)
    c1_den = float(G.integrate_samples(grid, chi * rho * rho))
    c1 = float(G.integrate_samples(grid, chi * rho * lam_q)) / c1_den
    z1 = chi * (lam_q - c1 * rho)

    w = (y**2 / 4.0) * q
    c2_den = float(G.integrate_samples(grid, chi * w * w))
    if c2_den <= 0.0:
        raise DegenerateGauge("gauge projection denominator vanished")
    c2 = float(G.integrate_samples(grid, chi * w * q)) / c2_den
    z2 = 1j * chi * (q - c2 * w)

    z3 = -1j * (y / 2.0) * q * chi
    z4 = -(y / 2.0) * q * chi

    z1f, z2f = RadialField(m, z1.astype(complex), grid), RadialField(m, z2, grid)
    return OrthoProfiles(
        Z1=z1f, Z2=z2f, Z3t=RadialField(m + 1, z3, grid),
        Z4t=RadialField(m + 1, z4.astype(complex), grid), R_circ=r_circ,
        transversality=(G.inner(z1f, lam_qf),
                        G.inner(z2f, qf.with_values(-1j * qf.values))),
        support=int(np.flatnonzero(chi)[-1]) + 1, q_hdot1=G.hdot1(qf))


# ---------------------------------------------------------------------------
# Decomposition


_NEWTON_TOL = 1e-10  # on the largest pairing, relative to ||Q||_{L2}
_NEWTON_MAX_ITER = 50


def _quadrature(profiles: OrthoProfiles) -> tuple:
    """(2 pi w r^2, z1, z2, z3, z4) on the first profiles.support nodes:
    G.inner's weights and the real arrays of Z1, -i Z2, -i Z3t and Z4t,
    each Z being real or imaginary."""
    grid, k = profiles.Z1.grid, profiles.support
    wr = G.TWO_PI * G._gregory_weights(grid.n, grid.h)[:k] * grid.r[:k]**2
    return (wr, profiles.Z1.values.real[:k], profiles.Z2.values.imag[:k],
            profiles.Z3t.values.imag[:k], profiles.Z4t.values.real[:k])


def _pair4(f: np.ndarray, f1: np.ndarray, quad: tuple) -> np.ndarray:
    """((f, Z1), (f, Z2), (f1, Z3t), (f1, Z4t)) for f of index m, f1 of
    m+1, as weighted dot products over the Z support (einsum: a BLAS dot
    of this size starts threads)."""
    wr, z1, z2, z3, z4 = quad
    k = wr.size
    return np.array([np.einsum("i,i,i->", wr, z, part[:k]) for z, part in
                     ((z1, f.real), (z2, f.imag), (z3, f1.imag), (z4, f1.real))])


def _pairings(u: RadialField, state: ModState, table: TTable, quad: tuple,
              sample=None):
    w = flat(u, SymmetryParams(state.lam, state.gamma), sample)
    chart = PR.assemble(table, state.b, state.eta)
    p, p1 = chart.values()
    eps = w.with_values(w.values - p, decay=None)
    a = GA.gauge_fields(w)
    d_w = G.d_plus(w, a)
    eps1 = d_w.with_values(d_w.values - p1, decay=None)
    return _pair4(eps.values, eps1.values, quad), (w, a, d_w, chart, eps, eps1)


def _jacobian(aux, quad: tuple) -> np.ndarray:
    """d(pairings)/d(log lambda, gamma, b, eta) from the data of one
    pairing, each direction paired as it is made, on the Z support."""
    w, _, d_w, chart, _, _ = aux
    k = quad[0].size
    wv, dv = w.values, d_w.values
    jac = np.empty((4, 4))
    # Lambda w and Lambda_{-1} D_w w; the x-stencil reaches two nodes on
    jac[:, 0] = _pair4(G.dx(w.grid, wv[:k + 2])[:k] + wv[:k],
                       G.dx(w.grid, dv[:k + 2])[:k] + 2.0 * dv[:k], quad)
    jac[:, 1] = _pair4(-1j * wv[:k], -1j * dv[:k], quad)
    jac[:, 2:] = -np.column_stack(
        [_pair4(d, d1, quad) for d, d1 in chart.directions(k)]) @ chart.chain
    return jac


def _virial_b(w: RadialField, quad: tuple) -> float:
    """b from the virial ratio of w = u^flat on the Z support, which
    radiation beyond the core does not reach: Im(conj(w) y d_y w) =
    -(b/2) y^2 |w|^2 for w = Q e^{-i b y^2/4}. 0 if it is not finite."""
    wr, k, wv = quad[0], quad[0].size, w.values
    num = np.einsum("i,i->", wr, np.imag(np.conj(wv[:k])
                                         * G.dx(w.grid, wv[:k + 2])[:k]))
    den = np.einsum("i,i->", wr, w.grid.r[:k]**2 * np.abs(wv[:k])**2)
    return float(-2.0 * num / den) if den > 0.0 and np.isfinite(num) else 0.0


def extrapolate(history: list, t: float) -> ModState | None:
    """Start state for a warm decomposition at time t: the Lagrange
    polynomial in t of (log lambda, gamma, b, eta) through the last three
    (t_k, ModState) pairs of history, linear through two, the state itself
    for one, and None (the cold fit) for none."""
    pts = history[-3:]
    if len(pts) < 2:
        return pts[-1][1] if pts else None
    x = np.zeros(4)
    for j, (tj, sj) in enumerate(pts):
        weight = math.prod((t - tk) / (tj - tk)
                           for k, (tk, _) in enumerate(pts) if k != j)
        x += weight * np.array([math.log(sj.lam), sj.gamma, sj.b, sj.eta])
    return ModState(math.exp(x[0]), *x[1:])


def decompose(u: RadialField, init: ModState | None = None,
              tube_radius: float = 0.2,
              energy: float | None = None) -> DecompResult:
    """Newton solve of the four orthogonality conditions, one pairing per
    iteration. The Jacobian is analytic: by column, (d eps, d eps1) is
    (Lambda w, Lambda_{-1} D_w w) for log lambda (A_theta is scaling
    invariant, so D_w w has weight 2), (-i w, -i D_w w) for gamma, and
    (-d_b P, -d_b P1), (-d_eta P, -d_eta P1) for b and eta, through the
    phase-factored chart beyond PR.CHART_BETA. A pairing builds P and P1
    only; the derivatives are built, on the support of Z1-Z4t, only when a
    Newton step follows, and P2 once, from the converged pairing's chart.

    The T-table and orthogonality profiles are those of (u.m, u.grid).
    u is resampled through one sampler(u), built here and shared by the
    proximity fit, the tube check and every pairing; each pairing's arrays
    are dropped before the next is made, and nothing outlives the call.

    Newton starts from `init` (e.g. extrapolate()'s prediction), or when it
    is None from the proximity fit with b = _virial_b, and the tube check,
    the relative H1 distance of u^flat from Q, is taken there; a warm call
    falls back to the fit outside tube_radius. Both bound the distance to
    the soliton orbit from above, so NotInTube fires only where the fit
    alone would. Typed failures after the first pairing carry `iterations`.
    `energy` is E[u] if the caller has it (mu needs it); None computes it."""
    m = u.m
    table = PR.build_t_tables(m, u.grid)
    profiles = build_ortho_profiles(m, u.grid)
    quad = _quadrature(profiles)
    q = soliton_q(m, u.grid)
    sample = sampler(u)

    def distance(w):
        return (G.hdot1(w.with_values(w.values - q.values, decay=None))
                / profiles.q_hdot1)

    def fitted():
        """The cold start and its tube distance."""
        fit = proximity_fit(u, q, sample)
        w = flat(u, fit, sample)
        if (dist := distance(w)) >= tube_radius:
            raise NotInTube(f"not-in-tube: relative H1 distance {dist:.3f}")
        return ModState(fit.lam, fit.gamma, _virial_b(w, quad), 0.0), dist

    warm = init is not None
    if not warm:
        init, dist = fitted()

    tol = _NEWTON_TOL * G.l2(q)
    x = np.array([math.log(init.lam), init.gamma, init.b, init.eta])

    def state_of(xv):
        return ModState(math.exp(xv[0]), xv[1], xv[2], xv[3])

    converged, it = False, 0
    try:
        vec, aux = _pairings(u, state_of(x), table, quad, sample)
        if warm and (dist := distance(aux[0])) >= tube_radius:
            _, dist = fitted()
        for it in range(1, _NEWTON_MAX_ITER + 1):
            if np.max(np.abs(vec)) < tol:
                converged = True
                break
            jac = _jacobian(aux, quad)
            if not (np.isfinite(jac).all() and np.isfinite(vec).all()):
                raise NoConvergence("non-finite Newton system")
            try:
                dx = np.linalg.solve(jac, vec)
            except np.linalg.LinAlgError as exc:
                raise NoConvergence(f"singular Newton system: {exc}") from exc
            # damp large steps so intermediate iterates stay on the chart
            cap = np.max(np.abs(dx) / np.array([0.5, 0.5, 0.25, 0.25]))
            if cap > 1.0:
                dx = dx / cap
            x = x - dx
            aux = None  # free this pairing's arrays before the next is built
            vec, aux = _pairings(u, state_of(x), table, quad, sample)
    except DECOMPOSE_FAILURES as exc:
        exc.iterations = it
        raise
    converged = converged or np.max(np.abs(vec)) < tol

    state = state_of(x)
    del sample  # its splines go before the last arrays are built
    # P2 comes from the converged pairing's chart, and eps2 takes A_w w's
    # buffer: other orders fragment the heap more over a run (peak RSS)
    _, a, d_w, chart, eps, eps1 = aux
    a_w = G.d_plus(d_w, a)
    np.subtract(a_w.values, chart.p2(), out=a_w.values)
    eps2 = a_w.with_values(a_w.values, decay=None)
    if energy is None:
        energy, _, _ = GA.energy_mass(u)
    mu = state.lam * math.sqrt(max(energy, 0.0))
    return DecompResult(state=state, eps=eps, eps1=eps1, eps2=eps2,
                        ortho_residuals=tuple(float(v) for v in vec),
                        mu=mu, tube_distance=float(dist),
                        converged=bool(converged), iterations=it)


def corrected_params(d: DecompResult) -> tuple[float, float]:
    """(b_hat, eta_hat): b, eta shifted by the chi_{1/mu}-localized pairings
    of eps1 with 2iyQ and 2yQ, normalized by ||yQ||^2."""
    grid = d.eps1.grid
    if d.mu <= 0:
        raise ValueError("zero-mu")
    if 2.0 / d.mu > grid.r_max:
        raise PR.GridTooSmall(
            f"grid-too-small: cutoff radius 2/mu = {2/d.mu:g} beyond r_max")
    y = grid.r
    m = d.eps.m
    q = q_values(m, y)
    chi = G.smooth_bump(y * d.mu)
    yq_norm2 = G.l2_samples(grid, y * q, decay=m + 1) ** 2
    pair_i = float(G.integrate_samples(
        grid, np.real(np.conj(d.eps1.values) * (2j * y * q)) * chi))
    pair_r = float(G.integrate_samples(
        grid, np.real(np.conj(d.eps1.values) * (2.0 * y * q)) * chi))
    return d.state.b - pair_i / yq_norm2, d.state.eta - pair_r / yq_norm2


# ---------------------------------------------------------------------------
# Modulation ODE


def _phase_integral(table: TTable):
    """The run's phase integral: (b, eta) -> int_0^infty Re(conj(P) P1) dy,
    P = Q + chi E0 and P1 = chi E1 with the expansions E_k and the ODE's own
    cutoff chi(y/B), B = min(1/beta, r_max/4). Every beta < BETA_MAX has
    B >= y_lo = min(1/BETA_MAX, r_max/4), so chi is one up to y_lo, where
    the integral is a bilinear form in the monomials of E0's and E1's rows,
    paired once here, and zero from 2 B <= r_max/2 on: a call evaluates
    the integrand on [y_lo, r_max/2) only."""
    grid = table.grid
    y, q = grid.r, q_values(table.m, grid.r)
    wy = G._gregory_weights(grid.n, grid.h) * y  # integrate_dy's weights
    lo = int(np.searchsorted(y, min(1.0 / PR.BETA_MAX, grid.r_max / 4.0),
                             side="right"))
    win = slice(lo, int(np.searchsorted(y, grid.r_max / 2.0)))
    (rows0, pow0), (rows1, pow1) = (PR.expansion_rows(table, k)
                                    for k in (0, 1))
    # np.sum's pairwise sums: einsum's running sum loses digits over lo nodes
    w = wy[:lo]
    f0 = np.array([np.sum(w * q[:lo] * r1[:lo].real) for r1 in rows1])
    g0 = np.array([[np.sum(w * np.real(np.conj(r0[:lo]) * r1[:lo]))
                    for r1 in rows1] for r0 in rows0])
    y, q, wy = y[win], q[win], wy[win]

    def integral(b: float, eta: float) -> float:
        beta = math.hypot(b, eta)
        if beta == 0.0:
            return 0.0
        v = b**pow1[0] * eta**pow1[1]
        chi = G.smooth_bump(y / min(1.0 / beta, grid.r_max / 4.0))
        p = q + chi * PR.expansion(table, 0, b, eta, nodes=win)
        dens = np.real(np.conj(p) * (chi * PR.expansion(table, 1, b, eta,
                                                        nodes=win)))
        return float(f0 @ v + (b**pow0[0] * eta**pow0[1]) @ g0 @ v
                     + np.sum(wy * dens))
    return integral


def _in_range(state: ModState) -> None:
    """Refuse a state whose beta the profile-assembled phase integral
    does not reach."""
    if state.beta >= PR.BETA_MAX:
        raise OdeFailure(
            f"beta = {state.beta} out of range for the profile-assembled "
            "phase integral (need < 1/10)")


def ode_rhs(m: int, state: ModState, phase=None, use_p3: bool = True,
            leading_order: bool = False) -> tuple[float, float, float, float]:
    """s-derivatives (lambda_s, gamma_s, b_s, eta_s) of the closed formal
    system: lambda_s/lambda = -b, gamma_s = -(m+1) eta - phase integral,
    b_s = -(b^2 + eta^2) - p3_b, eta_s = -p3_eta. The profile-assembled
    phase integral is the run's `phase` (_phase_integral of its T-table);
    the leading-order phase needs none."""
    b, eta = state.b, state.eta
    if leading_order:
        i0 = -2.0 * (m + 1) * eta
    else:
        _in_range(state)
        i0 = phase(b, eta)
    p3b, p3e = PR.p3(m, b, eta) if use_p3 else (0.0, 0.0)
    lam_s = -b * state.lam
    gam_s = -(m + 1) * eta - i0
    b_s = -(b**2 + eta**2) - p3b
    eta_s = -p3e
    return lam_s, gam_s, b_s, eta_s


def ode_integrate(m: int, state0: ModState, t_span: tuple[float, float],
                  grid: Grid | None = None, use_p3: bool = True,
                  leading_order: bool = False, lam_min: float = 1e-3,
                  n_eval: int = 400) -> dict:
    """Integrate the modulation system in the original time variable t
    (ds = dt / lambda^2) with an adaptive Runge-Kutta method."""
    phase = None
    if not leading_order:
        _in_range(state0)  # before the T-table: the initial beta decides
        phase = _phase_integral(PR.build_t_tables(
            m, grid if grid is not None else G.build_grid()))

    from scipy.integrate import solve_ivp  # loaded by a run that integrates

    def rhs(t, yv):
        lam, gam, b, eta, s = yv
        st = ModState(max(lam, 1e-300), gam, b, eta)
        lam_s, gam_s, b_s, eta_s = ode_rhs(m, st, phase=phase,
                                           use_p3=use_p3,
                                           leading_order=leading_order)
        inv = 1.0 / lam**2
        return [lam_s * inv, gam_s * inv, b_s * inv, eta_s * inv, inv]

    def hit_floor(t, yv):
        return yv[0] - lam_min
    hit_floor.terminal = True
    hit_floor.direction = -1

    y0 = [state0.lam, state0.gamma, state0.b, state0.eta, 0.0]
    t_eval = np.linspace(t_span[0], t_span[1], n_eval)
    sol = solve_ivp(rhs, t_span, y0, method="RK45", rtol=1e-10, atol=1e-13,
                    events=hit_floor, dense_output=True, t_eval=t_eval)
    if not sol.success:
        raise OdeFailure(f"step-failure: {sol.message}")
    stop = "t_end"
    t = sol.t
    states = sol.y
    if sol.t_events[0].size:
        stop = "blowup-reached"
        t_ev = sol.t_events[0][0]
        msk = t < t_ev
        t = np.append(t[msk], t_ev)
        states = np.column_stack([states[:, msk], sol.y_events[0][0]])
    return {"t": t, "s": states[4], "lambda": states[0], "gamma": states[1],
            "b": states[2], "eta": states[3], "stop": stop}
