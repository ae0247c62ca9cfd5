"""Orthogonality profiles, the soliton-tube decomposition, corrected
modulation parameters, and the finite-dimensional modulation ODE.

The decomposition writes u = [P(.; b, eta) + eps]^sharp_{lambda, gamma}
with the four real orthogonality conditions

    (eps, Z1)_r = (eps, Z2)_r = (eps1, Z3t)_r = (eps1, Z4t)_r = 0,

where eps1 = D_w w - P1 at w = u^flat, solved by Newton iteration in
(log lambda, gamma, b, eta) with the Jacobian in closed form (see decompose).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from . import gauge as GA
from . import grid as G
from . import linops as L
from . import profiles as PR
from .grid import Grid, RadialField
from .profiles import ProfileParams, TTable
from .soliton import SymmetryParams, flat, proximity_fit, q_values, soliton_q


class NotInTube(ValueError):
    pass


class NoConvergence(RuntimeError):
    pass


class DegenerateGauge(ValueError):
    pass


@dataclass(frozen=True)
class OrthoProfiles:
    m: int
    Z1: RadialField
    Z2: RadialField
    Z3t: RadialField
    Z4t: RadialField
    R_circ: float
    transversality: tuple  # ((LambdaQ, Z1)_r, (-iQ, -iZ2)_r-type diagonal)


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


def build_ortho_profiles(m: int, grid: Grid) -> OrthoProfiles:
    """Compactly supported orthogonality profiles with the gauge conditions
    (rho, Z1)_r = 0 and ((y^2/4)Q, -i Z2)_r = 0 built in."""
    y = grid.r
    q = q_values(m, y)
    yq_norm2 = G.l2_samples(grid, y * q, decay=m + 1) ** 2
    # smallest radius with the outer mass of yQ at most a quarter of the total
    tail2 = yq_norm2 - 2.0 * math.pi * G.cumulative_rdr(grid, (y * q) ** 2)
    idx = int(np.argmax(tail2 <= 0.25 * yq_norm2))
    r_circ = float(y[idx])
    chi = G.smooth_bump(y / r_circ)

    lam_q = np.real(G.scale_gen(soliton_q(m, grid)).values)
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

    t1 = float(G.integrate_samples(grid, z1 * lam_q))
    t2 = float(np.real(G.integrate_samples(grid, np.conj(z2) * (-1j) * q)))
    return OrthoProfiles(
        m=m,
        Z1=RadialField(m, z1.astype(complex), grid),
        Z2=RadialField(m, z2, grid),
        Z3t=RadialField(m + 1, z3, grid),
        Z4t=RadialField(m + 1, z4.astype(complex), grid),
        R_circ=r_circ, transversality=(t1, t2))


# ---------------------------------------------------------------------------
# Decomposition


_CHART_BETA = 0.099
_NEWTON_TOL = 1e-10  # on the largest pairing, relative to ||Q||_{L2}
_NEWTON_MAX_ITER = 50


@dataclass(frozen=True)
class _Chart:
    P: RadialField
    P1: RadialField
    P2: RadialField
    dP: tuple   # (d_b P, d_eta P) samples
    dP1: tuple  # (d_b P1, d_eta P1) samples


def _assemble_chart(m: int, b: float, eta: float, table: TTable) -> _Chart:
    """Profiles as the decomposition's coordinate chart.

    Inside the validity range (beta <= _CHART_BETA) this is the assembled
    profile set (without cutoffs when B1 would leave the grid: the
    corrections are negligible there and the orthogonality profiles are
    compactly supported). Beyond it, the b-direction of the expansion is
    the Taylor series of the quadratic phase e^{-i b y^2/4}, so the chart
    factors that phase exactly: with (b_c, eta_c) = (b, eta) scaled back
    to the validity boundary and delta = b - b_c,

        P   -> e^{i theta} P,
        P1  -> e^{i theta} (P1 + i theta' P),
        P2  -> e^{i theta} (P2 + 2 i theta' P1 - theta'^2 P),

    theta = -delta y^2/4, which is how the covariant derivatives D and A
    conjugate under the multiplication. eps absorbs the remaining
    (eta - eta_c) mismatch. The (b, eta)-derivatives of P and P1 follow
    the chain rule through (b_c, eta_c, delta), with d_delta e^{i theta}
    = -(i y^2/4) e^{i theta} and d_delta (i theta') = -i y/2."""
    grid = table.grid
    beta = math.hypot(b, eta)
    if beta <= _CHART_BETA:
        cutoffs = not (beta > 0.0 and 2.0 / beta > grid.r_max)
        pset = PR.assemble(m, ProfileParams(b, eta), table, cutoffs=cutoffs)
        return _Chart(pset.P, pset.P1, pset.P2,
                      (pset.dP_db.values, pset.dP_deta.values),
                      (pset.dP1_db.values, pset.dP1_deta.values))
    scale = _CHART_BETA / beta
    b_c, eta_c = b * scale, eta * scale
    pset = PR.assemble(m, ProfileParams(b_c, eta_c), table)
    delta = b - b_c
    y = grid.r
    phase = np.exp(-0.25j * delta * y**2)
    tp = -0.5j * delta * y  # i theta'
    p, p1, p2 = pset.P.values, pset.P1.values, pset.P2.values
    p1t = p1 + tp * p
    c3 = _CHART_BETA / beta**3
    dP, dP1 = [], []
    # d(b_c, eta_c, delta)/db and /deta
    for db_c, deta_c, ddelta in ((c3 * eta**2, -c3 * b * eta, 1.0 - c3 * eta**2),
                                 (-c3 * b * eta, c3 * b**2, c3 * b * eta)):
        gp = db_c * pset.dP_db.values + deta_c * pset.dP_deta.values
        gp1 = db_c * pset.dP1_db.values + deta_c * pset.dP1_deta.values
        dP.append(phase * (gp - ddelta * 0.25j * y**2 * p))
        dP1.append(phase * (gp1 + tp * gp
                            - ddelta * (0.25j * y**2 * p1t + 0.5j * y * p)))
    return _Chart(
        pset.P.with_values(phase * p, decay=None),
        pset.P1.with_values(phase * p1t, decay=None),
        pset.P2.with_values(phase * (p2 + 2.0 * tp * p1 + tp**2 * p),
                            decay=None),
        tuple(dP), tuple(dP1))


def _pairings(u: RadialField, state: ModState, table: TTable,
              profiles: OrthoProfiles):
    w = flat(u, SymmetryParams(state.lam, state.gamma))
    pset = _assemble_chart(table.m, state.b, state.eta, table)
    eps = w.with_values(w.values - pset.P.values, decay=None)
    gf = GA.gauge_fields(w)
    d_w = GA.cov_d(w, w, gf)
    eps1 = d_w.with_values(d_w.values - pset.P1.values, decay=None)
    return _pair4(eps, eps1, profiles), (w, gf, d_w, pset, eps, eps1)


def _pair4(f: RadialField, f1: RadialField, profiles: OrthoProfiles):
    """((f, Z1), (f, Z2), (f1, Z3t), (f1, Z4t)) for f of index m, f1 of m+1."""
    return np.array([G.inner(f, profiles.Z1), G.inner(f, profiles.Z2),
                     G.inner(f1, profiles.Z3t), G.inner(f1, profiles.Z4t)])


def _jacobian(aux, profiles: OrthoProfiles) -> np.ndarray:
    """d(pairings)/d(log lambda, gamma, b, eta) from the data of one pairing."""
    w, _, d_w, pset, _, _ = aux
    cols = [(G.scale_gen(w).values, G.scale_gen(d_w, -1.0).values),
            (-1j * w.values, -1j * d_w.values)]
    cols += [(-dp, -dp1) for dp, dp1 in zip(pset.dP, pset.dP1)]
    return np.column_stack([
        _pair4(w.with_values(c, decay=None), d_w.with_values(c1, decay=None),
               profiles) for c, c1 in cols])


def decompose(u: RadialField, profiles: OrthoProfiles,
              init: ModState | None = None,
              table: TTable | None = None,
              tube_radius: float = 0.2) -> DecompResult:
    """Newton solve of the four orthogonality conditions, one pairing per
    iteration. The Jacobian is analytic: by column, (d eps, d eps1) is
    (Lambda w, Lambda_{-1} D_w w) for log lambda (A_theta is scaling
    invariant, so D_w w has weight 2), (-i w, -i D_w w) for gamma, and
    (-d_b P, -d_b P1), (-d_eta P, -d_eta P1) for b and eta, through the
    phase-factored chart beyond _CHART_BETA."""
    m = u.m
    if m != profiles.m:
        raise G.IndexMismatch("ortho profiles built for a different index")
    if table is None:
        table = PR.build_t_tables(m, u.grid)
    q = soliton_q(m, u.grid)
    fit = proximity_fit(u, q)
    wfit = flat(u, SymmetryParams(fit.lam, fit.gamma))
    dist = G.hdot1(wfit.with_values(wfit.values - q.values, decay=None)) / G.hdot1(q)
    if dist >= tube_radius:
        raise NotInTube(f"not-in-tube: relative H1 distance {dist:.3f}")
    if init is None:
        init = ModState(fit.lam, fit.gamma, 0.0, 0.0)

    tol = _NEWTON_TOL * G.l2(q)
    x = np.array([math.log(init.lam), init.gamma, init.b, init.eta])

    def state_of(xv):
        return ModState(math.exp(xv[0]), xv[1], xv[2], xv[3])

    vec, aux = _pairings(u, state_of(x), table, profiles)
    converged = False
    it = 0
    for it in range(1, _NEWTON_MAX_ITER + 1):
        if np.max(np.abs(vec)) < tol:
            converged = True
            break
        try:
            dx = np.linalg.solve(_jacobian(aux, profiles), vec)
        except np.linalg.LinAlgError as exc:
            raise NoConvergence(f"singular Newton system: {exc}") from exc
        # damp large steps so intermediate iterates stay on the chart
        cap = np.max(np.abs(dx) / np.array([0.5, 0.5, 0.25, 0.25]))
        if cap > 1.0:
            dx = dx / cap
        x = x - dx
        vec, aux = _pairings(u, state_of(x), table, profiles)
    else:
        it = _NEWTON_MAX_ITER
    converged = converged or np.max(np.abs(vec)) < tol

    state = state_of(x)
    w, gf, d_w, pset, eps, eps1 = aux
    a_w = GA.a_u(w, d_w, gf)
    eps2 = a_w.with_values(a_w.values - pset.P2.values, decay=None)
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


def _phase_integral(m: int, b: float, eta: float, table: TTable) -> float:
    """int_0^infty Re(conj(P) P1) dy from the assembled profiles; the cutoff
    radius is capped at r_max/4 so the integral stays available as beta -> 0."""
    beta = math.hypot(b, eta)
    if beta == 0.0:
        return 0.0
    grid = table.grid
    y = grid.r
    b_eff = min(1.0 / beta, grid.r_max / 4.0)
    chi = G.smooth_bump(y / b_eff)
    p_vals = q_values(m, y) + chi * PR.expansion(table, 0, b, eta)
    dens = np.real(np.conj(p_vals) * (chi * PR.expansion(table, 1, b, eta)))
    return float(G.integrate_dy(grid, dens))


def ode_rhs(m: int, state: ModState, table: TTable | None = None,
            use_p3: bool = True,
            leading_order: bool = False) -> tuple[float, float, float, float]:
    """s-derivatives (lambda_s, gamma_s, b_s, eta_s) of the closed formal
    system: lambda_s/lambda = -b, gamma_s = -(m+1) eta - phase integral,
    b_s = -(b^2 + eta^2) - p3_b, eta_s = -p3_eta. The profile-assembled
    phase integral needs the T-table; the leading-order phase does not."""
    b, eta = state.b, state.eta
    if leading_order:
        phase = -2.0 * (m + 1) * eta
    else:
        if state.beta >= 0.1:
            raise ValueError(
                f"beta = {state.beta} out of range for the profile-assembled "
                "phase integral (need < 1/10)")
        phase = _phase_integral(m, b, eta, table)
    p3b, p3e = PR.p3(m, ProfileParams(b, eta)) if use_p3 else (0.0, 0.0)
    lam_s = -b * state.lam
    gam_s = -(m + 1) * eta - phase
    b_s = -(b**2 + eta**2) - p3b
    eta_s = -p3e
    return lam_s, gam_s, b_s, eta_s


def ode_integrate(m: int, state0: ModState, t_span: tuple[float, float],
                  grid: Grid | None = None, use_p3: bool = True,
                  leading_order: bool = False, lam_min: float = 1e-3,
                  n_eval: int = 400) -> dict:
    """Integrate the modulation system in the original time variable t
    (ds = dt / lambda^2) with an adaptive Runge-Kutta method."""
    table = None
    if not leading_order:
        table = PR.build_t_tables(m, grid if grid is not None
                                  else G.default_grid())

    def rhs(t, yv):
        lam, gam, b, eta, s = yv
        st = ModState(max(lam, 1e-300), gam, b, eta)
        lam_s, gam_s, b_s, eta_s = ode_rhs(m, st, table=table,
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
        raise RuntimeError(f"step-failure: {sol.message}")
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
