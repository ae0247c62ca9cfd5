"""Scale-invariant diagnostics along near-soliton trajectories.

Built around the small parameter mu = lambda sqrt(E[u]): the higher-norm
ladder X2/X3/V72 of eps2, the energy-Morawetz functional

    F = (eps2, Htd_Q eps2)_r / mu^6 - A (i eps2, psi' d_y eps2)_r / mu^5
        + A^2 ||eps2||^2 / mu^4,

the nonlinear-coercivity record, finite-difference monitors for the
modulation residuals (plain and hat-corrected), blow-up asymptotics
extraction (T, ell, gamma_star), and the near-origin singular-profile
probe.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import gauge as GA
from . import grid as G
from . import linops as L
from . import modulation as MOD
from . import profiles as PR
from .evolve import Monitor
from .grid import Grid, RadialField
from .modulation import DecompResult, ModState
from .profiles import TTable
from .soliton import SymmetryParams, modulate, sampler, soliton_q

# the constants A and delta (of the weight psi) in the functional F
DEFAULT_A = 10.0
DEFAULT_DELTA = 0.3


class ZeroMu(ValueError):
    pass


class InsufficientSampling(ValueError):
    pass


class NoBlowupDetected(ValueError):
    pass


class AnnulusUnresolved(ValueError):
    pass


# ---------------------------------------------------------------------------
# Per-state frame


@dataclass(frozen=True)
class DiagnosticFrame:
    t: float
    s: float
    mu: float
    beta: float
    eps_norms: tuple  # NormReport triple for (eps, eps1, eps2)
    X2: float
    X3: float
    V72: float
    F_energy: float
    coercivity_ratio: float


def quadform_htd(f: RadialField) -> float:
    """(f, Htd_Q f)_r for f of index m+2, in the integrated-by-parts
    (manifestly symmetric) form int |d_y f|^2 + Vtd_Q/y^2 |f|^2."""
    y = f.grid.r
    fp = G.d_dr(f.grid, f.values, 1)
    dens = np.abs(fp) ** 2 + L.vtd_q(f.m - 2, y) / y**2 * np.abs(f.values) ** 2
    return float(G.integrate_samples(f.grid, dens))


def morawetz_pairing(f: RadialField) -> float:
    """(i f, psi' d_y f)_r with the linops weight of delta DEFAULT_DELTA
    on f's grid."""
    weight = L.morawetz_weight(DEFAULT_DELTA, f.grid)
    fp = G.d_dr(f.grid, f.values, 1)
    dens = np.real(np.conj(1j * f.values) * weight.psi_prime * fp)
    return float(G.integrate_samples(f.grid, dens))


def frame(d: DecompResult, e_total: float,
          t: float = math.nan, s: float = math.nan) -> DiagnosticFrame:
    """All scale-invariant quantities of a single decomposition."""
    mu = d.state.lam * math.sqrt(max(e_total, 0.0))
    if mu <= 0.0:
        raise ZeroMu("zero-mu: the soliton orbit itself carries no scale")
    eps2 = d.eps2
    x2 = G.l2(eps2) + mu**2
    x3 = G.hdot1(eps2) + mu * x2
    v72 = math.sqrt(G.v32_sq(eps2)) + math.sqrt(mu) * x3
    f_energy = (quadform_htd(eps2) / mu**6
                - DEFAULT_A * morawetz_pairing(eps2) / mu**5
                + DEFAULT_A**2 * G.l2(eps2) ** 2 / mu**4)
    return DiagnosticFrame(
        t=t, s=s, mu=mu, beta=d.state.beta,
        eps_norms=(G.norm_report(d.eps), G.norm_report(d.eps1),
                   G.norm_report(eps2)),
        X2=x2, X3=x3, V72=v72, F_energy=f_energy,
        coercivity_ratio=(d.state.beta + G.hdot1(d.eps)) / mu)


def param_columns(history: list) -> dict:
    """The parameter columns of (t, ModState) pairs: t, the s-ladder
    s = int dt/lambda^2 (trapezoidal, from 0), lambda, gamma (as
    decomposed, not unwrapped), b and eta."""
    t = np.array([tk for tk, _ in history])
    lam, gamma, b, eta = (np.array([getattr(state, k) for _, state in history])
                          for k in ("lam", "gamma", "b", "eta"))
    inv = 1.0 / lam**2
    ds = 0.5 * (inv[1:] + inv[:-1]) * np.diff(t)
    return {"t": t, "s": np.concatenate([[0.0], np.cumsum(ds)]),
            "lambda": lam, "gamma": gamma, "b": b, "eta": eta}


def frames_along(monitors: list, series: dict) -> list[DiagnosticFrame]:
    """DiagnosticFrame per decomposed monitor of a run, at the mean energy
    of the run's series."""
    if monitors[0].d is None:
        raise ValueError("trajectory carries no decompositions")
    e_total = float(np.mean(series["energy"]))
    cols = param_columns([(mon.t, mon.d.state) for mon in monitors])
    return [frame(mon.d, e_total, t=float(ti), s=float(si))
            for mon, ti, si in zip(monitors, cols["t"], cols["s"])]


# ---------------------------------------------------------------------------
# Nonlinear coercivity


def nonlinear_coercivity_check(monitors: list) -> dict:
    """Min/max over decomposed monitors of (beta + ||eps||_{H1dot} +
    ||eps1||_{L2})/mu plus the largest ||eps||_{L2}; states with mu = 0 are
    excluded."""
    ratios, eps_l2 = [], []
    for d in (mon.d for mon in monitors):
        eps_l2.append(G.l2(d.eps))
        if d.mu > 0.0:
            ratios.append(
                (d.state.beta + G.hdot1(d.eps) + G.l2(d.eps1)) / d.mu)
    return {"ratio_min": min(ratios) if ratios else math.nan,
            "ratio_max": max(ratios) if ratios else math.nan,
            "eps_l2_max": max(eps_l2), "n_states": len(ratios)}


# ---------------------------------------------------------------------------
# Modulation-residual monitor


def _fd_derivative(s: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """Centered 4th-order first derivative on the (nonuniform) s-ladder;
    defined on the interior indices 2 .. n-3."""
    n = s.size
    out = np.empty(n - 4)
    for i in range(2, n - 2):
        w = G._fd_weights(s[i], s[i - 2:i + 3], 1)
        out[i - 2] = float(w @ vals[i - 2:i + 3])
    return out


def _phase_integral_w(d: DecompResult, table: TTable) -> float:
    """int_0^infty Re(conj(w) w1) dy with w = P + eps, w1 = P1 + eps1."""
    p, p1 = PR.assemble(table, d.state.b, d.state.eta).values()
    w = p + d.eps.values
    w1 = p1 + d.eps1.values
    dens = np.real(np.conj(w) * w1)
    return float(G.integrate_dy(d.eps.grid, dens))


_MAX_BETA_DS = 0.01  # largest beta * delta-s between decompositions


def mod_residual_monitor(monitors: list) -> dict:
    """Finite-difference residuals of the four modulation equations and
    their hat-corrected versions, each with its bound proxy.

    Residuals (at the interior sample points):
        r1 = lambda_s/lambda + b            (proxy X3)
        r2 = gamma_s + (m+1) eta + int Re(conj(w) w1) dy   (proxy X3)
        r3 = b_s + b^2 + eta^2 + p3_b       (proxy V72)
        r4 = eta_s + p3_eta                 (proxy V72)
        r1h = lambda_s/lambda + b_hat       (proxy mu^2)
        r2h = gamma_s - (m+1) eta_hat       (proxy mu^2)
        r3h = b_hat_s + b_hat^2 + eta_hat^2 (proxy beta^3 + beta mu^2 + mu^4)
        r4h = eta_hat_s                     (same proxy)
    """
    if len(monitors) < 5:
        raise InsufficientSampling(
            "insufficient-sampling: need at least 5 decomposition frames")
    cols = param_columns([(mon.t, mon.d.state) for mon in monitors])
    t, s, lam, b, eta = (cols[k] for k in ("t", "s", "lambda", "b", "eta"))
    gam = np.unwrap(cols["gamma"])
    ds_list = [mon.d for mon in monitors]
    m = ds_list[0].eps.m
    beta = np.hypot(b, eta)
    mu = np.array([d.mu for d in ds_list])
    worst = float(np.max(0.5 * (beta[1:] + beta[:-1]) * np.diff(s)))
    if worst > _MAX_BETA_DS:
        raise InsufficientSampling(
            f"insufficient-sampling: beta*ds = {worst:.3g} exceeds "
            f"{_MAX_BETA_DS}; reduce the monitor stride")
    table = PR.build_t_tables(m, ds_list[0].eps.grid)

    hats = np.array([MOD.corrected_params(d) for d in ds_list])
    b_hat, eta_hat = hats[:, 0], hats[:, 1]
    phase = np.array([_phase_integral_w(d, table) for d in ds_list])
    p3_pairs = np.array([PR.p3(m, bi, ei) for bi, ei in zip(b, eta)])
    x3 = np.array([G.hdot1(d.eps2) + d.mu * (G.l2(d.eps2) + d.mu**2)
                   for d in ds_list])
    v72 = np.array([math.sqrt(G.v32_sq(d.eps2)) for d in ds_list]) \
        + np.sqrt(mu) * x3

    sl = slice(2, -2)
    dlam = _fd_derivative(s, lam)
    dgam = _fd_derivative(s, gam)
    db = _fd_derivative(s, b)
    deta = _fd_derivative(s, eta)
    db_hat = _fd_derivative(s, b_hat)
    deta_hat = _fd_derivative(s, eta_hat)

    r1 = dlam / lam[sl] + b[sl]
    r2 = dgam + (m + 1) * eta[sl] + phase[sl]
    r3 = db + b[sl] ** 2 + eta[sl] ** 2 + p3_pairs[sl, 0]
    r4 = deta + p3_pairs[sl, 1]
    r1h = dlam / lam[sl] + b_hat[sl]
    r2h = dgam - (m + 1) * eta_hat[sl]
    r3h = db_hat + b_hat[sl] ** 2 + eta_hat[sl] ** 2
    r4h = deta_hat
    hat34_bound = beta[sl] ** 3 + beta[sl] * mu[sl] ** 2 + mu[sl] ** 4
    return {"t": t[sl], "s": s[sl],
            "r1": r1, "r2": r2, "r3": r3, "r4": r4,
            "r1_hat": r1h, "r2_hat": r2h, "r3_hat": r3h, "r4_hat": r4h,
            "bound_12": x3[sl], "bound_34": v72[sl],
            "bound_hat_12": mu[sl] ** 2, "bound_hat_34": hat34_bound,
            "b_hat": b_hat[sl], "eta_hat": eta_hat[sl],
            "beta_ds_max": worst}


# ---------------------------------------------------------------------------
# Blow-up asymptotics


_TAIL_FRACTION = 0.2  # share of the samples fitted for T, at least 5
_MIN_DECADE = 10.0    # least ratio (T - t_first) / (T - t_last) accepted


def asymptotics(p: dict) -> tuple[float, float, dict]:
    """(ell, gamma_star, fits) extracted from the tail of a blow-up run,
    given as arrays p["t"], p["lambda"], p["gamma"], p["b"], p["eta"].

    T by linear extrapolation of lambda over the last _TAIL_FRACTION of the
    samples; ell as the tail average of beta/lambda; gamma_star as the tail
    average of gamma. The fits record mean and relative variation of
    lambda/(T-t), b/(T-t), and eta/(T-t)^2 over the tail."""
    t, lam = p["t"], p["lambda"]
    n_tail = max(int(math.ceil(_TAIL_FRACTION * t.size)), 5)
    if t.size < n_tail:
        raise NoBlowupDetected("no-blowup-detected: too few samples")
    tt, ll = t[-n_tail:], lam[-n_tail:]
    slope, intercept = np.polyfit(tt, ll, 1)
    if slope >= 0.0:
        raise NoBlowupDetected(
            f"no-blowup-detected: lambda not decreasing (slope {slope:.3g})")
    t_star = -intercept / slope
    if t_star <= t[-1]:
        raise NoBlowupDetected("no-blowup-detected: extrapolated T behind "
                               "the trajectory")
    if (t_star - t[0]) < _MIN_DECADE * (t_star - t[-1]):
        raise NoBlowupDetected(
            "no-blowup-detected: less than one decade of T - t resolved")
    beta = np.hypot(p["b"], p["eta"])[-n_tail:]
    ell = float(np.mean(beta / ll))
    gamma_star = float(np.mean(p["gamma"][-n_tail:]))

    def fit_record(vals):
        mean = float(np.mean(vals))
        spread = float(np.max(vals) - np.min(vals))
        return {"mean": mean, "relvar": spread / abs(mean)
                if mean != 0.0 else math.inf}

    rem = t_star - tt
    fits = {"T": float(t_star),
            "lambda_over_Tmt": fit_record(ll / rem),
            "b_over_Tmt": fit_record(p["b"][-n_tail:] / rem),
            "eta_over_Tmt2": fit_record(p["eta"][-n_tail:] / rem**2)}
    return ell, gamma_star, fits


# ---------------------------------------------------------------------------
# Singular-profile probe


def singular_target(m: int, ell: float, gamma_star: float) -> complex:
    """Near-origin coefficient of the singular part of the asymptotic
    profile: c r^m on a neighborhood of the origin."""
    if m == 1:
        return -cmath.exp(1j * gamma_star) * ell**2 * math.sqrt(2.0) / 8.0
    if m == 2:
        return cmath.exp(1j * gamma_star) * ell**3 * (math.sqrt(2.0) / 64.0) * 1j
    return 0.0j


_PROBE_ANNULUS = (0.2, 0.4)  # [r_a, r_b] of the singular-profile fit
_PROBE_MIN_NODES = 16


def singular_profile_probe(mon: Monitor, ell: float, gamma_star: float) -> dict:
    """Least-squares fit of u - Q^sharp_{lambda, gamma} of a decomposed
    monitor against c r^m on the annulus [r_a, r_b] = _PROBE_ANNULUS,
    compared with the singular target."""
    m, grid = mon.u.m, mon.u.grid
    r_a, r_b = _PROBE_ANNULUS
    mask = (grid.r >= r_a) & (grid.r <= r_b)
    n_nodes = int(mask.sum())
    if n_nodes < _PROBE_MIN_NODES or r_a < grid.r_min or r_b > grid.r_max:
        raise AnnulusUnresolved(
            f"annulus-unresolved: {n_nodes} nodes in "
            f"[{r_a}, {r_b}] (need {_PROBE_MIN_NODES})")
    q_sharp = modulate(soliton_q(m, grid),
                       SymmetryParams(mon.d.state.lam, mon.d.state.gamma))
    res = mon.u.values - q_sharp.values
    rm = grid.r ** m
    num = G.integrate_samples(grid, np.where(mask, res * rm, 0.0))
    den = G.integrate_samples(grid, np.where(mask, rm * rm, 0.0))
    c = complex(num) / float(den)
    target = singular_target(m, ell, gamma_star)
    rec = {"t": float(mon.t), "m": m, "c": c, "target": target,
           "r_a": r_a, "r_b": r_b, "n_nodes": n_nodes}
    if target != 0.0:
        rec["mag_ratio"] = abs(c) / abs(target)
        rec["phase_diff"] = cmath.phase(c / target)
    return rec


def profile_monitor(ode_out: dict, snap_grid: Grid,
                    table: TTable) -> Monitor:
    """Synthetic monitor whose state is the chart's profile
    [P(b, eta)]_{lambda, gamma} at the end of a modulation-ODE run
    (eps = 0); used for ODE/PDE hybrid probes of the singular profile."""
    m = table.m
    tt, lam, gam, b, eta = (float(ode_out[k][-1])
                            for k in ("t", "lambda", "gamma", "b", "eta"))
    p = RadialField(m, PR.assemble(table, b, eta).values()[0], table.grid,
                    decay=float(m + 2))
    vals = cmath.exp(1j * gam) / lam * sampler(p)(snap_grid.r / lam)
    u = RadialField(m, vals, snap_grid, decay=None)
    energy, _, _ = GA.energy_mass(u)
    d = DecompResult(state=ModState(lam, gam, b, eta),
                     eps=G.zero_field(m, snap_grid),
                     eps1=G.zero_field(m + 1, snap_grid),
                     eps2=G.zero_field(m + 2, snap_grid),
                     ortho_residuals=(0.0, 0.0, 0.0, 0.0),
                     mu=lam * math.sqrt(max(energy, 0.0)),
                     tube_distance=0.0, converged=True, iterations=0)
    return Monitor(tt, u, d, None)
