"""Linearized operators around Q, their formal right inverses, the Morawetz
weight and its quadratic form, and the random smooth fields of the
coercivity battery.

All operators use the closed-form potential A_theta[Q] = -2(m+1)t/(1+t)
with t = y^{2m+2}. Index bookkeeping (base index m):

    L_Q, L_Q*   : m <-> m+1   (real-linear: they see Re and Im differently)
    A_Q, A_Q*   : m+1 <-> m+2
    H_Q = A_Q* A_Q   on index m+1, potential V_Q = (m+1+A)^2 - y^2 Q^2 / 2
    Htd_Q = A_Q A_Q* on index m+2, potential Vtd_Q = (m+2+A)^2 + y^2 Q^2 / 2

INDEX holds this table as the (domain, range) offsets from m of each
operator tag. apply and right_inverse take the tag and read m from the
index of the field they act on; an unknown tag raises KeyError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import grid as G
from .grid import Grid, RadialField
from .soliton import q_values

# operator tag -> (domain, range) index offsets from the base index m
INDEX = {"LQ": (0, 1), "LQ_star": (1, 0), "AQ": (1, 2), "AQ_star": (2, 1),
         "HQ": (1, 1), "HtdQ": (2, 2)}


class TailDivergent(ValueError):
    pass


class RepulsivityViolated(ValueError):
    pass


# ---------------------------------------------------------------------------
# Closed forms around Q


def a_theta_q(m: int, r: np.ndarray) -> np.ndarray:
    t = r ** (2 * m + 2)
    return -2.0 * (m + 1) * t / (1.0 + t)


def v_q(m: int, r: np.ndarray) -> np.ndarray:
    """Potential of H_Q (times y^2): (m+1+A)^2 - y^2 Q^2 / 2."""
    q = q_values(m, r)
    return (m + 1 + a_theta_q(m, r)) ** 2 - 0.5 * r**2 * q**2


def vtd_q(m: int, r: np.ndarray) -> np.ndarray:
    """Potential of Htd_Q (times y^2): (m+2+A)^2 + y^2 Q^2 / 2 >= m^2."""
    q = q_values(m, r)
    return (m + 2 + a_theta_q(m, r)) ** 2 + 0.5 * r**2 * q**2


def p_const(m: int) -> float:
    """The mass-type constant int_0^inf (yQ)^2 y dy = 4 pi / sin(pi/(m+1))."""
    return 4.0 * math.pi / math.sin(math.pi / (m + 1))


# ---------------------------------------------------------------------------
# Forward application


def apply(tag: str, f: RadialField) -> RadialField:
    domain, range_ = INDEX[tag]
    g, r, m = f.grid, f.grid.r, f.m - domain
    a = a_theta_q(m, r)
    q = q_values(m, r)
    if tag == "LQ":
        # D_Q f - (2/y) A_theta[Q, f] Q with A_theta[Q, f] = -1/2 C, so + C Q / y
        c = G.cumulative(g, np.real(q * f.values), 2)
        vals = G.d_plus(f, a).values + c * q / r
    elif tag == "LQ_star":
        tail_p = None if f.decay is None else f.decay + m + 2
        back = G.backward(g, np.real(q * f.values), 1, tail_p)
        vals = G.d_minus(f, a).values + back * q
    elif tag == "AQ":
        return G.d_plus(f, a)
    elif tag == "AQ_star":
        return G.d_minus(f, a)
    else:  # HQ, HtdQ
        pot = (v_q if tag == "HQ" else vtd_q)(m, r)
        vals = (-G.d_dr(g, f.values, 2) - G.d_dr(g, f.values, 1) / r
                + pot / r**2 * f.values)
    return RadialField(m + range_, vals, g)


# ---------------------------------------------------------------------------
# Explicit solutions J1, J2 and the kernel pairs


def j_pair(grid: Grid, m: int):
    """Closed-form solutions of J'' + J'/y + Q^2 J = 0 with Wronskian
    J1 J2' - J1' J2 = 1/y. Returns (J1, J1', J2, J2')."""
    y = grid.r
    t = y ** (2 * m + 2)
    j1 = (1.0 - t) / (1.0 + t)
    dt = (2 * m + 2) * t / y
    j1p = -2.0 * dt / (1.0 + t) ** 2
    gpart = (2.0 / (m + 1)) / (1.0 + t)
    gp = -(2.0 / (m + 1)) * dt / (1.0 + t) ** 2
    logy = np.log(y)
    j2 = j1 * logy + gpart
    j2p = j1p * logy + j1 / y + gp
    return j1, j1p, j2, j2p


def _kernel_pair_hq(grid: Grid, m: int):
    """(h1, h2) spanning the kernel of H_Q with y (h1 h2' - h1' h2) = 1."""
    y = grid.r
    q = q_values(m, y)
    h1 = y * q
    # c(y) = int_1^y dy'/(y'^3 Q^2) in closed form: the integrand expands to
    # (y^{-2m-3} + 2/y + y^{2m+1}) / (8(m+1)^2)
    t = y ** (2 * m + 2)
    c = ((t - 1.0 / t) / (2 * m + 2) + 2.0 * np.log(y)) / (8.0 * (m + 1) ** 2)
    h2 = h1 * c
    return h1, h2


def _kernel_pair_htd(grid: Grid, m: int):
    """(h1td, h2td) for Htd_Q: h1td regular at 0, h2td decaying at infinity."""
    y = grid.r
    q = q_values(m, y)
    yq2 = (y * q) ** 2
    fwd = G.cumulative(grid, yq2, 2)
    back = G.backward(grid, yq2, 2, 2 * m + 2)
    p = p_const(m)
    h1 = fwd / (y**2 * q)
    h2 = back / (y**2 * q * p)
    return h1, h2


# ---------------------------------------------------------------------------
# Right inverses


def rho(m: int, grid: Grid) -> RadialField:
    """The generalized kernel element: rho = out L_Q^{-1}(yQ / (2(m+1))),
    a real field of index m with rho <~ y^2 Q."""
    q1 = q_values(m, grid.r)
    f = RadialField(m + 1, grid.r * q1 / (2.0 * (m + 1)), grid, decay=m + 1)
    out = right_inverse("LQ", f, "outgoing")
    return RadialField(m, np.real(out.values).astype(complex), grid, decay=float(m))


def right_inverse(tag: str, f: RadialField,
                  branch: str = "outgoing") -> RadialField:
    domain, range_ = INDEX[tag]
    if branch not in ("outgoing", "inner"):
        raise ValueError(f"unknown branch {branch!r}")
    if branch == "inner" and tag != "HtdQ":
        raise ValueError("inner branch is defined for HtdQ only")
    g, y, m = f.grid, f.grid.r, f.m - range_
    q = q_values(m, y)

    if tag == "LQ":
        j1, j1p, j2, j2p = j_pair(g, m)
        u = np.real(f.values) / q
        i2 = G.cumulative(g, j2p * u, 2, include_origin=False)
        i1 = G.cumulative(g, j1p * u, 2, include_origin=False)
        re = q * (j1 * i2 - j2 * i1)
        im = q * G.cumulative(g, np.imag(f.values) / q, 1, include_origin=False)
        vals = re + 1j * im
    elif tag == "AQ":
        vals = y * q * G.cumulative(g, f.values / (y * q), 1, include_origin=False)
    elif tag == "AQ_star":
        vals = -G.cumulative(g, y * q * f.values, 2) / (y**2 * q)
    elif tag == "HQ":
        h1, h2 = _kernel_pair_hq(g, m)
        i1 = G.cumulative(g, h1 * f.values, 2, include_origin=False)
        i2 = G.cumulative(g, h2 * f.values, 2, include_origin=False)
        vals = h1 * i2 - h2 * i1
    elif tag == "HtdQ":
        h1, h2 = _kernel_pair_htd(g, m)
        i1 = G.cumulative(g, h1 * f.values, 2, include_origin=False)
        if branch == "inner":
            integ = np.abs(h2 * f.values) * y**2
            if integ[-1] > 4.0 * integ[-8]:
                raise TailDivergent(
                    "inner HtdQ inverse: h2~*f not integrable at infinity")
            j2 = G.backward(g, h2 * f.values, 2)
            vals = h2 * i1 + h1 * j2
        else:
            i2 = G.cumulative(g, h2 * f.values, 2, include_origin=False)
            vals = h2 * i1 - h1 * i2
    else:
        raise ValueError("L_Q* has no implemented right inverse")
    return RadialField(m + domain, vals, g)


# ---------------------------------------------------------------------------
# Morawetz weight


@dataclass(frozen=True)
class MorawetzWeight:
    delta: float
    psi_prime: np.ndarray
    psi_dprime: np.ndarray
    laplacian_psi: np.ndarray
    bilaplacian_psi: np.ndarray
    c1: float
    c2: float
    c_rpsi: float
    grid: Grid


def _weight_arrays(delta: float, y: np.ndarray):
    """psi', psi'', Delta psi and Delta^2 psi of the weight
    psi = <y> - (delta/2) log(1 + y^2)."""
    ang = np.sqrt(1.0 + y**2)
    psi_p = y / ang - delta * y / ang**2
    psi_pp = 1.0 / ang**3 - delta * (1.0 - y**2) / ang**4
    lap = (2.0 + y**2) / ang**3 - 2.0 * delta / ang**4
    bilap = (y**4 + 8.0 * y**2 - 8.0) / ang**7 \
        + 16.0 * delta * (1.0 - 2.0 * y**2) / ang**8
    return psi_p, psi_pp, lap, bilap


@lru_cache(maxsize=16)
def morawetz_weight(delta: float, grid: Grid,
                    auto_halve: bool = True) -> MorawetzWeight:
    """Repulsive weight psi' = y/<y> - delta y/<y>^2. The returned record
    witnesses c1, c2 > 0 in psi'' >= c1/<y>^2 and
    psi'/y - y^2 (Delta^2 psi)/4 >= c2/<y>; delta is halved automatically
    until both hold (disable with auto_halve=False to get the error).
    Shared per equal grid as the T-table."""
    if not (0.0 < delta < 1.0) and delta != 0.0:
        raise ValueError(f"delta must lie in [0, 1), got {delta}")
    y = grid.r
    ang = np.sqrt(1.0 + y**2)
    while True:
        psi_p, psi_pp, lap, bilap = _weight_arrays(delta, y)
        c1 = float(np.min(psi_pp * ang**2))
        c2 = float(np.min((psi_p / y - 0.25 * y**2 * bilap) * ang))
        if c1 > 0.0 and c2 > 0.0:
            break
        if not auto_halve or delta < 1e-6:
            node = y[int(np.argmin(psi_pp * ang**2))] if c1 <= 0.0 else \
                y[int(np.argmin((psi_p / y - 0.25 * y**2 * bilap) * ang))]
            raise RepulsivityViolated(
                f"repulsivity-violated at delta={delta}: c1={c1:.3e}, "
                f"c2={c2:.3e}, node y={node:.8g}")
        delta *= 0.5
    # r d_r psi' <= C / <r>
    c_rpsi = float(np.max(y * psi_pp * ang))
    if np.any(psi_p < -1e-14) or np.any(psi_p > 1.0 + 1e-14):
        raise RepulsivityViolated("psi' leaves [0, 1]")
    return MorawetzWeight(delta=delta, psi_prime=psi_p,
                          psi_dprime=psi_pp, laplacian_psi=lap,
                          bilaplacian_psi=bilap, c1=c1, c2=c2,
                          c_rpsi=c_rpsi, grid=grid)


def lambda_psi(w: MorawetzWeight, f: RadialField) -> RadialField:
    """The antisymmetric generator Lambda_psi f = psi' d_y f + (Delta psi / 2) f.

    Nothing in the lab applies it: it is the reference side of the
    integrated-by-parts identity of morawetz_quadform, which
    test_quadform_identity checks against (Htd_Q f, Lambda_psi f)_r."""
    vals = w.psi_prime * G.d_dr(f.grid, f.values, 1) \
        + 0.5 * w.laplacian_psi * f.values
    return RadialField(f.m, vals, f.grid)


def morawetz_quadform(f: RadialField, w: MorawetzWeight):
    """Q_form = (Htd_Q f, Lambda_psi f)_r via the integrated-by-parts identity

        int psi'' |d_y f|^2
        + int [ (psi'/y)(Vtd_Q + y^2 Q^2 / 2) - y^2 (Delta^2 psi)/4 ] |f|^2/y^2

    together with the squared V^{3/2}-norm of f, whose index is m+2."""
    if f.grid != w.grid:
        raise G.GridError("grid-mismatch between field and weight")
    mm = f.m - 2
    y = f.grid.r
    q = q_values(mm, y)
    fp = G.d_dr(f.grid, f.values, 1)
    dens = w.psi_dprime * np.abs(fp) ** 2 + (
        (w.psi_prime / y) * (vtd_q(mm, y) + 0.5 * y**2 * q**2)
        - 0.25 * y**2 * w.bilaplacian_psi) * np.abs(f.values / y) ** 2
    q_form = float(G.integrate_samples(f.grid, dens))
    return q_form, G.v32_sq(f)


# ---------------------------------------------------------------------------
# Random test fields


def random_smooth_field(m: int, k: int, grid: Grid, rng) -> RadialField:
    """Envelope r^{m+k} e^{-r^2/2} times a low-order complex polynomial with
    unit-normal coefficients, truncated by a smooth cutoff at r = 10."""
    r = grid.r
    coeffs = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    poly = sum(c * r**j for j, c in enumerate(coeffs))
    env = r ** (m + k) * np.exp(-(r**2) / 2.0) * G.smooth_bump(r / 10.0)
    return RadialField(m, env * poly, grid)
