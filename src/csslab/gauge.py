"""Nonlocal gauge potentials, covariant derivatives, and conserved functionals.

The potentials are

    A_theta[u](r) = -1/2 int_0^r |u|^2 r' dr'
    A_t[u](r)     = -int_r^inf (m + A_theta[u]) |u|^2 dr'/r'

and the first-order operators built on them are

    D_u f  = d_r f - ((m + A_theta[u])/r) f          (index m -> m+1)
    A_u g  = D_u g - g/r                              (index m+1 -> m+2)
    D_u^* g = -d_r g - ((m+1+A_theta[u])/r) g         (adjoint, m+1 -> m)
    A_u^* h = D_u^* h - h/r                           (m+2 -> m+1)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import grid as G
from .grid import Grid, IndexMismatch, RadialField


@dataclass(frozen=True)
class GaugeFields:
    a_theta: np.ndarray
    a_t: np.ndarray
    m: int


def a_theta_pol(grid: Grid, f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Polarized potential A_theta[f, g] = -1/2 int_0^r Re(conj(f) g) r' dr'
    of two sample arrays (or coefficient rows) on the grid."""
    return -0.5 * G.cumulative_rdr(grid, np.real(np.conj(f) * g))


def gauge_fields(u: RadialField) -> GaugeFields:
    dens = np.abs(u.values) ** 2
    a_theta = -0.5 * G.cumulative_rdr(u.grid, dens)
    integrand = (u.m + a_theta) * dens / u.grid.r
    tail_p = None if u.decay is None else 2.0 * u.decay + 1.0
    a_t = -G.backward_dy(u.grid, integrand, tail_power=tail_p)
    return GaugeFields(a_theta=a_theta, a_t=a_t, m=u.m)


def cov_d(u: RadialField, f: RadialField, gf: GaugeFields | None = None) -> RadialField:
    """D_u f for f at u's own index; output index m+1."""
    if f.m != u.m:
        raise IndexMismatch(f"cov_d expects index {u.m}, got {f.m}")
    if gf is None:
        gf = gauge_fields(u)
    vals = G.d_dr(f.grid, f.values, 1) - ((u.m + gf.a_theta) / f.grid.r) * f.values
    return RadialField(f.m + 1, vals, f.grid)


def a_u(u: RadialField, g: RadialField, gf: GaugeFields | None = None) -> RadialField:
    """A_u g = d_r g - ((m + 1 + A_theta[u])/r) g for g of index m+1."""
    if g.m != u.m + 1:
        raise IndexMismatch(f"a_u expects index {u.m + 1}, got {g.m}")
    if gf is None:
        gf = gauge_fields(u)
    vals = G.d_dr(g.grid, g.values, 1) - ((u.m + 1 + gf.a_theta) / g.grid.r) * g.values
    return RadialField(g.m + 1, vals, g.grid)


def cov_d_star(u: RadialField, g: RadialField, gf: GaugeFields | None = None) -> RadialField:
    """D_u^* g = -d_r g - ((m + 1 + A_theta[u])/r) g, lowering the index."""
    if gf is None:
        gf = gauge_fields(u)
    vals = -G.d_dr(g.grid, g.values, 1) - ((u.m + 1 + gf.a_theta) / g.grid.r) * g.values
    return RadialField(g.m - 1, vals, g.grid)


def a_u_star(u: RadialField, h: RadialField, gf: GaugeFields | None = None) -> RadialField:
    """A_u^* h = -d_r h - ((m + 2 + A_theta[u])/r) h, lowering the index."""
    if gf is None:
        gf = gauge_fields(u)
    vals = -G.d_dr(h.grid, h.values, 1) - ((u.m + 2 + gf.a_theta) / h.grid.r) * h.values
    return RadialField(h.m - 1, vals, h.grid)


def energy_mass(u: RadialField) -> tuple[float, float, float]:
    """(E, M, E_selfdual): Coulomb-form energy, mass, and 1/2 ||D_u u||^2."""
    gf = gauge_fields(u)
    r = u.grid.r
    dens = np.abs(u.values) ** 2
    # |d_r u|^2 and |D_u u|^2 via amplitude/phase so oscillatory tails stay
    # accurate: D_u u = (a' - (m+A_theta) a / r) e^{i phi} + i a phi' e^{i phi}
    polar = G.polar_derivs(u.grid, u.values)
    if polar is None:
        grad2 = np.abs(G.d_dr(u.grid, u.values, 1)) ** 2
        dsq = np.abs(cov_d(u, u, gf).values) ** 2
    else:
        a, da, dphi = polar
        grad2 = da**2 + a**2 * dphi**2
        dsq = (da - (u.m + gf.a_theta) * a / r) ** 2 + (a * dphi) ** 2
    kinetic = 0.5 * (grad2 + ((u.m + gf.a_theta) / r) ** 2 * dens)
    E = G.auto_tail_integrate(u.grid, kinetic) - 0.25 * float(
        G.integrate_samples(u.grid, dens**2,
                            None if u.decay is None else 4 * u.decay))
    M = float(G.integrate_samples(u.grid, dens,
                                  None if u.decay is None else 2 * u.decay))
    E_sd = 0.5 * G.auto_tail_integrate(u.grid, dsq)
    return E, M, E_sd


def virial(u: RadialField) -> tuple[float, float]:
    """V1 = int r^2 |u|^2 and V2 = int Im(conj(u) r d_r u)."""
    r = u.grid.r
    dens = np.abs(u.values) ** 2
    d1 = None if u.decay is None else 2.0 * u.decay - 2.0
    v1 = float(G.integrate_samples(u.grid, r**2 * dens, d1))
    # Im(conj(u) d_r u) = a^2 d_r phi for a zero-free field
    polar = G.polar_derivs(u.grid, u.values)
    if polar is None:
        im_grad = np.imag(np.conj(u.values) * G.d_dr(u.grid, u.values, 1))
    else:
        im_grad = polar[0] ** 2 * polar[2]
    v2 = float(G.integrate_samples(u.grid, r * im_grad, d1))
    return v1, v2


@dataclass(frozen=True)
class ConjugateTriple:
    u1: RadialField
    u2: RadialField


def conjugate_triple(u: RadialField) -> ConjugateTriple:
    gf = gauge_fields(u)
    u1 = cov_d(u, u, gf)
    u2 = a_u(u, u1, gf)
    return ConjugateTriple(u1=u1, u2=u2)
