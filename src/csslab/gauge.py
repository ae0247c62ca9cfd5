"""Nonlocal gauge potentials, covariant derivatives, and conserved functionals.

The potentials are

    A_theta[u](r) = -1/2 int_0^r |u|^2 r' dr'
    A_t[u](r)     = -int_r^inf (m + A_theta[u]) |u|^2 dr'/r'

and the first-order operators built on them are grid.d_plus and
grid.d_minus at a = A_theta[u], each shifting by the index of the field
it acts on:

    D_u f   = d_plus(f, a)  = d_r f - ((m + a)/r) f       (f of index m)
    A_u g   = d_plus(g, a)  = d_r g - ((m + 1 + a)/r) g   (index m+1)
    D_u^* g = d_minus(g, a) = -d_r g - ((m + 1 + a)/r) g  (index m+1)
    A_u^* h = d_minus(h, a) = -d_r h - ((m + 2 + a)/r) h  (index m+2)
"""

from __future__ import annotations

import numpy as np

from . import grid as G
from .grid import Grid, RadialField


def a_theta_pol(grid: Grid, f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Polarized potential A_theta[f, g] = -1/2 int_0^r Re(conj(f) g) r' dr'
    of two sample arrays (or coefficient rows) on the grid."""
    return -0.5 * G.cumulative(grid, np.real(np.conj(f) * g), 2)


def gauge_fields(u: RadialField, dens: np.ndarray | None = None) -> np.ndarray:
    """A_theta of u; dens is |u|^2 when the caller has it already."""
    if dens is None:
        dens = np.abs(u.values) ** 2
    return -0.5 * G.cumulative(u.grid, dens, 2)


def a_t(u: RadialField, dens: np.ndarray, a_theta: np.ndarray) -> np.ndarray:
    """A_t of u from its density |u|^2 and A_theta."""
    integrand = (u.m + a_theta) * dens / u.grid.r
    tail_p = None if u.decay is None else 2.0 * u.decay + 1.0
    return -G.backward(u.grid, integrand, 1, tail_p)


def _parts(u: RadialField) -> tuple:
    """(|u|^2, A_theta, polar_derivs) of u."""
    dens = np.abs(u.values) ** 2
    return dens, gauge_fields(u, dens), G.polar_derivs(u.grid, u.values)


def energy_mass(u: RadialField, parts: tuple | None = None,
                d_u: RadialField | None = None) -> tuple[float, float, float]:
    """(E, M, E_selfdual): Coulomb-form energy, mass, and 1/2 ||D_u u||^2;
    parts and D_u u are _parts(u) and d_plus(u, A_theta) when the caller
    has them."""
    dens, a_theta, polar = parts or _parts(u)
    r = u.grid.r
    # |d_r u|^2 and |D_u u|^2 via amplitude/phase so oscillatory tails stay
    # accurate: D_u u = (a' - (m+A_theta) a / r) e^{i phi} + i a phi' e^{i phi}
    if polar is None:
        grad2 = np.abs(G.d_dr(u.grid, u.values, 1)) ** 2
        dsq = np.abs((d_u or G.d_plus(u, a_theta)).values) ** 2
    else:
        a, da, dphi = polar
        grad2 = da**2 + a**2 * dphi**2
        dsq = (da - (u.m + a_theta) * a / r) ** 2 + (a * dphi) ** 2
    kinetic = 0.5 * (grad2 + ((u.m + a_theta) / r) ** 2 * dens)
    E = G.auto_tail_integrate(u.grid, kinetic) - 0.25 * float(
        G.integrate_samples(u.grid, dens**2,
                            None if u.decay is None else 4 * u.decay))
    M = float(G.integrate_samples(u.grid, dens,
                                  None if u.decay is None else 2 * u.decay))
    E_sd = 0.5 * G.auto_tail_integrate(u.grid, dsq)
    return E, M, E_sd


def virial(u: RadialField, parts: tuple | None = None) -> tuple[float, float]:
    """V1 = int r^2 |u|^2 and V2 = int Im(conj(u) r d_r u)."""
    r = u.grid.r
    dens, _, polar = parts or (np.abs(u.values) ** 2, None,
                               G.polar_derivs(u.grid, u.values))
    d1 = None if u.decay is None else 2.0 * u.decay - 2.0
    v1 = float(G.integrate_samples(u.grid, r**2 * dens, d1))
    # Im(conj(u) d_r u) = a^2 d_r phi for a zero-free field
    if polar is None:
        im_grad = np.imag(np.conj(u.values) * G.d_dr(u.grid, u.values, 1))
    else:
        im_grad = polar[0] ** 2 * polar[2]
    v2 = float(G.integrate_samples(u.grid, r * im_grad, d1))
    return v1, v2


def conjugate_triple(u: RadialField,
                     a_theta: np.ndarray | None = None) -> tuple:
    """(u1, u2) = (D_u u, A_u u1), of index m+1 and m+2."""
    a = gauge_fields(u) if a_theta is None else a_theta
    u1 = G.d_plus(u, a)
    return u1, G.d_plus(u1, a)


def monitor_row(u: RadialField) -> tuple:
    """(M, E, E_sd, V1, V2, ||D_u u||, ||A_u D_u u||) as energy_mass, virial
    and conjugate_triple give them, from one _parts(u) and one D_u u."""
    parts = _parts(u)
    u1, u2 = conjugate_triple(u, parts[1])
    e, mass, e_sd = energy_mass(u, parts, u1)
    return (mass, e, e_sd, *virial(u, parts), G.l2(u1), G.l2(u2))
