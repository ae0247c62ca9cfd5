"""Gauge potentials, covariant derivative, energy/mass/virial tests.

Frozen values: A_theta[Q](r) = -2(m+1) r^{2m+2}/(1+r^{2m+2}) by closed-form
antiderivative; E[S(-1)] = pi^2 for m=1 via the Beta integral
(1/8) * 2*pi int y^3 Q^2 dy = (1/8) * 2*pi * 4*pi.
"""

import math

import numpy as np
import pytest

from csslab import gauge as GA
from csslab import grid as G
from csslab.soliton import blowup_s, soliton_q


def test_gauge_zero(grid):
    gf = GA.gauge_fields(G.zero_field(1, grid))
    assert np.all(gf.a_theta == 0) and np.all(gf.a_t == 0)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_a_theta_q_closed_form(grid, m):
    q = soliton_q(m, grid)
    gf = GA.gauge_fields(q)
    t = grid.r ** (2 * m + 2)
    expect = -2.0 * (m + 1) * t / (1.0 + t)
    assert np.max(np.abs(gf.a_theta - expect)) < 1e-6 * 2 * (m + 1)
    # limit value at the far end
    assert abs(gf.a_theta[-1] - (-2.0 * (m + 1))) < 1e-6 * 2 * (m + 1)


def test_a_theta_monotone_and_origin(grid):
    q = soliton_q(1, grid)
    gf = GA.gauge_fields(q)
    assert np.all(np.diff(gf.a_theta) <= 1e-15)
    assert abs(gf.a_theta[0]) < grid.r_min**2 * np.abs(q.values).max() ** 2
    assert abs(gf.a_t[-1]) < 1e-8


def test_polarization_diagonal(grid):
    q = soliton_q(2, grid)
    gf = GA.gauge_fields(q)
    pol = GA.a_theta_pol(grid, q.values, q.values)
    assert np.max(np.abs(pol - gf.a_theta)) < 1e-12


def test_cov_d_q_annihilates(grid):
    for m in (1, 2, 3):
        q = soliton_q(m, grid)
        dq = GA.cov_d(q, q)
        assert G.l2(dq) < 1e-6 * G.hdot1(q)


def test_cov_d_zero(grid):
    q = soliton_q(1, grid)
    z = G.zero_field(1, grid)
    assert G.l2(GA.cov_d(q, z)) == 0.0


def test_cov_d_blowup_phase(grid):
    # D_{S(-1)} S(-1) = -i (r/2) S(-1): the phase e^{-i r^2/4} contributes
    # the derivative term, the gauge term is unchanged (|S| = Q)
    s = blowup_s(1, -1.0, grid)
    ds = GA.cov_d(s, s)
    expect = -1j * (grid.r / 2.0) * s.values
    # compare where the quadratic phase is resolved by the log grid
    # (oscillation per node ~ r^2 h / 2 stays small for r <= 10)
    mask = grid.r <= 10.0
    num = G.l2_samples(grid, np.where(mask, ds.values - expect, 0.0))
    den = G.l2_samples(grid, np.where(mask, expect, 0.0))
    # stencil truncation on e^{-i r^2/4} grows like (r^2 h / 2)^4; 2e-5 is the
    # resolved-region floor at the default resolution
    assert num < 2e-5 * den


def test_energy_q_zero(grid):
    for m in (1, 2):
        q = soliton_q(m, grid)
        E, M, E_sd = GA.energy_mass(q)
        assert abs(E) < 1e-7 * M
        assert abs(E_sd) < 1e-10 * M
        assert abs(M - 8.0 * math.pi * (m + 1)) < 1e-6 * M


def test_energy_blowup_snapshot(grid):
    s = blowup_s(1, -1.0, grid)
    E, M, E_sd = GA.energy_mass(s)
    assert abs(E - math.pi**2) < 1e-5 * math.pi**2
    assert abs(E_sd - math.pi**2) < 1e-5 * math.pi**2
    assert abs(M - 16.0 * math.pi) < 1e-6 * M


def test_energy_forms_agree(grid, rng):
    for _ in range(5):
        coeffs = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        poly = sum(c * grid.r**k for k, c in enumerate(coeffs))
        f = G.RadialField(1, grid.r * np.exp(-grid.r**2 / 2) * poly, grid)
        E, M, E_sd = GA.energy_mass(f)
        assert abs(E - E_sd) <= 1e-6 * (1.0 + abs(E))


def test_virial_real_field(grid):
    q = soliton_q(1, grid)
    v1, v2 = GA.virial(q)
    assert v2 == 0.0
    assert v1 > 0
    v1z, v2z = GA.virial(G.zero_field(1, grid))
    assert v1z == 0 and v2z == 0


def test_virial_blowup(grid):
    # V1[S(-1)] = int r^2 Q^2 = 2*pi * 4*pi = 8 pi^2 for m=1 (Beta integral);
    # consistent with E[S(-1)] = V1/8 = pi^2
    s = blowup_s(1, -1.0, grid)
    v1, _ = GA.virial(s)
    assert abs(v1 - 8.0 * math.pi**2) < 1e-5 * 8.0 * math.pi**2


def test_gauge_field_consistency(grid):
    q = soliton_q(1, grid)
    gf = GA.gauge_fields(q)
    da = G.d_dr(grid, gf.a_theta.astype(complex), 1)
    expect = -0.5 * grid.r * np.abs(q.values) ** 2
    assert np.max(np.abs(da - expect)) < 1e-7


def test_phase_invariance(grid):
    q = soliton_q(1, grid)
    rot = q.with_values(np.exp(1j * 0.7) * q.values)
    E0, M0, _ = GA.energy_mass(q)
    E1, M1, _ = GA.energy_mass(rot)
    assert E0 == pytest.approx(E1, abs=1e-12)
    assert M0 == pytest.approx(M1, rel=1e-14)
    gf0, gf1 = GA.gauge_fields(q), GA.gauge_fields(rot)
    assert np.allclose(gf0.a_theta, gf1.a_theta, rtol=1e-14, atol=1e-14)
    v0, v1f = GA.virial(q), GA.virial(rot)
    assert v0[0] == pytest.approx(v1f[0], rel=1e-14)


def test_scaling_covariance(grid):
    # u_lam(r) = u(r/lam)/lam: M invariant, E -> E/lam^2
    r = grid.r
    u = G.RadialField(1, (r * np.exp(-(r**2) / 2) * (1 + 0.3j)), grid)
    lam = 1.7
    ul = G.RadialField(1, (r / lam) * np.exp(-((r / lam) ** 2) / 2) * (1 + 0.3j) / lam, grid)
    E0, M0, _ = GA.energy_mass(u)
    E1, M1, _ = GA.energy_mass(ul)
    assert abs(M1 - M0) < 1e-6 * M0
    assert abs(E1 - E0 / lam**2) < 1e-6 * abs(E0)


def test_conjugate_triple_q(grid):
    q = soliton_q(1, grid)
    tri = GA.conjugate_triple(q)
    assert tri.u1.m == 2 and tri.u2.m == 3
    assert G.l2(tri.u1) < 1e-6 * G.l2(q)
    assert G.l2(tri.u2) < 1e-4 * G.l2(q)


def test_conjugate_triple_linearization(grid, rng):
    # u = Q + eps: u1 = L_Q eps + O(eps^2); halving eps should quarter the
    # deviation from linearity
    q = soliton_q(1, grid)
    pert = grid.r * np.exp(-grid.r**2) * (0.3 + 0.2j)
    devs = []
    for scale in (1e-2, 5e-3):
        u = q.with_values(q.values + scale * pert, decay=None)
        tri = GA.conjugate_triple(u)
        half = q.with_values(q.values + 0.5 * scale * pert, decay=None)
        tri_half = GA.conjugate_triple(half)
        # deviation from linearity: u1(eps) - 2 u1(eps/2) is quadratic in eps
        dev = G.l2_samples(grid, tri.u1.values - 2.0 * tri_half.u1.values)
        devs.append(dev)
    assert devs[1] < 0.35 * devs[0]
