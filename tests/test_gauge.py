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
from csslab import linops as L
from csslab.soliton import blowup_s, soliton_q


def test_gauge_zero(grid):
    z = G.zero_field(1, grid)
    a_theta = GA.gauge_fields(z)
    assert np.all(a_theta == 0)
    assert np.all(GA.a_t(z, np.abs(z.values) ** 2, a_theta) == 0)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_a_theta_q_closed_form(grid, m):
    q = soliton_q(m, grid)
    a_theta = GA.gauge_fields(q)
    t = grid.r ** (2 * m + 2)
    expect = -2.0 * (m + 1) * t / (1.0 + t)
    assert np.max(np.abs(a_theta - expect)) < 1e-6 * 2 * (m + 1)
    # limit value at the far end
    assert abs(a_theta[-1] - (-2.0 * (m + 1))) < 1e-6 * 2 * (m + 1)


def test_a_theta_monotone_and_origin(grid):
    q = soliton_q(1, grid)
    a_theta = GA.gauge_fields(q)
    assert np.all(np.diff(a_theta) <= 1e-15)
    assert abs(a_theta[0]) < grid.r_min**2 * np.abs(q.values).max() ** 2
    assert abs(GA.a_t(q, np.abs(q.values) ** 2, a_theta)[-1]) < 1e-8


def test_polarization_diagonal(grid):
    q = soliton_q(2, grid)
    a_theta = GA.gauge_fields(q)
    pol = GA.a_theta_pol(grid, q.values, q.values)
    assert np.max(np.abs(pol - a_theta)) < 1e-12


def test_cov_d_q_annihilates(grid):
    for m in (1, 2, 3):
        q = soliton_q(m, grid)
        dq = G.d_plus(q, GA.gauge_fields(q))
        assert G.l2(dq) < 1e-6 * G.hdot1(q)


def test_cov_d_zero(grid):
    q = soliton_q(1, grid)
    z = G.zero_field(1, grid)
    assert G.l2(G.d_plus(z, GA.gauge_fields(q))) == 0.0


def test_cov_d_blowup_phase(grid):
    # D_{S(-1)} S(-1) = -i (r/2) S(-1): the phase e^{-i r^2/4} contributes
    # the derivative term, the gauge term is unchanged (|S| = Q)
    s = blowup_s(1, -1.0, grid)
    ds = G.d_plus(s, GA.gauge_fields(s))
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
    a_theta = GA.gauge_fields(q)
    da = G.d_dr(grid, a_theta.astype(complex), 1)
    expect = -0.5 * grid.r * np.abs(q.values) ** 2
    assert np.max(np.abs(da - expect)) < 1e-7


def test_phase_invariance(grid):
    q = soliton_q(1, grid)
    rot = q.with_values(np.exp(1j * 0.7) * q.values)
    E0, M0, _ = GA.energy_mass(q)
    E1, M1, _ = GA.energy_mass(rot)
    assert E0 == pytest.approx(E1, abs=1e-12)
    assert M0 == pytest.approx(M1, rel=1e-14)
    a0, a1 = GA.gauge_fields(q), GA.gauge_fields(rot)
    assert np.allclose(a0, a1, rtol=1e-14, atol=1e-14)
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
    u1, u2 = GA.conjugate_triple(q)
    assert u1.m == 2 and u2.m == 3
    assert G.l2(u1) < 1e-6 * G.l2(q)
    assert G.l2(u2) < 1e-4 * G.l2(q)


def test_conjugate_triple_linearization(grid, rng):
    # u = Q + eps: u1 = L_Q eps + O(eps^2); halving eps should quarter the
    # deviation from linearity
    q = soliton_q(1, grid)
    pert = grid.r * np.exp(-grid.r**2) * (0.3 + 0.2j)
    devs = []
    for scale in (1e-2, 5e-3):
        u = q.with_values(q.values + scale * pert, decay=None)
        u1 = GA.conjugate_triple(u)[0]
        half = q.with_values(q.values + 0.5 * scale * pert, decay=None)
        u1_half = GA.conjugate_triple(half)[0]
        # deviation from linearity: u1(eps) - 2 u1(eps/2) is quadratic in eps
        dev = G.l2_samples(grid, u1.values - 2.0 * u1_half.values)
        devs.append(dev)
    assert devs[1] < 0.35 * devs[0]


def _row_fields(grid):
    """A zero-free field (perturbed S, the polar path) and one that
    vanishes on part of the grid (the Cartesian path)."""
    s = blowup_s(1, -0.7, grid)
    bump = 0.01 * (0.3 + 0.4j) * np.exp(-np.log(grid.r / 0.7) ** 2 / 0.18)
    zero_free = s.with_values(s.values * (1.0 + bump), decay=None)
    q = soliton_q(2, grid)
    vanishing = q.with_values(np.where(grid.r < 40.0, q.values, 0.0),
                              decay=None)
    return zero_free, vanishing


def test_monitor_row_is_the_three_functionals_bit_for_bit(grid):
    for u, polar in zip(_row_fields(grid), (True, False)):
        assert (G.polar_derivs(grid, u.values) is not None) == polar
        e, mass, e_sd = GA.energy_mass(u)
        u1, u2 = GA.conjugate_triple(u)
        want = (mass, e, e_sd, *GA.virial(u), G.l2(u1), G.l2(u2))
        got = GA.monitor_row(u)
        assert len(got) == 7
        assert (np.array(got).view(np.uint64)
                == np.array(want).view(np.uint64)).all()


def test_monitor_row_builds_each_part_once(grid, monkeypatch):
    # one |u|^2 integral for A_theta, one phase unwrap, one D_u u and one
    # A_u D_u u
    counts = {"cumulative": 0, "smart_unwrap": 0, "d_plus": 0}
    for mod, name in ((G, "cumulative"), (G, "smart_unwrap"),
                      (G, "d_plus")):
        def counted(*args, _f=getattr(mod, name), _n=name, **kwargs):
            counts[_n] += 1
            return _f(*args, **kwargs)
        monkeypatch.setattr(mod, name, counted)
    GA.monitor_row(_row_fields(grid)[0])
    assert counts == {"cumulative": 1, "smart_unwrap": 1, "d_plus": 2}


# ---------------------------------------------------------------------------
# The first-order ladder: grid.d_plus / grid.d_minus against the eight
# expressions they replace, written out here as references with the shift
# at the base index m. gauge's D_u, A_u, D_u^*, A_u^* at a = A_theta[u]
# and linops.apply's LQ, AQ, LQ_star, AQ_star arms at a = A_theta[Q]
# (local parts of L_Q and L_Q^*) are the same four expressions in a.


def _ladder_references(f, m, a):
    """name -> (index of the field it acts on, values on f's samples)."""
    g, r, v = f.grid, f.grid.r, f.values
    return {
        "cov_d": (m, G.d_dr(g, v, 1) - ((m + a) / r) * v),
        "a_u": (m + 1, G.d_dr(g, v, 1) - ((m + 1 + a) / r) * v),
        "cov_d_star": (m + 1, -G.d_dr(g, v, 1) - ((m + 1 + a) / r) * v),
        "a_u_star": (m + 2, -G.d_dr(g, v, 1) - ((m + 2 + a) / r) * v),
    }


def _ladder_fields(grid, m):
    """A zero-free field (perturbed S) and one that vanishes on part of
    the grid, both of index m."""
    s = blowup_s(m, -0.7, grid)
    bump = 0.01 * (0.3 + 0.4j) * np.exp(-np.log(grid.r / 0.7) ** 2 / 0.18)
    q = soliton_q(m, grid)
    return (s.with_values(s.values * (1.0 + bump), decay=None),
            q.with_values(np.where(grid.r < 40.0, q.values, 0.0), decay=None))


def _bits(vals):
    return vals.view(np.uint64)


@pytest.mark.parametrize("n", [4096, 16384])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_ladder_is_the_eight_expressions_bit_for_bit(n, m):
    grid = G.build_grid() if n == 4096 else G.build_grid(1e-3, 100.0, n)
    a_q = L.a_theta_q(m, grid.r)
    for u in _ladder_fields(grid, m):
        for a in (GA.gauge_fields(u), a_q):
            for name, (k, want) in _ladder_references(u, m, a).items():
                f = G.RadialField(k, u.values, grid)
                step = G.d_minus if name.endswith("_star") else G.d_plus
                got = step(f, a)
                assert got.m == (k - 1 if step is G.d_minus else k + 1)
                assert (_bits(got.values) == _bits(want)).all(), name
        # the A_Q, A_Q^* arms of linops.apply are the ladder itself
        for tag, k, step in (("AQ", m + 1, G.d_plus),
                             ("AQ_star", m + 2, G.d_minus)):
            f = G.RadialField(k, u.values, grid)
            got = L.apply(tag, f)
            assert (_bits(got.values) == _bits(step(f, a_q).values)).all()


@pytest.mark.parametrize("m", [1, 2, 3])
def test_d_minus_is_the_adjoint_of_d_plus(grid, rng, m):
    # (d_plus f, g)_r = (f, d_minus g)_r for f of index k, g of index k + 1
    # supported in [0.05, 20], at a = A_theta[Q]: D_Q, D_Q^* for k = m and
    # A_Q, A_Q^* for k = m + 1
    r = grid.r
    a = GA.gauge_fields(soliton_q(m, grid))
    window = G.smooth_bump(r / 10.0) * (1.0 - G.smooth_bump(r / 0.05))
    for k in (m, m + 1):
        f, g = (G.RadialField(j, window * sum(
            c * r**p for p, c in enumerate(rng.standard_normal(3)
                                           + 1j * rng.standard_normal(3))),
            grid) for j in (k, k + 1))
        lhs = G.inner(G.d_plus(f, a), g)
        rhs = G.inner(f, G.d_minus(g, a))
        # the defect is the stencils' truncation: 3e-9 and 5e-9 of the scale
        # on the default grid, falling 16-fold per halving of h
        scale = G.l2(G.d_plus(f, a)) * G.l2(g)
        assert abs(lhs - rhs) < 1e-8 * scale
