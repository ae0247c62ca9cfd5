"""Linearized operators: kernels, right inverses, Morawetz weight, probes.

Frozen values: the kernel relations L_Q(LamQ) = 0, L_Q(iQ) = 0, A_Q(yQ) = 0,
L_Q(i y^2/4 Q) = i (y/2) Q, and the constant p = int (yQ)^2 y dy =
4 pi / sin(pi/(m+1)) (Beta integral; 4 pi at m=1).
"""

import math
import re

import numpy as np
import pytest

from csslab import grid as G
from csslab import linops as L
from csslab.grid import RadialField
from csslab.soliton import q_values, soliton_q

ALL_TAGS = ("LQ", "LQ_star", "AQ", "AQ_star", "HQ", "HtdQ")
INVERTIBLE = ("LQ", "AQ", "AQ_star", "HQ", "HtdQ")


def smooth_window(y):
    """Compactly supported window, vanishing at the origin and beyond r = 10."""
    return G.smooth_bump(y / 5.0) * (1.0 - G.smooth_bump(y / 0.25))


def battery(grid, rng, count=10):
    """Ten smooth compactly supported complex test functions."""
    y = grid.r
    fields = []
    for k in range(count):
        c = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        poly = c[0] + c[1] * y + c[2] * y**2
        center = 1.0 + 0.35 * k
        vals = y**2 * np.exp(-((y - center) ** 2)) * smooth_window(y) * poly
        fields.append(vals)
    return fields


# ---------------------------------------------------------------------------
# Operator kinds and forward application


def docstring_table():
    """(domain, range) offsets from m of each tag, read off the index
    bookkeeping lines of the linops docstring ("m+1" -> 1)."""
    table = {}
    for name, lo, hi in re.findall(r"(\w+), \w+\*\s+: m\+?(\d?) <-> m\+?(\d?)",
                                   L.__doc__):
        lo, hi = int(lo or 0), int(hi or 0)
        table[name.replace("_", "")] = (lo, hi)
        table[name.replace("_", "") + "_star"] = (hi, lo)
    for name, k in re.findall(r"(\w+) = \w+\*? \w+\*?\s+on index m\+(\d)", L.__doc__):
        table[name.replace("_", "")] = (int(k), int(k))
    return table


def test_index_table_matches_docstring():
    assert L.INDEX == docstring_table()
    assert set(L.INDEX) == set(ALL_TAGS)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_apply_and_inverse_read_the_index(grid, rng, m):
    # apply maps index m + domain to m + range; right_inverse maps back
    vals = battery(grid, rng, count=1)[0]
    for tag, (dom, ran) in docstring_table().items():
        out = L.apply(tag, RadialField(m + dom, vals, grid))
        assert out.m == m + ran, tag
        if tag in INVERTIBLE:
            inv = L.right_inverse(tag, RadialField(m + ran, vals, grid))
            assert inv.m == m + dom, tag


def test_unknown_tag_raises_key_error(grid):
    q = soliton_q(1, grid)
    with pytest.raises(KeyError):
        L.apply("bogus", q)
    with pytest.raises(KeyError):
        L.right_inverse("bogus", q)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_kernel_relations(grid, m):
    q = soliton_q(m, grid)
    scale = G.hdot1(q)
    assert G.l2(L.apply("LQ", G.scale_gen(q))) < 1e-6 * scale
    assert G.l2(L.apply("LQ", q.with_values(1j * q.values))) < 1e-6 * scale
    yq = RadialField(m + 1, grid.r * q.values, grid, decay=m + 1)
    assert G.l2(L.apply("AQ", yq)) < 1e-6 * G.l2(yq)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_generalized_kernel_relation(grid, m):
    # L_Q(i (y^2/4) Q) = i (y/2) Q
    q = soliton_q(m, grid)
    y = grid.r
    f = q.with_values(1j * (y**2 / 4.0) * q.values, decay=None)
    out = L.apply("LQ", f)
    tgt = 1j * (y / 2.0) * q.values
    assert np.max(np.abs(out.values - tgt)) < 1e-6 * np.abs(tgt).max()


def test_vtd_repulsivity_closed_forms(grid):
    # Vtd_Q >= m^2 and -y d_y Vtd_Q = y^2 Q^2, from the rational closed forms
    for m in (1, 2, 3):
        y = grid.r
        t = y ** (2 * m + 2)
        vtd = L.vtd_q(m, y)
        oracle = (m**2 * t**2 + (2 * m**2 + 4 * m + 4) * t + (m + 2) ** 2) / (1 + t) ** 2
        assert np.max(np.abs(vtd - oracle)) < 1e-10 * (m + 2) ** 2
        assert np.all(vtd >= m**2 - 1e-12)
        # d_t Vtd = -4(m+1)/(1+t)^2, so -y d_y Vtd = (2m+2) t * 4(m+1)/(1+t)^2
        minus_ydv = (2 * m + 2) * t * 4.0 * (m + 1) / (1 + t) ** 2
        y2q2 = y**2 * q_values(m, y) ** 2
        assert np.max(np.abs(minus_ydv - y2q2)) < 1e-10 * 8 * (m + 1) ** 2


# ---------------------------------------------------------------------------
# rho


@pytest.mark.parametrize("m", [1, 2, 3])
def test_rho_round_trip(grid, m):
    rho = L.rho(m, grid)
    out = L.apply("LQ", rho)
    tgt = grid.r * q_values(m, grid.r) / (2.0 * (m + 1))
    assert G.l2_samples(grid, out.values - tgt) < 1e-5 * G.l2_samples(grid, tgt)
    assert np.max(np.abs(rho.values.imag)) == 0.0


def test_rho_growth_bound(grid):
    for m in (1, 2):
        rho = L.rho(m, grid)
        y = grid.r
        mask = y >= 2.0
        ratio = np.abs(rho.values[mask]) / (y[mask] ** 2 * q_values(m, y[mask]))
        assert np.max(ratio) < 1.0
        fine = G.build_grid(n=8192)
        rho2 = L.rho(m, fine)
        mask2 = fine.r >= 2.0
        ratio2 = np.abs(rho2.values[mask2]) / (fine.r[mask2] ** 2 * q_values(m, fine.r[mask2]))
        assert np.max(ratio2) == pytest.approx(np.max(ratio), rel=1e-6)


def test_rho_composed_identity(grid):
    # i (L_Q* L_Q) rho = i Q
    for m in (1, 2):
        rho = L.rho(m, grid)
        mid = L.apply("LQ", rho)
        out = L.apply("LQ_star", mid)
        q = soliton_q(m, grid)
        assert G.l2_samples(grid, out.values - q.values) < 1e-4 * G.l2(q)


# ---------------------------------------------------------------------------
# J1, J2


def test_j_pair_values_at_one():
    g1 = G.build_grid(1.0, math.e, 64)
    for m in (1, 2, 3):
        j1, _, j2, _ = L.j_pair(g1, m)
        assert abs(j1[0]) < 1e-14
        assert j2[0] == pytest.approx(1.0 / (m + 1), abs=1e-14)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_j_pair_wronskian(grid, m):
    j1, j1p, j2, j2p = L.j_pair(grid, m)
    w = j1 * j2p - j1p * j2
    assert np.max(np.abs(w - 1.0 / grid.r) * grid.r) < 1e-8


@pytest.mark.parametrize("m", [1, 2, 3])
def test_j_pair_ode(grid, m):
    # J'' + J'/y + Q^2 J = 0 to 1e-8 relative, with the second derivatives
    # taken from an independent differentiation of the closed forms (stencil
    # differentiation cannot resolve the fast m=3 transition to this depth;
    # a looser numerical cross-check follows separately)
    y = grid.r
    q2 = q_values(m, y) ** 2
    j1, j1p, j2, j2p = L.j_pair(grid, m)
    t = y ** (2 * m + 2)
    tp = (2 * m + 2) * t / y
    tpp = (2 * m + 2) * (2 * m + 1) * t / y**2
    j1pp = -2.0 * tpp / (1 + t) ** 2 + 4.0 * tp**2 / (1 + t) ** 3
    gpp = -(2.0 / (m + 1)) * (tpp / (1 + t) ** 2 - 2.0 * tp**2 / (1 + t) ** 3)
    j2pp = j1pp * np.log(y) + 2.0 * j1p / y - j1 / y**2 + gpp
    for jv, jp, jpp in ((j1, j1p, j1pp), (j2, j2p, j2pp)):
        res = jpp + jp / y + q2 * jv
        assert np.max(np.abs(res) / (np.abs(jv) + 1.0)) < 1e-8


def test_j_pair_ode_numerical_cross_check(grid):
    # same residual with stencil derivatives, midrange, truncation-limited
    y = grid.r
    q2 = q_values(1, y) ** 2
    j1, _, j2, _ = L.j_pair(grid, 1)
    mask = (y >= 0.1) & (y <= 150.0)
    for jv in (j1, j2):
        res = (np.real(G.d_dr(grid, jv.astype(complex), 2))
               + np.real(G.d_dr(grid, jv.astype(complex), 1)) / y + q2 * jv)
        scale = np.abs(jv) + 1.0
        assert np.max(np.abs(res[mask]) / scale[mask]) < 1e-6


# ---------------------------------------------------------------------------
# Right inverses


def test_right_inverse_battery(grid, rng):
    # round-trip residual < 1e-4 for all five invertible kinds
    fields = battery(grid, rng)
    for tag in INVERTIBLE:
        for vals in fields:
            f = RadialField(1 + L.INDEX[tag][1], vals, grid)
            inv = L.right_inverse(tag, f, "outgoing")
            back = L.apply(tag, inv)
            err = G.l2_samples(grid, back.values - f.values)
            assert err < 1e-4 * G.l2(f), (tag, err / G.l2(f))


def test_right_inverse_higher_index(grid, rng):
    # the growing outgoing solutions amplify stencil error with m; keep a
    # looser ceiling at m = 2, 3
    vals = battery(grid, rng, count=1)[0]
    for m in (2, 3):
        for tag in INVERTIBLE:
            f = RadialField(m + L.INDEX[tag][1], vals, grid)
            inv = L.right_inverse(tag, f, "outgoing")
            back = L.apply(tag, inv)
            assert G.l2_samples(grid, back.values - f.values) < 1e-3 * G.l2(f)


def test_right_inverse_zero(grid):
    for tag in INVERTIBLE:
        z = G.zero_field(1 + L.INDEX[tag][1], grid)
        assert G.l2(L.right_inverse(tag, z, "outgoing")) == 0.0


def test_right_inverse_inner_htd(grid, rng):
    for vals in battery(grid, rng, count=3):
        f = RadialField(3, vals, grid)
        inv = L.right_inverse("HtdQ", f, "inner")
        back = L.apply("HtdQ", inv)
        assert G.l2_samples(grid, back.values - f.values) < 1e-4 * G.l2(f)


def test_right_inverse_branch_validation(grid):
    f = G.zero_field(2, grid)
    with pytest.raises(ValueError):
        L.right_inverse("LQ", f, "inner")
    with pytest.raises(ValueError):
        L.right_inverse("LQ", f, "orthogonal")
    with pytest.raises(ValueError):
        L.right_inverse("LQ", f, "sideways")


def test_outgoing_vanishes_with_input(grid, rng):
    # smooth-extension sanity: input supported in r >= a gives output zero
    # on r <= a
    y = grid.r
    vals = y**2 * np.exp(-((y - 3.0) ** 2)) * G.smooth_bump(y / 5.0) \
        * (1.0 - G.smooth_bump(y / 0.5))
    a_mask = y <= 0.45
    for tag in INVERTIBLE:
        f = RadialField(1 + L.INDEX[tag][1], vals, grid)
        inv = L.right_inverse(tag, f, "outgoing")
        inner_part = np.max(np.abs(inv.values[a_mask]))
        assert inner_part < 1e-12 * max(np.max(np.abs(inv.values)), 1e-300)


# ---------------------------------------------------------------------------
# Adjointness and factorizations


def test_adjointness(grid, rng):
    for vals_f, vals_g in zip(battery(grid, rng, 3), battery(grid, rng, 3)):
        f = RadialField(2, vals_f, grid)
        h = RadialField(3, vals_g, grid)
        lhs = G.inner(L.apply("AQ", f), h)
        rhs = G.inner(f, L.apply("AQ_star", h))
        assert abs(lhs - rhs) < 1e-7 * (abs(lhs) + 1.0)


def test_factorizations(grid):
    # H_Q = A_Q* A_Q and Htd_Q = A_Q A_Q*, potential form vs composition;
    # a slowly varying profile keeps the stencil truncation below 1e-8
    y = grid.r
    vals = y**2 * np.exp(-y) * (1 + 0.4j)
    f1 = RadialField(2, vals, grid)
    f2 = RadialField(3, vals, grid)
    hq_pot = L.apply("HQ", f1)
    hq_fac = L.apply("AQ_star",
                     L.apply("AQ", f1))
    assert G.l2_samples(grid, hq_pot.values - hq_fac.values) < 1e-8 * G.l2(hq_pot)
    ht_pot = L.apply("HtdQ", f2)
    ht_fac = L.apply("AQ",
                     L.apply("AQ_star", f2))
    assert G.l2_samples(grid, ht_pot.values - ht_fac.values) < 1e-8 * G.l2(ht_pot)


def test_p_const_quadrature(grid):
    for m in (1, 2, 3):
        y = grid.r
        yq2 = (y * q_values(m, y)) ** 2
        quad = float(G.integrate_samples(grid, yq2, decay=2 * m + 2))
        quad /= 2.0 * math.pi
        assert abs(quad - L.p_const(m)) < 1e-8 * L.p_const(m)
    assert L.p_const(1) == pytest.approx(4.0 * math.pi, rel=1e-15)


# ---------------------------------------------------------------------------
# Morawetz weight


def test_weight_delta_zero(grid):
    w = L.morawetz_weight(0.0, grid)
    y = grid.r
    ang = np.sqrt(1.0 + y**2)
    assert np.max(np.abs(w.psi_dprime - 1.0 / ang**3)) < 1e-14
    assert np.max(np.abs(w.psi_prime - y / ang)) < 1e-14
    # the bilaplacian combination reduces to the known rational identity
    combo = w.psi_prime / y - 0.25 * y**2 * w.bilaplacian_psi
    expect = (3 * y**6 + 4 * y**4 + 20 * y**2 + 4) / (4 * ang**7)
    assert np.max(np.abs(combo - expect)) < 1e-12


def test_weight_limits(grid):
    w = L.morawetz_weight(0.3, grid)
    y = grid.r
    # psi'(y) = 1 - delta/y + O(1/y^2) at the far end
    assert w.psi_prime[-1] == pytest.approx(1.0 - 0.3 / y[-1], abs=1e-4)
    assert w.psi_prime[0] == pytest.approx((1.0 - 0.3) * y[0], rel=1e-6)
    assert np.all(w.psi_prime >= -1e-14) and np.all(w.psi_prime <= 1.0 + 1e-14)
    assert w.c1 > 0 and w.c2 > 0
    assert np.all(y * w.psi_dprime <= w.c_rpsi / np.sqrt(1 + y**2) + 1e-12)


def test_weight_validation(grid):
    with pytest.raises(ValueError):
        L.morawetz_weight(1.5, grid)
    with pytest.raises(ValueError):
        L.morawetz_weight(-0.1, grid)


def test_weight_auto_halving(grid):
    # a delta close to 1 fails the pointwise inequalities until halved
    w = L.morawetz_weight(0.99, grid, auto_halve=True)
    assert w.c1 > 0 and w.c2 > 0
    assert w.delta <= 0.99


def test_quadform_zero(grid):
    w = L.morawetz_weight(0.3, grid)
    qf, v32 = L.morawetz_quadform(G.zero_field(3, grid), w)
    assert qf == 0.0 and v32 == 0.0


def test_quadform_identity(grid, rng):
    # integrated-by-parts value equals the direct pairing (Htd_Q f, Lambda_psi f)_r
    w = L.morawetz_weight(0.3, grid)
    f = L.random_smooth_field(3, 2, grid, rng)
    direct = G.inner(L.apply("HtdQ", f), L.lambda_psi(w, f))
    qf, _ = L.morawetz_quadform(f, w)
    assert abs(direct - qf) < 1e-6 * abs(qf)


def test_lambda_psi_antisymmetric(grid, rng):
    w = L.morawetz_weight(0.3, grid)
    f = L.random_smooth_field(3, 1, grid, rng)
    lp = L.lambda_psi(w, f)
    assert abs(G.inner(f, lp)) < 1e-7 * G.l2(f) * G.l2(lp)


def test_quadform_positive_ratio(grid):
    w = L.morawetz_weight(0.3, grid)
    rng = np.random.default_rng(11)
    ratios = []
    for _ in range(50):
        f = L.random_smooth_field(3, 1 + rng.integers(0, 2), grid, rng)
        qf, v32 = L.morawetz_quadform(f, w)
        ratios.append(qf / v32)
    assert min(ratios) > 0.0


# ---------------------------------------------------------------------------
# Coercivity probes


def test_probe_kernel_direction(grid):
    q = soliton_q(1, grid)
    comb = q.with_values(0.7 * G.scale_gen(q).values + 0.3j * q.values, decay=None)
    ratio = G.l2(L.apply("LQ", comb)) / G.hdot1(comb)
    assert ratio < 1e-5
