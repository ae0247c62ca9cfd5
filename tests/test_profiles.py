"""Modified profiles: T-tables, p3, assembly, residuals, T4, sweeps.

Frozen oracles: p3 closed forms (via ||yQ||^2 = 8 pi^2), the exact
coefficient fields of T1/T2_2/T3_0, and the residual scaling slopes.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csslab import gauge as GA
from csslab import grid as G
from csslab import linops as L
from csslab import profiles as PR
from csslab.profiles import (FitIllConditioned, GridTooSmall, assemble,
                             build_t4, build_t_tables,
                             cutoff_cancellation, p3, residuals,
                             scaling_sweep, solvability_inner)
from csslab.soliton import UnsupportedIndex, q_values, soliton_q


@pytest.fixture(scope="module")
def table1(grid):
    return build_t_tables(1, grid)


@pytest.fixture(scope="module")
def table2(grid):
    return build_t_tables(2, grid)


@pytest.mark.parametrize("m", [0, -1])
def test_t_tables_refuse_index_below_one(grid, m):
    with pytest.raises(UnsupportedIndex):
        build_t_tables(m, grid)


@pytest.mark.parametrize("beta", [0.2, 0.0995, math.nan])
def test_residuals_reject_beta_beyond_the_chart(table1, beta):
    # a residual is evaluated on the unfactored chart only
    with pytest.raises(ValueError, match="out of range"):
        residuals(table1, beta, 0.0)


def test_residuals_grid_too_small(table1):
    # 2 B1 = 400 > r_max = 200; without cutoffs the chart needs no room
    with pytest.raises(GridTooSmall):
        residuals(table1, 0.005, 0.0)
    residuals(table1, 0.005, 0.0, cutoffs=False)


@pytest.mark.parametrize("m", [2, 3])
def test_p3_vanishes_above_m1(m):
    assert p3(m, 0.02, 0.01) == (0.0, 0.0)


def test_p3_m1_closed_form():
    beta = 0.03
    p3b, p3e = p3(1, beta, 0.0)
    assert p3b == pytest.approx(0.0, abs=1e-18)
    assert p3e == pytest.approx(beta**3 / math.pi, rel=1e-12)
    p3b, p3e = p3(1, 0.0, beta)
    assert p3b == pytest.approx(beta**3 / math.pi, rel=1e-12)
    assert p3e == pytest.approx(0.0, abs=1e-18)


def test_t1_coefficients_exact(grid, table1):
    y = grid.r
    q = q_values(1, y)
    t11 = table1.entries["T1_1"]
    assert np.array_equal(t11[0], -1j * (y / 2.0) * q)
    assert np.array_equal(t11[1], -(y / 2.0) * q + 0j)
    t10 = table1.entries["T1_0"]
    assert np.array_equal(t10[0], -1j * (y**2 / 4.0) * q)
    rho = L.rho(1, grid).values
    assert np.array_equal(t10[1], -2.0 * rho)


def test_t2_2_coefficients_exact(grid, table1):
    y = grid.r
    q = q_values(1, y)
    t22 = table1.entries["T2_2"]
    base = (y**2 / 4.0) * q
    # bbeta^2 = -b^2 + 2i b eta + eta^2
    assert np.allclose(t22[0], -base, rtol=0, atol=1e-15)
    assert np.allclose(t22[1], 2j * base, rtol=0, atol=1e-15)
    assert np.allclose(t22[2], base + 0j, rtol=0, atol=1e-15)


def test_t3_0_m2_coefficient(grid, table2):
    y = grid.r
    q = q_values(2, y)
    t30 = table2.entries["T3_0"]
    base = (y**6 / 384.0) * q
    # bbeta^3 = -i b^3 - 3 b^2 eta + 3i b eta^2 + eta^3
    assert np.allclose(t30[0], 1j * base, rtol=1e-14, atol=0)
    assert np.allclose(t30[3], -base, rtol=1e-14, atol=0)
    assert build_t_tables(1, grid).entries["T3_0"].size == 0


finite = st.floats(min_value=-1.0, max_value=1.0)


@st.composite
def homogeneous_rows(draw):
    """Complex coefficient rows of a homogeneous polynomial of degree 0-3,
    each row holding 3 samples."""
    deg = draw(st.integers(min_value=0, max_value=3))
    parts = draw(st.lists(finite, min_size=6 * (deg + 1), max_size=6 * (deg + 1)))
    flat = np.array(parts[::2]) + 1j * np.array(parts[1::2])
    return flat.reshape(deg + 1, 3)


@settings(max_examples=60, deadline=None)
@given(pa=homogeneous_rows(), pb=homogeneous_rows(), b=finite, eta=finite)
def test_polynomial_product_and_derivatives(pa, pb, b, eta):
    prod = PR._peval([PR._pmul(pa, pb)], b, eta)
    expect = PR._peval([pa], b, eta) * PR._peval([pb], b, eta)
    assert np.allclose(prod, expect, rtol=1e-12, atol=1e-12)
    h = 1e-5
    for wrt, db, de in (("b", h, 0.0), ("eta", 0.0, h)):
        diff = (PR._peval([pa], b + db, eta + de)
                - PR._peval([pa], b - db, eta - de)) / (2 * h)
        assert np.allclose(PR._peval([pa], b, eta, wrt), diff, rtol=0, atol=1e-8)


def test_solvability_table_values(table1):
    # the normalized per-monomial pairings vanish after including p3
    assert table1.solvability
    assert max(table1.solvability.values()) < 1e-8


@pytest.mark.parametrize("direction", [(1.0, 0.0), (0.0, 1.0), (0.6, 0.8)])
@pytest.mark.parametrize("beta", [0.04, 0.02, 0.01])
def test_solvability_inner_product(table1, direction, beta):
    assert solvability_inner(table1, beta * direction[0],
                             beta * direction[1]) < 1e-6 * beta**3


def test_t3_2_tail_stable_under_refinement(grid, table1):
    fine = G.build_grid(grid.r_min, grid.r_max, 2 * grid.n)
    sups = []
    for g, tab in ((grid, table1), (fine, build_t_tables(1, fine))):
        beta = 0.02
        y = g.r
        q = q_values(1, y)
        vals = PR._peval([tab.entries["T3_2"]], beta, 0.0)
        msk = (y >= 2.0) & (y <= 2.0 / beta)
        ratio = np.abs(vals[msk]) * y[msk] / (beta**3 * y[msk] ** 3 * q[msk]
                                              * np.log(y[msk]))
        sups.append(float(ratio.max()))
    assert sups[0] < 10.0
    assert abs(sups[1] - sups[0]) < 0.2 * sups[0]


def test_assemble_leading_p1(table1):
    # P1 ~ -i b (y/2) Q at leading order on moderate radii
    beta = 0.01
    _, p1 = assemble(table1, beta, 0.0).values()
    g = table1.grid
    msk = g.r <= 10.0
    lead = -1j * beta * (g.r / 2.0) * q_values(1, g.r)
    dev = np.abs(p1 - lead)[msk].max()
    assert dev < 0.05 * np.abs(lead[msk]).max()


def test_assemble_zero_limit(grid, table1):
    chart = assemble(table1, 1e-6, 0.0, cutoffs=False)
    q = soliton_q(1, grid)
    assert np.abs(chart.p - q.values).max() < 3e-6


def test_assemble_support(grid, table1):
    beta = 0.04
    chart = assemble(table1, beta, 0.0)
    q = soliton_q(1, grid)
    far = grid.r > 2.0 / beta
    assert np.array_equal(chart.p[far], q.values[far])
    assert not np.any(chart.p1[far])
    assert not np.any(chart.p2()[far])
    for k in range(3):
        assert not any(np.any(d[far]) for d in chart.derivs(k))


def test_assemble_parity(grid, table1):
    # flipping b -> -b flips exactly the odd-j1 monomials of each T-field
    b, eta = 0.02, 0.015
    plus = assemble(table1, b, eta)
    minus = assemble(table1, -b, eta)
    even = [t * ((len(t) - 1 - np.arange(len(t))) % 2 == 0)[:, None]
            for t in (table1.entries[k] for k in ("T1_0", "T2_0", "T3_0"))]
    chi = G.smooth_bump(grid.r * math.hypot(b, eta))
    recon = 2.0 * (q_values(1, grid.r)
                   + chi * PR._peval(even, b, eta))
    assert np.allclose(plus.p + minus.p, recon,
                       rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("k", [0, 1, 2])
def test_chart_derivs_match_central_differences(grid, table1, k):
    # d_b and d_eta of P, P1, P2 on the whole grid against central
    # differences of the chart's own values: beta = 0.03 puts 2 B1 inside
    # r_max, so the B1 cutoff's own terms take part
    b, eta, h = 0.024, 0.018, 1e-7
    assert 2.0 / math.hypot(b, eta) < grid.r_max

    def value(b, eta):
        chart = assemble(table1, b, eta)
        return (*chart.values(), chart.p2())[k]
    want = ((value(b + h, eta) - value(b - h, eta)) / (2.0 * h),
            (value(b, eta + h) - value(b, eta - h)) / (2.0 * h))
    for got, fd in zip(assemble(table1, b, eta).derivs(k), want):
        assert np.max(np.abs(got - fd)) <= 1e-7 * np.max(np.abs(fd))


def test_cutoff_cancellation_rounding_zero(grid):
    for b, eta in ((0.04, 0.0), (0.02, 0.01), (0.007, 0.007)):
        beta = math.hypot(b, eta)
        field = cutoff_cancellation(grid, b, eta)
        chi_p = G.smooth_bump_prime(grid.r * beta)
        scale = max(abs(b) * beta * np.abs(grid.r * chi_p).max(), 1e-300)
        assert np.abs(field).max() <= 1e-13 * scale


def test_residuals_zero_params(grid, table1):
    rep = residuals(table1, 0.0, 0.0)
    for f in rep.fields.values():
        assert not np.any(f.values)


@pytest.mark.parametrize("m", [1, 2])
def test_residual_support(grid, m):
    beta = 0.04
    tab = build_t_tables(m, grid)
    rep = residuals(tab, beta * 0.8, beta * 0.6)
    far = grid.r >= 4.0 / beta
    # Psi1, Psi2 are pure profile content: cut off exactly
    assert not np.any(rep.fields["Psi1"].values[far])
    assert not np.any(rep.fields["Psi2"].values[far])
    # Psi keeps the O(beta Q) far tail of the Q-equation terms, nothing more
    qf = q_values(m, grid.r[far])
    assert np.abs(rep.fields["Psi"].values[far]).max() < 5.0 * beta * qf.max()


def test_phase_correction(grid, table1):
    for beta in (0.04, 0.02, 0.01):
        eta = 0.8 * beta
        rep = residuals(table1, 0.6 * beta, eta)
        assert abs(rep.phase_corr + 4.0 * eta) < 2.0 * beta**2


def test_compat_defect_scalings(grid, table1):
    # D_P P - P1 in (L2, H1, H2) and A_P P1 - P2 in (L2, H1, V3/2), on the
    # chart and A_theta residuals builds
    vals = {}
    for beta in (0.04, 0.02):
        chart = assemble(table1, beta, 0.0)
        (p, p1), p2 = chart.values(), chart.p2()
        P = G.RadialField(1, p, grid, decay=3.0)
        a_theta = GA.gauge_fields(P)
        d_pp = G.d_plus(P, a_theta)
        c1 = d_pp.with_values(d_pp.values - p1)
        a_pp1 = G.d_plus(G.RadialField(2, p1, grid), a_theta)
        c2 = a_pp1.with_values(a_pp1.values - p2)
        vals[beta] = ((G.l2(c1), G.hdot1(c1), G.hdotk_hardy(c1, 2)),
                      (G.l2(c2), G.hdot1(c2), math.sqrt(G.v32_sq(c2))))
    for idx, order in ((0, 1.0), (1, 2.0)):
        ratio = vals[0.04][0][idx] / vals[0.02][0][idx]
        assert ratio > 2.0 ** (order - 0.4)
    for idx, order in ((0, 2.0), (1, 3.0), (2, 3.5)):
        ratio = vals[0.04][1][idx] / vals[0.02][1][idx]
        assert ratio > 2.0 ** (order - 0.5)
    # the Hdot2 defect sits on a derivative-noise floor; just keep it small
    assert vals[0.02][0][2] < 0.05


def test_mod_vectors_limits(grid, table1):
    # the modulation vectors (Lambda P, -i P, -d_b P, -d_eta P), the eps
    # parts of the decomposition's Jacobian columns at w = P, tend to the
    # generalized kernel (Lambda Q, -i Q, i (y^2/4) Q, 2 rho) as beta -> 0
    beta = 0.01
    chart = assemble(table1, beta, 0.0)
    p = G.RadialField(1, chart.p, grid)
    d_b, d_eta = chart.derivs(0)
    v0 = (G.scale_gen(p).values, -1j * chart.p, -d_b, -d_eta)
    q = soliton_q(1, grid)
    lam_q = G.scale_gen(q).values
    msk = grid.r <= 5.0
    assert np.abs(v0[0] - lam_q)[msk].max() < 5.0 * beta
    assert np.abs(v0[1] + 1j * q.values)[msk].max() < 5.0 * beta
    y = grid.r
    qv = q_values(1, y)
    assert np.abs(v0[2] - 1j * (y**2 / 4.0) * qv)[msk].max() < 5.0 * beta
    rho = L.rho(1, grid).values
    assert np.abs(v0[3] - 2.0 * rho)[msk].max() < 5.0 * beta


def test_mod_vectors_v1_b_derivative(grid, table1):
    # -d_b P1 (a Jacobian column) and Lambda_{-2} P2
    beta = 0.02
    chart = assemble(table1, beta, 0.0)
    y = grid.r
    qv = q_values(1, y)
    chi = G.smooth_bump(y * beta)
    dev = np.abs(-chart.derivs(1)[0] - chi * 1j * (y / 2.0) * qv)
    env = np.where(y <= 2.0, beta * y**4, beta)
    msk = y <= 2.0 / beta
    assert (dev[msk] / env[msk]).max() < 10.0
    # (v2)_1 degeneracy: quadratic in beta with y^3 vanishing at the origin
    msk2 = y <= 2.0
    lam_p2 = G.scale_gen(G.RadialField(3, chart.p2(), grid), -2.0).values
    assert (np.abs(lam_p2[msk2]) / (beta**2 * y[msk2] ** 3)).max() < 10.0


@pytest.mark.parametrize("m", [1, 2])
def test_scaling_sweep_slopes(grid, m):
    sweep = scaling_sweep(m, (0.04, 0.02, 0.01), (1.0, 0.0), grid)
    slopes = {k: v["slope"] for k, v in sweep["slopes"].items()}
    assert slopes["psi_sup_R2"] >= 2.7
    assert slopes["psi_sup_R5"] >= 2.7
    assert slopes["psi1_L1w"] >= 3.5
    assert slopes["psi2_L2"] >= 3.6


def test_sweep_mixed_direction(grid):
    sweep = scaling_sweep(1, (0.04, 0.02, 0.01), (0.6, 0.8), grid,
                          include_t4=False)
    slopes = {k: v["slope"] for k, v in sweep["slopes"].items()}
    assert slopes["psi_sup_R2"] >= 2.7
    assert slopes["psi2_L2"] >= 3.6
    # phase correction deviation is quadratic
    assert slopes["phase_corr_dev"] >= 1.8
    # far-field Taylor deviations scale at their formal orders; along an
    # axis direction some of them vanish identically, hence the mixed one
    assert slopes["t1_dev"] >= 0.8
    assert slopes["t2_dev"] >= 1.8
    assert slopes["t3_dev"] >= 2.7


def test_t4_m1_pointwise_envelope(grid):
    t4 = build_t4(1, grid, (1.0, 0.0))
    y = grid.r
    msk = (y >= 2.0) & (y <= 50.0)
    ratio = np.abs(t4.values[msk]) / (y[msk] * np.log(y[msk]) ** 2)
    assert ratio.max() < 2.0


def test_t4_m2_envelope_stable_under_refinement(grid):
    sups = []
    for g in (grid, G.build_grid(grid.r_min, grid.r_max, 2 * grid.n)):
        t4 = build_t4(2, g, (1.0, 0.0))
        y = g.r
        msk = (y >= 2.0) & (y <= 0.02**-0.5)
        sups.append(float((np.abs(t4.values[msk]) / np.log(y[msk])).max()))
    assert sups[0] < 1.0
    assert abs(sups[1] - sups[0]) < 0.3 * sups[0]


def test_t4_m3_growth_exponent(grid):
    t4 = build_t4(3, grid, (1.0, 0.0))
    y = grid.r
    msk = (y >= 2.0) & (y <= 20.0)
    slope = np.polyfit(np.log(y[msk]), np.log(np.abs(t4.values[msk])), 1)[0]
    assert abs(slope - 1.0) < 0.3


def test_t4_re_extraction(grid):
    f4_raw = PR.quartic_coefficient(1, grid, (1.0, 0.0))
    t4 = build_t4(1, grid, (1.0, 0.0))
    f4_cor = PR.quartic_coefficient(1, grid, (1.0, 0.0), t4_dir=t4)
    msk = grid.r <= 10.0
    assert np.linalg.norm(f4_cor[msk]) <= 0.1 * np.linalg.norm(f4_raw[msk])


@pytest.mark.parametrize("m", [1, 2])
def test_t4_matches_the_lstsq_fit(grid, m):
    # the quartic coefficient as weights times ladder rows agrees with a
    # least-squares solve against the whole residual matrix. Against the
    # exact (40-digit) weights both forms of F4 are within 4e-13; the inner
    # right inverse of m = 2 amplifies that rounding about 30-fold, so T4
    # moves by 1.2e-11 there (each form within 7.4e-12 of the exact fit)
    s_values = [0.03 * 2.0 ** (-j / 2.0) for j in range(6)]
    table = build_t_tables(m, grid)
    rows = []
    for s in s_values:
        rows.append(residuals(table, s, 0.0,
                              cutoffs=False).fields["Psi2"].values)
    smat = np.array([[s**d for d in range(3, 9)] for s in s_values])
    f4 = np.linalg.lstsq(smat, np.array(rows), rcond=None)[0][1]
    got = PR.quartic_coefficient(m, grid, (1.0, 0.0))
    assert np.max(np.abs(got - f4)) <= 1e-12 * np.max(np.abs(f4))
    branch = "outgoing" if m == 1 else "inner"
    want = -L.right_inverse("HtdQ", G.RadialField(m + 2, f4, grid), branch).values
    got = build_t4(m, grid, (1.0, 0.0)).values
    tol = {1: 1e-11, 2: 3e-11}[m]
    assert np.max(np.abs(got - want)) <= tol * np.max(np.abs(want))


def test_t4_fit_ill_conditioned(grid):
    with pytest.raises(FitIllConditioned):
        build_t4(1, grid, (1.0, 0.0),
                 s_values=[0.02, 0.0200001, 0.0200002, 0.0200003,
                           0.0200004, 0.0200005])
