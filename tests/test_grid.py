"""Grid construction, differentiation, quadrature, and norm tests.

Frozen expected values were computed with independent closed forms
(Gamma/Beta function evaluations) rather than with the quadrature
under test.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csslab import grid as G
from csslab.soliton import blowup_s


# ---------------------------------------------------------------------------
# build_grid


def test_geometric_ratio():
    g = G.build_grid(1e-4, 1e2, 2048)
    ratios = g.r[1:] / g.r[:-1]
    expected = (1e6) ** (1.0 / 2047.0)
    assert np.allclose(ratios, expected, rtol=1e-12)


def test_endpoints():
    g = G.build_grid(1.0, 2.0, 16)
    assert g.r[0] == 1.0 and g.r[-1] == 2.0
    assert g.n == 16


def test_refinement_halves_log_gap():
    g1 = G.build_grid(1e-2, 1e2, 128)
    g2 = G.build_grid(1e-2, 1e2, 255)  # doubling interval count
    gap1 = np.diff(np.log(g1.r)).max()
    gap2 = np.diff(np.log(g2.r)).max()
    assert abs(gap2 - gap1 / 2) < 1e-12


def test_invalid_ranges():
    with pytest.raises(G.GridError):
        G.build_grid(-1.0, 2.0, 64)
    with pytest.raises(G.GridError):
        G.build_grid(2.0, 1.0, 64)
    with pytest.raises(G.GridError):
        G.build_grid(1.0, 2.0, 8)


# ---------------------------------------------------------------------------
# d_dr


def test_derivative_monomial(grid):
    for m in (1, 2, 3):
        df = G.d_dr(grid, grid.r.astype(complex) ** m, 1)
        expect = m * grid.r ** (m - 1)
        err = np.abs(df - expect) / np.maximum(np.abs(expect), 1e-30)
        assert err.max() < 1e-8


def test_derivative_q_at_one(grid):
    # Q for m=1; derivative at r=1 equals -2*sqrt(2) by direct calculus
    q = math.sqrt(8.0) * 2.0 * grid.r / (1.0 + grid.r**4)
    df = G.d_dr(grid, q.astype(complex), 1)
    j = int(np.argmin(np.abs(grid.r - 1.0)))
    # nearest node is not exactly r=1; compare against the closed form there
    r0 = grid.r[j]
    expect = math.sqrt(8.0) * 2.0 * (1.0 + r0**4 - 4.0 * r0**4) / (1.0 + r0**4) ** 2
    assert abs(df[j].real - expect) < 1e-8 * abs(expect) + 1e-12
    assert abs(expect - (-2.0 * math.sqrt(2.0))) < 1e-2  # sanity of the frozen value


def test_derivative_self_convergence():
    # observed order >= 3.5 under doubling for f = exp(-r^2) r^m
    errs = []
    for n in (512, 1024):
        g = G.build_grid(1e-3, 10.0, n)
        r = g.r
        m = 2
        df = G.d_dr(g, (np.exp(-(r**2)) * r**m).astype(complex), 2)
        exact = np.exp(-(r**2)) * (m * (m - 1) * r ** (m - 2)
                                   - 2 * (2 * m + 1) * r**m + 4 * r ** (m + 2))
        errs.append(np.max(np.abs(df - exact)))
    order = math.log2(errs[0] / errs[1])
    assert order >= 3.5


def test_third_derivative(grid):
    r = grid.r
    d3 = G.d_dr(grid, (r**3).astype(complex), 3)
    # stencil is exact on cubics; residual is float rounding amplified by h^-3
    assert np.max(np.abs(d3 - 6.0)) < 5e-5


# ---------------------------------------------------------------------------
# integrate_samples / integrate_dy / inner


def test_integrate_unit_disk(grid):
    vals = np.where(grid.r <= 1.0, 1.0, 0.0).astype(complex)
    # indicator is rough; integrate the smooth closed forms instead for accuracy,
    # but the disk area should still come out to ~pi at trapezoid-level accuracy
    assert abs(G.integrate_samples(grid, vals) - math.pi) < 1e-2 * math.pi


def test_integrate_gamma_family(grid):
    # 2*pi int r^p exp(-r) r dr = 2*pi Gamma(p+2)
    for p in (0, 1, 2, 3):
        vals = grid.r**p * np.exp(-grid.r)
        expect = 2.0 * math.pi * math.gamma(p + 2)
        assert abs(G.integrate_samples(grid, vals.astype(complex)) - expect) \
            < 1e-8 * expect


def test_integrate_zero(grid):
    assert G.integrate_samples(grid, G.zero_field(1, grid).values) == 0.0


def _q_density(grid, m):
    q = math.sqrt(8.0) * (m + 1) * grid.r**m / (1.0 + grid.r ** (2 * m + 2))
    return q**2


def test_integrate_q_mass(grid):
    # int Q^2 = 8*pi*(m+1); frozen via the substitution t = y^{2m+2}
    for m in (1, 2, 3):
        vals = _q_density(grid, m).astype(complex)
        expect = 8.0 * math.pi * (m + 1)
        assert abs(G.integrate_samples(grid, vals, decay=2 * (m + 2)) - expect) \
            < 1e-8 * expect


@pytest.mark.parametrize("decay", [None, 6.0])
def test_real_quadrature_stays_real(grid, decay):
    # real samples (the Q^2 density of test_integrate_q_mass) give a real
    # float64 from both rules, equal to the last bit to the real part of
    # the result for the same samples stored as complex numbers. numpy
    # groups the terms of a complex sum differently from a real one, so
    # that bit equality is a property of this fixed input, not of every one
    vals = _q_density(grid, 1)
    for rule in (G.integrate_samples, G.integrate_dy):
        real = rule(grid, vals, decay)
        cplx = rule(grid, vals.astype(complex), decay)
        assert type(real) is np.float64, rule.__name__
        assert type(cplx) is np.complex128 and cplx.imag == 0.0
        assert real.tobytes() == np.real(cplx).tobytes(), rule.__name__


def test_inner_iq_orthogonal(grid):
    q = math.sqrt(8.0) * 2.0 * grid.r / (1.0 + grid.r**4)
    f = G.RadialField(1, q.astype(complex), grid)
    g = G.RadialField(1, 1j * q, grid)
    assert G.inner(f, g) == 0.0


def test_inner_yq(grid):
    # (yQ, yQ)_r = 8*pi^2 for m=1: 2*pi int y^2 Q^2 y dy = 2*pi * 4*pi,
    # the 4*pi from 32 * (1/4) * B(3/2, 1/2) = 8 * pi/2
    q = math.sqrt(8.0) * 2.0 * grid.r / (1.0 + grid.r**4)
    yq = G.RadialField(2, (grid.r * q).astype(complex), grid, decay=2)
    val = G.inner(yq, yq)
    assert abs(val - 8.0 * math.pi**2) < 1e-6 * 8.0 * math.pi**2


def test_inner_symmetric(grid, rng):
    vals1 = rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n)
    vals2 = rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n)
    env = np.exp(-grid.r)
    f = G.RadialField(1, vals1 * env, grid)
    g = G.RadialField(1, vals2 * env, grid)
    assert abs(G.inner(f, g) - G.inner(g, f)) < 1e-12


def test_inner_mismatch(grid):
    f = G.zero_field(1, grid)
    g = G.zero_field(2, grid)
    with pytest.raises(G.IndexMismatch):
        G.inner(f, g)


# ---------------------------------------------------------------------------
# cumulative quadrature


def test_cumulative_rdr(grid):
    # int_0^y exp(-r) r dr = 1 - (1+y) exp(-y)
    vals = np.exp(-grid.r)
    c = G.cumulative_rdr(grid, vals.astype(complex))
    expect = 1.0 - (1.0 + grid.r) * np.exp(-grid.r)
    assert np.max(np.abs(c - expect)) < 1e-9
    # real input stays real and equals the real part of the complex result
    for fn in (G.cumulative_rdr, G.cumulative_dy):
        for origin in (True, False):
            real = fn(grid, vals, include_origin=origin)
            assert real.dtype == np.float64
            assert np.array_equal(
                real, np.real(fn(grid, vals.astype(complex),
                                 include_origin=origin)))


def test_backward_dy(grid):
    # int_y^inf r^-3 dr = y^-2 / 2
    vals = grid.r**-3.0
    b = G.backward_dy(grid, vals.astype(complex), tail_power=3.0)
    expect = grid.r**-2.0 / 2.0
    rel = np.abs(b - expect) / expect
    assert rel.max() < 1e-6
    real = G.backward_dy(grid, vals, tail_power=3.0)
    assert real.dtype == np.float64
    assert np.array_equal(real, np.real(b))


def test_backward_cumulative_rdr(grid):
    # int_y^inf r^-4 r dr = y^-2 / 2
    vals = grid.r**-4.0
    b = G.backward_rdr(grid, vals.astype(complex), tail_power=4.0)
    expect = grid.r**-2.0 / 2.0
    assert (np.abs(b - expect) / expect).max() < 1e-6
    real = G.backward_rdr(grid, vals, tail_power=4.0)
    assert real.dtype == np.float64
    assert np.array_equal(real, np.real(b))


def test_polar_derivs(grid):
    # S(t) at t = -1: amplitude Q = 4 sqrt(2) r / (1 + r^4), phase -r^2/4
    u = blowup_s(1, -1.0, grid)
    a, da, dphi = G.polar_derivs(grid, u.values)
    r, inside = grid.r, grid.r < 50.0
    assert np.array_equal(a, np.abs(u.values))
    dq = 4.0 * math.sqrt(2.0) * (1.0 - 3.0 * r**4) / (1.0 + r**4) ** 2
    assert np.max(np.abs(da - dq)[inside]) < 1e-6
    assert np.max(np.abs(dphi + r / 2.0)[inside]) < 1e-6
    assert G.polar_derivs(grid, np.where(inside, u.values, 0.0)) is None


# ---------------------------------------------------------------------------
# phase unwrap


def loop_unwrap(vals):
    """Reference node-by-node unwrap: each increment takes the branch
    nearest the linear extrapolation of the previous two."""
    ang = np.angle(vals)
    raw = np.angle(vals[1:] * np.conj(vals[:-1]))
    d = np.empty_like(raw)
    prev1 = prev2 = 0.0
    for k in range(raw.size):
        pred = 2.0 * prev1 - prev2
        d[k] = raw[k] + G.TWO_PI * round((pred - raw[k]) / G.TWO_PI)
        prev2, prev1 = prev1, d[k]
    out = np.empty(vals.size)
    out[0] = ang[0]
    np.cumsum(d, out=out[1:])
    out[1:] += ang[0]
    return out


# quadratic phases beta r^2 + alpha r + phi0 plus node noise; on this grid
# the third difference in the node index stays below ~0.6 < pi while the
# per-node increments reach several thousand radians
UNWRAP_GRID = G.build_grid(r_min=1e-3, r_max=100.0, n=4096)
quadratic_phase = st.tuples(
    st.floats(min_value=-100.0, max_value=100.0),   # beta
    st.floats(min_value=-50.0, max_value=50.0),     # alpha
    st.floats(min_value=-10.0, max_value=10.0),     # phi0
    st.floats(min_value=0.0, max_value=0.05),       # noise amplitude
    st.integers(min_value=0, max_value=2**31))      # seed


def _phase(params):
    beta, alpha, phi0, noise, seed = params
    r = UNWRAP_GRID.r
    rng = np.random.default_rng(seed)
    return beta * r**2 + alpha * r + phi0 + noise * rng.standard_normal(r.size)


@settings(max_examples=30, deadline=None)
@given(params=quadratic_phase)
def test_smart_unwrap_matches_loop(params):
    vals = np.exp(1j * _phase(params)) / (1.0 + UNWRAP_GRID.r**2)
    assert np.array_equal(G.smart_unwrap(vals), loop_unwrap(vals))


@settings(max_examples=30, deadline=None)
@given(params=quadratic_phase, shift_seed=st.integers(min_value=0, max_value=2**31))
def test_smart_unwrap_ignores_node_branch_shifts(params, shift_seed):
    phi = _phase(params)
    k = np.random.default_rng(shift_seed).integers(-1000, 1001, phi.size)
    out = G.smart_unwrap(np.exp(1j * phi))
    shifted = G.smart_unwrap(np.exp(1j * (phi + G.TWO_PI * k)))
    scale = 1.0 + np.max(np.abs(phi))
    np.testing.assert_allclose(shifted, out, rtol=0, atol=1e-9 * scale)
    # and the unwrap recovers the phase itself up to one global 2 pi k_0
    k0 = np.round((out - phi) / G.TWO_PI)
    assert np.all(k0 == k0[0])
    np.testing.assert_allclose(out - G.TWO_PI * k0, phi, rtol=0,
                               atol=1e-9 * scale)


# ---------------------------------------------------------------------------
# norms


def test_norm_report_zero(grid):
    rep = G.norm_report(G.zero_field(1, grid))
    assert rep.L2 == 0 and rep.Hdot1 == 0 and rep.calH2 == 0
    assert rep.calH3 == 0 and rep.V32 == 0 and rep.V52 == 0
    assert all(v == 0 for v in rep.weighted_Linf.values())


def test_norm_report_q_mass(grid):
    for m in (1, 2):
        q = math.sqrt(8.0) * (m + 1) * grid.r**m / (1.0 + grid.r ** (2 * m + 2))
        f = G.RadialField(m, q.astype(complex), grid, decay=m + 2)
        rep = G.norm_report(f)
        expect = 8.0 * math.pi * (m + 1)
        assert abs(rep.L2**2 - expect) < 1e-6 * expect


@settings(max_examples=20, deadline=None)
@given(alpha=st.floats(min_value=-3.0, max_value=3.0).filter(lambda a: abs(a) > 1e-3),
       seed=st.integers(min_value=0, max_value=2**31))
def test_norm_homogeneity(alpha, seed):
    g = G.build_grid(1e-3, 50.0, 256)
    rng = np.random.default_rng(seed)
    vals = (rng.standard_normal(g.n) + 1j * rng.standard_normal(g.n))
    vals = vals * g.r * np.exp(-g.r)
    f = G.RadialField(1, vals, g)
    fa = G.RadialField(1, alpha * vals, g)
    ra, rf = G.norm_report(fa), G.norm_report(f)
    for key in ("L2", "Hdot1", "calH2", "calH3", "V32", "V52"):
        assert getattr(ra, key) == pytest.approx(abs(alpha) * getattr(rf, key),
                                                 rel=1e-10, abs=1e-12)
    for tag in rf.weighted_Linf:
        assert ra.weighted_Linf[tag] == pytest.approx(
            abs(alpha) * rf.weighted_Linf[tag], rel=1e-10, abs=1e-12)


def random_equivariant(g, m, rng, kmax=3):
    """Smooth compactly-supported-in-practice m-equivariant sample field."""
    coeffs = rng.standard_normal(kmax + 1) + 1j * rng.standard_normal(kmax + 1)
    poly = sum(c * g.r**k for k, c in enumerate(coeffs))
    cut = np.exp(-((g.r / 10.0) ** 8))
    return G.RadialField(m, g.r**m * np.exp(-(g.r**2) / 2.0) * poly * cut, g)


def test_generalized_hardy(rng):
    g = G.build_grid(1e-4, 50.0, 2048)
    for m in (1, 2, 3):
        for k in range(0, min(m, 3) + 1):
            ratios = []
            for _ in range(50):
                f = random_equivariant(g, m, rng)
                if k == 0:
                    num = G.l2(f)
                    den = G.l2(f)
                elif k == 1:
                    num = G.l2_samples(g, G.abs_minus_k(f, 1))
                    den = G.hdot1(f)
                else:
                    num = G.l2_samples(g, G.abs_minus_k(f, k))
                    # independent H^k via k-fold gradient reduction:
                    # ||f||_{H^2_m} ~ ||Lap_m f||, ||f||_{H^3_m} ~ ||Lap_m f||_{H^1_{m}}
                    lap = G.d_dr(g, f.values, 2) + G.d_dr(g, f.values, 1) / g.r \
                        - (m / g.r) ** 2 * f.values
                    if k == 2:
                        den = G.l2_samples(g, lap)
                    else:
                        lapf = G.RadialField(m, lap, g)
                        den = G.hdot1(lapf)
                if den > 1e-12:
                    ratios.append(num / den)
            ratios = np.array(ratios)
            assert ratios.min() > 0.05
            assert ratios.max() < 20.0


def test_integral_operator_bounds(rng):
    # (p,q,s) = (2,2,1): || y^-1 int_0^y f y' dy' ||_2 <~ ||f||_2
    # (p,q,s) = (1,inf,0): || int_0^y f y' dy' ||_inf <= ||f||_1 / (2 pi)
    for n in (1024, 2048):
        g = G.build_grid(1e-4, 50.0, n)
        worst22, worst1inf = 0.0, 0.0
        for _ in range(30):
            f = random_equivariant(g, 1, rng)
            c = G.cumulative_rdr(g, f.values)
            num22 = G.l2_samples(g, c / g.r)
            den22 = G.l2(f)
            worst22 = max(worst22, num22 / den22)
            num1inf = np.abs(c).max()
            den1 = float(G.integrate_samples(g, np.abs(f.values))) / (2 * math.pi)
            worst1inf = max(worst1inf, num1inf / den1)
        assert worst22 < 10.0
        assert worst1inf <= 1.0 + 1e-9


def test_weighted_linf_vs_hdot1(rng):
    g = G.build_grid(1e-4, 50.0, 2048)
    consts = []
    for _ in range(50):
        f = random_equivariant(g, 1, rng)
        h1 = G.hdot1(f)
        if h1 > 1e-12:
            consts.append(np.abs(f.values).max() / h1)
    assert max(consts) < 5.0  # empirical constant, recorded loosely
