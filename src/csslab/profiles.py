"""Modified blow-up profiles P, P1, P2, their parameter derivatives,
the cubic modulation corrections, the quartic correction T4, and the
profile-equation residuals with beta-scaling sweeps.

Every T-field is a homogeneous polynomial of degree j in the real
parameters (b, eta) with complex coefficient fields,

    T_j^{(k)}(y; b, eta) = sum_{l=0}^{j} b^{j-l} eta^l T^{(k)}_{j,l}(y),

stored as an array of j + 1 coefficient rows, row l multiplying
b^{j-l} eta^l (T3_0 has no rows unless m = 2). Real-linear operators (the
L_Q inverse) act row by row on the coefficients, which is valid because
the monomials are real.

Summation order is part of the output: every sum over rows runs l in
ascending order over the entries in T1, T2, T3 order and accumulates
`out = out + w * c` from zero, and a product stores its first term as is.
Contractions that reorder these sums (tensordot, einsum) change the last
bits of every profile and hence of the data files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import gauge as GA
from . import grid as G
from . import linops as L
from .grid import Grid, RadialField
from .soliton import UnsupportedIndex, q_values


class SolvabilityViolated(ValueError):
    pass


class FitIllConditioned(ValueError):
    pass


class GridTooSmall(ValueError):
    pass


@dataclass(frozen=True)
class ProfileParams:
    b: float
    eta: float

    @property
    def beta(self) -> float:
        return math.hypot(self.b, self.eta)

    @property
    def bbeta(self) -> complex:
        return 1j * self.b + self.eta

    @property
    def B0(self) -> float:
        return self.beta ** -0.5

    @property
    def B1(self) -> float:
        return 1.0 / self.beta


def p3(m: int, params: ProfileParams) -> tuple[float, float]:
    """Cubic corrections to the (b, eta) laws: p3_b - i p3_eta =
    8 pi bbeta^3 / ||yQ||^2 when m = 1, zero otherwise."""
    if m >= 2:
        return 0.0, 0.0
    val = 8.0 * math.pi * params.bbeta**3 / (8.0 * math.pi**2)
    return float(val.real), float(-val.imag)


# ---------------------------------------------------------------------------
# Polynomial-in-(b, eta) algebra over complex coefficient fields


def _pmul(pa, pb, pair=np.multiply):
    """Product of two homogeneous polynomials: the rows convolve, each
    pair of rows combined by `pair` (the plain product by default)."""
    out = [None] * (len(pa) + len(pb) - 1)
    for la, a in enumerate(pa):
        for lb, c in enumerate(pb):
            term = pair(a, c)
            out[la + lb] = term if out[la + lb] is None else out[la + lb] + term
    return np.array(out)


# bbeta = i b + eta and bbeta^2 as coefficient rows
_BBETA = np.array([1j, 1.0 + 0j])
_BBETA2 = _pmul(_BBETA, _BBETA)


def _peval(polys, b: float, eta: float, wrt: str | None = None):
    """Sum of the polynomials at (b, eta), or of their b- or
    eta-derivatives, accumulated term by term in row order."""
    out = np.zeros(polys[0].shape[1:], dtype=np.complex128)
    for p in polys:
        j = len(p) - 1
        for l, c in enumerate(p):
            i = j - l
            if wrt is None:
                out = out + (b**i * eta**l) * c
            elif wrt == "b" and i > 0:
                out = out + (b**(i - 1) * eta**l) * (i * c)
            elif wrt == "eta" and l > 0:
                out = out + (b**i * eta**(l - 1)) * (l * c)
    return out


def _yq_pairing(grid: Grid, q: np.ndarray, arr: np.ndarray) -> complex:
    """2 pi int_0^inf (yQ) arr y dy with a fitted log-power tail model.

    The integrand decays like (a + b log y + c log^2 y + d/y^2) / y^3, so a
    plain power-law tail correction is three orders short of the accuracy
    the solvability check needs; fit the model on the outer quarter of the
    grid and integrate it analytically past r_max."""
    y = grid.r
    vals = y * q * arr
    base = complex(G.integrate_samples(grid, vals))
    msk = y >= grid.r_max / 4.0
    yy = y[msk]
    w = vals[msk] * yy**4
    basis = np.vstack([np.ones_like(yy), np.log(yy), np.log(yy) ** 2,
                       1.0 / yy**2]).T
    coef, *_ = np.linalg.lstsq(basis, w, rcond=None)
    R, lnR = grid.r_max, math.log(grid.r_max)
    moments = (1.0 / (2 * R**2),
               lnR / (2 * R**2) + 1.0 / (4 * R**2),
               lnR**2 / (2 * R**2) + lnR / (2 * R**2) + 1.0 / (4 * R**2),
               1.0 / (4 * R**4))
    tail = sum(c * mom for c, mom in zip(coef, moments))
    return base + 2.0 * math.pi * tail


def _pinverse(tag: str, m: int, p, grid: Grid):
    """The outgoing right inverse of operator `tag`, applied row by row
    (valid for the real-linear L_Q too, because the monomials are real)."""
    kind = L.OperatorKind(tag, m)
    return np.array([L.right_inverse(kind, RadialField(kind.range_index, row, grid)).values
                     for row in p])


# ---------------------------------------------------------------------------
# T-tables


@dataclass(frozen=True)
class TTable:
    m: int
    grid: Grid
    entries: dict  # name "T{j}_{k}" -> (j + 1, n) coefficient rows
    p3_b: np.ndarray   # cubic coefficient rows of p3_b and p3_eta
    p3_eta: np.ndarray
    solvability: dict = field(default_factory=dict)


_TABLE_CACHE: dict = {}

# the entries summed into P, P1, P2 (k = 0, 1, 2)
_EXPANSIONS = (("T1_0", "T2_0", "T3_0"), ("T1_1", "T2_1", "T3_1"),
               ("T2_2", "T3_2"))


def _p3_rows(m: int):
    """Coefficient rows of p3_b and p3_eta (zero unless m = 1)."""
    if m >= 2:
        return np.zeros(4), np.zeros(4)
    c = 1.0 / math.pi
    # bbeta^3 = -i b^3 - 3 b^2 eta + 3 i b eta^2 + eta^3
    return np.array([0.0, -3.0 * c, 0.0, c]), np.array([c, 0.0, -3.0 * c, 0.0])


def _aq_star_term(m: int, grid: Grid, t1_0):
    """bbeta^2 A_Q*((y^2/4) T1^(0)), row by row (complex-linear operator)."""
    aqs = L.OperatorKind("AQ_star", m)
    return _pmul(_BBETA2, np.array([L.apply(aqs, RadialField(m + 2, row, grid)).values
                                    for row in t1_0 * (grid.r**2 / 4.0)]))


def build_t_tables(m: int, grid: Grid) -> TTable:
    if m < 1:
        raise UnsupportedIndex(f"equivariance index must be >= 1, got {m}")
    key = (m, grid.key)
    if key in _TABLE_CACHE:
        return _TABLE_CACHE[key]
    y = grid.r
    q = q_values(m, y)
    rho = L.rho(m, grid).values
    bb, bb2 = _BBETA, _BBETA2
    qp = q.astype(complex)[None]
    pol = partial(GA.a_theta_pol, grid)

    t1_1 = bb[:, None] * (-(y / 2.0) * q)
    t1_0 = np.array([-1j * (y**2 / 4.0) * q, -(m + 1) * rho])

    t2_2 = bb2[:, None] * ((y**2 / 4.0) * q.astype(complex))
    t2_1 = _pmul(bb[:, None] * -(y / 2.0), t1_0)
    a_q1, a_11 = _pmul(qp, t1_0, pol), _pmul(t1_0, t1_0, pol)
    src20 = t2_1 + _pmul(a_q1, t1_0) * (2.0 / y) + a_11 * (q / y)
    t2_0 = _pinverse("LQ", m, src20, grid)

    p3b, p3e = _p3_rows(m)
    solvability = {}
    if m == 1:
        bracket = (_aq_star_term(m, grid, t1_0)
                   + -(y / 2.0) * q * p3b[:, None]
                   + 1j * (y / 2.0) * q * p3e[:, None])
        scale = G.l2_samples(grid, y * q)
        for l, arr in enumerate(bracket):
            mono = (3 - l, l)
            pair = _yq_pairing(grid, q, arr)
            solvability[mono] = abs(pair) / (scale * max(G.l2_samples(grid, arr), 1e-300))
            if solvability[mono] > 1e-5:
                raise SolvabilityViolated(
                    f"solvability-violated at monomial {mono}: {pair:.3e}")
        # with solvability in hand the outgoing inverse (forward integrals
        # only, no tail truncation) is the decaying solution
        t3_2 = _pinverse("AQ_star", m, bracket, grid)
    else:
        t3_2 = _pmul(bb2, t1_0 * (y**2 / 4.0))

    inner31 = _pmul(_pmul(qp, t2_0, pol), qp) + _pmul(a_q1, t1_0) + a_11 * (0.5 * q)
    src31 = t3_2 - _pmul(bb, inner31)
    t3_1 = _pinverse("AQ", m, src31, grid)

    if m == 2:
        t3_0 = _pmul(bb2, bb)[:, None] * (-(y**6 / 384.0) * q.astype(complex))
    else:
        t3_0 = np.empty((0, grid.n), dtype=np.complex128)

    table = TTable(m=m, grid=grid,
                   entries={"T1_0": t1_0, "T1_1": t1_1,
                            "T2_0": t2_0, "T2_1": t2_1, "T2_2": t2_2,
                            "T3_0": t3_0, "T3_1": t3_1, "T3_2": t3_2},
                   p3_b=p3b, p3_eta=p3e, solvability=solvability)
    _TABLE_CACHE[key] = table
    return table


def expansion(table: TTable, k: int, b: float, eta: float,
              wrt: str | None = None) -> np.ndarray:
    """sum_j T_j^{(k)}(b, eta), the correction carried by P (k = 0), P1
    (k = 1) or P2 (k = 2), or its derivative in wrt = "b" or "eta"."""
    return _peval([table.entries[nm] for nm in _EXPANSIONS[k]], b, eta, wrt)


def solvability_inner(m: int, params: ProfileParams, table: TTable) -> float:
    """Absolute value of the m=1 solvability pairing at the given parameters
    (zero by construction of p3, up to quadrature error)."""
    if m >= 2:
        return 0.0
    grid = table.grid
    y = grid.r
    q = q_values(m, y)
    inner32 = _aq_star_term(m, grid, table.entries["T1_0"])
    p3b_v = _peval([table.p3_b], params.b, params.eta)
    p3e_v = _peval([table.p3_eta], params.b, params.eta)
    vals = _peval([inner32], params.b, params.eta) \
        - p3b_v * (y / 2.0) * q + 1j * p3e_v * (y / 2.0) * q
    return abs(_yq_pairing(grid, q, vals))


# ---------------------------------------------------------------------------
# Assembly


@dataclass(frozen=True)
class ProfileSet:
    P: RadialField
    P1: RadialField
    P2: RadialField
    dP_db: RadialField
    dP_deta: RadialField
    dP1_db: RadialField
    dP1_deta: RadialField
    dP2_db: RadialField
    dP2_deta: RadialField


def _cut_and_derivs(grid: Grid, beta: float, b: float, eta: float, scale_pow: float):
    """chi(y beta^p) with its analytic b- and eta-derivatives;
    scale_pow = 1 for the B1 cutoff, 1/2 for the B0 cutoff."""
    y = grid.r
    arg = y * beta**scale_pow
    chi = G.smooth_bump(arg)
    chi_p = G.smooth_bump_prime(arg)
    # d/db beta^p = p beta^{p-1} (b/beta)
    common = y * chi_p * scale_pow * beta ** (scale_pow - 1.0) / beta
    return chi, common * b, common * eta


_BETA_MAX = 0.1  # the accuracy range of the expansion


def assemble(m: int, params: ProfileParams, table: TTable,
             t4_dir: RadialField | None = None,
             cutoffs: bool = True) -> ProfileSet:
    """Build P, P1, P2 and their analytic (b, eta)-derivatives for beta <
    _BETA_MAX. With cutoffs=False the unlocalized profiles are returned
    (used for the quartic extraction). Beyond modulation._CHART_BETA the
    decomposition phase-factors the chart instead of assembling there."""
    grid = table.grid
    if params.beta >= _BETA_MAX:
        raise ValueError(
            f"beta = {params.beta} out of range (need < {_BETA_MAX})")
    b, eta, beta = params.b, params.eta, params.beta
    q = q_values(m, grid.r)

    groups = [(expansion(table, k, b, eta), expansion(table, k, b, eta, "b"),
               expansion(table, k, b, eta, "eta")) for k in range(3)]

    if cutoffs and beta == 0.0:
        cutoffs = False  # B1 = infinity: the cutoffs are identically one
    if cutoffs:
        if 2.0 / beta > grid.r_max:
            raise GridTooSmall(
                f"grid-too-small: 2 B1 = {2/beta:g} exceeds r_max = {grid.r_max:g}")
        chi1, dchi1_b, dchi1_e = _cut_and_derivs(grid, beta, b, eta, 1.0)
        # a new name keeps `groups` alive to the return: freeing its nine
        # arrays here lets malloc trim the heap and page-fault on each call
        fields = [(chi1 * v, chi1 * v_b + dchi1_b * v, chi1 * v_e + dchi1_e * v)
                  for v, v_b, v_e in groups]
    else:
        fields = groups
    (p_vals, p_db, p_de), (p1_vals, p1_db, p1_de), (p2_vals, p2_db, p2_de) = fields
    p_vals = q + p_vals
    if t4_dir is not None and cutoffs:
        chi0, dchi0_b, dchi0_e = _cut_and_derivs(grid, beta, b, eta, 0.5)
        t4 = beta**4 * t4_dir.values
        p2_vals = p2_vals + chi0 * t4
        p2_db = p2_db + chi0 * 4.0 * beta**2 * b * t4_dir.values + dchi0_b * t4
        p2_de = p2_de + chi0 * 4.0 * beta**2 * eta * t4_dir.values + dchi0_e * t4
    elif t4_dir is not None:
        p2_vals = p2_vals + beta**4 * t4_dir.values
        p2_db = p2_db + 4.0 * beta**2 * b * t4_dir.values
        p2_de = p2_de + 4.0 * beta**2 * eta * t4_dir.values

    mk = lambda idx, vals, decay=None: RadialField(idx, vals, grid, decay)
    return ProfileSet(
        P=mk(m, p_vals, float(m + 2)), P1=mk(m + 1, p1_vals), P2=mk(m + 2, p2_vals),
        dP_db=mk(m, p_db), dP_deta=mk(m, p_de),
        dP1_db=mk(m + 1, p1_db), dP1_deta=mk(m + 1, p1_de),
        dP2_db=mk(m + 2, p2_db), dP2_deta=mk(m + 2, p2_de))


def cutoff_cancellation(params: ProfileParams, grid: Grid) -> np.ndarray:
    """The field [(b^2 + eta^2) d_b - b y d_y] chi_{B1}, which vanishes to
    rounding because d_b chi(y beta) = y chi'(y beta) b / beta."""
    y = grid.r
    b, beta = params.b, params.beta
    chi_p = G.smooth_bump_prime(y * beta)
    term_db = (b**2 + params.eta**2) * y * chi_p * (b / beta)
    term_scale = b * y * beta * chi_p
    return term_db - term_scale


# ---------------------------------------------------------------------------
# Residuals


@dataclass(frozen=True)
class ResidualReport:
    psi_local_sup: dict          # R -> sup_{r <= R} |Psi|, R in _SUP_RADII
    psi1_weighted_L1: float      # || Psi_1 / y^2 ||_{L^1}
    psi2_L2: float
    psi2_H1: float
    compat1: tuple               # D_P P - P1 in (L2, H1, H2)
    compat2: tuple               # A_P P1 - P2 in (L2, H1, V3/2)
    phase_corr: float            # int_0^infty Re(conj(P) P1) dy
    fields: dict                 # name -> RadialField


_SUP_RADII = (2.0, 5.0)  # radii of the local sup norms of Psi


def residuals(m: int, params: ProfileParams, p: ProfileSet) -> ResidualReport:
    """Evaluate the three profile-equation residuals with the formal laws
    (Mod = 0): lambda_s/lambda = -b, gamma_s = -(m+1) eta - I0,
    b_s = -(b^2+eta^2) - p3_b, eta_s = -p3_eta."""
    grid = p.P.grid
    y = grid.r
    b, eta = params.b, params.eta
    p3b, p3e = p3(m, params)
    b_s = -(b**2 + eta**2) - p3b
    eta_s = -p3e

    gf = GA.gauge_fields(p.P)
    dens01 = np.real(np.conj(p.P.values) * p.P1.values)
    i_tail = G.backward_dy(grid, dens01)
    i0 = float(i_tail[0])
    gamma_s = -(m + 1) * eta - i0

    def lam_k(fld, k):
        return G.scale_gen(fld, s=-float(k)).values

    d_star_p1 = GA.cov_d_star(p.P, p.P1, gf).values
    lhs0 = (b_s * p.dP_db.values + eta_s * p.dP_deta.values
            + b * lam_k(p.P, 0) + 1j * gamma_s * p.P.values
            + 1j * d_star_p1 + 1j * i_tail * p.P.values)
    psi = -1j * lhs0

    a_star_p2 = GA.a_u_star(p.P, p.P2, gf).values
    lhs1 = (b_s * p.dP1_db.values + eta_s * p.dP1_deta.values
            + b * lam_k(p.P1, 1) + 1j * gamma_s * p.P1.values
            + 1j * a_star_p2 + 1j * i_tail * p.P1.values)
    psi1 = -1j * lhs1

    vtd = (m + 2 + gf.a_theta) ** 2 + 0.5 * y**2 * np.abs(p.P.values) ** 2
    htd_p2 = (-G.d_dr(grid, p.P2.values, 2) - G.d_dr(grid, p.P2.values, 1) / y
              + vtd / y**2 * p.P2.values)
    lhs2 = (b_s * p.dP2_db.values + eta_s * p.dP2_deta.values
            + b * lam_k(p.P2, 2) + 1j * gamma_s * p.P2.values
            + 1j * htd_p2 + 1j * i_tail * p.P2.values
            - 1j * np.conj(p.P.values) * p.P1.values**2)
    psi2 = -1j * lhs2

    psi_f = RadialField(m, psi, grid)
    psi1_f = RadialField(m + 1, psi1, grid)
    psi2_f = RadialField(m + 2, psi2, grid)

    local_sup = {R: float(np.max(np.abs(psi[y <= R]))) for R in _SUP_RADII}
    psi1_l1 = float(G.integrate_samples(grid, np.abs(psi1) / y**2))

    d_pp = GA.cov_d(p.P, p.P, gf)
    c1 = d_pp.with_values(d_pp.values - p.P1.values)
    a_pp1 = GA.a_u(p.P, p.P1, gf)
    c2 = a_pp1.with_values(a_pp1.values - p.P2.values)
    compat1 = (G.l2(c1), G.hdot1(c1), G.hdotk_hardy(c1, 2))
    compat2 = (G.l2(c2), G.hdot1(c2), math.sqrt(G.v32_sq(c2)))

    return ResidualReport(
        psi_local_sup=local_sup, psi1_weighted_L1=psi1_l1,
        psi2_L2=G.l2(psi2_f), psi2_H1=G.hdot1(psi2_f),
        compat1=compat1, compat2=compat2, phase_corr=i0,
        fields={"Psi": psi_f, "Psi1": psi1_f, "Psi2": psi2_f})


def taylor_deviations(m: int, params: ProfileParams, table: TTable) -> dict:
    """Sup over y in [2, 2 B1] of the far-field Taylor deviations of the
    T-fields, each normalized by its pointwise envelope:

        |T1^(0) + bbeta (y^2/4) Q|            <= C beta  Q log y
        |T2^(0) - bbeta^2 (y^4/32) Q|
          + y |T2^(1) - bbeta^2 (y^3/8) Q|    <= C beta^2 y^2 Q log y
        m = 1:  |T3^(1)| + y |T3^(2)|         <= C beta^3 y^3 Q log y
        m >= 2: |T3^(1) + bbeta^3 (y^5/64) Q|
          + y |T3^(2) + bbeta^3 (y^4/16) Q|   <= C beta^3 y^3 Q log y
    """
    grid = table.grid
    y = grid.r
    b, eta, bb = params.b, params.eta, params.bbeta
    q = q_values(m, y)
    msk = (y >= 2.0) & (y <= 2.0 / params.beta)

    def ev(name):
        return _peval([table.entries[name]], b, eta)

    logy = np.log(y[msk])
    dev1 = np.abs(ev("T1_0") + bb * (y**2 / 4.0) * q)[msk] / (q[msk] * logy)
    dev2 = (np.abs(ev("T2_0") - bb**2 * (y**4 / 32.0) * q)
            + y * np.abs(ev("T2_1") - bb**2 * (y**3 / 8.0) * q))[msk] \
        / (y[msk] ** 2 * q[msk] * logy)
    if m == 1:
        raw3 = np.abs(ev("T3_1")) + y * np.abs(ev("T3_2"))
    else:
        raw3 = (np.abs(ev("T3_1") + bb**3 * (y**5 / 64.0) * q)
                + y * np.abs(ev("T3_2") + bb**3 * (y**4 / 16.0) * q))
    dev3 = raw3[msk] / (y[msk] ** 3 * q[msk] * logy)
    return {"t1_dev": float(dev1.max()), "t2_dev": float(dev2.max()),
            "t3_dev": float(dev3.max())}


# ---------------------------------------------------------------------------
# Quartic profile T4


# condition number of the scaled s-power matrix above which the fit is refused
_FIT_COND_MAX = 1e9
_FIT_DEGREES = range(3, 9)  # the powers of s fitted per node


def build_t4(m: int, grid: Grid, direction: tuple[float, float],
             s_values=None) -> RadialField:
    """Extract the quartic coefficient F4 of the P2-equation residual along
    the given unit (b, eta)-direction (cutoffs removed, T4 omitted) by a
    per-node least-squares fit in s over a geometric ladder, then return
    T4 = -out Htd_Q^{-1} F4 (m = 1) or -inn Htd_Q^{-1} F4 (m >= 2)."""
    f4 = quartic_coefficient(m, grid, direction, None, s_values)
    kind = L.OperatorKind("HtdQ", m)
    branch = "outgoing" if m == 1 else "inner"
    inv = L.right_inverse(kind, RadialField(m + 2, f4, grid), branch)
    return RadialField(m + 2, -inv.values, grid)


def quartic_coefficient(m: int, grid: Grid, direction: tuple[float, float],
                        t4_dir: RadialField | None = None,
                        s_values=None) -> np.ndarray:
    """The fitted s^4 coefficient of the Psi2 residual (with the optional
    T4 correction included); also used by the re-extraction consistency
    check. Raises FitIllConditioned when the s-ladder cannot separate the
    powers."""
    db, de = direction
    norm = math.hypot(db, de)
    db, de = db / norm, de / norm
    if s_values is None:
        s_values = [0.03 * 2.0 ** (-j / 2.0) for j in range(6)]
    smat = np.array([[s**d for d in _FIT_DEGREES] for s in s_values])
    scale = np.array([max(abs(min(s_values)), abs(max(s_values))) ** d
                      for d in _FIT_DEGREES])
    cond = np.linalg.cond(smat / scale)
    if cond > _FIT_COND_MAX:
        raise FitIllConditioned(f"fit-ill-conditioned: cond = {cond:.3e}")
    table = build_t_tables(m, grid)
    rows = []
    for s in s_values:
        params = ProfileParams(s * db, s * de)
        pset = assemble(m, params, table, t4_dir=t4_dir, cutoffs=False)
        rep = residuals(m, params, pset)
        rows.append(rep.fields["Psi2"].values)
    coef, *_ = np.linalg.lstsq(smat, np.array(rows), rcond=None)
    return coef[_FIT_DEGREES.index(4)]


# ---------------------------------------------------------------------------
# Scaling sweep


def scaling_sweep(m: int, betas, direction: tuple[float, float],
                  grid: Grid, include_t4: bool = True) -> dict:
    """Log-log slope fits of the residual norms against beta."""
    db, de = direction
    norm = math.hypot(db, de)
    db, de = db / norm, de / norm
    table = build_t_tables(m, grid)
    t4_dir = build_t4(m, grid, (db, de)) if include_t4 else None
    series: dict[str, list[float]] = {
        "psi_sup_R2": [], "psi_sup_R5": [], "psi1_L1w": [],
        "psi2_L2": [], "psi2_H1": [], "phase_corr_dev": [],
        "t1_dev": [], "t2_dev": [], "t3_dev": [],
    }
    for beta in betas:
        params = ProfileParams(beta * db, beta * de)
        pset = assemble(m, params, table, t4_dir=t4_dir)
        rep = residuals(m, params, pset)
        series["psi_sup_R2"].append(rep.psi_local_sup[2.0])
        series["psi_sup_R5"].append(rep.psi_local_sup[5.0])
        series["psi1_L1w"].append(rep.psi1_weighted_L1)
        series["psi2_L2"].append(rep.psi2_L2)
        series["psi2_H1"].append(rep.psi2_H1)
        series["phase_corr_dev"].append(
            abs(rep.phase_corr + 2.0 * (m + 1) * params.eta))
        for name, val in taylor_deviations(m, params, table).items():
            series[name].append(val)
    logb = np.log(np.asarray(betas, dtype=float))
    out = {"m": m, "betas": list(betas), "direction": (db, de),
           "include_t4": include_t4, "series": series, "slopes": {}}
    for name, vals in series.items():
        v = np.asarray(vals)
        if np.all(v > 0):
            slope, intercept = np.polyfit(logb, np.log(v), 1)
            out["slopes"][name] = {"slope": float(slope),
                                   "intercept": float(intercept)}
        else:
            out["slopes"][name] = {"slope": float("nan"), "intercept": float("nan")}
    return out
