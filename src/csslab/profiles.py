"""Modified blow-up profiles P, P1, P2, their parameter derivatives,
the cubic modulation corrections, the quartic correction T4, and the
profile-equation residuals (Psi, Psi1, Psi2 and the phase integral I0)
with the beta-scaling sweeps of their norms.

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
from functools import lru_cache, partial

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


def p3(m: int, b: float, eta: float) -> tuple[float, float]:
    """Cubic corrections to the (b, eta) laws: p3_b - i p3_eta =
    8 pi bbeta^3 / ||yQ||^2 with bbeta = i b + eta when m = 1, zero
    otherwise."""
    if m >= 2:
        return 0.0, 0.0
    val = 8.0 * math.pi * (1j * b + eta)**3 / (8.0 * math.pi**2)
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
    k = m + L.INDEX[tag][1]
    return np.array([L.right_inverse(tag, RadialField(k, row, grid)).values
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
    return _pmul(_BBETA2, np.array([L.apply("AQ_star", RadialField(m + 2, row, grid)).values
                                    for row in t1_0 * (grid.r**2 / 4.0)]))


@lru_cache(maxsize=16)
def build_t_tables(m: int, grid: Grid) -> TTable:
    """The T-table of (m, grid), built once per equal grid and shared by
    every caller: nothing writes to its arrays."""
    if m < 1:
        raise UnsupportedIndex(f"equivariance index must be >= 1, got {m}")
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

    return TTable(m=m, grid=grid,
                  entries={"T1_0": t1_0, "T1_1": t1_1,
                           "T2_0": t2_0, "T2_1": t2_1, "T2_2": t2_2,
                           "T3_0": t3_0, "T3_1": t3_1, "T3_2": t3_2},
                  p3_b=p3b, p3_eta=p3e, solvability=solvability)


def expansion(table: TTable, k: int, b: float, eta: float,
              wrt: str | None = None, nodes: slice = slice(None)) -> np.ndarray:
    """sum_j T_j^{(k)}(b, eta), the correction carried by P (k = 0), P1
    (k = 1) or P2 (k = 2), or its derivative in wrt = "b" or "eta", on
    the nodes of the slice (all by default)."""
    return _peval([table.entries[nm][:, nodes] for nm in _EXPANSIONS[k]],
                  b, eta, wrt)


def expansion_rows(table: TTable, k: int) -> tuple[list, np.ndarray]:
    """The coefficient rows that expansion k sums, in _peval's order, and
    their exponents (i, l) as two int arrays: row r multiplies
    b**i[r] * eta**l[r]."""
    polys = [table.entries[nm] for nm in _EXPANSIONS[k]]
    powers = [(len(p) - 1 - l, l) for p in polys for l in range(len(p))]
    return [row for p in polys for row in p], np.array(powers).T


def solvability_inner(table: TTable, b: float, eta: float) -> float:
    """Absolute value of the m=1 solvability pairing at the given parameters
    (zero by construction of p3, up to quadrature error)."""
    m, grid = table.m, table.grid
    if m >= 2:
        return 0.0
    y = grid.r
    q = q_values(m, y)
    inner32 = _aq_star_term(m, grid, table.entries["T1_0"])
    p3b_v = _peval([table.p3_b], b, eta)
    p3e_v = _peval([table.p3_eta], b, eta)
    vals = _peval([inner32], b, eta) \
        - p3b_v * (y / 2.0) * q + 1j * p3e_v * (y / 2.0) * q
    return abs(_yq_pairing(grid, q, vals))


# ---------------------------------------------------------------------------
# The chart


BETA_MAX = 0.1  # the accuracy range of the expansion
CHART_BETA = 0.099  # beyond it the chart factors the quadratic phase


@dataclass(frozen=True)
class Chart:
    """P, P1 and P2 at (b, eta), built by assemble: the one assembly of the
    profiles, shared by the decomposition, the residuals and diagnostics.

    Inside the validity range (beta <= CHART_BETA) these are the expansions
    times the B1 cutoff chi(y beta), P with Q added (without the cutoff
    when 2 B1 lies beyond r_max: the corrections are negligible there and
    the orthogonality profiles are compactly supported). Beyond it, the
    b-direction of the expansion is the Taylor series of the quadratic
    phase e^{-i b y^2/4}, so the chart factors that phase exactly: with
    (b_c, eta_c) = (b, eta) scaled back to the validity boundary and
    delta = b - b_c,

        P   -> e^{i theta} P,
        P1  -> e^{i theta} (P1 + i theta' P),
        P2  -> e^{i theta} (P2 + 2 i theta' P1 - theta'^2 P),

    theta = -delta y^2/4, which is how the covariant derivatives D and A
    conjugate under the multiplication. eps absorbs the remaining
    (eta - eta_c) mismatch. The (b, eta)-derivatives follow the chain
    rule through (b_c, eta_c, delta), with d_delta e^{i theta} =
    -(i y^2/4) e^{i theta} and d_delta (i theta') = -i y/2.

    A chart holds P and P1 at (b_c, eta_c) before the phase, and the
    phase; P2 and the derivatives are built only when asked for."""

    table: TTable
    at: tuple  # (b_c, eta_c), where the expansions are evaluated
    cut: bool  # whether the B1 cutoff applies
    delta: float  # b - b_c, zero inside the validity range
    chain: np.ndarray  # d(b_c, eta_c[, delta])/d(b, eta)
    phase: np.ndarray | None  # e^{i theta} beyond the validity range
    p: np.ndarray  # P and P1 at (b_c, eta_c), before the phase
    p1: np.ndarray

    def _tp(self, n: int | None = None) -> np.ndarray:
        """i theta' on the first n nodes."""
        return -0.5j * self.delta * self.table.grid.r[:n]

    # products of phase and a temporary stay inline: from 256 KiB (n =
    # 16384) numpy multiplies into the temporary, swapped, moving last bits
    def values(self):
        """P and P1 on the grid."""
        if not self.delta:
            return self.p, self.p1
        p1t = self.p1 + self._tp() * self.p
        return self.phase * self.p, self.phase * p1t

    def p2(self) -> np.ndarray:
        """P2 on the grid, from the chart's P and P1 and the k = 2 terms."""
        p2 = expansion(self.table, 2, *self.at)
        if self.cut:
            p2 = G.smooth_bump(self.table.grid.r * math.hypot(*self.at)) * p2
        if not self.delta:
            return p2
        tp = self._tp()
        return self.phase * (p2 + 2.0 * tp * self.p1 + tp**2 * self.p)

    def derivs(self, k: int, n: int | None = None) -> list:
        """[d_b, d_eta] of P, P1 or P2 (k = 0, 1, 2) at (b_c, eta_c) before
        the phase, on the first n nodes. The cutoff's own terms enter where
        chi(y beta_c) is not one: beyond y = 1/CHART_BETA and the Z support."""
        ds = [expansion(self.table, k, *self.at, wrt=wrt, nodes=slice(n))
              for wrt in ("b", "eta")]
        if self.cut:
            beta, y = math.hypot(*self.at), self.table.grid.r[:n]
            j = int(np.searchsorted(y * beta, 1.0, side="right"))
            v = expansion(self.table, k, *self.at, nodes=slice(j, n))
            chi, slope = _cutoff(y[j:], beta)
            for d, c in zip(ds, self.at):
                d[j:] = chi * d[j:] + slope * c * v
        return ds

    def directions(self, n: int):
        """The derivatives (d P, d P1) along b_c, eta_c and, phase-factored,
        delta on the first n nodes, those of the Z support."""
        phase, tp = (self.phase[:n], self._tp(n)) if self.delta else (1, 0)
        for d, d1 in zip(self.derivs(0, n), self.derivs(1, n)):
            yield (d, d1) if not self.delta else (phase * d,
                                                  phase * (d1 + tp * d))
        if self.delta:
            y, p = self.table.grid.r[:n], self.p[:n]
            y2 = -0.25j * y**2
            yield phase * (y2 * p), phase * (y2 * (self.p1[:n] + tp * p)
                                             - 0.5j * y * p)


def assemble(table: TTable, b: float, eta: float,
             cutoffs: bool = True) -> Chart:
    """The chart at (b, eta). cutoffs=False leaves the B1 cutoff off (the
    quartic extraction), as does a 2 B1 beyond r_max."""
    y, beta = table.grid.r, math.hypot(b, eta)
    delta, chain, phase = 0.0, np.eye(2), None
    if beta > CHART_BETA:
        c3, scale = CHART_BETA / beta**3, CHART_BETA / beta
        # d(b_c, eta_c, delta)/d(b, eta)
        chain = np.array([[c3 * eta**2, -c3 * b * eta],
                          [-c3 * b * eta, c3 * b**2],
                          [1.0 - c3 * eta**2, c3 * b * eta]])
        b, eta, delta = b * scale, eta * scale, b - b * scale
        beta = math.hypot(b, eta)
        phase = np.exp(-0.25j * delta * y**2)
    cut = cutoffs and beta > 0.0 and 2.0 / beta <= y[-1]
    p, p1 = (expansion(table, k, b, eta) for k in (0, 1))
    if cut:
        chi = G.smooth_bump(y * beta)
        p, p1 = chi * p, chi * p1
    return Chart(table, (b, eta), cut, delta, chain, phase,
                 q_values(table.m, y) + p, p1)


def _cutoff(y: np.ndarray, beta: float, power: float = 1.0):
    """chi(y beta^power) and its beta-derivative over beta, which times b
    (eta) is its b- (eta-) derivative: power 1 for the B1 cutoff, 1/2 for
    the B0 cutoff."""
    arg = y * beta**power
    return (G.smooth_bump(arg),
            y * G.smooth_bump_prime(arg) * power * beta ** (power - 1.0) / beta)


def cutoff_cancellation(grid: Grid, b: float, eta: float) -> np.ndarray:
    """The field [(b^2 + eta^2) d_b - b y d_y] chi_{B1}, with the
    b-derivative the chart takes, which vanishes to rounding because
    d_b chi(y beta) = y chi'(y beta) b / beta."""
    y, beta = grid.r, math.hypot(b, eta)
    return ((b**2 + eta**2) * (_cutoff(y, beta)[1] * b)
            - b * y * beta * G.smooth_bump_prime(y * beta))


# ---------------------------------------------------------------------------
# Residuals


def residuals(table: TTable, b: float, eta: float,
              t4_dir: RadialField | None = None, cutoffs: bool = True):
    """(Psi, Psi1, Psi2, I0): the residuals, of index m, m+1 and m+2, of the
    three profile equations of the chart at (b, eta) (beta <= CHART_BETA)

        i Psi_k = b_s d_b P_k + eta_s d_eta P_k + b Lambda_{-k} P_k
                  + i gamma_s P_k + i op_k + i I(y) P_k  [- i conj(P) P1^2]

    with op_k = D_P^* P1, A_P^* P2, Htd_P P2, the bracket for k = 2 only,
    I(y) = int_y^infty Re(conj(P) P1) dy, I0 = I(0), and the formal laws
    (Mod = 0) lambda_s/lambda = -b, gamma_s = -(m+1) eta - I0, b_s =
    -(b^2+eta^2) - p3_b, eta_s = -p3_eta. t4_dir adds beta^4 T4 to P2 under
    the B0 cutoff chi(y beta^{1/2}); cutoffs=False leaves both cutoffs off
    (the quartic extraction)."""
    m, grid = table.m, table.grid
    y = grid.r
    beta = math.hypot(b, eta)
    if not beta <= CHART_BETA:
        raise ValueError(f"beta = {beta} out of range (need <= {CHART_BETA})")
    if cutoffs and beta > 0.0 and 2.0 / beta > grid.r_max:
        raise GridTooSmall(
            f"grid-too-small: 2 B1 = {2/beta:g} exceeds r_max = {grid.r_max:g}")
    chart = assemble(table, b, eta, cutoffs)
    vals = [*chart.values(), chart.p2()]
    derivs = [chart.derivs(k) for k in range(3)]
    if t4_dir is not None:
        chi0, slope0 = _cutoff(y, beta, 0.5) if chart.cut else (1.0, 0.0)
        t4 = beta**4 * t4_dir.values
        vals[2] = vals[2] + chi0 * t4
        derivs[2] = [d + chi0 * 4.0 * beta**2 * c * t4_dir.values
                     + slope0 * c * t4 for d, c in zip(derivs[2], (b, eta))]
    fields = [RadialField(m + k, v, grid) for k, v in enumerate(vals)]
    p, p1, p2 = vals

    p3b, p3e = p3(m, b, eta)
    b_s = -(b**2 + eta**2) - p3b
    eta_s = -p3e
    a_theta = GA.gauge_fields(fields[0])
    i_tail = G.backward(grid, np.real(np.conj(p) * p1), 1)
    i0 = float(i_tail[0])
    gamma_s = -(m + 1) * eta - i0

    vtd = (m + 2 + a_theta) ** 2 + 0.5 * y**2 * np.abs(p) ** 2
    ops = [G.d_minus(f, a_theta).values for f in fields[1:]] + [
        -G.d_dr(grid, p2, 2) - G.d_dr(grid, p2, 1) / y + vtd / y**2 * p2]
    psis = []
    for k, (f, (d_b, d_eta), op) in enumerate(zip(fields, derivs, ops)):
        lhs = (b_s * d_b + eta_s * d_eta + b * G.scale_gen(f, s=-k).values
               + 1j * gamma_s * f.values + 1j * op + 1j * i_tail * f.values)
        if k == 2:
            lhs = lhs - 1j * np.conj(p) * p1**2
        psis.append(RadialField(m + k, -1j * lhs, grid))
    return (*psis, i0)


def taylor_deviations(table: TTable, b: float, eta: float) -> dict:
    """Sup over y in [2, 2 B1] of the far-field Taylor deviations of the
    T-fields, each normalized by its pointwise envelope:

        |T1^(0) + bbeta (y^2/4) Q|            <= C beta  Q log y
        |T2^(0) - bbeta^2 (y^4/32) Q|
          + y |T2^(1) - bbeta^2 (y^3/8) Q|    <= C beta^2 y^2 Q log y
        m = 1:  |T3^(1)| + y |T3^(2)|         <= C beta^3 y^3 Q log y
        m >= 2: |T3^(1) + bbeta^3 (y^5/64) Q|
          + y |T3^(2) + bbeta^3 (y^4/16) Q|   <= C beta^3 y^3 Q log y
    """
    m, grid = table.m, table.grid
    y = grid.r
    bb = 1j * b + eta
    q = q_values(m, y)
    msk = (y >= 2.0) & (y <= 2.0 / math.hypot(b, eta))

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
    f4 = quartic_coefficient(m, grid, direction, s_values=s_values)
    branch = "outgoing" if m == 1 else "inner"
    inv = L.right_inverse("HtdQ", RadialField(m + 2, f4, grid), branch)
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
    # the s^4 row of the fit's pseudo-inverse, summed over the ladder's rows: a
    # lstsq on all n residual columns would go to the BLAS thread pool
    pinv = np.linalg.lstsq(smat, np.eye(len(s_values)), rcond=None)[0]
    table = build_t_tables(m, grid)
    f4 = np.zeros(grid.n, dtype=complex)
    for s, weight in zip(s_values, pinv[_FIT_DEGREES.index(4)]):
        f4 += weight * residuals(table, s * db, s * de, t4_dir,
                                 cutoffs=False)[2].values
    return f4


# ---------------------------------------------------------------------------
# Scaling sweep


def scaling_sweep(m: int, betas, direction: tuple[float, float],
                  grid: Grid, include_t4: bool = True) -> dict:
    """The residual norms at each beta (sup |Psi| on y <= 2 and 5,
    ||Psi1/y^2||_L1, Psi2 in L2 and H1-dot, |I0 + 2(m+1) eta|) and the
    Taylor deviations, with log-log slope fits against beta."""
    db, de = direction
    norm = math.hypot(db, de)
    db, de = db / norm, de / norm
    table, y = build_t_tables(m, grid), grid.r
    t4_dir = build_t4(m, grid, (db, de)) if include_t4 else None
    series: dict[str, list[float]] = {
        "psi_sup_R2": [], "psi_sup_R5": [], "psi1_L1w": [],
        "psi2_L2": [], "psi2_H1": [], "phase_corr_dev": [],
        "t1_dev": [], "t2_dev": [], "t3_dev": [],
    }
    for beta in betas:
        b, eta = beta * db, beta * de
        psi, psi1, psi2, i0 = residuals(table, b, eta, t4_dir)
        for name, radius in (("psi_sup_R2", 2.0), ("psi_sup_R5", 5.0)):
            series[name].append(float(np.max(np.abs(psi.values[y <= radius]))))
        series["psi1_L1w"].append(
            float(G.integrate_samples(grid, np.abs(psi1.values) / y**2)))
        series["psi2_L2"].append(G.l2(psi2))
        series["psi2_H1"].append(G.hdot1(psi2))
        series["phase_corr_dev"].append(abs(i0 + 2.0 * (m + 1) * eta))
        for name, val in taylor_deviations(table, b, eta).items():
            series[name].append(val)
    logb = np.log(np.asarray(betas, dtype=float))
    fit = np.unique(logb).size > 1  # a line needs two distinct betas
    out = {"m": m, "betas": list(betas), "direction": (db, de),
           "include_t4": include_t4, "series": series, "slopes": {}}
    for name, vals in series.items():
        v = np.asarray(vals)
        if fit and np.all(v > 0):
            slope, intercept = np.polyfit(logb, np.log(v), 1)
            out["slopes"][name] = {"slope": float(slope),
                                   "intercept": float(intercept)}
        else:
            out["slopes"][name] = {"slope": float("nan"), "intercept": float("nan")}
    return out
