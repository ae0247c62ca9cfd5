"""Radial grids on (0, infinity), equivariant field storage, calculus, and norms.

Everything works on one kind of grid, the geometric one: nodes uniform
in the mapped coordinate x = log r, with spacing h. Derivatives and
quadrature are stencils and weights in x, built once per grid and cached.

Integral conventions: the plain integral sign over fields means
2*pi * int f(r) r dr, and (f, g)_r = 2*pi * int Re(conj(f) g) r dr.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

TWO_PI = 2.0 * math.pi

DEFAULT_R_MIN = 1e-4
DEFAULT_R_MAX = 200.0
DEFAULT_N = 4096


class GridError(ValueError):
    pass


class IndexMismatch(ValueError):
    pass


# ---------------------------------------------------------------------------
# Grid


@dataclass(frozen=True)
class Grid:
    """Strictly increasing positive radii r = e^x, uniform in x with step h."""

    r: np.ndarray
    x: np.ndarray = field(repr=False)
    h: float

    @property
    def n(self) -> int:
        return self.r.size

    @property
    def r_min(self) -> float:
        return float(self.r[0])

    @property
    def r_max(self) -> float:
        return float(self.r[-1])

    @property
    def key(self):
        return (self.r_min, self.r_max, self.n)

    def __eq__(self, other):
        return isinstance(other, Grid) and self.key == other.key

    def __hash__(self):
        return hash(self.key)


def build_grid(r_min: float = DEFAULT_R_MIN, r_max: float = DEFAULT_R_MAX,
               n: int = DEFAULT_N) -> Grid:
    if not (0.0 < r_min < r_max < math.inf):
        raise GridError(f"invalid-range: need 0 < r_min < r_max < inf, got ({r_min}, {r_max})")
    if n < 16:
        raise GridError(f"too-coarse: n = {n} < 16")
    x = np.linspace(math.log(r_min), math.log(r_max), n)
    r = np.exp(x)
    r[0], r[-1] = r_min, r_max
    g = Grid(r=r, x=x, h=float(x[1] - x[0]))
    ratio = np.diff(r)[1:] / np.diff(r)[:-1]
    if ratio.size and (ratio.max() > 1.2 or ratio.min() < 1 / 1.2):
        raise GridError("adjacent spacing ratio exceeds 1.2")
    return g


# ---------------------------------------------------------------------------
# Fields


@dataclass(frozen=True)
class RadialField:
    """Complex samples of an m-equivariant radial profile.

    decay: optional algebraic decay exponent p, meaning f ~ c r^{-p} beyond
    the grid; used by tail extrapolation in quadrature.
    """

    m: int
    values: np.ndarray
    grid: Grid
    decay: float | None = None

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.complex128)
        object.__setattr__(self, "values", v)
        if v.shape != self.grid.r.shape:
            raise GridError("values shape does not match grid")
        if not np.isfinite(v).all():
            raise GridError("field contains non-finite values")

    def with_values(self, values, decay=...):
        return RadialField(self.m, np.asarray(values, dtype=np.complex128),
                           self.grid, self.decay if decay is ... else decay)

    def with_values_unchecked(self, values: np.ndarray, decay=...):
        """with_values for complex128 values of the grid's shape, without
        the checks: for a caller that catches non-finite values itself."""
        f = object.__new__(RadialField)
        vars(f).update(m=self.m, values=values, grid=self.grid,
                       decay=self.decay if decay is ... else decay)
        return f


def zero_field(m: int, grid: Grid) -> RadialField:
    return RadialField(m, np.zeros(grid.n, dtype=np.complex128), grid)


# ---------------------------------------------------------------------------
# Finite differences (uniform in x = log r)


def _fd_weights(z: float, nodes: np.ndarray, k: int) -> np.ndarray:
    """Fornberg weights for the k-th derivative at z from the given nodes."""
    n = nodes.size
    c = np.zeros((n, k + 1))
    c[0, 0] = 1.0
    c1, c4 = 1.0, nodes[0] - z
    for i in range(1, n):
        mn = min(i, k)
        c2, c5 = 1.0, c4
        c4 = nodes[i] - z
        for j in range(i):
            c3 = nodes[i] - nodes[j]
            c2 *= c3
            if j == i - 1:
                for s in range(mn, 0, -1):
                    c[i, s] = c1 * (s * c[i - 1, s - 1] - c5 * c[i - 1, s]) / c2
                c[i, 0] = -c1 * c5 * c[i - 1, 0] / c2
            for s in range(mn, 0, -1):
                c[j, s] = (c4 * c[j, s] - s * c[j, s - 1]) / c3
            c[j, 0] = c4 * c[j, 0] / c3
        c1 = c2
    return c[:, k]


@lru_cache(maxsize=64)
def _diff_matrix_bands(h: float, k: int, width: int):
    """Weights of the x-derivative stencils: one centred interior kernel
    of `width` points, and one-sided rows (at least k + 5 points) for the
    `width // 2` nodes at each edge. Returns (interior, edges, tails,
    edge point count)."""
    half = width // 2
    nodes = np.arange(width, dtype=float) * h
    interior = _fd_weights(half * h, nodes, k)
    # one-sided rows use enough points to keep formal order >= 4
    ew = max(width, k + 5)
    enodes = np.arange(ew, dtype=float) * h
    edges = []
    for i in range(half):
        edges.append(_fd_weights(i * h, enodes, k))
    tails = []
    for i in range(half):
        tails.append(_fd_weights((ew - 1 - i) * h, enodes, k))
    return interior, edges, tails, ew


def dx(grid: Grid, vals: np.ndarray, k: int = 1, width: int = 5) -> np.ndarray:
    """k-th derivative with respect to x = log r (formal order width - k)."""
    vals = np.ascontiguousarray(vals, dtype=np.complex128)
    n = vals.size
    interior, edges, tails, ew = _diff_matrix_bands(grid.h, k, width)
    half = width // 2
    out = np.empty_like(vals)
    # interior via correlation
    acc = np.zeros(n - width + 1, dtype=vals.dtype)
    for j, w in enumerate(interior):
        acc += w * vals[j:n - width + 1 + j]
    out[half:n - half] = acc
    for i in range(half):
        out[i] = np.dot(edges[i], vals[:ew])
        out[n - 1 - i] = np.dot(tails[i], vals[n - ew:])
    return out


def d_dr(grid: Grid, vals: np.ndarray, order: int = 1) -> np.ndarray:
    """Radial derivatives, converted from log-coordinate stencils."""
    r = grid.r
    if order == 1:
        return dx(grid, vals, 1) / r
    if order == 2:
        return (dx(grid, vals, 2) - dx(grid, vals, 1)) / r**2
    if order == 3:
        g1 = dx(grid, vals, 1, width=7)
        g2 = dx(grid, vals, 2, width=7)
        g3 = dx(grid, vals, 3, width=7)
        return (g3 - 3.0 * g2 + 2.0 * g1) / r**3
    raise ValueError("order must be 1, 2, or 3")


# ---------------------------------------------------------------------------
# Quadrature


@lru_cache(maxsize=32)
def _gregory_weights(n: int, h: float) -> np.ndarray:
    """Endpoint-corrected trapezoid weights of 4th order on a uniform grid."""
    w = np.full(n, h)
    corr = np.array([3.0 / 8.0, 7.0 / 6.0, 23.0 / 24.0])
    w[:3] = corr * h
    w[-3:] = corr[::-1] * h
    return w


def integrate_samples(grid: Grid, vals: np.ndarray, decay: float | None = None):
    """2*pi * int vals r dr over the grid, plus the tail beyond r_max when a
    decay exponent p > 2 is supplied (integrand ~ r^{1-p} there). Real
    input gives a real result."""
    w = _gregory_weights(grid.n, grid.h)
    core = TWO_PI * np.sum(w * vals * grid.r**2)
    if decay is not None and decay > 2.0:
        core = core + TWO_PI * vals[-1].item() * grid.r_max**2 / (decay - 2.0)
    return core


def integrate_dy(grid: Grid, vals: np.ndarray, decay: float | None = None):
    """Plain-measure integral int vals dr over the grid (no 2*pi, no r
    weight); real input gives a real result."""
    w = _gregory_weights(grid.n, grid.h)
    core = np.sum(w * vals * grid.r)
    if decay is not None and decay > 1.0:
        core = core + vals[-1].item() * grid.r_max / (decay - 1.0)
    return core


def auto_tail_integrate(grid: Grid, vals: np.ndarray) -> float:
    """2*pi int vals r dr with the tail exponent estimated from the last
    nodes of the (real, nonnegative) integrand itself."""
    value = integrate_samples(grid, vals)
    if vals[-1] > 0 and vals[-4] > 0:
        p = -math.log(vals[-1] / vals[-4]) / (3.0 * grid.h)
        if p > 2.05:
            value = value + TWO_PI * vals[-1] * grid.r_max**2 / (p - 2.0)
    return float(value)


def smart_unwrap(vals: np.ndarray) -> np.ndarray:
    """Unwrap the phase of a zero-free complex field, choosing each branch
    nearest to a linear extrapolation of the previous two increments (the
    first ones extrapolate from zero).

    That rule makes the second difference of the increments d the
    representative of the second difference of the principal increments
    raw, mod 2 pi, nearest zero (Itoh's argument applied one difference
    up). So d is the double cumulative sum of wrap(Delta^2 raw), with raw
    padded by two leading zeros; the sum only picks the branch, and
    d = raw + 2 pi k exactly. The true phase is recovered whenever its
    padded second differences of increments satisfy |Delta^2 phase| < pi,
    which tolerates per-node increments far beyond pi (true for quadratic
    radial phases on the default log grid out to r ~ 500)."""
    ang = np.angle(vals)
    raw = np.angle(vals[1:] * np.conj(vals[:-1]))  # principal increments
    d2 = np.diff(raw, 2, prepend=(0.0, 0.0))
    pred = np.cumsum(np.cumsum(d2 - TWO_PI * np.round(d2 / TWO_PI)))
    d = raw + TWO_PI * np.round((pred - raw) / TWO_PI)
    out = np.empty(vals.size)
    out[0] = ang[0]
    np.cumsum(d, out=out[1:])
    out[1:] += ang[0]
    return out


def polar_derivs(grid: Grid, vals: np.ndarray):
    """(a, d_r a, d_r phi) of a zero-free field f = a e^{i phi}, or None
    when f vanishes somewhere on the grid. Derivatives built from these keep
    oscillatory tails (quadratic phases) accurate far beyond the pointwise
    Nyquist limit of the log grid."""
    a = np.abs(vals)
    if not a.min() > 0.0:
        return None
    da = np.real(d_dr(grid, a.astype(np.complex128), 1))
    dphi = np.real(d_dr(grid, smart_unwrap(vals).astype(np.complex128), 1))
    return a, da, dphi


def inner(f: RadialField, g: RadialField) -> float:
    """Real inner product (f, g)_r = 2*pi int Re(conj(f) g) r dr."""
    if f.grid != g.grid:
        raise GridError("grid-mismatch")
    if f.m != g.m:
        raise IndexMismatch(f"index-mismatch: {f.m} vs {g.m}")
    decay = None
    if f.decay is not None and g.decay is not None:
        decay = f.decay + g.decay
    dens = np.real(np.conj(f.values) * g.values)
    return float(integrate_samples(f.grid, dens, decay))


def l2_samples(grid: Grid, vals: np.ndarray, decay: float | None = None) -> float:
    dd = None if decay is None else 2.0 * decay
    value = integrate_samples(grid, np.abs(vals) ** 2, dd)
    return math.sqrt(max(float(value), 0.0))


def l2(f: RadialField) -> float:
    return l2_samples(f.grid, f.values, f.decay)


# ---------------------------------------------------------------------------
# Cumulative quadrature (4th order, uniform in x)


def _interval_increments(grid: Grid, gvals: np.ndarray) -> np.ndarray:
    """4th-order per-interval integrals of g(x) dx on the uniform log grid."""
    g = np.asarray(gvals)
    n, h = g.size, grid.h
    inc = np.empty(n - 1, dtype=np.result_type(g, np.float64))
    # interior intervals [j, j+1] use nodes j-1..j+2: the sum
    # -g[j-1] + 13 g[j] + 13 g[j+1] - g[j+2] in place, left to right
    mid = 13.0 * g[1:-2]
    mid -= g[:-3]
    mid += 13.0 * g[2:-1]
    mid -= g[3:]
    np.multiply(h / 24.0, mid, out=inc[1:-1])
    inc[0] = (h / 24.0) * (9.0 * g[0] + 19.0 * g[1] - 5.0 * g[2] + g[3])
    inc[-1] = (h / 24.0) * (g[-4] - 5.0 * g[-3] + 19.0 * g[-2] + 9.0 * g[-1])
    return inc


def cumulative(grid: Grid, vals: np.ndarray, k: int,
               include_origin: bool = True) -> np.ndarray:
    """C(r_j) = int_0^{r_j} vals r'^{k-1} dr', so k = 2 is the r dr measure
    and k = 1 the plain one; real input gives a real result. The
    [0, r_min] piece is completed by a local power law vals ~ r^q fitted on
    the first two nodes, q clamped to [0.1 - k, 40] so that the piece stays
    finite (negligible for smooth equivariant data, but kept for exactness
    of closed-form comparisons)."""
    vals = np.asarray(vals)
    inc = _interval_increments(grid, vals * grid.r**k)
    c = np.empty(inc.size + 1, dtype=inc.dtype)
    c[0] = 0.0
    np.cumsum(inc, out=c[1:])
    v0 = vals[0].item()
    if include_origin and v0 != 0.0:
        v1 = vals[1].item()
        q = 0.0
        # not redundant: with inf at node 0 the ratio is 0, and math.log
        # would raise before evolve's stability guard sees the non-finite state
        if abs(v1) > 0 and abs(v0) > 0:
            ratio = abs(v1) / abs(v0)
            if ratio > 0:
                q = math.log(ratio) / grid.h
        q = min(max(q, 0.1 - k), 40.0)
        c = c + v0 * grid.r_min**k / (q + k)
    return c


def backward(grid: Grid, vals: np.ndarray, k: int,
             tail_power: float | None = None) -> np.ndarray:
    """B(r_j) = int_{r_j}^{r_max} vals r'^{k-1} dr', plus the algebraic tail
    beyond r_max when vals ~ c r^{-p} with p = tail_power > k; real input
    gives a real result. The sum runs from the far end so the tail values
    are not lost to cancellation against the bulk."""
    vals = np.asarray(vals)
    inc = _interval_increments(grid, vals * grid.r**k)
    out = np.empty(inc.size + 1, dtype=inc.dtype)
    out[-1] = 0.0
    np.cumsum(inc[::-1], out=out[:-1][::-1])
    if tail_power is not None and tail_power > k:
        out = out + vals[-1].item() * grid.r_max**k / (tail_power - k)
    return out


# ---------------------------------------------------------------------------
# Smooth cutoff and scaling generator


def smooth_bump(t: np.ndarray) -> np.ndarray:
    """C-infinity bump: 1 on t <= 1, 0 on t >= 2, quotient transition between."""
    t = np.asarray(t, dtype=np.float64)
    out = np.ones_like(t)
    out[t >= 2.0] = 0.0
    mid = (t > 1.0) & (t < 2.0)
    if np.any(mid):
        s = t[mid] - 1.0
        a = np.exp(-1.0 / (1.0 - s))  # sigma(2 - t)
        b = np.exp(-1.0 / s)          # sigma(t - 1)
        out[mid] = a / (a + b)
    return out


def smooth_bump_prime(t: np.ndarray) -> np.ndarray:
    """Derivative of smooth_bump (closed form, zero outside (1, 2))."""
    t = np.asarray(t, dtype=np.float64)
    out = np.zeros_like(t)
    mid = (t > 1.0) & (t < 2.0)
    if np.any(mid):
        s = t[mid] - 1.0
        a = np.exp(-1.0 / (1.0 - s))
        b = np.exp(-1.0 / s)
        da = -a / (1.0 - s) ** 2
        db = b / s**2
        out[mid] = (da * (a + b) - a * (da + db)) / (a + b) ** 2
    return out


def scale_gen(f: RadialField, s: float = 0.0) -> RadialField:
    """Lambda_s f = (r d_r + 1 - s) f; s = 0 is the L2 scaling generator."""
    vals = dx(f.grid, f.values, 1) + (1.0 - s) * f.values
    return RadialField(f.m, vals, f.grid, f.decay)


# ---------------------------------------------------------------------------
# Pointwise derivative ladders |f|_k and |f|_{-k}


def abs_minus_k(f: RadialField, k: int) -> np.ndarray:
    """|f|_{-k} = max(|d^k f|, |d^{k-1} f| / r, ..., |f| / r^k) pointwise."""
    r = f.grid.r
    derivs = [f.values]
    for j in range(1, k + 1):
        derivs.append(d_dr(f.grid, f.values, j) if j <= 3 else None)
    if k > 3:
        raise ValueError("|f|_{-k} supported for k <= 3")
    stack = [np.abs(derivs[j]) / r ** (k - j) for j in range(k + 1)]
    return np.max(np.stack(stack), axis=0)


# ---------------------------------------------------------------------------
# Norms


def log_minus_weight(r: np.ndarray) -> np.ndarray:
    """<log_- y> = (1 + max(-log y, 0)^2)^{1/2}."""
    lm = np.maximum(-np.log(r), 0.0)
    return np.sqrt(1.0 + lm**2)


def hdot1(f: RadialField) -> float:
    """Equivariant homogeneous H^1 norm at f's own index."""
    fr = d_dr(f.grid, f.values, 1)
    dens = np.abs(fr) ** 2 + (f.m / f.grid.r) ** 2 * np.abs(f.values) ** 2
    dd = None if f.decay is None else 2.0 * (f.decay + 1.0)
    value = integrate_samples(f.grid, dens, dd)
    return math.sqrt(max(float(value), 0.0))


def hdotk_hardy(f: RadialField, k: int) -> float:
    """Hardy-equivalent homogeneous H^k seminorm, || |f|_{-k} ||_{L^2}."""
    return l2_samples(f.grid, abs_minus_k(f, k))


def d_plus(f: RadialField, a: float | np.ndarray) -> RadialField:
    """(d_r - (k + a)/r) f at f's own index k, raising the index by one:
    with a = A_theta[u], D_u at k = m and A_u at k = m + 1; with a = 0.0,
    the Cauchy-Riemann derivative (d_r - k/r) f."""
    vals = d_dr(f.grid, f.values, 1) - ((f.m + a) / f.grid.r) * f.values
    return RadialField(f.m + 1, vals, f.grid)


def d_minus(f: RadialField, a: float | np.ndarray) -> RadialField:
    """(-d_r - (k + a)/r) f at f's own index k, lowering the index by one:
    the adjoint of d_plus at index k - 1, so D_u^* at k = m + 1 and A_u^*
    at k = m + 2 for a = A_theta[u]."""
    vals = -d_dr(f.grid, f.values, 1) - ((f.m + a) / f.grid.r) * f.values
    return RadialField(f.m - 1, vals, f.grid)


def v32_sq(f: RadialField) -> float:
    r = f.grid.r
    ang = np.sqrt(1.0 + r**2)
    fy = d_dr(f.grid, f.values, 1)
    a = l2_samples(f.grid, fy / ang) ** 2
    b = l2_samples(f.grid, f.values / (np.sqrt(ang) * r)) ** 2
    return a + b


def v52_sq(f: RadialField) -> float:
    r = f.grid.r
    ang = np.sqrt(1.0 + r**2)
    fyy = d_dr(f.grid, f.values, 2)
    a = l2_samples(f.grid, fyy / ang) ** 2
    b = l2_samples(f.grid, abs_minus_k(f, 1) / (np.sqrt(ang) * r)) ** 2
    return a + b


def calh2(f: RadialField) -> float:
    m, r = f.m, f.grid.r
    if m >= 2:
        return hdotk_hardy(f, 2)
    t1 = hdot1(d_plus(f, 0.0))
    t2 = l2_samples(f.grid, d_dr(f.grid, f.values, 2))
    t3 = l2_samples(f.grid, abs_minus_k(f, 1) / (log_minus_weight(r) * r))
    return t1 + t2 + t3


def calh3(f: RadialField) -> float:
    m, r = f.m, f.grid.r
    if m >= 3:
        return hdotk_hardy(f, 3)
    dp = d_plus(f, 0.0)
    if m == 2:
        t1 = hdotk_hardy(dp, 2)
        t2 = l2_samples(f.grid, d_dr(f.grid, f.values, 3))
        t3 = l2_samples(f.grid, abs_minus_k(f, 2) / (log_minus_weight(r) * r))
        return t1 + t2 + t3
    t1 = hdotk_hardy(dp, 2)
    fyy = RadialField(2, d_dr(f.grid, f.values, 2), f.grid)
    t2 = l2_samples(f.grid, abs_minus_k(fyy, 1))
    ang = np.sqrt(1.0 + r**2)
    t3 = l2_samples(f.grid, abs_minus_k(f, 1) / (log_minus_weight(r) * ang * r))
    return t1 + t2 + t3


@dataclass(frozen=True)
class NormReport:
    L2: float
    Hdot1: float
    calH2: float
    calH3: float
    V32: float
    V52: float
    weighted_Linf: dict


def norm_report(f: RadialField) -> NormReport:
    r = f.grid.r
    ang = np.sqrt(1.0 + r**2)
    absf = np.abs(f.values)
    wlinf = {
        "1": float(absf.max()),
        "<y>^-1": float((absf / ang).max()),
        "<y>^-2": float((absf / ang**2).max()),
        "<y>^-3/4": float((absf / ang**0.75).max()),
    }
    return NormReport(
        L2=l2(f),
        Hdot1=hdot1(f),
        calH2=calh2(f),
        calH3=calh3(f),
        V32=math.sqrt(v32_sq(f)),
        V52=math.sqrt(v52_sq(f)),
        weighted_Linf=wlinf,
    )
