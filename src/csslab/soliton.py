"""The explicit soliton, its symmetry orbit, and the pseudoconformal blow-up.

Q(r) = sqrt(8) (m+1) r^m / (1 + r^{2m+2}) solves the Bogomol'nyi equation
D_Q Q = 0 and has zero energy. The pseudoconformal image of the static
orbit is S(t, r) = (1/|t|) Q(r/|t|) exp(-i r^2 / (4|t|)), blowing up at
t = 0 with rate lambda(t) = |t|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgtsv

from . import grid as G
from .grid import Grid, RadialField


class ScaleOutOfRange(ValueError):
    pass


class UnsupportedIndex(ValueError):
    pass


@dataclass(frozen=True)
class SymmetryParams:
    lam: float
    gamma: float

    def __post_init__(self):
        if not (self.lam > 0):
            raise ScaleOutOfRange(f"lambda must be positive, got {self.lam}")


def soliton_q(m: int, grid: Grid) -> RadialField:
    if m < 1:
        raise UnsupportedIndex(f"equivariance index must be >= 1, got {m}")
    return RadialField(m, q_values(m, grid.r).astype(complex), grid,
                       decay=float(m + 2))


def q_values(m: int, r: np.ndarray) -> np.ndarray:
    return math.sqrt(8.0) * (m + 1) * r**m / (1.0 + r ** (2 * m + 2))


# ---------------------------------------------------------------------------
# Modulation (the sharp/flat maps)


def _not_a_knot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Coefficients c (4, k, n - 1) of the not-a-knot cubic spline through
    each row of y (k, n) (de Boor 1978), c[p, j, i] of (x - x_i)^(3 - p):
    scipy CubicSpline's arithmetic, its tridiagonal system for all rows
    solved by one dgtsv (as solve_banded((1, 1)) does), so row j is
    CubicSpline(x, y[j]) bit for bit. Its input checks are not repeated:
    Grid makes x strictly increasing and RadialField makes y finite."""
    dx = np.diff(x)
    slope = np.diff(y) / dx
    d0, d1 = x[2] - x[0], x[-1] - x[-3]
    b = np.empty_like(y)
    b[:, 1:-1] = 3 * (dx[1:] * slope[:, :-1] + dx[:-1] * slope[:, 1:])
    b[:, 0] = ((dx[0] + 2*d0) * dx[1] * slope[:, 0]
               + dx[0]**2 * slope[:, 1]) / d0
    b[:, -1] = (dx[-1]**2 * slope[:, -2]
                + (2*d1 + dx[-1]) * dx[-2] * slope[:, -1]) / d1
    lower, upper = np.append(dx[1:], d1), np.insert(dx[:-1], 0, d0)
    diag = np.concatenate((dx[1:2], 2 * (dx[:-1] + dx[1:]), dx[-2:-1]))
    _, _, _, s, info = dgtsv(lower, diag, upper, b.T, 1, 1, 1, 1)
    if info:
        raise np.linalg.LinAlgError(f"singular spline system: info {info}")
    s = s.T
    t = (s[:, :-1] + s[:, 1:] - 2 * slope) / dx
    return np.stack((t / dx, (slope - s[:, :-1]) / dx - t, s[:, :-1],
                     0.0 + y[:, :-1]))  # PPoly's sum starts from 0.0


def sampler(f: RadialField):
    """Build f's log-coordinate splines once and return the function that
    evaluates f at off-grid radii r_new with them.

    Smooth nonvanishing fields are interpolated through amplitude and
    unwrapped phase (preserves oscillatory tails); fields with zeros fall
    back to real/imag component splines, both CubicSpline's not-a-knot
    cubics solved with dgtsv (_not_a_knot) and evaluated as PPoly does.
    Off-grid extension: power law r^m below r_min, the declared algebraic
    decay (or zero) above r_max.
    """
    g = f.grid
    a = np.abs(f.values)
    polar = a.min() > 0.0 and (a.max() / a.min()) < 1e300
    rows = ((np.log(a), G.smart_unwrap(f.values)) if polar  # else Re, Im
            else (f.values.real, f.values.imag))
    coef = _not_a_knot(g.x, np.stack(rows))

    def sample(r_new: np.ndarray) -> np.ndarray:
        out = np.empty(r_new.size, dtype=np.complex128)
        inside = (r_new >= g.r_min) & (r_new <= g.r_max)
        xi = np.log(r_new[inside])
        i = np.clip(np.searchsorted(g.x, xi, "right") - 1, 0, g.n - 2)
        s = xi - g.x[i]
        c = coef.take(i, axis=2)
        v = ((c[3] + c[2] * s) + c[1] * (s * s)) + c[0] * (s * s * s)
        z = v[0] + 1j * v[1]
        out[inside] = np.exp(z) if polar else z
        below = r_new < g.r_min
        if np.any(below):
            out[below] = f.values[0] * (r_new[below] / g.r_min) ** f.m
        above = r_new > g.r_max
        if np.any(above):
            if f.decay is not None:
                out[above] = f.values[-1] * (r_new[above] / g.r_max) ** (-f.decay)
            else:
                out[above] = 0.0
        return out
    return sample


def modulate(f: RadialField, p: SymmetryParams, tol: float = 1e-6,
             sample=None) -> RadialField:
    """f^sharp = (e^{i gamma}/lambda) f(r/lambda) resampled on f's own grid,
    through `sample`, a sampler(f) the caller already built, or a new one."""
    g = f.grid
    lam = p.lam
    if lam < 1.0 and f.decay is None:
        # content of f beyond lam * r_max is pushed off the grid; measure it
        mask = g.r > lam * g.r_max
        lost = G.l2_samples(g, np.where(mask, f.values, 0.0))
        total = G.l2(f)
        if total > 0 and lost > tol * total:
            raise ScaleOutOfRange(
                f"scale-out-of-range: lambda={lam} drops {lost/total:.2e} of the field")
    if sample is None:
        sample = sampler(f)
    vals = np.exp(1j * p.gamma) / lam * sample(g.r / lam)
    return RadialField(f.m, vals, g, f.decay)


def flat(f: RadialField, p: SymmetryParams, sample=None) -> RadialField:
    """Inverse of modulate: f^flat = lambda e^{-i gamma} f(lambda r)."""
    return modulate(f, SymmetryParams(1.0 / p.lam, -p.gamma), sample=sample)


# ---------------------------------------------------------------------------
# Blow-up solution and pseudoconformal transform


def blowup_s(m: int, t: float, grid: Grid) -> RadialField:
    if not (t < 0):
        raise ScaleOutOfRange(f"blow-up snapshot needs t < 0, got {t}")
    lam = abs(t)
    if not (grid.r_min / lam >= grid.r_min / 1e6):
        raise ScaleOutOfRange("scale-out-of-range")
    y = grid.r / lam
    vals = q_values(m, y) / lam * np.exp(-1j * grid.r**2 / (4.0 * lam))
    return RadialField(m, vals, grid, decay=float(m + 2))


def pseudoconformal(f: RadialField, t: float) -> RadialField:
    """Apply the pseudoconformal map to a static profile at time t < 0:
    [C f](t, r) = (1/|t|) f(r/|t|) exp(i r^2 / (4t)).

    Nothing in the lab applies it: it is the reference construction of S
    that test_pseudoconformal_reproduces_blowup checks blowup_s against."""
    if not (t < 0):
        raise ScaleOutOfRange("transform evaluated for t < 0 only")
    lam = abs(t)
    scaled = modulate(f, SymmetryParams(lam, 0.0))
    phase = np.exp(1j * f.grid.r**2 / (4.0 * t))
    return RadialField(f.m, scaled.values * phase, f.grid, f.decay)


# ---------------------------------------------------------------------------
# Proximity fit


def proximity_fit(u: RadialField, q: RadialField | None = None,
                  sample=None) -> SymmetryParams:
    """Seed (lambda, gamma) for decomposition: lambda from the H1-norm ratio,
    gamma from the argument of the complex H1 pairing with Q. `sample` is
    a prebuilt sampler(u), as for modulate."""
    if q is None:
        q = soliton_q(u.m, u.grid)
    nu = G.hdot1(u)
    if nu == 0.0:
        raise ValueError("zero-field")
    lam_hat = G.hdot1(q) / nu
    # seed-quality rescale; allow a little tail loss for undeclared decays
    ub = modulate(u, SymmetryParams(1.0 / lam_hat, 0.0), tol=1e-3,
                  sample=sample)
    g = u.grid
    du = G.d_dr(g, ub.values, 1)
    dq = G.d_dr(g, q.values, 1)
    dens = du * np.conj(dq) + (u.m / g.r) ** 2 * ub.values * np.conj(q.values)
    pair = complex(G.integrate_samples(g, dens))
    gamma_hat = math.atan2(pair.imag, pair.real) % (2.0 * math.pi)
    return SymmetryParams(lam_hat, gamma_hat)
