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
from scipy.interpolate import CubicSpline

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
    r = grid.r
    vals = math.sqrt(8.0) * (m + 1) * r**m / (1.0 + r ** (2 * m + 2))
    return RadialField(m, vals.astype(complex), grid, decay=float(m + 2))


def q_values(m: int, r: np.ndarray) -> np.ndarray:
    return math.sqrt(8.0) * (m + 1) * r**m / (1.0 + r ** (2 * m + 2))


# ---------------------------------------------------------------------------
# Modulation (the sharp/flat maps)


def _sample(f: RadialField, r_new: np.ndarray) -> np.ndarray:
    """Evaluate f at off-grid radii using log-coordinate splines.

    Smooth nonvanishing fields are interpolated through amplitude and
    unwrapped phase (preserves oscillatory tails); fields with zeros fall
    back to real/imag component splines. Off-grid extension: power law
    r^m below r_min, the declared algebraic decay (or zero) above r_max.
    """
    g = f.grid
    x = g.x
    xq = np.log(r_new)
    a = np.abs(f.values)
    out = np.empty(r_new.size, dtype=np.complex128)
    inside = (r_new >= g.r_min) & (r_new <= g.r_max)
    if a.min() > 0.0 and (a.max() / a.min()) < 1e300:
        la = CubicSpline(x, np.log(a))
        ph = CubicSpline(x, G.smart_unwrap(f.values))
        out[inside] = np.exp(la(xq[inside]) + 1j * ph(xq[inside]))
    else:
        sre = CubicSpline(x, f.values.real)
        sim = CubicSpline(x, f.values.imag)
        out[inside] = sre(xq[inside]) + 1j * sim(xq[inside])
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


def modulate(f: RadialField, p: SymmetryParams, tol: float = 1e-6) -> RadialField:
    """f^sharp = (e^{i gamma}/lambda) f(r/lambda) resampled on f's own grid."""
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
    vals = np.exp(1j * p.gamma) / lam * _sample(f, g.r / lam)
    return RadialField(f.m, vals, g, f.decay)


def flat(f: RadialField, p: SymmetryParams) -> RadialField:
    """Inverse of modulate: f^flat = lambda e^{-i gamma} f(lambda r)."""
    return modulate(f, SymmetryParams(1.0 / p.lam, -p.gamma))


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


def proximity_fit(u: RadialField, q: RadialField | None = None) -> SymmetryParams:
    """Seed (lambda, gamma) for decomposition: lambda from the H1-norm ratio,
    gamma from the argument of the complex H1 pairing with Q."""
    if q is None:
        q = soliton_q(u.m, u.grid)
    nu = G.hdot1(u)
    if nu == 0.0:
        raise ValueError("zero-field")
    lam_hat = G.hdot1(q) / nu
    # seed-quality rescale; allow a little tail loss for undeclared decays
    ub = modulate(u, SymmetryParams(1.0 / lam_hat, 0.0), tol=1e-3)
    g = u.grid
    du = G.d_dr(g, ub.values, 1)
    dq = G.d_dr(g, q.values, 1)
    dens = du * np.conj(dq) + (u.m / g.r) ** 2 * ub.values * np.conj(q.values)
    pair = complex(G.integrate_samples(g, dens))
    gamma_hat = math.atan2(pair.imag, pair.real) % (2.0 * math.pi)
    return SymmetryParams(lam_hat, gamma_hat)
