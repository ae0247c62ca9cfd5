"""Time integration of the equivariant gauged Schroedinger flow.

Strang splitting: a half-step of exact phase multiplication by the local
potential (which depends only on |u|^2 and is therefore invariant under
the multiplication), a Crank-Nicolson step for the free part
i d_t u + Delta^(m) u = 0, and a second half phase step. In the
logarithmic radial coordinate x = log r the operator is
Delta^(m) = r^{-2} (d_xx - m^2), discretized with the centered
fourth-order five-point stencil, giving a pentadiagonal banded solve.
The Crank-Nicolson left-hand side is LU-factored once per (grid, m, dt);
each step then costs one pair of banded triangular solves.

Boundary treatment: the regularity condition u/r^m bounded at r_min is
imposed as the power-law constraint u_0 = e^{-m h} u_1; homogeneous
Dirichlet at r_max with sponge damping on the last 5% of nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError
from scipy.linalg.lapack import zgbtrf, zgbtrs

from . import gauge as GA
from . import grid as G
from .grid import Grid, RadialField


SPONGE_STRENGTH = 2.0  # peak damping rate of the sponge


class StabilityGuardTripped(RuntimeError):
    pass


@dataclass(frozen=True)
class SolverConfig:
    grid: Grid
    dt: float
    t_end: float | None = None
    lambda_min: float | None = None
    monitor_stride: int = 20
    decompose_flag: bool = False
    tube_radius: float = 0.2

    def __post_init__(self):
        if not (self.dt > 0):
            raise ValueError("dt must be positive")
        if self.t_end is None and self.lambda_min is None:
            raise ValueError("stop rule required: t_end or lambda_min")
        if self.lambda_min is not None and not self.decompose_flag:
            raise ValueError("lambda_min stop rule requires decompose_flag")
        if self.monitor_stride < 1:
            raise ValueError("monitor_stride must be >= 1")


@dataclass
class Trajectory:
    times: np.ndarray
    series: dict
    snapshots: list  # (t, RadialField) pairs, one per monitor
    decompositions: list
    stop_reason: str


def potential(u: RadialField) -> np.ndarray:
    """V[u] = ((m + A_theta)^2 - m^2)/r^2 + A_t - |u|^2."""
    gf = GA.gauge_fields(u)
    r = u.grid.r
    m = u.m
    return (((m + gf.a_theta) ** 2 - m**2) / r**2 + gf.a_t
            - np.abs(u.values) ** 2)


class KineticSolver:
    """Crank-Nicolson propagator for i d_t u + Delta^(m) u = 0 on the
    geometric grid, built once per (grid, m, dt)."""

    def __init__(self, grid: Grid, m: int, dt: float):
        self.grid, self.m, self.dt = grid, m, dt
        n, h = grid.n, grid.h
        # second-derivative bands in x (offsets -2..2); centered 4th order
        # in the interior, centered 2nd order one node from each edge
        bands = np.zeros((5, n))
        c4 = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / (12.0 * h * h)
        for k in range(5):
            bands[k, :] = c4[k]
        c2 = np.array([0.0, 1.0, -2.0, 1.0, 0.0]) / (h * h)
        bands[:, 1] = c2
        bands[:, n - 2] = c2
        # Delta^(m) = r^{-2}(d_xx - m^2)
        w = 1.0 / grid.r**2
        self.a_bands = bands * w
        self.a_bands[2] -= m * m * w
        z = 0.5j * dt
        # LHS = I - z Delta, RHS = I + z Delta (rows as banded matrices)
        lhs = np.zeros((5, n), dtype=np.complex128)
        rhs = np.zeros((5, n), dtype=np.complex128)
        for k in range(5):
            lhs[k] = -z * self.a_bands[k]
            rhs[k] = z * self.a_bands[k]
        lhs[2] += 1.0
        rhs[2] += 1.0
        # boundary rows: u_0 = e^{-m h} u_1 (regularity), u_{n-1} = 0
        for k in range(5):
            lhs[k, 0] = lhs[k, n - 1] = 0.0
            rhs[k, 0] = rhs[k, n - 1] = 0.0
        lhs[2, 0] = 1.0
        lhs[3, 0] = -math.exp(-m * h)  # band row for element (0, 1)
        lhs[2, n - 1] = 1.0
        self.rhs_bands = rhs
        # LAPACK band storage with (kl, ku) = (2, 2):
        # ab[kl + ku + i - j, j] = a[i, j]; the top kl rows take the fill-in
        # of the pivoted factorization
        ab = np.zeros((7, n), dtype=np.complex128)
        for off in range(-2, 3):
            # lhs row offsets: lhs[2 + off] holds elements (i, i + off)
            band = lhs[2 + off]
            if off >= 0:
                ab[4 - off, off:] = band[: n - off]
            else:
                ab[4 - off, :off] = band[-off:]
        self._lu, self._piv, info = zgbtrf(ab, 2, 2, overwrite_ab=1)
        if info != 0:
            raise LinAlgError(f"Crank-Nicolson factorization failed: info = {info}")

    def _rhs_apply(self, v: np.ndarray) -> np.ndarray:
        n = v.size
        out = self.rhs_bands[2] * v
        for off in (1, 2):
            out[:-off] += self.rhs_bands[2 + off, :-off] * v[off:]
            out[off:] += self.rhs_bands[2 - off, off:] * v[:-off]
        out[0] = 0.0
        out[n - 1] = 0.0
        return out

    def solve(self, v: np.ndarray) -> np.ndarray:
        x, info = zgbtrs(self._lu, 2, 2, self._rhs_apply(v), self._piv,
                         overwrite_b=1)
        if info != 0:
            raise LinAlgError(f"Crank-Nicolson solve failed: info = {info}")
        return x


def sponge_profile(grid: Grid) -> np.ndarray:
    """Damping rate supported on the last 5% of nodes, a quartic ramp up
    to SPONGE_STRENGTH."""
    n = grid.n
    n0 = int(math.floor(0.95 * n))
    sigma = np.zeros(n)
    z = (np.arange(n0, n) - n0) / max(n - 1 - n0, 1)
    sigma[n0:] = SPONGE_STRENGTH * z**4
    return sigma


def step(u: RadialField, dt: float, kinetic: KineticSolver | None = None,
         sponge_factor: np.ndarray | None = None) -> RadialField:
    """One Strang-split step of size dt; sponge_factor is the damping
    exp(-dt * sponge_profile) applied at the end of the step."""
    if kinetic is None or kinetic.dt != dt:
        kinetic = KineticSolver(u.grid, u.m, dt)
    v_pot = potential(u)
    vmax = float(np.max(np.abs(v_pot)))
    if not (dt * vmax <= 1.0):  # also trips on a non-finite potential
        raise StabilityGuardTripped(
            f"stability-guard-tripped: dt*max|V| = {dt * vmax:.3g} > 1")
    vals = np.exp(-0.5j * dt * v_pot) * u.values
    vals = kinetic.solve(vals)
    u_mid = u.with_values(vals, decay=None)
    v_pot2 = potential(u_mid)
    if not (dt * float(np.max(np.abs(v_pot2))) <= 1.0):
        raise StabilityGuardTripped("stability-guard-tripped after kinetic step")
    vals = np.exp(-0.5j * dt * v_pot2) * vals
    if sponge_factor is not None:
        vals = sponge_factor * vals
    return u.with_values(vals, decay=None)


def run(u0: RadialField, config: SolverConfig, t0: float = 0.0) -> Trajectory:
    """Integrate from t0, recording conservation/virial monitors and a
    snapshot every monitor_stride steps and (optionally) a tube
    decomposition per monitor time with warm start. A decomposition that did not converge
    ends the run with stop_reason "no-convergence", kept as the last
    record."""
    if u0.grid != config.grid:
        raise G.GridError("initial datum not on the solver grid")
    kin = KineticSolver(config.grid, u0.m, config.dt)
    damping = np.exp(-config.dt * sponge_profile(config.grid))

    mod_table = None
    ortho = None
    warm = None
    if config.decompose_flag:
        from . import modulation as MOD
        from . import profiles as PR
        mod_table = PR.build_t_tables(u0.m, config.grid)
        ortho = MOD.build_ortho_profiles(u0.m, config.grid)

    series: dict = {k: [] for k in
                    ("t", "mass", "energy", "e_selfdual", "v1", "v2",
                     "u1_l2", "u2_l2")}
    times, snaps, decomps = [], [], []
    u, t = u0, t0
    stop = "t_end"

    def monitor(u, t):
        e, mass, e_sd = GA.energy_mass(u)
        v1, v2 = GA.virial(u)
        tri = GA.conjugate_triple(u)
        series["t"].append(t)
        series["mass"].append(mass)
        series["energy"].append(e)
        series["e_selfdual"].append(e_sd)
        series["v1"].append(v1)
        series["v2"].append(v2)
        series["u1_l2"].append(G.l2(tri.u1))
        series["u2_l2"].append(G.l2(tri.u2))
        times.append(t)
        snaps.append((t, u))
        if config.decompose_flag:
            from . import modulation as MOD
            d = MOD.decompose(u, ortho, init=warm, table=mod_table,
                              tube_radius=config.tube_radius)
            decomps.append((t, d))
            return d
        return None

    d = monitor(u, t)
    while True:
        # an unconverged decomposition neither warm-starts nor stops on lambda
        if d is not None and not d.converged:
            stop = "no-convergence"
            break
        if config.t_end is not None and t >= config.t_end - 1e-12:
            break
        if (config.lambda_min is not None and d is not None
                and d.state.lam < config.lambda_min):
            stop = "lambda_min"
            break
        warm = None if d is None else d.state
        for _ in range(config.monitor_stride):
            u = step(u, config.dt, kinetic=kin, sponge_factor=damping)
            t += config.dt
            if config.t_end is not None and t >= config.t_end - 1e-12:
                break
        d = monitor(u, t)

    return Trajectory(times=np.array(times),
                      series={k: np.array(v) for k, v in series.items()},
                      snapshots=snaps, decompositions=decomps,
                      stop_reason=stop)


def validate_exact(traj: Trajectory, reference) -> dict:
    """L^2 and H^1-dot relative errors of the stored snapshots against a
    closed-form reference field: reference(t) -> RadialField."""
    t_list, l2_err, h1_err = [], [], []
    for t, u in traj.snapshots:
        ref = reference(t)
        diff = u.with_values(u.values - ref.values, decay=None)
        l2_err.append(G.l2(diff) / G.l2(ref))
        h1_err.append(G.hdot1(diff) / G.hdot1(ref))
        t_list.append(t)
    return {"t": np.array(t_list), "l2": np.array(l2_err),
            "h1": np.array(h1_err)}
