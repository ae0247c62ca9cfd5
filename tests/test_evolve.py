"""Time integration: splitting order, conservation monitors, virial
identities, exact-solution tracking, and per-step decomposition.

Frozen oracles: the static soliton (zero drift), the explicit blow-up
solution S(t) = |t|^{-1} Q(r/|t|) e^{-i r^2/(4|t|)}, and the virial
identities d/dt V1 = 4 V2 and d/dt V2 = 4 E.
"""

import math

import numpy as np
import pytest
from scipy.linalg import solve_banded

from csslab import grid as G
from csslab.evolve import (KineticSolver, SolverConfig, StabilityGuardTripped,
                           potential, run, sponge_profile, step,
                           validate_exact)
from csslab.grid import RadialField
from csslab.soliton import blowup_s, soliton_q


@pytest.fixture(scope="module")
def pde_grid():
    """Finer dedicated grid: S-tracking needs the quadratic phase resolved
    out to radii where the tail mass is below the tracking target."""
    return G.build_grid(r_min=1e-3, r_max=100.0, n=16384)


@pytest.fixture(scope="module")
def s_traj(pde_grid):
    """Reference S-trajectory run from t = -1 to -0.4 with per-monitor
    decomposition."""
    u0 = blowup_s(1, -1.0, pde_grid)
    cfg = SolverConfig(grid=pde_grid, dt=4e-4, t_end=-0.4,
                       monitor_stride=250, decompose_flag=True,
                       tube_radius=0.5)
    return run(u0, cfg, t0=-1.0)


def test_step_zero_is_zero(grid):
    u = G.zero_field(1, grid)
    out = step(u, 1e-3)
    assert np.all(out.values == 0.0)


def test_single_step_third_order(grid):
    q = soliton_q(1, grid)
    dts = np.array([2e-2, 1e-2, 5e-3])
    errs = []
    for dt in dts:
        out = step(q, float(dt))
        d = out.with_values(out.values - q.values, decay=None)
        errs.append(G.l2(d))
    slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
    assert slope > 2.7


def test_stability_guard(pde_grid):
    u = blowup_s(1, -0.4, pde_grid)
    with pytest.raises(StabilityGuardTripped):
        step(u, 0.5)


def test_stability_guard_trips_on_nonfinite_potential(grid):
    # |u|^2 overflows, so the potential is NaN and dt*max|V| > 1 is False
    u = RadialField(1, np.full(grid.n, 1e200 + 0j), grid)
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.isnan(potential(u)).any()
        with pytest.raises(StabilityGuardTripped):
            step(u, 1e-3)


def test_potential_substep_preserves_modulus(grid, rng):
    y = grid.r
    vals = (rng.normal(size=grid.n) + 1j * rng.normal(size=grid.n)) \
        * y * np.exp(-(y**2))
    u = RadialField(1, vals, grid)
    v = potential(u)
    out = np.exp(-0.5j * 1e-3 * v) * u.values
    # pointwise unitary up to rounding of the complex multiply
    np.testing.assert_allclose(np.abs(out), np.abs(u.values),
                               rtol=1e-13, atol=1e-300)


def test_kinetic_step_conserves_mass(grid):
    q = soliton_q(1, grid)
    kin = KineticSolver(grid, 1, 1e-3)
    before = G.l2_samples(grid, q.values)
    after = G.l2_samples(grid, kin.solve(q.values.copy()))
    assert abs(after - before) / before < 1e-10


def _dense_cn_lhs(kin):
    """I - (i dt / 2) Delta^(m) from the Laplacian bands, with the
    regularity row u_0 = e^{-m h} u_1 and the Dirichlet row u_{n-1} = 0."""
    n = kin.grid.n
    a = np.eye(n, dtype=complex)
    for off in range(-2, 3):
        i = np.arange(max(0, -off), min(n, n - off))
        a[i, i + off] -= 0.5j * kin.dt * kin.a_bands[2 + off, i]
    a[0] = a[-1] = 0.0
    a[0, 0] = a[-1, -1] = 1.0
    a[0, 1] = -math.exp(-kin.m * kin.grid.h)
    return a


@pytest.mark.parametrize("m", [1, 2])
def test_kinetic_solve_matches_solve_banded(m, rng):
    g = G.build_grid(n=256)
    kin = KineticSolver(g, m, 1e-3)
    a = _dense_cn_lhs(kin)
    # solve_banded layout ab[2 + i - j, j] = a[i, j]
    ab = np.zeros((5, g.n), dtype=complex)
    for off in range(-2, 3):
        ab[2 - off] = np.pad(np.diagonal(a, off), (max(off, 0), max(-off, 0)))
    for _ in range(3):
        v = rng.normal(size=g.n) + 1j * rng.normal(size=g.n)
        rhs = kin._rhs_apply(v)
        x = kin.solve(v)
        assert np.array_equal(x, solve_banded((2, 2), ab, rhs))
        np.testing.assert_allclose(a @ x, rhs, rtol=0, atol=1e-12 * np.abs(rhs).max())


def test_q_run_mass_energy_drift(grid):
    q = soliton_q(1, grid)
    cfg = SolverConfig(grid=grid, dt=1e-3, t_end=1.0, monitor_stride=100)
    traj = run(q, cfg)
    mass = traj.series["mass"]
    energy = traj.series["energy"]
    assert np.max(np.abs(mass - mass[0])) / mass[0] < 1e-8
    # E[Q] = 0; drift measured on the absolute scale of the mass
    assert np.max(np.abs(energy - energy[0])) < 1e-4
    assert traj.stop_reason == "t_end"
    # static reference: errors flat at the discretization floor
    rep = validate_exact(traj, lambda t: q)
    assert np.max(rep["l2"]) < 2e-4


def test_phase_convention_consistency(grid):
    gamma0 = 0.8
    q = soliton_q(1, grid)
    u0 = q.with_values(np.exp(1j * gamma0) * q.values)
    cfg = SolverConfig(grid=grid, dt=1e-3, t_end=0.3, monitor_stride=100)
    traj = run(u0, cfg)
    rep = validate_exact(traj, lambda t: u0)
    assert np.max(rep["l2"]) < 2e-4


def test_virial_identities(grid):
    y = grid.r
    vals = 1.2 * y * np.exp(-(y**2)) * np.exp(0.5j * y**2)
    u0 = RadialField(1, vals, grid, decay=None)
    cfg = SolverConfig(grid=grid, dt=2e-4, t_end=0.2, monitor_stride=25)
    traj = run(u0, cfg)
    t = traj.series["t"]
    v1, v2 = traj.series["v1"], traj.series["v2"]
    e = traj.series["energy"]
    dt = t[1] - t[0]
    dv1 = (v1[2:] - v1[:-2]) / (2 * dt)
    dv2 = (v2[2:] - v2[:-2]) / (2 * dt)
    scale1 = np.max(np.abs(4.0 * v2))
    scale2 = np.max(np.abs(4.0 * e))
    assert np.max(np.abs(dv1 - 4.0 * v2[1:-1])) < 0.01 * scale1
    assert np.max(np.abs(dv2 - 4.0 * e[1:-1])) < 0.01 * scale2


def test_s_tracking(s_traj, pde_grid):
    rep = validate_exact(s_traj, lambda t: blowup_s(1, t, pde_grid))
    assert np.max(rep["l2"]) < 1e-3
    # error growth past the first monitor is smooth: no phase-slip jumps
    assert np.max(np.abs(np.diff(rep["l2"][1:]))) < 2e-4


def test_s_decomposition_tracking(s_traj):
    for t, d in s_traj.decompositions:
        assert d.converged
        assert abs(d.state.lam / abs(t) - 1.0) < 0.02
        assert abs(d.state.b / abs(t) - 1.0) < 0.05


def test_selfconvergence_second_order(grid):
    # Richardson triple on a fully resolved datum: the dt-error halves x4
    # under dt-halving
    y = grid.r
    vals = 1.2 * y * np.exp(-(y**2)) * np.exp(0.5j * y**2)
    finals = []
    for dt in (4e-3, 2e-3, 1e-3):
        u = RadialField(1, vals, grid, decay=None)
        kin = KineticSolver(grid, 1, dt)
        sp = sponge_profile(grid)
        for _ in range(int(round(0.2 / dt))):
            u = step(u, dt, kinetic=kin, sponge_factor=np.exp(-dt * sp))
        finals.append(u.values)
    d1 = G.l2_samples(grid, finals[0] - finals[1])
    d2 = G.l2_samples(grid, finals[1] - finals[2])
    assert 3.0 < d1 / d2 < 5.0


def test_lambda_min_stop(pde_grid):
    u0 = blowup_s(1, -1.0, pde_grid)
    cfg = SolverConfig(grid=pde_grid, dt=4e-4, t_end=-0.4, lambda_min=0.93,
                       monitor_stride=50, decompose_flag=True,
                       tube_radius=0.5)
    traj = run(u0, cfg, t0=-1.0)
    assert traj.stop_reason == "lambda_min"
    assert traj.times[-1] < -0.85
    assert traj.decompositions[-1][1].state.lam < 0.93


def test_config_validation(grid):
    with pytest.raises(ValueError):
        SolverConfig(grid=grid, dt=-1e-3, t_end=1.0)
    with pytest.raises(ValueError):
        SolverConfig(grid=grid, dt=1e-3)
    with pytest.raises(ValueError):
        SolverConfig(grid=grid, dt=1e-3, lambda_min=0.5)


@pytest.mark.parametrize("strides", [{"monitor_stride": 0},
                                     {"monitor_stride": -3}])
def test_config_rejects_nonpositive_strides(grid, strides):
    # a zero monitor stride never advances t
    with pytest.raises(ValueError, match="stride"):
        SolverConfig(grid=grid, dt=1e-3, t_end=1.0, **strides)
