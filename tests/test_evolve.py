"""Time integration: splitting order, conservation monitors, virial
identities, exact-solution tracking, and per-step decomposition.

Frozen oracles: the static soliton (zero drift), the explicit blow-up
solution S(t) = |t|^{-1} Q(r/|t|) e^{-i r^2/(4|t|)}, and the virial
identities d/dt V1 = 4 V2 and d/dt V2 = 4 E.
"""

import dataclasses
import math
import multiprocessing
import os
import pickle
import signal
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import LinAlgError, solve_banded

from csslab import evolve
from csslab import gauge as GA
from csslab import grid as G
from csslab import modulation as MOD
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


def discard(mon):
    pass


@pytest.fixture(scope="module")
def s_mons(pde_grid):
    """The monitors of the reference S-trajectory run from t = -1 to -0.4
    with per-monitor decomposition."""
    u0 = blowup_s(1, -1.0, pde_grid)
    cfg = SolverConfig(dt=4e-4, t_end=-0.4,
                       monitor_stride=250, decompose_flag=True,
                       tube_radius=0.5)
    mons = []
    run(u0, cfg, mons.append, t0=-1.0)
    return mons


def test_step_zero_is_zero(grid):
    u = G.zero_field(1, grid)
    out, _, _ = step(u, KineticSolver(grid, 1, 1e-3))
    assert np.all(out.values == 0.0)


def test_single_step_third_order(grid):
    q = soliton_q(1, grid)
    dts = np.array([2e-2, 1e-2, 5e-3])
    errs = []
    for dt in dts:
        out, _, _ = step(q, KineticSolver(grid, 1, float(dt)))
        d = out.with_values(out.values - q.values, decay=None)
        errs.append(G.l2(d))
    slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
    assert slope > 2.7


def test_stability_guard(pde_grid):
    u = blowup_s(1, -0.4, pde_grid)
    with pytest.raises(StabilityGuardTripped):
        step(u, KineticSolver(pde_grid, 1, 0.5))


def test_stability_guard_trips_on_nonfinite_potential(grid):
    # |u|^2 overflows, so the potential is NaN and dt*max|V| > 1 is False
    u = RadialField(1, np.full(grid.n, 1e200 + 0j), grid)
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.isnan(potential(u)).any()
        with pytest.raises(StabilityGuardTripped):
            step(u, KineticSolver(grid, 1, 1e-3))


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
    cfg = SolverConfig(dt=1e-3, t_end=1.0, monitor_stride=100)
    mons = []
    traj = run(q, cfg, mons.append)
    mass = traj.series["mass"]
    energy = traj.series["energy"]
    assert np.max(np.abs(mass - mass[0])) / mass[0] < 1e-8
    # E[Q] = 0; drift measured on the absolute scale of the mass
    assert np.max(np.abs(energy - energy[0])) < 1e-4
    assert traj.stop_reason == "t_end"
    # static reference: errors flat at the discretization floor
    rep = [validate_exact(mon, lambda t: q) for mon in mons]
    assert np.max(rep) < 2e-4


def test_phase_convention_consistency(grid):
    gamma0 = 0.8
    q = soliton_q(1, grid)
    u0 = q.with_values(np.exp(1j * gamma0) * q.values)
    cfg = SolverConfig(dt=1e-3, t_end=0.3, monitor_stride=100)
    mons = []
    run(u0, cfg, mons.append)
    rep = [validate_exact(mon, lambda t: u0) for mon in mons]
    assert np.max(rep) < 2e-4


def test_virial_identities(grid):
    y = grid.r
    vals = 1.2 * y * np.exp(-(y**2)) * np.exp(0.5j * y**2)
    u0 = RadialField(1, vals, grid, decay=None)
    cfg = SolverConfig(dt=2e-4, t_end=0.2, monitor_stride=25)
    traj = run(u0, cfg, discard)
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


def test_s_tracking(s_mons, pde_grid):
    rep = [validate_exact(mon, lambda t: blowup_s(1, t, pde_grid))
           for mon in s_mons]
    assert np.max(rep) < 1e-3
    # error growth past the first monitor is smooth: no phase-slip jumps
    assert np.max(np.abs(np.diff(rep[1:]))) < 2e-4


def test_s_decomposition_tracking(s_mons):
    for mon in s_mons:
        assert mon.d.converged
        assert abs(mon.d.state.lam / abs(mon.t) - 1.0) < 0.02
        assert abs(mon.d.state.b / abs(mon.t) - 1.0) < 0.05


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
        phase = None
        for _ in range(int(round(0.2 / dt))):
            u, phase, _ = step(u, kin, sponge_factor=np.exp(-dt * sp),
                               phase=phase)
        finals.append(u.values)
    d1 = G.l2_samples(grid, finals[0] - finals[1])
    d2 = G.l2_samples(grid, finals[1] - finals[2])
    assert 3.0 < d1 / d2 < 5.0


def _classic_strang_step(u, dt, kin, damping):
    """Reference Strang step with both half phases computed afresh: two
    potentials and two exponentials, the sponge right after the kinetic
    solve."""
    vals = np.exp(-0.5j * dt * potential(u)) * u.values
    vals = damping * kin.solve(vals)
    mid = u.with_values(vals, decay=None)
    return u.with_values(np.exp(-0.5j * dt * potential(mid)) * vals,
                         decay=None)


def test_fsal_chain_matches_classic_strang(grid):
    dt = 1e-3
    kin = KineticSolver(grid, 1, dt)
    damping = np.exp(-dt * sponge_profile(grid))
    ref = fsal = blowup_s(1, -1.0, grid)
    phase = None
    for _ in range(300):
        ref = _classic_strang_step(ref, dt, kin, damping)
        fsal, phase, _ = step(fsal, kin, sponge_factor=damping, phase=phase)
    err = G.l2_samples(grid, fsal.values - ref.values) / G.l2(ref)
    assert err < 1e-11


def test_run_computes_one_potential_per_step(grid, monkeypatch):
    calls = []

    def counted(u):
        calls.append(1)
        return potential(u)

    monkeypatch.setattr(evolve, "potential", counted)
    cfg = SolverConfig(dt=1e-3, t_end=0.05, monitor_stride=20)
    mons = []
    traj = run(soliton_q(1, grid), cfg, mons.append)
    assert traj.stop_reason == "t_end"
    # FSAL: the leading half of the first step, then one per step
    assert len(calls) == 50 + 1
    assert mons[0].margin is None
    assert all(0.0 < mon.margin <= 1.0 for mon in mons[1:])


def _reference_potential(u):
    """V[u] from gauge_fields, a_t and the field's own density."""
    a_theta = GA.gauge_fields(u)
    r, m = u.grid.r, u.m
    dens = np.abs(u.values) ** 2
    return (((m + a_theta) ** 2 - m**2) / r**2 + GA.a_t(u, dens, a_theta)
            - dens)


def _reference_chain(u, dt, stride, steps):
    """The FSAL chain written plainly: np.exp phases, the sponge factor on
    every node and a RadialField for each mid-step state; the states at t0
    and every stride steps."""
    kin = KineticSolver(u.grid, u.m, dt)
    damping = np.exp(-dt * sponge_profile(u.grid))
    phase = np.exp(-0.5j * dt * _reference_potential(u))
    ref = [u]
    for k in range(1, steps + 1):
        vals = damping * kin.solve(phase * u.values)
        mid = u.with_values(vals, decay=None)
        phase = np.exp(-0.5j * dt * _reference_potential(mid))
        u = u.with_values(phase * vals, decay=None)
        if k % stride == 0:
            ref.append(u)
    return ref


def test_run_snapshots_match_reference_chain_bit_for_bit(grid):
    dt, stride = 1e-3, 5
    u = blowup_s(1, -1.0, grid)
    cfg = SolverConfig(dt=dt, t_end=-0.95, monitor_stride=stride)
    mons = []
    traj = run(u, cfg, mons.append, t0=-1.0)
    assert traj.stop_reason == "t_end" and traj.counters["steps"] == 50
    ref = _reference_chain(u, dt, stride, 50)
    assert len(mons) == len(ref) == 11
    for mon, want in zip(mons, ref):
        assert np.array_equal(mon.u.values, want.values)


def test_forked_stepper_gives_the_in_process_run_bit_for_bit(grid):
    # with decompositions the steps run in a forked process; its states
    # and rows are those of the in-process run and the plain chain
    dt, stride = 1e-3, 5
    u = blowup_s(1, -1.0, grid)
    plain = run(u, SolverConfig(dt=dt, t_end=-0.95,
                                monitor_stride=stride), discard, t0=-1.0)
    cfg = SolverConfig(dt=dt, t_end=-0.95, monitor_stride=stride,
                       decompose_flag=True, tube_radius=0.5)
    mons = []
    traj = run(u, cfg, mons.append, t0=-1.0)
    assert traj.stop_reason == "t_end"
    assert traj.counters["steps"] == plain.counters["steps"] == 50
    assert mons[0].u is u
    ref = _reference_chain(u, dt, stride, 50)
    assert len(mons) == len(ref) == 11
    for mon, want in zip(mons, ref):
        assert np.array_equal(mon.u.values, want.values)
        assert mon.d.converged
    assert list(traj.series) == list(plain.series)
    for key, column in plain.series.items():
        assert np.array_equal(traj.series[key], column), key


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("node", [0, 2000, -1])
def test_nonfinite_state_trips_the_guard(grid, monkeypatch, bad, node):
    original = KineticSolver.solve
    calls = []

    def solve(self, v):
        x = original(self, v)
        calls.append(1)
        if len(calls) == 8:
            x[node] = bad
        return x

    monkeypatch.setattr(KineticSolver, "solve", solve)
    cfg = SolverConfig(dt=1e-3, t_end=0.05, monitor_stride=5)
    mons = []
    with np.errstate(invalid="ignore"):
        traj = run(soliton_q(1, grid), cfg, mons.append)
    assert traj.stop_reason == "stability-guard"
    assert traj.counters["steps"] == 7
    assert not traj.error.margin <= 1.0
    assert str(StabilityGuardTripped(traj.error.margin)) == \
        "stability-guard-tripped: non-finite state"
    # the last good state is kept as a final monitor, and all are finite
    assert mons[-1].t == pytest.approx(7e-3)
    for mon in mons:
        assert np.all(np.isfinite(mon.u.values))


def test_guard_trip_stays_the_reason_when_the_last_state_fails(
        grid, monkeypatch):
    # steps 1-7 pass and the 8th trips the guard; the decomposition of the
    # last good state (t = 7e-3, the third) raises NotInTube
    original_solve, original_decompose = KineticSolver.solve, MOD.decompose
    solves, decomps = [], []

    def solve(self, v):
        x = original_solve(self, v)
        solves.append(1)
        if len(solves) == 8:
            x[2000] = math.nan
        return x

    def decompose(*args, **kwargs):
        decomps.append(1)
        if len(decomps) == 3:
            raise MOD.NotInTube("not-in-tube: relative H1 distance 0.9")
        return original_decompose(*args, **kwargs)
    monkeypatch.setattr(KineticSolver, "solve", solve)
    monkeypatch.setattr(MOD, "decompose", decompose)
    cfg = SolverConfig(dt=1e-3, t_end=0.05, monitor_stride=5,
                       decompose_flag=True, tube_radius=0.5)
    mons = []
    with np.errstate(invalid="ignore"):
        traj = run(soliton_q(1, grid), cfg, mons.append)
    assert traj.stop_reason == "stability-guard"
    assert isinstance(traj.error, StabilityGuardTripped)
    assert [mon.t for mon in mons] == pytest.approx([0.0, 5e-3])
    assert len(traj.series["t"]) == 2


@pytest.mark.parametrize("case", ["S", "Q", "zero", "negative", "mixed"])
def test_half_phase_is_exp_bit_for_bit(grid, monkeypatch, case):
    u = soliton_q(1, grid)
    v_pot = {
        "S": lambda: potential(blowup_s(1, -1.0, grid)),
        "Q": lambda: potential(u),
        "zero": lambda: np.resize([0.0, -0.0], grid.n),
        "negative": lambda: -50.0 / (1.0 + grid.r),
        "mixed": lambda: np.random.default_rng(5).uniform(-1e3, 1e3, grid.n),
    }[case]()
    monkeypatch.setattr(evolve, "potential", lambda field: v_pot)
    peak = float(np.max(np.abs(v_pot)))
    # the last dt puts the largest |theta| = dt/2 max|V| just below 0.5
    dts = [1e-3, 4e-4] + ([0.999 / peak] if peak > 0.0 else [])
    for dt in dts:
        phase, margin = evolve.half_phase(u, dt)
        assert margin == dt * peak <= 1.0
        assert phase.tobytes() == np.exp(-0.5j * dt * v_pot).tobytes(), dt


@pytest.fixture(scope="module")
def warm_mons(grid):
    """S from t = -1 with a decomposition every 5 steps: 12 monitors."""
    cfg = SolverConfig(dt=1e-3, t_end=-0.945, monitor_stride=5,
                       decompose_flag=True, tube_radius=0.5)
    mons = []
    run(blowup_s(1, -1.0, grid), cfg, mons.append, t0=-1.0)
    return mons


def test_predicted_warm_starts_take_two_pairings(warm_mons):
    iters = [mon.d.iterations for mon in warm_mons]
    assert len(iters) == 12
    # from the fourth monitor on, the start is a quadratic extrapolation
    assert all(k <= 2 for k in iters[3:]), iters


def test_predicted_start_agrees_with_cold_decomposition(warm_mons):
    u, warm = warm_mons[-1].u, warm_mons[-1].d
    cold = MOD.decompose(u, tube_radius=0.5)
    assert cold.converged and warm.converged
    assert cold.iterations > warm.iterations
    for k in ("lam", "gamma", "b"):
        assert getattr(warm.state, k) == pytest.approx(
            getattr(cold.state, k), rel=1e-10, abs=0.0)
    # the monitor's energy gives the same mu as decompose's own
    assert cold.mu == MOD.decompose(u, tube_radius=0.5,
                                    energy=GA.energy_mass(u)[0]).mu


def test_run_memory_does_not_grow_with_monitors(grid):
    # the run keeps no monitor, so the tracemalloc peak of a decomposed S
    # run does not grow with its number of monitors
    u0 = blowup_s(1, -1.0, grid)

    def peak(monitors):
        cfg = SolverConfig(dt=1e-3,
                           t_end=-1.0 + 5e-3 * (monitors - 1),
                           monitor_stride=5, decompose_flag=True,
                           tube_radius=0.5)
        tracemalloc.start()
        try:
            traj = run(u0, cfg, discard, t0=-1.0)
            assert len(traj.series["t"]) == monitors
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    peak(2)  # fills the T-table and profile caches
    assert abs(peak(60) - peak(10)) < 2**20


def test_lambda_min_stop(pde_grid):
    u0 = blowup_s(1, -1.0, pde_grid)
    cfg = SolverConfig(dt=4e-4, t_end=-0.4, lambda_min=0.93,
                       monitor_stride=50, decompose_flag=True,
                       tube_radius=0.5)
    mons = []
    traj = run(u0, cfg, mons.append, t0=-1.0)
    assert traj.stop_reason == "lambda_min"
    assert mons[-1].t < -0.85
    assert mons[-1].d.state.lam < 0.93


def test_lambda_min_stop_without_t_end_ends_the_stepper(grid):
    # the stepper process would step forever; the stop ends it at once
    cfg = SolverConfig(dt=1e-3, lambda_min=0.993,
                       monitor_stride=5, decompose_flag=True,
                       tube_radius=0.5)
    mons = []
    traj = run(blowup_s(1, -1.0, grid), cfg, mons.append, t0=-1.0)
    assert multiprocessing.active_children() == []
    assert traj.stop_reason == "lambda_min"
    assert [mon.t for mon in mons] == pytest.approx([-1.0, -0.995, -0.99])
    assert traj.counters["steps"] == 10
    assert mons[-1].d.state.lam < 0.993 < mons[-2].d.state.lam


def _slow_decompose(monkeypatch, last, outcome):
    """Patches modulation.decompose to take 50 ms, which lets the stepper
    run ahead, and to give outcome(d) at its call number `last`."""
    original, calls = MOD.decompose, []

    def decompose(*args, **kwargs):
        calls.append(1)
        time.sleep(0.05)
        d = original(*args, **kwargs)
        return outcome(d) if len(calls) == last else d
    monkeypatch.setattr(MOD, "decompose", decompose)


def _fail(d):
    raise MOD.NotInTube("not-in-tube: relative H1 distance 0.9")


def _unconverged(d):
    return dataclasses.replace(d, converged=False)


@pytest.mark.parametrize("outcome, stop", [
    (_fail, "decomposition-failed"), (_unconverged, "no-convergence")])
def test_steps_past_the_stop_are_not_counted(grid, monkeypatch, outcome,
                                             stop):
    # the third decomposition (t = -0.99) stops the run: the steps count up
    # to it, as when the run stepped only after each decomposition
    _slow_decompose(monkeypatch, 3, outcome)
    cfg = SolverConfig(dt=1e-3, t_end=-0.9, monitor_stride=5,
                       decompose_flag=True, tube_radius=0.5)
    mons = []
    traj = run(blowup_s(1, -1.0, grid), cfg, mons.append, t0=-1.0)
    assert traj.stop_reason == stop
    assert traj.counters["steps"] == 10
    assert len(traj.series["t"]) == len(mons) == (2 if outcome is _fail
                                                  else 3)


def test_an_error_in_the_sink_ends_the_stepper(grid):
    def sink(mon):
        if mon.t > -1.0:
            raise KeyError("unexpected")
    cfg = SolverConfig(dt=1e-3, t_end=-0.9, monitor_stride=5,
                       decompose_flag=True, tube_radius=0.5)
    with pytest.raises(KeyError):
        run(blowup_s(1, -1.0, grid), cfg, sink, t0=-1.0)
    assert multiprocessing.active_children() == []


def _not_in_tube():
    exc = MOD.NotInTube("not-in-tube: relative H1 distance 0.9")
    exc.iterations = 3
    return exc


@pytest.mark.parametrize("failure", [
    LinAlgError("Crank-Nicolson solve failed: info = 7"), _not_in_tube()])
def test_an_error_in_the_stepper_is_raised_with_its_type(grid, monkeypatch,
                                                         failure):
    original, calls = KineticSolver.solve, []

    def solve(self, v):
        calls.append(1)
        if len(calls) == 8:
            raise failure
        return original(self, v)
    monkeypatch.setattr(KineticSolver, "solve", solve)
    cfg = SolverConfig(dt=1e-3, t_end=-0.9, monitor_stride=5,
                       decompose_flag=True, tube_radius=0.5)
    with pytest.raises(type(failure)) as info:
        run(blowup_s(1, -1.0, grid), cfg, discard, t0=-1.0)
    assert info.value is not failure  # it came through the pipe
    assert str(info.value) == str(failure)
    assert getattr(info.value, "iterations", None) == getattr(
        failure, "iterations", None)
    assert calls == []  # the solves ran in the stepper process


_KILLED_IN_ITS_SINK = """
import multiprocessing, os, signal
from csslab.evolve import SolverConfig, run
from csslab.grid import build_grid
from csslab.soliton import soliton_q

def sink(mon):
    print(multiprocessing.active_children()[0].pid, flush=True)
    os.kill(os.getpid(), signal.SIGKILL)

run(soliton_q(1, build_grid(n=4096)),
    SolverConfig(dt=1e-3, t_end=1e3, monitor_stride=1, decompose_flag=True),
    sink)
"""


def _ended(pid: int) -> bool:
    """Whether process pid has exited: it is gone or a zombie."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return True
    return stat.rpartition(")")[2].split()[0] == "Z"


def test_the_stepper_ends_when_its_caller_is_killed():
    # the caller dies by SIGKILL at its first monitor, while the stepper,
    # which would step for 1e6 steps, waits on a full pipe: it has closed
    # its copy of the caller's end, so its next send fails and it ends
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(evolve.__file__).parents[1]),
         os.environ.get("PYTHONPATH", "")]))
    caller = subprocess.Popen([sys.executable, "-c", _KILLED_IN_ITS_SINK],
                              env=env, stdout=subprocess.PIPE, text=True)
    with caller.stdout:
        pid = int(caller.stdout.readline())
    try:
        assert caller.wait(timeout=60) == -signal.SIGKILL
        deadline = time.monotonic() + 10.0
        while not _ended(pid) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert _ended(pid)
    finally:
        if not _ended(pid):
            os.kill(pid, signal.SIGKILL)


@pytest.mark.parametrize("margin", [1.5, math.nan, math.inf])
def test_guard_trip_survives_a_pickle(margin):
    exc = pickle.loads(pickle.dumps(StabilityGuardTripped(margin)))
    assert type(exc) is StabilityGuardTripped
    assert exc.margin == margin or math.isnan(exc.margin) and math.isnan(
        margin)
    assert str(exc) == str(StabilityGuardTripped(margin))


def test_config_validation(grid):
    with pytest.raises(ValueError):
        SolverConfig(dt=-1e-3, t_end=1.0)
    with pytest.raises(ValueError):
        SolverConfig(dt=1e-3)
    with pytest.raises(ValueError):
        SolverConfig(dt=1e-3, lambda_min=0.5)
    for lam in (math.nan, 0.0, -1.0):  # a stop rule that never fires
        with pytest.raises(ValueError, match="lambda_min must be positive"):
            SolverConfig(dt=1e-3, lambda_min=lam, decompose_flag=True)


@pytest.mark.parametrize("strides", [{"monitor_stride": 0},
                                     {"monitor_stride": -3}])
def test_config_rejects_nonpositive_strides(grid, strides):
    # a zero monitor stride never advances t
    with pytest.raises(ValueError, match="stride"):
        SolverConfig(dt=1e-3, t_end=1.0, **strides)
