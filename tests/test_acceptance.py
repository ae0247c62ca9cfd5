"""End-to-end acceptance battery.

One test per criterion; run with -v for a single pass/fail line each.
Every tolerance below is the stated target, not a fitted value.
"""

import math

import numpy as np
import pytest

from csslab import diagnostics as D
from csslab import gauge as GA
from csslab import grid as G
from csslab import linops as L
from csslab import modulation as MOD
from csslab import profiles as PR
from csslab.cli import suite_coercivity, suite_identities, suite_inverses
from csslab.evolve import SolverConfig, run, validate_exact
from csslab.grid import RadialField
from csslab.soliton import blowup_s, soliton_q


@pytest.fixture(scope="module")
def pde_grid():
    return G.build_grid(r_min=1e-3, r_max=100.0, n=16384)


@pytest.fixture(scope="module")
def probe_grid():
    return G.build_grid(r_min=1e-4, r_max=8000.0, n=8192)


@pytest.fixture(scope="module")
def s_mons_pde(pde_grid):
    """The monitors of the blow-up solution tracked from t = -1 to -0.4 on
    the dedicated fine grid, with per-monitor decomposition."""
    u0 = blowup_s(1, -1.0, pde_grid)
    cfg = SolverConfig(dt=4e-4, t_end=-0.4,
                       monitor_stride=250, decompose_flag=True,
                       tube_radius=0.5)
    mons = []
    run(u0, cfg, mons.append, t0=-1.0)
    return mons


def _diag_run(grid, perturb=False):
    """Short, densely decomposed segment for the dynamic-inequality
    records (the monitor stride rule needs beta * delta-s <= 0.01): the
    run and its monitors."""
    u0 = blowup_s(1, -1.0, grid)
    if perturb:
        y = grid.r
        bump = 0.01 * y * np.exp(-((y - 1.0) ** 2)) * (1.0 + 0.5j)
        u0 = u0.with_values(u0.values + bump, decay=None)
    cfg = SolverConfig(dt=1e-3, t_end=-0.9, monitor_stride=5,
                       decompose_flag=True, tube_radius=0.5)
    mons = []
    return run(u0, cfg, mons.append, t0=-1.0), mons


@pytest.fixture(scope="module")
def s_run(grid):
    return _diag_run(grid)


@pytest.fixture(scope="module")
def s_run_perturbed(grid):
    return _diag_run(grid, perturb=True)


# ---------------------------------------------------------------------------


def test_criterion_1_static_identities(grid):
    # D_QQ = 0, L_Q(Lambda Q) = 0, L_Q(iQ) = 0, A_Q(yQ) = 0,
    # L_Q(i(y^2/4)Q) = i(y/2)Q, L_Q rho = yQ/(2(m+1)); relative residuals
    # < 1e-5 on the default grid, m in {1, 2, 3}
    checks = suite_identities(grid)
    wanted = ("D_QQ", "LQ_LambdaQ", "LQ_iQ", "AQ_yQ", "LQ_iy24Q", "LQ_rho")
    for c in checks:
        if any(c["name"].startswith(w) for w in wanted):
            assert c["value"] < 1e-5, c


def test_criterion_2_closed_form_integrals(grid):
    # M[Q] = 8 pi (m+1) and A_theta[Q](inf) = -2(m+1) to 1e-6 relative;
    # ||yQ||^2 = 8 pi^2 (m = 1) to 1e-6; the mass-type constant matches its
    # quadrature to 1e-8
    for m in (1, 2, 3):
        q = soliton_q(m, grid)
        _, mass, _ = GA.energy_mass(q)
        assert abs(mass / (8.0 * math.pi * (m + 1)) - 1.0) < 1e-6
        ath_inf = float(GA.gauge_fields(q)[-1])
        assert abs(ath_inf / (-2.0 * (m + 1)) - 1.0) < 1e-6
        y = grid.r
        p_quad = float(np.real(G.integrate_dy(
            grid, (y * q.values.real) ** 2 * y, decay=2 * m + 1)))
        assert abs(p_quad / L.p_const(m) - 1.0) < 1e-8
    q1 = soliton_q(1, grid)
    yq_n2 = G.l2_samples(grid, grid.r * q1.values, decay=2) ** 2
    assert abs(yq_n2 / (8.0 * math.pi**2) - 1.0) < 1e-6


def test_criterion_3_right_inverses(grid):
    # round-trip residual < 1e-4 for all five operator kinds on a
    # 10-function battery (`verify identities` and
    # test_linops::test_j_pair_wronskian check the Wronskian defect)
    checks = suite_inverses(grid, seed=20230817)
    for c in checks:
        assert c["value"] < c["tol"], c


def test_criterion_4_morawetz_repulsivity(grid):
    # with the auto-selected delta both pointwise weight inequalities hold,
    # and over >= 50 random test fields the quadratic-form ratio has a
    # positive minimum, stable within 20% under sample doubling
    w = L.morawetz_weight(0.3, grid)
    assert w.c1 > 0.0 and w.c2 > 0.0
    checks = suite_coercivity(grid, seed=20230817, samples=50)
    for c in checks:
        assert c["pass"], c


def test_criterion_5_profile_residual_scalings(grid):
    # beta sweep {0.04, 0.02, 0.01} for m in {1, 2}: log-log slopes of the
    # residual norms at or above their formal orders (with T4);
    # cutoff-cancellation field identically zero at rounding level;
    # m = 1 solvability < 1e-6 beta^3
    betas = (0.04, 0.02, 0.01)
    for m in (1, 2):
        sweep = PR.scaling_sweep(m, betas, (1.0, 0.0), grid)
        slopes = {k: v["slope"] for k, v in sweep["slopes"].items()}
        assert slopes["psi_sup_R2"] >= 2.7
        assert slopes["psi1_L1w"] >= 3.5
        assert slopes["psi2_L2"] >= 3.6
    for beta in betas:
        field = PR.cutoff_cancellation(grid, beta, 0.0)
        chi_p = G.smooth_bump_prime(grid.r * beta)
        scale = max(beta**2 * np.abs(grid.r * chi_p).max(), 1e-300)
        assert np.abs(field).max() <= 1e-13 * scale
    table = PR.build_t_tables(1, grid)
    for beta in betas:
        for db, de in ((1.0, 0.0), (0.0, 1.0), (0.6, 0.8)):
            assert PR.solvability_inner(table, beta * db,
                                        beta * de) < 1e-6 * beta**3


def test_criterion_6_modulation_ode_vs_closed_form():
    # cubic-free runs reproduce the closed-form family to 1e-8; the ratio
    # beta^2/lambda^2 is conserved to 1e-9; the full rotational passage
    # accumulates (m+1) pi of phase to 0.1%; with m = 1 cubic corrections
    # and eta0 = 0 the ratio lambda/(T - t) settles to under 1% variation
    eta0 = 0.05
    t0, t1 = -100.0, 100.0
    for m in (1, 2):
        st = MOD.ModState(math.hypot(t0, eta0),
                          (m + 1) * math.atan(t0 / eta0), -t0, eta0)
        out = MOD.ode_integrate(m, st, (t0, t1), use_p3=False,
                                leading_order=True, lam_min=1e-6,
                                n_eval=2001)
        lam_exact = np.hypot(out["t"], eta0)
        gam_exact = (m + 1) * np.arctan(out["t"] / eta0)
        assert np.max(np.abs(out["lambda"] / lam_exact - 1.0)) < 1e-8
        assert np.max(np.abs(out["b"] + out["t"])) < 1e-8 * np.abs(t0)
        assert np.max(np.abs(out["eta"] - eta0)) < 1e-8
        assert np.max(np.abs(out["gamma"] - gam_exact)) < 1e-8 * (m + 1) \
            * math.pi
        ratio = (out["b"] ** 2 + out["eta"] ** 2) / out["lambda"] ** 2
        assert np.max(np.abs(ratio - ratio[0])) < 1e-9
        dgamma = float(out["gamma"][-1] - out["gamma"][0])
        assert abs(dgamma - (m + 1) * math.pi) < 1e-3 * (m + 1) * math.pi
    out = MOD.ode_integrate(1, MOD.ModState(1.0, 0.0, 0.05, 0.0),
                            (0.0, 50.0), use_p3=True, leading_order=True,
                            lam_min=0.05, n_eval=20001)
    assert out["stop"] == "blowup-reached"
    t, lam = out["t"], out["lambda"]
    tail = lam < 10.0 * lam[-1]
    c = np.polyfit(t[tail], lam[tail], 1)
    delta = -c[1] / c[0] - t
    last_decade = (delta > 0) & (delta < 10.0 * delta[-1]) \
        & (delta > delta[-1])
    ratio = lam[last_decade] / delta[last_decade]
    assert (ratio.max() - ratio.min()) / ratio.mean() < 0.01


def test_criterion_7_pde_validation(grid, pde_grid, s_mons_pde):
    # Q stationary with relative L2 drift < 1e-4 over unit time, mass drift
    # < 1e-8, energy drift < 1e-4; S-tracking error < 1e-3 on [-1, -0.4]
    # with the decomposition recovering lambda within 2% and b within 5%;
    # both virial identities within 1%
    q = soliton_q(1, grid)
    mons_q = []
    traj_q = run(q, SolverConfig(dt=1e-3, t_end=1.0,
                                 monitor_stride=100), mons_q.append)
    mass = traj_q.series["mass"]
    assert np.max(np.abs(mass - mass[0])) / mass[0] < 1e-8
    energy = traj_q.series["energy"]
    assert np.max(np.abs(energy - energy[0])) < 1e-4
    rep_q = [validate_exact(mon, lambda t: q) for mon in mons_q]
    assert np.max(rep_q) / G.l2(q) < 1e-4

    rep = [validate_exact(mon, lambda t: blowup_s(1, t, pde_grid))
           for mon in s_mons_pde]
    assert np.max(rep) < 1e-3
    for mon in s_mons_pde:
        assert abs(mon.d.state.lam / abs(mon.t) - 1.0) < 0.02
        assert abs(mon.d.state.b / abs(mon.t) - 1.0) < 0.05

    y = grid.r
    vals = 1.2 * y * np.exp(-(y**2)) * np.exp(0.5j * y**2)
    u0 = RadialField(1, vals, grid, decay=None)
    traj = run(u0, SolverConfig(dt=2e-4, t_end=0.2,
                                monitor_stride=25), lambda mon: None)
    t = traj.series["t"]
    v1, v2, e = traj.series["v1"], traj.series["v2"], traj.series["energy"]
    dt = t[1] - t[0]
    dv1 = (v1[2:] - v1[:-2]) / (2 * dt)
    dv2 = (v2[2:] - v2[:-2]) / (2 * dt)
    assert np.max(np.abs(dv1 - 4.0 * v2[1:-1])) < 0.01 * np.max(np.abs(4 * v2))
    assert np.max(np.abs(dv2 - 4.0 * e[1:-1])) < 0.01 * np.max(np.abs(4 * e))


def test_criterion_8_dynamic_inequality_records(s_run, s_run_perturbed):
    # recorded-constant properties along the S-run and a perturbed-S run:
    # (beta + ||eps||_{H1dot} + ||eps1||_{L2}) / mu within a fixed positive
    # interval; F(t) <= C (1 + F(t0)) with finite recorded C; the H3-type
    # norm over lambda^3 bounded; hat-corrected modulation residuals within
    # their beta^3 + beta mu^2 + mu^4 (and mu^2) envelopes with finite
    # recorded constants
    for traj, mons in (s_run, s_run_perturbed):
        rec = D.nonlinear_coercivity_check(mons)
        assert rec["ratio_min"] > 0.0
        assert np.isfinite(rec["ratio_max"])
        assert rec["ratio_max"] / rec["ratio_min"] < 2.0

        frames = D.frames_along(mons, traj.series)
        f0 = frames[0].F_energy
        c_f = max(fr.F_energy for fr in frames) / (1.0 + f0)
        assert np.isfinite(c_f) and c_f < 100.0

        lam = np.array([mon.d.state.lam for mon in mons])
        h3 = np.array([fr.eps_norms[0].calH3 for fr in frames])
        c_h3 = np.max(h3 * (lam[0] / lam) ** 3) / max(frames[0].X3, 1e-300)
        assert np.isfinite(c_h3) and c_h3 < 1e4

        mon = D.mod_residual_monitor(mons)
        assert mon["beta_ds_max"] <= 0.01
        c_hat12 = np.max((np.abs(mon["r1_hat"]) + np.abs(mon["r2_hat"]))
                         / mon["bound_hat_12"])
        c_hat34 = np.max((np.abs(mon["r3_hat"]) + np.abs(mon["r4_hat"]))
                         / mon["bound_hat_34"])
        assert np.isfinite(c_hat12) and c_hat12 < 10.0
        assert np.isfinite(c_hat34) and c_hat34 < 10.0


def test_criterion_9_singular_profile_probe(grid, probe_grid):
    # m = 1 hybrid run: near-origin linear coefficient of u - Q-sharp
    # within 20% in magnitude and 0.3 rad in phase of the closed-form
    # target; the m = 3 coefficient is below 10% of the m = 1 magnitude at
    # matched ell
    recs = {}
    for m in (1, 3):
        b0 = 0.01
        out = MOD.ode_integrate(m, MOD.ModState(b0, 0.0, b0, 0.0),
                                (0.0, 1.5 * b0), use_p3=True,
                                lam_min=b0 / 20, n_eval=3000)
        assert out["stop"] == "blowup-reached"
        ell, gamma_star, _ = D.asymptotics(out)
        table = PR.build_t_tables(m, probe_grid)
        mon = D.profile_monitor(out, grid, table)
        recs[m] = (D.singular_profile_probe(mon, ell, gamma_star), ell)
    rec1, ell1 = recs[1]
    rec3, ell3 = recs[3]
    assert abs(rec1["mag_ratio"] - 1.0) < 0.2
    assert abs(rec1["phase_diff"]) < 0.3
    assert abs(ell3 - ell1) < 0.01
    assert abs(rec3["c"]) < 0.1 * abs(rec1["c"])
