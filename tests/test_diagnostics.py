"""Scale-invariant frames, coercivity/Hardy ratio records, modulation
residual monitors, blow-up asymptotics, and the singular-profile probe.

Frozen oracles: the definitional identities at eps2 = 0, the exact
pseudoconformal parameter laws, and the closed-form near-origin targets
-e^{i gamma*} ell^2 sqrt(2)/8 r (m = 1) and e^{i gamma*} ell^3
(sqrt(2)/64) i r^2 (m = 2)."""

import cmath
import math

import numpy as np
import pytest

from csslab import diagnostics as D
from csslab import gauge as GA
from csslab import grid as G
from csslab import linops as L
from csslab import modulation as MOD
from csslab import profiles as PR
from csslab.evolve import Monitor, SolverConfig, run
from csslab.soliton import blowup_s, modulate


@pytest.fixture(scope="module")
def s_traj(grid):
    """Short S segment with densely sampled decompositions (the stride is
    set by the beta * delta-s <= 0.01 rule at beta ~ 1): the run and its
    monitors."""
    u0 = blowup_s(1, -1.0, grid)
    cfg = SolverConfig(dt=1e-3, t_end=-0.9, monitor_stride=5,
                       decompose_flag=True, tube_radius=0.5)
    mons = []
    return run(u0, cfg, mons.append, t0=-1.0), mons


@pytest.fixture(scope="module")
def s_frames(s_traj):
    traj, mons = s_traj
    return D.frames_along(mons, traj.series)


def _zero_decomp(m, grid, lam=0.7, gamma=0.3, mu=None):
    state = MOD.ModState(lam, gamma, 0.0, 0.0)
    return MOD.DecompResult(
        state=state, eps=G.zero_field(m, grid),
        eps1=G.zero_field(m + 1, grid), eps2=G.zero_field(m + 2, grid),
        ortho_residuals=(0.0, 0.0, 0.0, 0.0),
        mu=lam if mu is None else mu,
        tube_distance=0.0, converged=True, iterations=0)


# ---------------------------------------------------------------------------
# Frames


def test_frame_definitional_identities(grid):
    d = _zero_decomp(1, grid)
    fr = D.frame(d, e_total=4.0)
    assert fr.mu == pytest.approx(1.4)
    assert fr.F_energy == 0.0
    assert fr.X2 == pytest.approx(fr.mu**2)
    assert fr.X3 == pytest.approx(fr.mu**3)
    assert fr.V72 == pytest.approx(fr.mu**3.5)


def test_frame_zero_mu(grid):
    d = _zero_decomp(1, grid)
    with pytest.raises(D.ZeroMu):
        D.frame(d, e_total=0.0)


def test_frame_lower_bounds(s_frames):
    for fr in s_frames:
        assert fr.X2 >= fr.mu**2
        assert fr.X3 >= fr.mu * fr.X2
        assert fr.V72 >= math.sqrt(fr.mu) * fr.X3


def test_frame_scale_invariance(grid):
    u = blowup_s(1, -0.8, grid)
    d1 = MOD.decompose(u, tube_radius=0.5)
    fr1 = D.frame(d1, GA.energy_mass(u)[0])
    u2 = modulate(u, 1.15, 0.0)
    d2 = MOD.decompose(u2, tube_radius=0.5)
    fr2 = D.frame(d2, GA.energy_mass(u2)[0])
    assert d2.state.lam == pytest.approx(1.15 * d1.state.lam, rel=1e-6)
    for key, tol in (("mu", 1e-6), ("beta", 1e-6), ("X2", 1e-6),
                     ("X3", 1e-3), ("V72", 1e-2), ("F_energy", 1e-3),
                     ("coercivity_ratio", 1e-6)):
        a, b = getattr(fr1, key), getattr(fr2, key)
        assert a == pytest.approx(b, rel=tol), key


def test_f_energy_coercivity(s_frames):
    # F is equivalent to ||eps2||_{H1dot}^2/mu^6 + A^2 ||eps2||^2/mu^4
    # with recorded constants c, C
    ratios = []
    for fr in s_frames:
        n2 = fr.eps_norms[2]
        denom = n2.Hdot1**2 / fr.mu**6 + D.DEFAULT_A**2 * n2.L2**2 / fr.mu**4
        ratios.append(fr.F_energy / denom)
    assert min(ratios) > 0.5
    assert max(ratios) < 2.0


def test_f_boundedness(s_frames):
    f0 = s_frames[0].F_energy
    c_rec = max(fr.F_energy for fr in s_frames) / (1.0 + f0)
    assert np.isfinite(c_rec)
    assert c_rec < 100.0


def test_h3_proxy(s_traj, s_frames):
    lam = np.array([mon.d.state.lam for mon in s_traj[1]])
    h3 = np.array([fr.eps_norms[0].calH3 for fr in s_frames])
    c_rec = np.max(h3 * (lam[0] / lam) ** 3) / s_frames[0].X3
    assert np.isfinite(c_rec)
    assert c_rec < 500.0


def test_s_ladder_monotone(s_frames):
    s = np.array([fr.s for fr in s_frames])
    assert np.all(np.diff(s) > 0)
    assert s[0] == 0.0


# ---------------------------------------------------------------------------
# Ratio records


def test_nonlinear_coercivity_interval(s_traj):
    rec = D.nonlinear_coercivity_check(s_traj[1])
    assert rec["ratio_min"] > 0.0
    assert rec["ratio_max"] / rec["ratio_min"] < 1.1
    assert rec["eps_l2_max"] < 1.0


def test_nonlinear_coercivity_excludes_soliton(grid):
    rec = D.nonlinear_coercivity_check(
        [Monitor(0.0, G.zero_field(1, grid), _zero_decomp(1, grid, mu=0.0),
                 None)])
    assert rec["n_states"] == 0
    assert math.isnan(rec["ratio_min"])


def test_hardy_chain(s_frames):
    # each eps/eps1 norm against its X2/X3/V72 dominator; at index m+1 = 2
    # the calH2 norm of eps1 is the Hardy norm || |eps1|_{-2} ||_{L2}
    for fr in s_frames:
        e, e1, _ = fr.eps_norms
        hr = {"e1_H1": e1.Hdot1 / fr.X2, "e1_H2": e1.calH2 / fr.X3,
              "e1_V52": e1.V52 / fr.V72, "e_H2": e.calH2 / fr.X2,
              "e_H3": e.calH3 / fr.X3}
        for key, val in hr.items():
            assert np.isfinite(val) and val >= 0.0, key
            assert val < 10.0, key


# ---------------------------------------------------------------------------
# Modulation-residual monitor


def _synthetic_decomps(m, grid, b0, eta0, t_end, n, use_p3=True):
    out = MOD.ode_integrate(m, MOD.ModState(1.0, 0.0, b0, eta0),
                            (0.0, t_end), use_p3=use_p3, n_eval=n)
    zero = G.zero_field(m, grid)
    zero1 = G.zero_field(m + 1, grid)
    zero2 = G.zero_field(m + 2, grid)
    decomps = []
    for i in range(len(out["t"])):
        st = MOD.ModState(float(out["lambda"][i]), float(out["gamma"][i]),
                          float(out["b"][i]), float(out["eta"][i]))
        decomps.append(Monitor(float(out["t"][i]), zero, MOD.DecompResult(
            state=st, eps=zero, eps1=zero1, eps2=zero2,
            ortho_residuals=(0.0, 0.0, 0.0, 0.0), mu=st.lam,
            tube_distance=0.0, converged=True, iterations=0), None))
    return decomps


def test_monitor_synthetic_floor(grid):
    # pure-ODE trajectory (eps = 0): residuals at the finite-difference
    # floor; hat residuals pick up exactly the dropped cubic terms
    decomps = _synthetic_decomps(1, grid, 0.05, 0.02, 0.5, 201)
    mon = D.mod_residual_monitor(decomps)
    for key in ("r1", "r2", "r3", "r4"):
        assert np.max(np.abs(mon[key])) < 1e-8, key
    beta_max = max(mon.d.state.beta for mon in decomps)
    assert np.max(np.abs(mon["r3_hat"])) < 2.0 * beta_max**3
    assert np.max(np.abs(mon["r4_hat"])) < 2.0 * beta_max**3


def test_monitor_insufficient_sampling(grid):
    decomps = _synthetic_decomps(1, grid, 0.05, 0.02, 0.5, 201)
    with pytest.raises(D.InsufficientSampling):
        D.mod_residual_monitor(decomps[:3])
    coarse = _synthetic_decomps(1, grid, 0.08, 0.0, 4.0, 9)
    with pytest.raises(D.InsufficientSampling):
        D.mod_residual_monitor(coarse)


def test_monitor_s_run(s_traj):
    mon = D.mod_residual_monitor(s_traj[1])
    assert mon["beta_ds_max"] <= 0.01
    # recorded constants of the hat-corrected estimates
    c1 = np.max(np.abs(mon["r1_hat"]) / mon["bound_hat_12"])
    c3 = np.max(np.abs(mon["r3_hat"]) / mon["bound_hat_34"])
    assert np.isfinite(c1) and c1 < 1.0
    assert np.isfinite(c3) and c3 < 1.0
    # the hat correction repairs the raw eta-law residual, which carries
    # the cubic correction far outside its validity range at b ~ 1
    assert np.max(np.abs(mon["r4_hat"])) < 0.05 * np.max(np.abs(mon["r4"]))
    assert np.max(np.abs(mon["r1"]) / mon["bound_12"]) < 1.0


def test_no_shared_array_is_written(grid, s_traj):
    # the T-table, orthogonality profiles and Morawetz weight of a grid are
    # built once and shared: decompositions, frames and monitors only read
    table = PR.build_t_tables(1, grid)
    ortho = MOD.build_ortho_profiles(1, grid)
    weight = L.morawetz_weight(D.DEFAULT_DELTA, grid)
    arrays = [*table.entries.values(), table.p3_b, table.p3_eta,
              *(z.values for z in (ortho.Z1, ortho.Z2, ortho.Z3t, ortho.Z4t)),
              weight.psi_prime, weight.psi_dprime, weight.laplacian_psi,
              weight.bilaplacian_psi]
    before = [a.tobytes() for a in arrays]
    p = G.RadialField(1, PR.assemble(table, 0.03, 0.02).p, grid, decay=3.0)
    # beta inside the chart, then beyond it
    for u in (modulate(p, 0.9, 0.4), blowup_s(1, -0.5, grid)):
        D.frame(MOD.decompose(u, tube_radius=0.5), 1.0)
    traj, mons = s_traj
    D.frames_along(mons, traj.series)
    D.mod_residual_monitor(mons)
    assert [a.tobytes() for a in arrays] == before


# ---------------------------------------------------------------------------
# Asymptotics


def test_asymptotics_exact_s():
    t = np.linspace(-1.0, -0.05, 400)
    series = {"t": t, "lambda": -t, "gamma": np.zeros_like(t),
              "b": -t, "eta": np.zeros_like(t)}
    ell, gamma_star, fits = D.asymptotics(series)
    assert ell == pytest.approx(1.0, abs=1e-12)
    assert gamma_star == 0.0
    assert abs(fits["T"]) < 1e-12
    assert fits["lambda_over_Tmt"]["mean"] == pytest.approx(1.0, abs=1e-9)
    assert fits["lambda_over_Tmt"]["relvar"] < 1e-9


def test_asymptotics_no_blowup():
    t = np.linspace(0.0, 1.0, 100)
    flat_series = {"t": t, "lambda": np.ones_like(t),
                   "gamma": np.zeros_like(t), "b": np.zeros_like(t),
                   "eta": np.zeros_like(t)}
    with pytest.raises(D.NoBlowupDetected):
        D.asymptotics(flat_series)
    shallow = {"t": t, "lambda": 1.0 - 0.1 * t, "gamma": np.zeros_like(t),
               "b": 0.1 * np.ones_like(t), "eta": np.zeros_like(t)}
    with pytest.raises(D.NoBlowupDetected):
        D.asymptotics(shallow)


# ---------------------------------------------------------------------------
# Singular-profile probe


def test_singular_targets():
    c1 = D.singular_target(1, 1.0, 0.4)
    assert abs(c1) == pytest.approx(math.sqrt(2.0) / 8.0)
    assert cmath.phase(c1 * cmath.exp(-0.4j)) == pytest.approx(math.pi)
    c2 = D.singular_target(2, 1.0, 0.4)
    assert abs(c2) == pytest.approx(math.sqrt(2.0) / 64.0)
    assert cmath.phase(c2 * cmath.exp(-0.4j)) == pytest.approx(math.pi / 2)
    assert D.singular_target(3, 1.0, 0.4) == 0.0


@pytest.fixture(scope="module")
def probe_grid():
    """Renormalized-variable grid reaching past the profile cutoff radius
    2 B1 at the smallest beta of the hybrid runs."""
    return G.build_grid(r_min=1e-4, r_max=8000.0, n=8192)


def _hybrid_probe(m, grid, probe_grid, b0=0.01):
    out = MOD.ode_integrate(m, MOD.ModState(b0, 0.0, b0, 0.0),
                            (0.0, 1.5 * b0), use_p3=True, lam_min=b0 / 20,
                            n_eval=3000)
    assert out["stop"] == "blowup-reached"
    ell, gamma_star, fits = D.asymptotics(out)
    table = PR.build_t_tables(m, probe_grid)
    mon = D.profile_monitor(out, grid, table)
    return D.singular_profile_probe(mon, ell, gamma_star), ell, fits


def test_hybrid_probe_m1(grid, probe_grid):
    rec, ell, fits = _hybrid_probe(1, grid, probe_grid)
    assert abs(ell - 1.0) < 0.01
    assert fits["lambda_over_Tmt"]["relvar"] < 0.01
    assert abs(rec["mag_ratio"] - 1.0) < 0.2
    assert abs(rec["phase_diff"]) < 0.3


def test_hybrid_probe_m2(grid, probe_grid):
    rec, ell, _ = _hybrid_probe(2, grid, probe_grid)
    assert abs(rec["mag_ratio"] - 1.0) < 0.2
    assert abs(rec["phase_diff"]) < 0.3


def test_hybrid_probe_m3_no_singular_part(grid, probe_grid):
    rec1, ell1, _ = _hybrid_probe(1, grid, probe_grid)
    rec3, ell3, _ = _hybrid_probe(3, grid, probe_grid)
    assert abs(ell3 - ell1) < 0.01  # matched ell
    assert rec3["target"] == 0.0
    assert abs(rec3["c"]) < 0.1 * abs(rec1["c"])


def test_probe_annulus_unresolved():
    out = MOD.ode_integrate(1, MOD.ModState(0.01, 0.0, 0.01, 0.0),
                            (0.0, 0.015), use_p3=True, lam_min=5e-4,
                            n_eval=500)
    coarse = G.build_grid(r_min=0.5, r_max=200.0, n=256)
    table = PR.build_t_tables(1, G.build_grid(r_min=1e-4, r_max=8000.0,
                                              n=4096))
    mon = D.profile_monitor(out, coarse, table)
    with pytest.raises(D.AnnulusUnresolved):
        D.singular_profile_probe(mon, 1.0, 0.0)
