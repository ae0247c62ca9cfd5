"""Soliton orbit, modulation maps, blow-up snapshots, proximity fit.

Frozen values: Q(1) = sqrt(8)(m+1)/2, so 2*sqrt(2) for m=1; far-field
ratio Q(2r)/Q(r) -> 2^{-(m+2)}.
"""

import math

import numpy as np
import pytest

from csslab import gauge as GA
from csslab import grid as G
from csslab import soliton as S
from csslab.soliton import (ScaleOutOfRange, UnsupportedIndex, blowup_s,
                            flat, modulate, proximity_fit, pseudoconformal,
                            soliton_q)


def test_q_pointwise(grid):
    q = soliton_q(1, grid)
    i = int(np.argmin(np.abs(grid.r - 1.0)))
    # grid node nearest 1.0 may be off by O(h); evaluate exactly instead
    assert S.q_values(1, np.array([1.0]))[0] == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-15)
    assert abs(q.values[i]) == pytest.approx(S.q_values(1, grid.r[i : i + 1])[0])


@pytest.mark.parametrize("m", [1, 2, 3])
def test_q_tail_power(m):
    # Q ~ c r^{-(m+2)} for large r
    ratio = S.q_values(m, np.array([100.0]))[0] / S.q_values(m, np.array([50.0]))[0]
    assert ratio == pytest.approx(2.0 ** (-(m + 2)), rel=1e-4)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_q_field_is_q_values(grid, m):
    # one formula for Q: the field holds q_values' bits
    q = soliton_q(m, grid)
    assert np.array_equal(q.values, S.q_values(m, grid.r))
    assert q.values.dtype == np.complex128 and q.decay == m + 2


def test_q_invalid_index(grid):
    with pytest.raises(UnsupportedIndex):
        soliton_q(0, grid)


def test_modulate_refuses_a_scale_that_is_not_positive(grid):
    q = soliton_q(1, grid)
    for lam in (-1.0, 0.0, math.nan):
        with pytest.raises(ScaleOutOfRange,
                           match=f"lambda must be positive, got {lam}"):
            modulate(q, lam, 0.0)


def test_modulate_identity(grid):
    q = soliton_q(1, grid)
    out = modulate(q, 1.0, 0.0)
    assert np.max(np.abs(out.values - q.values)) < 1e-12 * np.abs(q.values).max()


def test_modulate_round_trip(grid):
    q = soliton_q(2, grid)
    p = (1.37, 0.9)
    back = flat(modulate(q, *p), *p)
    err = G.l2_samples(grid, back.values - q.values)
    assert err < 1e-8 * G.l2(q)


def test_modulate_l2_invariance(grid):
    q = soliton_q(1, grid)
    for lam in (0.5, 2.0):
        out = modulate(q, lam, 0.3)
        assert G.l2(out) == pytest.approx(G.l2(q), rel=1e-7)


def test_modulate_closed_form(grid):
    # modulate(Q) must agree with sampling the closed form directly
    q = soliton_q(1, grid)
    lam, gam = 0.73, -1.1
    out = modulate(q, lam, gam)
    expect = np.exp(1j * gam) / lam * S.q_values(1, grid.r / lam)
    assert np.max(np.abs(out.values - expect)) < 1e-8 * np.abs(expect).max()


def test_modulate_scale_guard(grid):
    # a field with no declared decay loses mass when shrunk too hard
    vals = np.ones(grid.n, dtype=complex) * grid.r / (1 + grid.r)
    f = G.RadialField(1, vals, grid)
    with pytest.raises(ScaleOutOfRange):
        modulate(f, 1e-3, 0.0)


def test_blowup_matches_modulated_q(grid):
    # S(t) = e^{-i r^2/(4|t|)} * Q^sharp with lambda = |t|
    t = -0.8
    q = soliton_q(1, grid)
    s = blowup_s(1, t, grid)
    expect = modulate(q, abs(t), 0.0).values * np.exp(
        -1j * grid.r**2 / (4.0 * abs(t)))
    assert np.max(np.abs(s.values - expect)) < 1e-8 * np.abs(s.values).max()


def test_blowup_requires_negative_time(grid):
    with pytest.raises(ScaleOutOfRange):
        blowup_s(1, 0.5, grid)


def test_blowup_mass_constant(grid):
    masses = []
    for t in (-1.0, -0.7, -0.5):
        _, M, _ = GA.energy_mass(blowup_s(1, t, grid))
        masses.append(M)
    assert np.ptp(masses) < 1e-6 * masses[0]
    assert masses[0] == pytest.approx(16.0 * math.pi, rel=1e-6)


def test_blowup_energy_scaling(grid):
    # E[S(t)] is conserved: pi^2 for every t (m=1)
    for t in (-1.0, -0.6):
        E, _, E_sd = GA.energy_mass(blowup_s(1, t, grid))
        assert E == pytest.approx(math.pi**2, rel=2e-4)
        assert E_sd == pytest.approx(math.pi**2, rel=2e-4)


def test_pseudoconformal_reproduces_blowup(grid):
    q = soliton_q(1, grid)
    for t in (-1.0, -0.5):
        cs = pseudoconformal(q, t)
        s = blowup_s(1, t, grid)
        err = np.max(np.abs(cs.values - s.values))
        assert err < 1e-9 * np.abs(s.values).max()


def test_proximity_fit_exact_orbit(grid):
    q = soliton_q(1, grid)
    for lam, gam in ((1.0, 0.0), (1.4, 0.8), (0.75, 5.9)):
        u = modulate(q, lam, gam)
        lam_hat, gamma_hat = proximity_fit(u)
        assert lam_hat == pytest.approx(lam, rel=1e-6)
        dg = (gamma_hat - gam) % (2.0 * math.pi)
        assert min(dg, 2.0 * math.pi - dg) < 1e-6


def test_proximity_fit_blowup(grid):
    # S(-0.5) is Q at scale 0.5 with a quadratic phase; the fit should land
    # within a few percent of the true scale
    s = blowup_s(1, -0.5, grid)
    lam_hat, _ = proximity_fit(s)
    assert abs(lam_hat - 0.5) < 0.05 * 0.5


def test_proximity_fit_zero_field(grid):
    with pytest.raises(ValueError):
        proximity_fit(G.zero_field(1, grid))


@pytest.mark.parametrize("zeros", [False, True])
@pytest.mark.parametrize("decay", [None, 3.0])
def test_prebuilt_sampler_gives_the_same_bits(grid, zeros, decay):
    # a zero-free field takes the amplitude/phase splines, one with a zero
    # node the re/im splines; lambda < 1 and > 1 sample past r_max and
    # below r_min
    y = grid.r
    vals = S.q_values(1, y) * np.exp(-y / 10.0 + 0.3j * y)
    if zeros:
        vals[grid.n // 3] = 0.0
    assert (np.abs(vals).min() == 0.0) == zeros
    f = G.RadialField(1, vals, grid, decay=decay)
    sample = S.sampler(f)
    for lam in (0.7, 1.6):
        p = (lam, 0.9)
        for fresh, shared in ((modulate(f, *p), modulate(f, *p, sample=sample)),
                              (flat(f, *p), flat(f, *p, sample))):
            assert fresh.values.tobytes() == shared.values.tobytes()
    assert proximity_fit(f, sample=sample) == proximity_fit(f)


def _cubic_spline_sample(f, r):
    """sampler(f) on [r_min, r_max] rebuilt with scipy's CubicSpline: the
    splines of log|f| and arg f, or of Re f and Im f if f has a zero."""
    from scipy.interpolate import CubicSpline
    a = np.abs(f.values)
    polar = a.min() > 0.0
    rows = ((np.log(a), G.smart_unwrap(f.values)) if polar
            else (f.values.real, f.values.imag))
    s1, s2 = (CubicSpline(f.grid.x, y) for y in rows)
    z = s1(np.log(r)) + 1j * s2(np.log(r))
    return np.exp(z) if polar else z


@pytest.mark.parametrize("n", [1024, 4096, 16384])
@pytest.mark.parametrize("zeros", [False, True])
def test_sampler_matches_cubic_spline_bit_for_bit(n, zeros):
    # the zero-free field takes the amplitude/phase splines; the other
    # changes sign at a node, where it is exactly 0, and takes re/im
    grid = G.build_grid(n=n)
    r = grid.r
    vals = blowup_s(1, -0.8, grid).values * np.exp(0.3j * r)
    if zeros:
        vals = vals * (r - r[n // 3])
    f = G.RadialField(1, vals, grid, decay=3.0)
    assert (np.abs(vals).min() == 0.0) == zeros
    inside = np.concatenate([r / lam for lam in np.linspace(0.3, 2.9, 7)])
    inside = inside[(inside >= grid.r_min) & (inside <= grid.r_max)]
    query = np.concatenate([inside, r, [grid.r_min, grid.r_max]])
    sample = S.sampler(f)
    assert (sample(query).view(np.uint64)
            == _cubic_spline_sample(f, query).view(np.uint64)).all()
    # outside the grid: the power law below r_min, the decay above r_max
    below = r[0] * np.linspace(0.1, 0.9, 9)
    above = r[-1] * np.linspace(1.1, 3.0, 9)
    assert np.array_equal(sample(below), vals[0] * (below / r[0]) ** 1)
    assert np.array_equal(sample(above), vals[-1] * (above / r[-1]) ** -3.0)
    assert not S.sampler(f.with_values(vals, decay=None))(above).any()


def test_proximity_fit_perturbed(grid, rng):
    q = soliton_q(1, grid)
    pert = 0.01 * grid.r * np.exp(-grid.r**2) * (rng.standard_normal() + 1j)
    u = modulate(q.with_values(q.values + pert, decay=None), 1.2, 0.4)
    lam_hat, gamma_hat = proximity_fit(u)
    assert abs(lam_hat - 1.2) < 0.02 * 1.2
    dg = (gamma_hat - 0.4) % (2.0 * math.pi)
    assert min(dg, 2.0 * math.pi - dg) < 0.02
