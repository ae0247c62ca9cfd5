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

The steps are chained in first-same-as-last (FSAL) form: the sponge damps
right after the kinetic solve, so the trailing half phase of step k sees
the same |u| as the leading half of step k+1, and one potential and one
phase exponential serve both. A run computes one potential per step, plus
one for the leading half of its first step. The phase factor is written
as cos(theta) + i sin(theta) into the real and imaginary parts of one
array, which gives the bits of the complex exponential at less cost.

Boundary treatment: the regularity condition u/r^m bounded at r_min is
imposed as the power-law constraint u_0 = e^{-m h} u_1; homogeneous
Dirichlet at r_max with sponge damping on the last 5% of nodes. A run
multiplies by the damping factor on those nodes only: it is exactly 1.0
on all the others.

With decompose_flag or a snapshot writer, a run steps in one forked process
that writes the snapshots and streams each monitor's state and row ahead to
the caller, which decomposes and stops it.
"""

from __future__ import annotations

import math
import time
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError
from scipy.linalg.lapack import zgbtrf, zgbtrs

from . import gauge as GA
from . import grid as G
from . import modulation as MOD
from .grid import Grid, RadialField


SPONGE_STRENGTH = 2.0  # peak damping rate of the sponge


class StabilityGuardTripped(RuntimeError):
    """dt*max|V| of a potential was not <= 1; margin holds that value,
    which is not finite when the state went non-finite."""

    def __init__(self, margin: float):
        why = (f"dt*max|V| = {margin:.3g} > 1" if math.isfinite(margin)
               else "non-finite state")
        super().__init__(f"stability-guard-tripped: {why}")
        self.margin = margin

    def __reduce__(self):  # pickled as its margin, not its message
        return type(self), (self.margin,)


@dataclass(frozen=True)
class SolverConfig:
    dt: float
    t_end: float | None = None
    lambda_min: float | None = None
    monitor_stride: int = 20
    decompose_flag: bool = False
    tube_radius: float = 0.2

    def __post_init__(self):
        if not (0 < self.dt < math.inf):
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if self.t_end is not None and not math.isfinite(self.t_end):
            raise ValueError(f"t_end must be finite, got {self.t_end}")
        if self.t_end is None and self.lambda_min is None:
            raise ValueError("stop rule required: t_end or lambda_min")
        if self.lambda_min is not None and not self.decompose_flag:
            raise ValueError("lambda_min stop rule requires decompose_flag")
        if self.lambda_min is not None and not 0.0 < self.lambda_min < math.inf:
            raise ValueError("lambda_min must be positive and finite, got "
                             f"{self.lambda_min}")  # NaN never stops a run
        if self.monitor_stride < 1:
            raise ValueError("monitor_stride must be >= 1")
        if not 0.0 < self.tube_radius < math.inf:  # NaN would pass dist >= it
            raise ValueError("tube_radius must be positive and finite, got "
                             f"{self.tube_radius}")

    def reached(self, t: float) -> bool:
        """Whether a run at time t has reached t_end."""
        return self.t_end is not None and t >= self.t_end - 1e-12


@dataclass(frozen=True)
class Monitor:
    """One monitor of a run: its time t, state u, tube decomposition d
    (None without decompose_flag) and the largest dt*max|V| of the segment
    it closes (None for the first monitor)."""
    t: float
    u: RadialField
    d: MOD.DecompResult | None
    margin: float | None


@dataclass
class Trajectory:
    series: dict  # the monitors.csv columns, one entry per monitor
    stop_reason: str
    error: Exception | None  # the typed failure that ended the run
    timings: dict  # perf_counter seconds by phase of the run
    counters: dict  # steps, KineticSolver factorizations, Newton iterations
    written: list | OSError  # the snapshots' bytes, or the error of a write


def potential(u: RadialField) -> np.ndarray:
    """V[u] = ((m + A_theta)^2 - m^2)/r^2 + A_t - |u|^2."""
    dens = np.abs(u.values) ** 2
    a_theta = GA.gauge_fields(u, dens)
    r, m = u.grid.r, u.m
    return (((m + a_theta) ** 2 - m**2) / r**2 + GA.a_t(u, dens, a_theta)
            - dens)


class KineticSolver:
    """Crank-Nicolson propagator for i d_t u + Delta^(m) u = 0 on the
    geometric grid, built once per (grid, m, dt)."""

    def __init__(self, grid: Grid, m: int, dt: float):
        self.grid, self.m, self.dt = grid, m, dt
        n, h = grid.n, grid.h
        # second-derivative bands in x (offsets -2..2); centered 4th order
        # in the interior, centered 2nd order one node from each edge
        c4 = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / (12.0 * h * h)
        c2 = np.array([0.0, 1.0, -2.0, 1.0, 0.0]) / (h * h)
        bands = np.repeat(c4[:, None], n, axis=1)
        bands[:, [1, n - 2]] = c2[:, None]
        # Delta^(m) = r^{-2}(d_xx - m^2)
        w = 1.0 / grid.r**2
        self.a_bands = bands * w
        self.a_bands[2] -= m * m * w
        z = 0.5j * dt
        # LHS = I - z Delta, RHS = I + z Delta (rows as banded matrices)
        lhs, rhs = -z * self.a_bands, z * self.a_bands
        lhs[2] += 1.0
        rhs[2] += 1.0
        # boundary rows: u_0 = e^{-m h} u_1 (regularity), u_{n-1} = 0
        lhs[:, [0, n - 1]] = rhs[:, [0, n - 1]] = 0.0
        lhs[2, 0] = 1.0
        lhs[3, 0] = -math.exp(-m * h)  # band row for element (0, 1)
        lhs[2, n - 1] = 1.0
        self.rhs_bands = rhs
        # LAPACK band storage with (kl, ku) = (2, 2):
        # ab[kl + ku + i - j, j] = a[i, j]; the top kl rows take the fill-in
        # of the pivoted factorization
        ab = np.zeros((7, n), dtype=np.complex128)
        for off in range(-2, 3):
            # element (j - off, j) is lhs[2 + off, j - off], for 0 <= j - off < n
            lo, hi = max(off, 0), n + min(off, 0)
            ab[4 - off, lo:hi] = lhs[2 + off, lo - off:hi - off]
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


def sponge_start(grid: Grid) -> int:
    """The first node of the sponge's support, the last 5% of nodes."""
    return int(math.floor(0.95 * grid.n))


def sponge_profile(grid: Grid) -> np.ndarray:
    """Damping rate supported on the last 5% of nodes, a quartic ramp up
    to SPONGE_STRENGTH."""
    n = grid.n
    n0 = sponge_start(grid)
    sigma = np.zeros(n)
    z = (np.arange(n0, n) - n0) / max(n - 1 - n0, 1)
    sigma[n0:] = SPONGE_STRENGTH * z**4
    return sigma


def half_phase(u: RadialField, dt: float) -> tuple[np.ndarray, float]:
    """The half-step phase factor exp(-i dt/2 V[u]) and the guard margin
    dt*max|V|, which must be <= 1. The factor is built as cos(theta) +
    i sin(theta), theta = (-dt/2) V: the bits of np.exp(-0.5j*dt*V),
    whose exponent has the real part +0.0, at less cost."""
    v_pot = potential(u)
    margin = dt * float(np.max(np.abs(v_pot)))
    if not (margin <= 1.0):  # also trips on a non-finite potential
        raise StabilityGuardTripped(margin)
    # + 0.0 makes theta +0.0 where V is +-0.0, as the exponent has it
    theta = (-0.5 * dt) * v_pot + 0.0
    phase = np.empty(theta.shape, dtype=np.complex128)
    np.cos(theta, out=phase.real)
    np.sin(theta, out=phase.imag)
    return phase, margin


def step(u: RadialField, kinetic: KineticSolver,
         sponge_factor: np.ndarray | None = None,
         phase: np.ndarray | None = None
         ) -> tuple[RadialField, np.ndarray, float]:
    """One Strang-split step of size kinetic.dt in FSAL form. `phase` is the
    leading half-phase factor, the trailing one returned by the previous
    step (None computes it from u). sponge_factor, the damping
    exp(-dt * sponge_profile) of the last sponge_factor.size nodes, is
    applied right after the kinetic solve. Returns the new state, its
    half-phase factor for the next step, and the largest guard margin
    dt*max|V| of the potentials computed here. A non-finite value after
    the kinetic solve trips the guard, through its potential."""
    dt = kinetic.dt
    margin = 0.0
    if phase is None:
        phase, margin = half_phase(u, dt)
    vals = kinetic.solve(phase * u.values)
    if sponge_factor is not None:
        tail = vals[vals.size - sponge_factor.size:]
        np.multiply(sponge_factor, tail, out=tail)
    # the guard on the mid-step potential takes over the finiteness check
    phase, margin2 = half_phase(u.with_values_unchecked(vals, decay=None), dt)
    return u.with_values(phase * vals, decay=None), phase, max(margin, margin2)


def _stream(conn, ours, records) -> None:
    """_forked's process: sends each record, then None or the exception."""
    ours.close()  # its copy, so that the caller's going is EPIPE on conn
    try:
        for item in records:
            conn.send(item)
        conn.send(None)
    except BrokenPipeError:  # the caller has gone
        pass
    except Exception as exc:  # raised again by the caller
        conn.send(exc)


def _forked(records):
    """Yields and raises what the generator `records` does, run ahead in a
    forked process by what the pipe buffer holds; closing ends it at once."""
    import multiprocessing  # loaded by a run that forks
    ctx = multiprocessing.get_context("fork")
    ours, theirs = ctx.Pipe()
    proc = ctx.Process(target=_stream, args=(theirs, ours, records))
    proc.start()
    theirs.close()
    try:
        while (item := ours.recv()) is not None:
            if isinstance(item, Exception):
                raise item
            yield item
    finally:
        proc.terminate()  # at an early stop it is still stepping
        ours.close()
        proc.join()


def _segments(u0: RadialField, t0: float, config: SolverConfig,
              kin: KineticSolver, damping: np.ndarray, write):
    """The FSAL steps of a run, monitor_stride at a time up to t_end or a
    guard trip. Yields (t, values, row, margin, taken, trip, step_s, row_s)
    at t0 (values, margin None) and after each segment: the state, its
    conservation row (None if a trip left no new state), the segment's
    largest guard margin, steps, trip and seconds of steps and row. With
    write, each one with a row is followed by (bytes or OSError, seconds)
    of write(state); an OSError ends the writes."""
    u, t, phase = u0, t0, None
    margin, taken, trip, step_s = None, 0, None, 0.0
    while True:
        clock = time.perf_counter()
        row = None
        if taken or margin is None:
            row = (t, *GA.monitor_row(u))
        yield (t, u.values if taken else None, row, margin, taken, trip,
               step_s, time.perf_counter() - clock)
        if write is not None and row is not None:
            clock = time.perf_counter()
            try:
                size = write(u)
            except OSError as exc:
                size, write = exc, None
            yield size, time.perf_counter() - clock
        if trip is not None or config.reached(t):
            return
        margin, taken = 0.0, 0
        clock = time.perf_counter()
        try:
            for _ in range(config.monitor_stride):
                u, phase, worst = step(u, kin, sponge_factor=damping,
                                       phase=phase)
                margin = max(margin, worst)
                t += config.dt
                taken += 1
                if config.reached(t):
                    break
        except StabilityGuardTripped as exc:
            trip = exc
        step_s = time.perf_counter() - clock


def run(u0: RadialField, config: SolverConfig,
        sink: Callable[[Monitor], object], t0: float = 0.0,
        write: Callable[[RadialField], int] | None = None) -> Trajectory:
    """Integrate from t0, recording a monitor every monitor_stride steps:
    its conservation/virial row in series and, optionally, a tube
    decomposition, which must succeed for the monitor to be recorded. Each
    recorded Monitor goes to sink at once and is not kept: the run holds
    series and the last three decomposed (t, state) pairs only.
    With decompose_flag or write, _segments steps in one forked process
    ahead of the decompositions done here, and calls write(state) after
    sending each state. The outcome is read here after the sink: written
    holds the bytes of each recorded write, or the first OSError, which
    ends the writes. What the process steps or writes past the stop is
    not counted; those writes are the caller's to delete.
    The first decomposition starts Newton from the cold proximity fit,
    each later one from modulation.extrapolate of the last (up to three),
    reusing the monitor's energy. An unconverged one ends the run with
    stop_reason "no-convergence", kept as the last record. A typed failure
    (modulation.DECOMPOSE_FAILURES) raises at the first monitor, which
    leaves no data, and later ends the run with "decomposition-failed". A
    tripped stability guard ends it with "stability-guard", after
    recording the last good state if a step has succeeded since the last
    monitor. error holds either failure. timings holds the perf_counter
    seconds of the steps, monitors, decompositions and snapshot writes;
    counters the steps, factorizations and Newton iterations, a failed
    one's included."""
    grid = u0.grid
    kin = KineticSolver(grid, u0.m, config.dt)
    counters = {"steps": 0, "factorizations": 1, "newton_iterations": 0}
    # the damping on the sponge's support only; it is 1.0 before it
    damping = np.exp(-config.dt * sponge_profile(grid)[sponge_start(grid):])

    series: dict = {k: [] for k in
                    ("t", "mass", "energy", "e_selfdual", "v1", "v2",
                     "u1_l2", "u2_l2")}
    recent = []  # the last decomposed (t, state) pairs, for extrapolate
    timings = {"steps": 0.0, "monitors": 0.0, "decompositions": 0.0,
               "snapshots": 0.0}
    stop, error, written = "t_end", None, []
    records = _segments(u0, t0, config, kin, damping, write)
    if config.decompose_flag or write is not None:
        records = _forked(records)
    try:
        for t, vals, row, margin, taken, trip, step_s, row_s in records:
            timings["steps"] += step_s
            counters["steps"] += taken
            if trip is not None:
                stop, error = "stability-guard", trip
            if row is None:
                break
            timings["monitors"] += row_s
            u = u0 if vals is None else u0.with_values(vals, decay=None)
            d = None
            if config.decompose_flag:
                mark = time.perf_counter()
                try:
                    d = MOD.decompose(u, init=MOD.extrapolate(recent, t),
                                      energy=row[2],
                                      tube_radius=config.tube_radius)
                except MOD.DECOMPOSE_FAILURES as exc:
                    counters["newton_iterations"] += getattr(
                        exc, "iterations", 0)  # a failed one's count too
                    if margin is None:  # the first monitor
                        raise
                    if error is None:  # a tripped guard stays the reason
                        stop, error = "decomposition-failed", exc
                    break
                finally:  # a failed decomposition's seconds count too
                    timings["decompositions"] += time.perf_counter() - mark
                counters["newton_iterations"] += d.iterations
                recent.append((t, d.state))
                del recent[:-3]
            for column, value in zip(series.values(), row):
                column.append(value)
            sink(Monitor(t, u, d, margin))
            if write is not None:
                size, seconds = next(records)
                timings["snapshots"] += seconds
                if isinstance(size, OSError):  # the process writes no more
                    written, write = size, None
                else:
                    written.append(size)
            if error is not None:
                break
            # an unconverged one neither warm-starts nor stops on lambda
            if d is not None and not d.converged:
                stop = "no-convergence"
                break
            if (config.lambda_min is not None and not config.reached(t)
                    and d.state.lam < config.lambda_min):
                stop = "lambda_min"
                break
    finally:  # ends a stepper process that runs ahead of the stop
        records.close()

    return Trajectory(series={k: np.array(v) for k, v in series.items()},
                      stop_reason=stop, error=error, timings=timings,
                      counters=counters, written=written)


def validate_exact(mon: Monitor, reference) -> float:
    """L^2 relative error of a monitor's state against a closed-form
    reference field: reference(t) -> RadialField."""
    ref = reference(mon.t)
    diff = mon.u.with_values(mon.u.values - ref.values, decay=None)
    return G.l2(diff) / G.l2(ref)
