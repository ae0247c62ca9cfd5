"""Command-line orchestration and bit-stable report emission.

Verbs: verify (identity/inverse/coercivity/repulsivity batteries), profiles
(residual scaling sweeps), ode (modulation system runs), evolve (split-step
time integration), decompose (single-field tube decomposition), report
(blow-up asymptotics of a recorded run).

All numeric output is serialized with 17 significant digits, so identical
configurations reproduce byte-identical CSV/JSON data files. The manifest
(one per output directory) additionally records the wall time and is the
only non-reproducible file. The default output root comes from the
CSSLAB_OUTPUT_ROOT environment variable.
"""

from __future__ import annotations

import json
import math
import os
import time
from pathlib import Path

import click
import numpy as np

from . import __version__
from . import diagnostics as D
from . import gauge as GA
from . import grid as G
from . import linops as L
from . import modulation as MOD
from . import profiles as PR
from .evolve import SolverConfig, StabilityGuardTripped, run, validate_exact
from .grid import RadialField
from .soliton import ScaleOutOfRange, blowup_s, soliton_q

ENV_OUTPUT_ROOT = "CSSLAB_OUTPUT_ROOT"

# typed numerical failures that end a run with a clean CLI error
DECOMPOSE_FAILURES = (ScaleOutOfRange, MOD.NotInTube, MOD.NoConvergence)
RUN_FAILURES = (StabilityGuardTripped,) + DECOMPOSE_FAILURES

T_START = "csslab.t_start"  # ctx.meta key: when the command started
IGNORED_KEYS = "csslab.ignored_config_keys"  # ctx.meta key: see load_config


# ---------------------------------------------------------------------------
# 17-significant-digit serialization


def fmt17(x: float) -> str:
    if not math.isfinite(x):
        return '"%s"' % repr(float(x))
    s = format(float(x), ".17g")
    if "." not in s and "e" not in s and "E" not in s:
        s += ".0"
    return s


def dumps17(obj, indent: int = 0) -> str:
    """JSON with floats rendered at 17 significant digits."""
    pad = "  " * indent
    pad_in = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{pad_in}{json.dumps(str(k))}: {dumps17(v, indent + 1)}'
                 for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(obj)
        if not seq:
            return "[]"
        items = [f"{pad_in}{dumps17(v, indent + 1)}" for v in seq]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return fmt17(float(obj))
    if isinstance(obj, (complex, np.complexfloating)):
        return dumps17({"re": float(obj.real), "im": float(obj.imag)},
                       indent)
    return json.dumps(obj)


def write_json(path: Path, obj) -> None:
    path.write_text(dumps17(obj) + "\n")


def write_csv(path: Path, header: list[str], columns: list[np.ndarray]) -> None:
    np.savetxt(path, np.column_stack(columns), fmt="%.17g", delimiter=",",
               header=",".join(header), comments="")


# ---------------------------------------------------------------------------
# Configuration plumbing


def load_config(ctx: click.Context, param, path: str | None) -> None:
    """Eager --config callback: a flat file of `key = value` lines (`#`
    starts a comment, `-` in a key reads as `_`) supplies the defaults of
    the verb's options, so a flag overrides the file and the file the
    option's own default. A key naming no option of the verb is allowed (a
    file may serve several verbs), but warned about and listed in the
    manifest."""
    if path is None:
        return
    ctx.default_map = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise click.UsageError(f"config line not 'key = value': {raw!r}")
        key, val = line.split("=", 1)
        ctx.default_map[key.strip().replace("-", "_")] = val.strip()
    names = {p.name for p in ctx.command.params}
    ignored = [key for key in ctx.default_map if key not in names]
    if ignored:
        ctx.meta[IGNORED_KEYS] = ignored
        click.echo(f"Warning: config keys that name no option of "
                   f"{ctx.info_name}: {', '.join(ignored)}", err=True)


def check_index(ctx: click.Context, param, m: int) -> int:
    """--m callback: the equivariance index is refused below 1."""
    if m < 1:
        raise click.UsageError(f"--m must be at least 1, got {m}")
    return m


config_option = click.option(
    "--config", type=click.Path(exists=True, dir_okay=False), is_eager=True,
    expose_value=False, callback=load_config,
    help="File of 'key = value' lines for any option; flags override it.")
out_option = click.option("--out", default=None, help="Output directory name.")
m_option = click.option("--m", type=int, required=True, callback=check_index,
                        help="Equivariance index, at least 1.")


def parse_grid(spec: str) -> G.Grid:
    """The grid of a --grid spec; a malformed spec raises ValueError."""
    if spec == "default":
        return G.default_grid()
    kw = {}
    try:
        for part in spec.split(","):
            key, _, val = part.partition("=")
            key = key.strip()
            if key not in ("n", "r_min", "r_max"):
                raise ValueError(f"unknown grid key {key!r}")
            kw[key] = int(val) if key == "n" else float(val)
        return G.build_grid(**kw)
    except ValueError as exc:  # a malformed key or number, or a GridError
        raise ValueError(f"bad grid {spec!r}: {exc}") from None


def parse_floats(option: str, text: str, count: int | None = None) -> list[float]:
    """The comma-separated numbers of --option, exactly `count` if it is
    set; anything else raises ValueError."""
    try:
        vals = [float(x) for x in text.split(",")]
        if count is None or len(vals) == count:
            return vals
    except ValueError:
        pass
    raise ValueError(f"--{option} needs {count or 'some'} comma-separated "
                     f"numbers, got {text!r}")


def grid_id(grid: G.Grid) -> str:
    return (f"geometric:n={grid.n},r_min={grid.r_min:.17g},"
            f"r_max={grid.r_max:.17g}")


def output_dir(out: str) -> Path:
    root = Path(os.environ.get(ENV_OUTPUT_ROOT, "runs"))
    path = Path(out) if os.path.isabs(out) else root / out
    path.mkdir(parents=True, exist_ok=True)
    return path


def write_outputs(out: str | None, files: dict, grid: G.Grid | None = None,
                  command: str | None = None, error: str | None = None,
                  **resolved) -> None:
    """With --out, write the verb's JSON `files` and its manifest.json. The
    manifest's config echoes the verb's parameters in declaration order,
    without --out, holding the values the verb `resolved` in their place."""
    if out is None:
        return
    ctx = click.get_current_context()
    outdir = output_dir(out)
    for name, obj in files.items():
        write_json(outdir / name, obj)
    config = {p.name: ctx.params[p.name] for p in ctx.command.params
              if p.name in ctx.params and p.name != "out"}
    manifest = {
        "command": command or ctx.info_name,
        "config": config | resolved,
        "grid_id": grid_id(grid) if grid is not None else None,
        "seed": ctx.params.get("seed"),
        "version": __version__,
        "wall_time_s": time.perf_counter() - ctx.meta[T_START],
    }
    if IGNORED_KEYS in ctx.meta:
        manifest["ignored_config_keys"] = ctx.meta[IGNORED_KEYS]
    if error is not None:
        manifest["error"] = error
    write_json(outdir / "manifest.json", manifest)


def fail(exc: Exception, out: str | None, grid: G.Grid | None = None,
         usage: bool = False, **resolved):
    """End the command on a typed failure with a one-line error (exit 2 for
    a usage error, 1 otherwise); with --out the manifest still records the
    command, its config and the error."""
    msg = f"{type(exc).__name__}: {exc}"
    write_outputs(out, {}, grid, error=msg, **resolved)
    raise (click.UsageError if usage else click.ClickException)(msg) from exc


# ---------------------------------------------------------------------------
# verify batteries


def _battery(grid: G.Grid, rng):
    """Ten smooth compactly supported complex test fields."""
    y = grid.r
    window = G.smooth_bump(y / 5.0) * (1.0 - G.smooth_bump(y / 0.25))
    fields = []
    for k in range(10):
        c = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        poly = c[0] + c[1] * y + c[2] * y**2
        vals = y**2 * np.exp(-((y - 1.0 - 0.35 * k) ** 2)) * window * poly
        fields.append(vals)
    return fields


def _check(name: str, value: float, tol: float) -> dict:
    return {"name": name, "value": value, "tol": tol,
            "pass": bool(value < tol)}


def suite_identities(grid: G.Grid) -> list[dict]:
    checks = []
    for m in (1, 2, 3):
        q = soliton_q(m, grid)
        y = grid.r
        scale = G.hdot1(q)
        lq = L.OperatorKind("LQ", m)
        checks.append(_check(f"D_QQ_m{m}", G.l2(GA.cov_d(q, q)) / scale, 1e-5))
        checks.append(_check(f"LQ_LambdaQ_m{m}",
                             G.l2(L.apply(lq, G.scale_gen(q))) / scale, 1e-5))
        checks.append(_check(f"LQ_iQ_m{m}",
                             G.l2(L.apply(lq, q.with_values(1j * q.values)))
                             / scale, 1e-5))
        yq = RadialField(m + 1, y * q.values, grid, decay=m + 1)
        checks.append(_check(f"AQ_yQ_m{m}",
                             G.l2(L.apply(L.OperatorKind("AQ", m), yq))
                             / G.l2(yq), 1e-5))
        f = q.with_values(1j * (y**2 / 4.0) * q.values, decay=None)
        tgt = 1j * (y / 2.0) * q.values
        checks.append(_check(
            f"LQ_iy24Q_m{m}",
            G.l2_samples(grid, L.apply(lq, f).values - tgt)
            / G.l2_samples(grid, tgt), 1e-5))
        rho = L.rho(m, grid)
        tgt = y * q.values / (2.0 * (m + 1))
        checks.append(_check(
            f"LQ_rho_m{m}",
            G.l2_samples(grid, L.apply(lq, rho).values - tgt)
            / G.l2_samples(grid, tgt), 1e-5))
        _, mass, _ = GA.energy_mass(q)
        checks.append(_check(f"mass_Q_m{m}",
                             abs(mass / (8.0 * math.pi * (m + 1)) - 1.0), 1e-6))
        ath_inf = float(GA.gauge_fields(q).a_theta[-1])
        checks.append(_check(f"atheta_inf_m{m}",
                             abs(ath_inf / (-2.0 * (m + 1)) - 1.0), 1e-6))
        p_quad = float(G.integrate_dy(
            grid, (y * q.values.real) ** 2 * y, decay=2 * m + 1))
        checks.append(_check(f"p_const_m{m}",
                             abs(p_quad / L.p_const(m) - 1.0), 1e-8))
        j1, j1p, j2, j2p = L.j_pair(grid, m)
        wron = j1 * j2p - j1p * j2 - 1.0 / y
        checks.append(_check(f"wronskian_m{m}",
                             float(np.max(np.abs(wron) * y)), 1e-8))
    q1 = soliton_q(1, grid)
    yq_n2 = G.l2_samples(grid, grid.r * q1.values, decay=2) ** 2
    checks.append(_check("yQ_norm2_m1",
                         abs(yq_n2 / (8.0 * math.pi**2) - 1.0), 1e-6))
    return checks


def suite_inverses(grid: G.Grid, seed: int) -> list[dict]:
    rng = np.random.default_rng(seed)
    fields = _battery(grid, rng)
    checks = []
    for tag in ("LQ", "AQ", "AQ_star", "HQ", "HtdQ"):
        kind = L.OperatorKind(tag, 1)
        worst = 0.0
        for vals in fields:
            f = RadialField(kind.range_index, vals, grid)
            inv = L.right_inverse(kind, f, "outgoing")
            err = G.l2_samples(grid, L.apply(kind, inv).values - f.values)
            worst = max(worst, err / G.l2(f))
        checks.append(_check(f"roundtrip_{tag}", worst, 1e-4))
    return checks


def suite_coercivity(grid: G.Grid, seed: int, samples: int) -> list[dict]:
    w = L.morawetz_weight(0.3, grid)
    checks = [
        _check("repul3_c1_positive", -w.c1, 0.0),
        _check("repul3_c2_positive", -w.c2, 0.0),
    ]
    rng = np.random.default_rng(seed)

    def min_ratio(n):
        vals = []
        for _ in range(n):
            f = L.random_smooth_field(3, 1 + int(rng.integers(0, 2)), grid, rng)
            qf, v32 = L.morawetz_quadform(f, w)
            vals.append(qf / v32)
        return min(vals)

    r1 = min_ratio(samples)
    r2 = min_ratio(2 * samples)
    checks.append(_check("quadform_min_ratio_positive", -r1, 0.0))
    checks.append(_check("quadform_doubling_stability",
                         abs(r2 - r1) / r1, 0.2))
    checks.append({"name": "quadform_min_ratio", "value": r1,
                   "tol": None, "pass": True})
    return checks


def suite_morawetz(grid: G.Grid, delta: float) -> list[dict]:
    try:
        w = L.morawetz_weight(delta, grid, auto_halve=False)
    except L.RepulsivityViolated as exc:
        return [{"name": "repulsivity", "value": None, "tol": None,
                 "pass": False, "error": str(exc)}]
    return [{"name": "repulsivity", "value": None, "tol": None, "pass": True,
             "delta": w.delta, "c1": w.c1, "c2": w.c2}]


# ---------------------------------------------------------------------------
# Trajectory serialization


def write_series(outdir: Path, t, s, lam, gam, b, eta, b_hat, eta_hat):
    write_csv(outdir / "series.csv",
              ["t", "s", "lambda", "gamma", "b", "eta", "b_hat", "eta_hat",
               "beta_over_lambda"],
              [t, s, lam, gam, b, eta, b_hat, eta_hat, np.hypot(b, eta) / lam])


def write_snapshots(outdir: Path, snapshots) -> list[float]:
    snapdir = outdir / "snapshots"
    snapdir.mkdir(exist_ok=True)
    times = []
    for i, (t, u) in enumerate(snapshots):
        write_csv(snapdir / f"snap_{i:04d}.csv", ["r", "re", "im"],
                  [u.grid.r, u.values.real, u.values.imag])
        times.append(float(t))
    return times


# ---------------------------------------------------------------------------
# Commands


@click.group(context_settings={"show_default": True})
@click.version_option(version=__version__)
@click.pass_context
def main(ctx):
    """Numerical laboratory for equivariant self-dual Schroedinger
    dynamics: verification batteries, profile sweeps, modulation ODE and
    PDE runs, decompositions, and run reports."""
    ctx.meta[T_START] = time.perf_counter()


@main.command("verify")
@click.argument("suite", type=click.Choice(
    ["identities", "inverses", "coercivity", "morawetz"]))
@click.option("--grid", required=True,
              help="'default' or 'n=...,r_min=...,r_max=...'")
@click.option("--seed", type=int, default=20230817)
@click.option("--delta", type=float, default=0.3,
              help="Morawetz weight delta (morawetz suite).")
@click.option("--samples", type=int, default=50,
              help="Field count for the coercivity suite.")
@config_option
@out_option
@click.pass_context
def cmd_verify(ctx, suite, grid, seed, delta, samples, out):
    """Run a named assertion battery; exit 0 iff every check passes."""
    try:
        grid = parse_grid(grid)
    except ValueError as exc:
        fail(exc, out, usage=True)
    if suite == "identities":
        checks = suite_identities(grid)
    elif suite == "inverses":
        checks = suite_inverses(grid, seed)
    elif suite == "coercivity":
        checks = suite_coercivity(grid, seed, samples)
    else:
        checks = suite_morawetz(grid, delta)
    n_fail = sum(not c["pass"] for c in checks)
    report = {"suite": suite, "grid_id": grid_id(grid),
              "n_checks": len(checks), "n_failed": n_fail, "checks": checks}
    click.echo(dumps17(report))
    write_outputs(out, {"report.json": report}, grid,
                  command="verify " + suite)
    if n_fail:
        for c in checks:
            if not c["pass"]:
                click.echo(f"FAILED: {c['name']}: "
                           f"{c.get('error', c['value'])}", err=True)
        ctx.exit(1)


@main.command("profiles")
@m_option
@click.option("--betas", required=True, help="Comma-separated beta sweep.")
@click.option("--direction", default="1,0", help="b,eta direction, e.g. 1,0")
@click.option("--t4/--no-t4", default=True)
@click.option("--grid", required=True)
@config_option
@out_option
def cmd_profiles(m, betas, direction, t4, grid, out):
    """Residual scaling sweep of the modified profiles."""
    try:
        grid = parse_grid(grid)
        beta_list = parse_floats("betas", betas)
        if not all(0.0 < b < 0.1 for b in beta_list):
            raise ValueError("betas must lie in (0, 1/10)")
        db, de = parse_floats("direction", direction, 2)
        if not 0.0 < math.hypot(db, de) < math.inf:
            raise ValueError("--direction must be a finite nonzero vector, "
                             f"got {direction!r}")
    except ValueError as exc:
        fail(exc, out, usage=True)
    sweep = PR.scaling_sweep(m, beta_list, (db, de), grid=grid,
                             include_t4=t4)
    report = {"m": m, "betas": beta_list, "direction": [db, de],
              "include_t4": t4, "slopes": sweep["slopes"],
              "series": sweep["series"]}
    if m == 1:
        table = PR.build_t_tables(m, grid)
        norm = math.hypot(db, de)
        report["solvability"] = [
            PR.solvability_inner(m, PR.ProfileParams(b * db / norm,
                                                     b * de / norm), table)
            for b in beta_list]
    click.echo(dumps17(report))
    write_outputs(out, {"report.json": report}, grid)


@main.command("ode")
@m_option
@click.option("--eta0", type=float, required=True)
@click.option("--lam0", type=float, default=None,
              help="Initial scale (default: formal-family value).")
@click.option("--b0", type=float, default=None,
              help="Initial b (default: formal-family value -t0).")
@click.option("--window", default="-100,100", help="t0,t1")
@click.option("--p3/--no-p3", default=False)
@click.option("--phase", type=click.Choice(["auto", "leading", "profile"]),
              default="auto")
@click.option("--lam-min", type=float, default=1e-3)
@click.option("--grid", default="default")
@config_option
@out_option
def cmd_ode(m, eta0, lam0, b0, window, p3, phase, lam_min, grid, out):
    """Modulation ODE run; reports the accumulated phase."""
    try:
        t0, t1 = parse_floats("window", window, 2)
        if not (t0 != t1 and math.isfinite(t0) and math.isfinite(t1)):
            raise ValueError(
                f"--window needs two distinct finite times, got {window!r}")
        grid = parse_grid(grid)
    except ValueError as exc:
        fail(exc, out, usage=True)
    b0 = -t0 if b0 is None else b0
    lam0 = math.hypot(t0, eta0) if lam0 is None else lam0
    try:
        state0 = MOD.ModState(lam0, 0.0, b0, eta0)
    except ValueError as exc:  # an initial scale that is not positive
        fail(exc, out, usage=True, lam0=lam0, b0=b0)
    if phase == "auto":
        phase = "leading" if state0.beta >= 0.1 else "profile"
    outres = MOD.ode_integrate(m, state0, (t0, t1), grid=grid,
                               use_p3=p3,
                               leading_order=(phase == "leading"),
                               lam_min=lam_min)
    delta_gamma = float(outres["gamma"][-1] - outres["gamma"][0])
    meta = {"m": m, "eta0": eta0, "lam0": lam0, "b0": b0,
            "window": [t0, t1], "use_p3": p3, "phase": phase,
            "lam_min": lam_min, "stop": outres["stop"],
            "delta_gamma": delta_gamma,
            "delta_gamma_over_2pi": delta_gamma / (2.0 * math.pi),
            "lambda_final": float(outres["lambda"][-1])}
    if eta0 != 0.0 and not p3:
        closed = (m + 1) * (math.atan(t1 / eta0) - math.atan(t0 / eta0))
        meta["delta_gamma_closed_form"] = closed
        meta["delta_gamma_rel_err"] = abs(delta_gamma / closed - 1.0)
    click.echo(dumps17(meta))
    if out is not None:
        write_series(output_dir(out), outres["t"], outres["s"],
                     outres["lambda"], outres["gamma"], outres["b"],
                     outres["eta"], outres["b"], outres["eta"])
    write_outputs(out, {"meta.json": meta}, grid, lam0=lam0, b0=b0,
                  phase=phase)


@main.command("evolve")
@click.option("--data", type=click.Choice(["S", "Q"]), required=True)
@m_option
@click.option("--t0", type=float, required=True)
@click.option("--tend", type=float, required=True)
@click.option("--dt", type=float, default=1e-3)
@click.option("--grid", required=True)
@click.option("--monitor-stride", type=int, default=20)
@click.option("--decompose/--no-decompose", default=False)
@click.option("--tube-radius", type=float, default=0.5)
@click.option("--lambda-min", type=float, default=None)
@config_option
@out_option
def cmd_evolve(data, m, t0, tend, dt, grid, monitor_stride, decompose,
               tube_radius, lambda_min, out):
    """Split-step PDE run from a named datum."""
    try:
        grid = parse_grid(grid)
    except ValueError as exc:
        fail(exc, out, usage=True)
    try:
        u0 = blowup_s(m, t0, grid) if data == "S" else soliton_q(m, grid)
        config = SolverConfig(grid=grid, dt=dt, t_end=tend,
                              lambda_min=lambda_min,
                              monitor_stride=monitor_stride,
                              decompose_flag=decompose,
                              tube_radius=tube_radius)
    except ValueError as exc:
        fail(exc, out, grid, usage=True)
    try:
        traj = run(u0, config, t0=t0)
    except RUN_FAILURES as exc:
        fail(exc, out, grid)
    meta = {"data": data, "m": m, "t0": t0, "t_end": tend, "dt": dt,
            "stop_reason": traj.stop_reason,
            "mass_drift": float(np.max(np.abs(
                traj.series["mass"] - traj.series["mass"][0]))
                / traj.series["mass"][0]),
            "energy_drift": float(np.max(np.abs(
                traj.series["energy"] - traj.series["energy"][0])))}
    exact = (lambda t: blowup_s(m, t, grid)) if data == "S" else (lambda t: u0)
    meta["tracking_error_l2_max"] = float(np.max(
        validate_exact(traj, exact)["l2"]))
    click.echo(dumps17(meta))
    if out is not None:
        outdir = output_dir(out)
        write_csv(outdir / "monitors.csv", list(traj.series),
                  list(traj.series.values()))
        if decompose:
            td = np.array([tt for tt, _ in traj.decompositions])
            decs = [d for _, d in traj.decompositions]
            lam, gam, b, eta = (np.array([getattr(d.state, k) for d in decs])
                                for k in ("lam", "gamma", "b", "eta"))
            hats = []
            for d in decs:
                try:
                    hats.append(MOD.corrected_params(d))
                except (PR.GridTooSmall, ValueError):
                    hats.append((math.nan, math.nan))
            hats = np.array(hats)
            s = D._s_ladder(td, lam)
            write_series(outdir, td, s, lam, gam, b, eta,
                         hats[:, 0], hats[:, 1])
            meta["newton"] = {
                "iterations": [d.iterations for d in decs],
                "residual_max": [max(map(abs, d.ortho_residuals)) for d in decs],
                "converged": [d.converged for d in decs]}
        meta["snapshot_times"] = write_snapshots(outdir, traj.snapshots)
    write_outputs(out, {"meta.json": meta}, grid)


@main.command("decompose")
@click.option("--field", required=True,
              type=click.Path(exists=True, dir_okay=False),
              help="CSV with columns r,re,im on a geometric grid.")
@m_option
@click.option("--tube-radius", type=float, default=0.2)
@config_option
@out_option
def cmd_decompose(field, m, tube_radius, out):
    """Tube decomposition of a single stored field."""
    try:
        raw = np.loadtxt(field, delimiter=",", skiprows=1, ndmin=2)
        if raw.shape[1] != 3:
            raise ValueError("field CSV needs the three columns r,re,im")
        r, vals = raw[:, 0], raw[:, 1] + 1j * raw[:, 2]
        grid = G.build_grid(r_min=float(r[0]), r_max=float(r[-1]), n=r.size)
        if not np.allclose(grid.r, r, rtol=1e-9):
            raise G.GridError("field radii are not a geometric grid")
        u = RadialField(m, vals, grid)
    except (OSError, ValueError) as exc:
        fail(exc, out, usage=True)
    ortho = MOD.build_ortho_profiles(m, grid)
    try:
        d = MOD.decompose(u, ortho, tube_radius=tube_radius)
    except DECOMPOSE_FAILURES as exc:
        fail(exc, out, grid)
    report = {
        "state": {"lambda": d.state.lam, "gamma": d.state.gamma,
                  "b": d.state.b, "eta": d.state.eta},
        "mu": d.mu, "tube_distance": d.tube_distance,
        "converged": d.converged, "iterations": d.iterations,
        "ortho_residuals": list(d.ortho_residuals),
        "eps_l2": G.l2(d.eps), "eps_hdot1": G.hdot1(d.eps),
        "eps1_l2": G.l2(d.eps1), "eps2_l2": G.l2(d.eps2),
    }
    click.echo(dumps17(report))
    write_outputs(out, {"report.json": report}, grid)


@main.command("report")
@click.argument("rundir", type=click.Path(exists=True))
@out_option
def cmd_report(rundir, out):
    """Blow-up asymptotics of a recorded trajectory directory."""
    path = Path(rundir) / "series.csv"
    names = ("t", "lambda", "gamma", "b", "eta")
    try:
        header = path.read_text().partition("\n")[0].split(",")
        raw = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        if not set(names) <= set(header) or raw.shape[1] != len(header):
            raise ValueError(f"{path} needs the columns {','.join(names)} "
                             "and a row of numbers under its header")
    except (OSError, ValueError) as exc:
        fail(exc, out, usage=True)
    col = dict(zip(header, raw.T))
    series = {k: col[k] for k in names}
    report = {"rundir": rundir, "n_samples": len(raw),
              "lambda_final": float(col["lambda"][-1])}
    try:
        ell, gamma_star, fits = D.asymptotics(series)
        report["ell"] = ell
        report["gamma_star"] = gamma_star
        report["fits"] = fits
    except D.NoBlowupDetected as exc:
        report["no_blowup_detected"] = str(exc)
    click.echo(dumps17(report))
    write_outputs(out, {"report.json": report})


if __name__ == "__main__":
    main()
