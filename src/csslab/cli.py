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

import contextlib
import itertools
import json
import math
import os
import time
import warnings
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
from .evolve import SolverConfig, run, validate_exact
from .grid import RadialField
from .soliton import blowup_s, soliton_q

ENV_OUTPUT_ROOT = "CSSLAB_OUTPUT_ROOT"

T_START = "csslab.t_start"  # ctx.meta key: when the command started
# ctx.meta key: the manifest entries a command fills as it runs: "timings"
# (see timed), a run's work "counters", "ignored_config_keys" (load_config)
RECORD = "csslab.record"


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


# rows formatted by one % call; larger blocks are no faster, and their
# transient floats and bytes raise the peak RSS of a run
CSV_BLOCK = 1024


def _blocks(table: np.ndarray) -> list[np.ndarray]:
    return [table[start:start + CSV_BLOCK]
            for start in range(0, len(table), CSV_BLOCK)]


def write_csv(path: Path, header: list[str], columns: list[np.ndarray],
              patterns: list[bytes] | None = None) -> int:
    """The columns as comma-separated %.17g rows under a header line: the
    bytes NumPy's text writer gives for fmt="%.17g", delimiter="," and
    comments="" (tests/test_cli.py compares the two). Each block of
    CSV_BLOCK rows is formatted by one bytes % over Python floats, which
    bounds the transient objects; `patterns`, one per block, may hold
    leading columns formatted already. Returns the bytes written."""
    table = np.column_stack(columns)
    if patterns is None:
        row = b",".join([b"%.17g"] * table.shape[1]) + b"\n"
        patterns = [row * len(block) for block in _blocks(table)]
    with open(path, "wb") as fh:
        fh.write(",".join(header).encode() + b"\n")
        for pattern, block in zip(patterns, _blocks(table), strict=True):
            fh.write(pattern % tuple(block.ravel().tolist()))
        return fh.tell()


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
        ctx.meta[RECORD]["ignored_config_keys"] = ignored
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
        return G.build_grid()
    kw = {}
    try:
        for part in spec.split(","):
            key, _, val = part.partition("=")
            key = key.strip()
            if key not in ("n", "r_min", "r_max"):
                raise ValueError(f"unknown grid key {key!r}")
            if key in kw:
                raise ValueError(f"repeated grid key {key!r}")
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


def read_rows(path) -> np.ndarray:
    """The numbers under a CSV's header line, one row per line: no rows
    when there are none, without numpy's warning about empty input."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def grid_id(grid: G.Grid) -> str:
    return (f"geometric:n={grid.n},r_min={grid.r_min:.17g},"
            f"r_max={grid.r_max:.17g}")


def output_dir(out: str) -> Path:
    root = Path(os.environ.get(ENV_OUTPUT_ROOT, "runs"))
    path = Path(out) if os.path.isabs(out) else root / out
    path.mkdir(parents=True, exist_ok=True)
    return path


def write_outputs(out: str | None, files: dict, grid: G.Grid | None = None,
                  error: str | None = None, **resolved) -> None:
    """With --out, write the verb's JSON `files` and its manifest.json. The
    manifest's command is the verb, followed by its suite if it takes one;
    its config echoes the verb's parameters in declaration order, without
    --out, holding the values the verb `resolved` in their place. The
    entries of ctx.meta[RECORD] follow, in a fixed order."""
    if out is None:
        return
    ctx = click.get_current_context()
    outdir = output_dir(out)
    for name, obj in files.items():
        write_json(outdir / name, obj)
    config = {p.name: ctx.params[p.name] for p in ctx.command.params
              if p.name in ctx.params and p.name != "out"}
    command = ctx.info_name
    if "suite" in ctx.params:
        command += " " + ctx.params["suite"]
    manifest = {
        "command": command,
        "config": config | resolved,
        "grid_id": grid_id(grid) if grid is not None else None,
        "seed": ctx.params.get("seed"),
        "version": __version__,
        "wall_time_s": time.perf_counter() - ctx.meta[T_START],
    }
    record = ctx.meta[RECORD]
    for key in ("timings", "counters", "ignored_config_keys"):
        if key in record:
            manifest[key] = record[key]
    if error is not None:
        manifest["error"] = error
    write_json(outdir / "manifest.json", manifest)


@contextlib.contextmanager
def timed(phase: str):
    """Records the perf_counter seconds of the with-block, one that raises
    too, as timings[phase] of a manifest written after the block."""
    clock = time.perf_counter()
    try:
        yield
    finally:
        record = click.get_current_context().meta[RECORD]
        record.setdefault("timings", {})[phase] = time.perf_counter() - clock


def fail(exc: Exception, out: str | None, grid: G.Grid | None = None,
         usage: bool = False, files: dict | None = None, **resolved):
    """End the command on a typed failure with a one-line error (exit 2 for
    a usage error, 1 otherwise); with --out the manifest still records the
    command, its config and the error, beside the JSON `files` of a run
    that kept its data."""
    msg = f"{type(exc).__name__}: {exc}"
    write_outputs(out, files or {}, grid, error=msg, **resolved)
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
        a_theta = GA.gauge_fields(q)
        checks.append(_check(f"D_QQ_m{m}", G.l2(G.d_plus(q, a_theta)) / scale,
                             1e-5))
        checks.append(_check(f"LQ_LambdaQ_m{m}",
                             G.l2(L.apply("LQ", G.scale_gen(q))) / scale, 1e-5))
        checks.append(_check(f"LQ_iQ_m{m}",
                             G.l2(L.apply("LQ", q.with_values(1j * q.values)))
                             / scale, 1e-5))
        yq = RadialField(m + 1, y * q.values, grid, decay=m + 1)
        checks.append(_check(f"AQ_yQ_m{m}",
                             G.l2(L.apply("AQ", yq))
                             / G.l2(yq), 1e-5))
        f = q.with_values(1j * (y**2 / 4.0) * q.values, decay=None)
        tgt = 1j * (y / 2.0) * q.values
        checks.append(_check(
            f"LQ_iy24Q_m{m}",
            G.l2_samples(grid, L.apply("LQ", f).values - tgt)
            / G.l2_samples(grid, tgt), 1e-5))
        rho = L.rho(m, grid)
        tgt = y * q.values / (2.0 * (m + 1))
        checks.append(_check(
            f"LQ_rho_m{m}",
            G.l2_samples(grid, L.apply("LQ", rho).values - tgt)
            / G.l2_samples(grid, tgt), 1e-5))
        _, mass, _ = GA.energy_mass(q)
        checks.append(_check(f"mass_Q_m{m}",
                             abs(mass / (8.0 * math.pi * (m + 1)) - 1.0), 1e-6))
        ath_inf = float(a_theta[-1])
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
        worst = 0.0
        for vals in fields:
            f = RadialField(1 + L.INDEX[tag][1], vals, grid)
            inv = L.right_inverse(tag, f, "outgoing")
            err = G.l2_samples(grid, L.apply(tag, inv).values - f.values)
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


def write_series(outdir: Path, cols: dict) -> int:
    """series.csv: the columns t, s, lambda, gamma, b, eta, b_hat and
    eta_hat, in the order of `cols`, then beta_over_lambda."""
    return write_csv(outdir / "series.csv", [*cols, "beta_over_lambda"],
                     [*cols.values(),
                      np.hypot(cols["b"], cols["eta"]) / cols["lambda"]])


def snapshot_writer(snapdir: Path):
    """A write(u) for evolve.run: writes u as the next snap_NNNN.csv in
    snapdir (write_csv's bytes) and returns the bytes written. run calls
    it in its stepper process, where the first call formats r for all."""
    patterns, count = [], itertools.count()

    def write(u: RadialField) -> int:
        if not patterns:
            patterns.extend((b"%.17g,%%.17g,%%.17g\n" * len(block))
                            % tuple(block.tolist())
                            for block in _blocks(u.grid.r))
        return write_csv(snapdir / f"snap_{next(count):04d}.csv",
                         ["r", "re", "im"], [u.values.real, u.values.imag],
                         patterns)
    return write


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
    ctx.meta[RECORD] = {}


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
        if not 0.0 <= delta < 1.0:
            raise ValueError(f"--delta must lie in [0, 1), got {delta}")
        if samples < 1:
            raise ValueError(f"--samples must be positive, got {samples}")
        if seed < 0:
            raise ValueError(f"--seed must be non-negative, got {seed}")
    except ValueError as exc:
        fail(exc, out, usage=True)
    with timed("checks"):
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
    write_outputs(out, {"report.json": report}, grid)
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
        if not all(0.0 < b <= PR.CHART_BETA for b in beta_list):
            raise ValueError(f"betas must lie in (0, {PR.CHART_BETA}]")
        db, de = parse_floats("direction", direction, 2)
        if not 0.0 < math.hypot(db, de) < math.inf:
            raise ValueError("--direction must be a finite nonzero vector, "
                             f"got {direction!r}")
    except ValueError as exc:
        fail(exc, out, usage=True)
    try:
        with timed("sweep"):
            sweep = PR.scaling_sweep(m, beta_list, (db, de), grid=grid,
                                     include_t4=t4)
    except PR.SolvabilityViolated as exc:  # the grid's T-table
        fail(exc, out, grid)
    report = {"m": m, "betas": beta_list, "direction": [db, de],
              "include_t4": t4, "slopes": sweep["slopes"],
              "series": sweep["series"]}
    if m == 1:
        with timed("solvability"):
            table = PR.build_t_tables(m, grid)
            norm = math.hypot(db, de)
            report["solvability"] = [
                PR.solvability_inner(table, b * db / norm, b * de / norm)
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
        if not 0.0 < lam_min < math.inf:  # at NaN the stop never fires
            raise ValueError(
                f"--lam-min must be positive and finite, got {lam_min}")
        for name, v in (("eta0", eta0), ("b0", b0), ("lam0", lam0)):
            if v is not None and not math.isfinite(v):
                raise ValueError(f"--{name} must be finite, got {v}")
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
        phase = "leading" if state0.beta >= PR.BETA_MAX else "profile"
    try:
        with timed("integrate"):
            outres = MOD.ode_integrate(m, state0, (t0, t1), grid=grid,
                                       use_p3=p3,
                                       leading_order=(phase == "leading"),
                                       lam_min=lam_min)
    except (MOD.OdeFailure, PR.SolvabilityViolated) as exc:  # with timings
        fail(exc, out, grid, lam0=lam0, b0=b0, phase=phase)
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
        with timed("output"):
            cols = {k: outres[k]
                    for k in ("t", "s", "lambda", "gamma", "b", "eta")}
            write_series(output_dir(out), cols | {"b_hat": outres["b"],
                                                  "eta_hat": outres["eta"]})
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
    """Split-step PDE run from a named datum. Each monitor is reduced at
    once to what the verb writes of it, and the run's stepper process writes
    its state as a snapshot, so memory does not grow with the monitors.
    timings.snapshots covers those writes, timings.output the other files."""
    try:
        grid = parse_grid(grid)
    except ValueError as exc:
        fail(exc, out, usage=True)
    try:
        if not math.isfinite(t0):
            raise ValueError(f"t0 must be finite, got {t0}")
        u0 = blowup_s(m, t0, grid) if data == "S" else soliton_q(m, grid)
        config = SolverConfig(dt=dt, t_end=tend, lambda_min=lambda_min,
                              monitor_stride=monitor_stride,
                              decompose_flag=decompose,
                              tube_radius=tube_radius)
    except ValueError as exc:
        fail(exc, out, grid, usage=True)
    exact = (lambda t: blowup_s(m, t, grid)) if data == "S" else (lambda t: u0)
    errs, margins, history, hats = [], [], [], []
    newton = {"iterations": [], "residual_max": [], "converged": []}
    write = None
    if out is not None:
        snapdir = output_dir(out) / "snapshots"
        snapdir.mkdir(exist_ok=True)
        write = snapshot_writer(snapdir)

    def keep(mon):  # what the verb writes of a monitor; its arrays then go
        errs.append(validate_exact(mon, exact))
        if out is None:  # without --out only the error is printed
            return
        margins.append(mon.margin)
        if decompose:
            d = mon.d
            history.append((mon.t, d.state))
            newton["iterations"].append(d.iterations)
            newton["residual_max"].append(max(map(abs, d.ortho_residuals)))
            newton["converged"].append(d.converged)
            try:
                hats.append(MOD.corrected_params(d))
            except (PR.GridTooSmall, ValueError):
                hats.append((math.nan, math.nan))

    try:
        traj = run(u0, config, keep, t0=t0, write=write)
    except MOD.DECOMPOSE_FAILURES as exc:  # at the first monitor: no data
        fail(exc, out, grid)
    finally:  # the snapshots written past the stop are speculative
        if out is not None:
            for path in snapdir.glob("snap_*.csv"):
                if int(path.stem[5:]) >= len(errs):
                    path.unlink()
            if not errs:
                snapdir.rmdir()
    meta = {"data": data, "m": m, "t0": t0, "t_end": tend, "dt": dt,
            "stop_reason": traj.stop_reason,
            "mass_drift": float(np.max(np.abs(
                traj.series["mass"] - traj.series["mass"][0]))
                / traj.series["mass"][0]),
            "energy_drift": float(np.max(np.abs(
                traj.series["energy"] - traj.series["energy"][0]))),
            "tracking_error_l2_max": float(np.max(errs))}
    click.echo(dumps17(meta))
    click.get_current_context().meta[RECORD].update(timings=traj.timings,
                                                    counters=traj.counters)
    error = traj.error
    if out is not None:
        with timed("output"):
            outdir = output_dir(out)
            sizes = [write_csv(outdir / "monitors.csv", list(traj.series),
                               list(traj.series.values()))]
            if decompose:
                b_hat, eta_hat = np.array(hats).T
                sizes.append(write_series(
                    outdir, D.param_columns(history)
                    | {"b_hat": b_hat, "eta_hat": eta_hat}))
                meta["newton"] = newton
            meta["guard_margin"] = margins[1:]
            if traj.stop_reason == "stability-guard":
                margin = traj.error.margin
                meta["guard_margin"].append(margin)
                meta["guard_trip"] = ("margin" if math.isfinite(margin)
                                      else "non-finite-state")
            meta["snapshot_times"] = traj.series["t"].tolist()
            if isinstance(traj.written, OSError):  # outranks the run's error
                error = traj.written
            else:
                traj.counters |= {"csv_files": len(sizes) + len(traj.written),
                                  "csv_bytes": sum(sizes) + sum(traj.written)}
    if error is not None:
        fail(error, out, grid, files={"meta.json": meta})
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
    try:  # fail() after a timed block: the manifest keeps its seconds
        with timed("read"):
            if not 0.0 < tube_radius < math.inf:
                raise ValueError("tube_radius must be positive and "
                                 f"finite, got {tube_radius}")
            raw = read_rows(field)
            if raw.shape[1] != 3:
                raise ValueError("field CSV needs the three columns r,re,im")
            r, vals = raw[:, 0], raw[:, 1] + 1j * raw[:, 2]
            grid = G.build_grid(r_min=float(r[0]), r_max=float(r[-1]),
                                n=r.size)
            if not np.allclose(grid.r, r, rtol=1e-9):
                raise G.GridError("field radii are not a geometric grid")
            u = RadialField(m, vals, grid)
    except (OSError, ValueError) as exc:
        fail(exc, out, usage=True)
    try:
        with timed("decompose"):
            d = MOD.decompose(u, tube_radius=tube_radius)
    except MOD.DECOMPOSE_FAILURES as exc:
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
        with timed("read"):
            header = path.read_text().partition("\n")[0].split(",")
            raw = read_rows(path)
            if not set(names) <= set(header) or raw.shape[1] != len(header):
                raise ValueError(f"{path} needs the columns "
                                 f"{','.join(names)} and a row of numbers "
                                 "under its header")
            col = dict(zip(header, raw.T))
            bad = [k for k in names if not np.isfinite(col[k]).all()]
            if bad:
                raise ValueError(f"{path} has non-finite values in the "
                                 f"columns {','.join(bad)}")
            dt = np.diff(col["t"])
            if not ((dt > 0).all() or (dt < 0).all()):
                raise ValueError(f"{path} needs a strictly monotone t column")
            if (col["lambda"] <= 0).any():
                raise ValueError(f"{path} has a lambda that is not positive")
    except (OSError, ValueError) as exc:
        fail(exc, out, usage=True)
    report = {"rundir": rundir, "n_samples": len(raw),
              "lambda_final": float(col["lambda"][-1])}
    with timed("asymptotics"):
        try:
            ell, gamma_star, fits = D.asymptotics(col)
            report["ell"] = ell
            report["gamma_star"] = gamma_star
            report["fits"] = fits
        except D.NoBlowupDetected as exc:
            report["no_blowup_detected"] = str(exc)
    click.echo(dumps17(report))
    write_outputs(out, {"report.json": report})


if __name__ == "__main__":
    main()
