"""The benchmark workloads: fixed csslab CLI runs with their inputs and
correctness checks.

A workload has four parts:

- setup(): the one-off builds its verbs reuse (grids, T-tables,
  orthogonality profiles), timed as part of setup_s;
- make_inputs(seed, workdir): writes the inputs generated from the seed
  and records them, with their truth, in `inputs`;
- body(): the timed verb calls, run with the working directory and
  CSSLAB_OUTPUT_ROOT set to a fresh output directory; it returns one
  record per verb call and never raises for a failed call;
- check(ops, decomps, outdir): the correctness gate, counting attempted
  and failed operations (a verb call or a decomposition) and returning
  the accuracy figures of the repetition.

Only the standard library is imported at module level, so that the
import of csslab, numpy and scipy falls inside the timed setup.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import traceback
from dataclasses import dataclass, field
from pathlib import Path

PDE_GRID = "n=16384,r_min=1e-3,r_max=100"
TUBE_RADIUS = "0.5"
LAM_TOL, B_TOL = 0.02, 0.05  # criterion-7 bounds on lambda/|t| and b/|t|
TRACK_TOL = 1e-3


@dataclass
class Op:
    label: str
    output: dict | None = None
    error: str | None = None


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    figures: dict = field(default_factory=dict)

    def count(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)


def call(label: str, args: list[str]) -> Op:
    """Run one csslab verb in-process; its stdout is one JSON document."""
    from csslab.cli import main
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = main(args, standalone_mode=False)
        if code not in (None, 0):
            return Op(label, error=f"exit code {code}")
        return Op(label, output=json.loads(buf.getvalue()))
    except Exception:  # a failed verb is a counted failure, not a crash
        return Op(label, error=traceback.format_exc(limit=3))


def read_csv(path: Path) -> dict:
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    return {name: [row[i] for row in rows] for i, name in enumerate(header)}


def rel_err(value: float, truth: float) -> float:
    return abs(value / truth - 1.0)


class DecompositionTap:
    """Records iterations, convergence and zero-freeness of the input of
    every modulation.decompose call, in both benchmark modes: the PDE
    verbs report no convergence flag, yet an unconverged decomposition
    counts as a failed operation."""

    def __init__(self):
        self.records: list[dict] = []
        self._original = None

    def install(self) -> None:
        import numpy as np
        from csslab import modulation
        original = self._original = modulation.decompose
        records = self.records

        def decompose(u, *args, **kwargs):
            zero_free = bool(np.abs(u.values).min() > 0.0)
            result = original(u, *args, **kwargs)
            records.append({"iterations": int(result.iterations),
                            "converged": bool(result.converged),
                            "zero_free": zero_free})
            return result
        modulation.decompose = decompose

    def uninstall(self) -> None:
        from csslab import modulation
        modulation.decompose = self._original


def _build(grid_spec: str, ms=(1,)) -> None:
    from csslab import modulation, profiles
    from csslab.cli import parse_grid
    grid = parse_grid(grid_spec)
    for m in ms:
        profiles.build_t_tables(m, grid)
    modulation.build_ortho_profiles(1, grid)


# ---------------------------------------------------------------------------
# PDE workloads


class PdeWorkload:
    """`csslab evolve --data S --decompose` from t0 = -1; the datum is the
    exact blow-up solution, so the seed changes nothing in the input."""

    def __init__(self, grid: str, tend: float, dt: float, stride: int,
                 monitors: int, gated: bool):
        self.grid, self.tend, self.dt = grid, tend, dt
        self.stride, self.monitors, self.gated = stride, monitors, gated
        self.inputs: list[dict] = []

    def setup(self) -> None:
        _build(self.grid)

    def make_inputs(self, seed: int, workdir: Path) -> None:
        pass

    def body(self) -> list[Op]:
        return [call("evolve", [
            "evolve", "--data", "S", "--m", "1", "--t0", "-1",
            "--tend", repr(self.tend), "--dt", repr(self.dt),
            "--grid", self.grid, "--monitor-stride", str(self.stride),
            "--decompose", "--tube-radius", TUBE_RADIUS, "--out", "run"])]

    def check(self, ops: list[Op], decomps: list[dict],
              outdir: Path) -> Outcome:
        res = Outcome()
        op = ops[0]
        if op.error is not None:
            res.count(False, f"evolve: {op.error}")
            for _ in range(self.monitors):
                res.count(False, "decomposition not reached")
            res.figures = {"param_err_max": 1.0}
            return res
        meta = op.output
        run = outdir / "run"
        series = read_csv(run / "series.csv")
        snaps = list((run / "snapshots").glob("snap_*.csv"))
        track = meta["tracking_error_l2_max"]
        drift = meta["mass_drift"]
        ok = (meta["stop_reason"] == "t_end"
              and len(series["t"]) == self.monitors == len(decomps)
              and len(snaps) == self.monitors
              and math.isfinite(track) and math.isfinite(drift)
              and (track < TRACK_TOL or not self.gated))
        res.count(ok, f"evolve: stop={meta['stop_reason']} "
                      f"monitors={len(series['t'])} decompositions="
                      f"{len(decomps)} snapshots={len(snaps)} "
                      f"track_err_l2={track:.3g}")
        worst = 0.0
        for i, d in enumerate(decomps):
            if i >= len(series["t"]):
                res.count(False, f"decomposition {i} missing from series.csv")
                continue
            t = series["t"][i]
            e_lam = rel_err(series["lambda"][i], abs(t))
            e_b = rel_err(series["b"][i], abs(t))
            worst = max(worst, e_lam, e_b)
            ok = d["converged"] and (
                not self.gated or (e_lam < LAM_TOL and e_b < B_TOL))
            res.count(ok, f"decomposition at t={t:.4g}: converged="
                          f"{d['converged']} lambda err {e_lam:.3g} "
                          f"b err {e_b:.3g}")
        res.figures = {"track_err_l2": track, "mass_drift": drift,
                       "param_err_max": worst}
        return res


# ---------------------------------------------------------------------------
# Stored fields, profiles, ODE and report


class StoredFieldsWorkload:
    """Cold decompositions of seeded stored fields plus the profile, ODE
    and report verbs; nothing here calls evolve.

    Field k is S(t_k) e^{i gamma_k} (1 + 0.01 e^{i phi_k} g_k) with g_k a
    Gaussian bump in log r centred on r = |t_k|. The truth is lambda =
    b = |t_k|. The t_k are stratified over [-0.9, -0.3] per grid and the
    perturbation phases phi_k are evenly spaced around the circle with a
    seeded offset and order, so every seed covers the same range of
    inputs."""

    T_NEAR, T_FAR = 0.3, 0.9
    BUMP_AMPLITUDE, BUMP_WIDTH = 0.01, 0.3

    def __init__(self, fields: tuple, betas: str, with_t4: bool):
        self.fields, self.betas, self.with_t4 = fields, betas, with_t4
        self.inputs: list[dict] = []

    def setup(self) -> None:
        _build("default", ms=(1, 2))
        for grid, _ in self.fields:
            if grid != "default":
                _build(grid)

    def make_inputs(self, seed: int, workdir: Path) -> None:
        import numpy as np
        from csslab.cli import parse_grid
        from csslab.soliton import blowup_s
        rng = np.random.default_rng(seed)
        total = sum(count for _, count in self.fields)
        phis = (rng.uniform(0.0, 2.0 * math.pi)
                + 2.0 * math.pi * rng.permutation(total) / total)
        k = 0
        for spec, count in self.fields:
            grid = parse_grid(spec)
            r = grid.r
            for j in range(count):
                t = -(self.T_NEAR + (self.T_FAR - self.T_NEAR)
                      * (j + rng.uniform()) / count)
                gamma0 = rng.uniform(0.0, 2.0 * math.pi)
                bump = np.exp(-np.log(r / abs(t)) ** 2
                              / (2.0 * self.BUMP_WIDTH ** 2))
                vals = (blowup_s(1, t, grid).values * np.exp(1j * gamma0)
                        * (1.0 + self.BUMP_AMPLITUDE
                           * np.exp(1j * phis[k]) * bump))
                if not np.abs(vals).min() > 0.0:
                    raise ValueError(f"generated field {k} has a zero")
                path = workdir / f"field_{k:02d}.csv"
                rows = ["r,re,im"] + [
                    f"{format(x, '.17g')},{format(v.real, '.17g')},"
                    f"{format(v.imag, '.17g')}" for x, v in zip(r, vals)]
                path.write_text("\n".join(rows) + "\n")
                self.inputs.append({"field": path.name, "grid": spec, "t": t,
                                    "gamma0": gamma0, "phi": phis[k],
                                    "path": str(path)})
                k += 1

    def body(self) -> list[Op]:
        ops = []
        for k, field_in in enumerate(self.inputs):
            ops.append(call(f"decompose field_{k:02d}", [
                "decompose", "--field", field_in["path"], "--m", "1",
                "--tube-radius", TUBE_RADIUS, "--out", f"field_{k:02d}"]))
        for m in ("1", "2"):
            ops.append(call(f"profiles m={m}", [
                "profiles", "--m", m, "--betas", self.betas,
                "--direction", "1,0", "--grid", "default",
                "--t4" if self.with_t4 else "--no-t4",
                "--out", f"profiles_m{m}"]))
        ops.append(call("ode cubic", [
            "ode", "--m", "1", "--eta0", "0", "--lam0", "0.05", "--b0", "0.05",
            "--window", "0,0.075", "--lam-min", "0.0025", "--p3",
            "--out", "cubic"]))
        ops.append(call("ode rotation", [
            "ode", "--m", "1", "--eta0", "0.05", "--out", "rot"]))
        ops.append(call("report cubic", ["report", "cubic",
                                         "--out", "report_cubic"]))
        return ops

    def check(self, ops: list[Op], decomps: list[dict],
              outdir: Path) -> Outcome:
        res = Outcome()
        worst = 0.0
        for op, field_in in zip(ops, self.inputs):
            if op.error is not None:
                res.count(False, f"{op.label}: {op.error}")
                worst = 1.0
                continue
            st = op.output["state"]
            truth = abs(field_in["t"])
            e_lam = rel_err(st["lambda"], truth)
            e_b = rel_err(st["b"], truth)
            worst = max(worst, e_lam, e_b)
            res.count(op.output["converged"] and e_lam < LAM_TOL
                      and e_b < B_TOL,
                      f"{op.label} (t={field_in['t']:.4f}): converged="
                      f"{op.output['converged']} lambda err {e_lam:.3g} "
                      f"b err {e_b:.3g}")
        for op in ops[len(self.inputs):]:
            if op.error is not None:
                res.count(False, f"{op.label}: {op.error}")
                continue
            out = op.output
            if op.label.startswith("profiles"):
                slopes = {k: v["slope"] for k, v in out["slopes"].items()}
                ok = (slopes["psi_sup_R2"] >= 2.7
                      and slopes["psi1_L1w"] >= 3.5
                      and (not self.with_t4 or slopes["psi2_L2"] >= 3.6)
                      and all(s < 1e-6 * b ** 3 for s, b in
                              zip(out.get("solvability", []), out["betas"])))
                detail = f"slopes {slopes}"
            elif op.label == "ode cubic":
                ok = out["stop"] == "blowup-reached"
                detail = f"stop={out['stop']}"
            elif op.label == "ode rotation":
                ok = (abs(out["delta_gamma_over_2pi"] - 1.0) < 1e-3
                      and out["delta_gamma_rel_err"] < 1e-6)
                detail = f"delta_gamma/2pi={out['delta_gamma_over_2pi']}"
            else:
                ok = ("ell" in out and abs(out["ell"] - 1.0) < 0.01
                      and out["fits"]["lambda_over_Tmt"]["relvar"] < 0.01)
                detail = f"ell={out.get('ell')}"
            res.count(ok, f"{op.label}: {detail}")
        res.figures = {"param_err_max": worst}
        return res


WHY = {
    "s_track": "README PDE run (n=16384, 1500 steps, stride 250, 7 "
               "decompositions): evolve.step dominates",
    "monitor_dense": "300 steps with a decomposition and snapshot every 5: "
                     "warm decompositions, gauge monitors and CSV output "
                     "dominate, evolve is light",
    "stored_fields": "cold decompositions of seeded zero-free stored fields "
                     "(smart_unwrap path) plus profiles, T4, ODE and "
                     "report; no evolve",
}


def make(name: str, size: str):
    """The workload `name` at `size` ("full", or "tiny" for the harness
    self-test)."""
    full = size == "full"
    if name == "s_track":
        if full:
            return PdeWorkload(PDE_GRID, -0.4, 4e-4, 250, 7, True)
        return PdeWorkload("n=4096,r_min=1e-3,r_max=100", -0.96, 4e-4, 50, 3,
                           False)
    if name == "monitor_dense":
        if full:
            return PdeWorkload("default", -0.7, 1e-3, 5, 61, False)
        return PdeWorkload("default", -0.98, 1e-3, 5, 5, False)
    if name == "stored_fields":
        if full:
            return StoredFieldsWorkload((("default", 6), (PDE_GRID, 2)),
                                        "0.04,0.02,0.01", True)
        return StoredFieldsWorkload((("default", 1),), "0.04,0.02", False)
    raise ValueError(f"unknown workload {name!r}")
