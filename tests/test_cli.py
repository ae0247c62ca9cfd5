"""Command-line interface: verification batteries, run directories,
manifests, byte-stable serialization, and parameter refusal."""

import dataclasses
import json
import math
import multiprocessing
import os
import subprocess
import sys
import time
from multiprocessing.process import BaseProcess
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import csslab
from csslab import gauge as GA
from csslab import grid as G
from csslab import modulation as MOD
from csslab import profiles as PR
from csslab import cli as CLI
from csslab import evolve as EV
from csslab.cli import dumps17, fmt17, main
from csslab.grid import RadialField
from csslab.soliton import ScaleOutOfRange, blowup_s, modulate, soliton_q


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def outroot(tmp_path, monkeypatch):
    root = tmp_path / "runs"
    monkeypatch.setenv("CSSLAB_OUTPUT_ROOT", str(root))
    return root


# ---------------------------------------------------------------------------
# Serialization


def test_fmt17_roundtrip():
    xs = [math.pi, 1.0 / 3.0, 1e-300, -2.5e17, 0.1]
    for x in xs:
        assert float(fmt17(x)) == x


def test_dumps17_is_json():
    obj = {"a": math.pi, "b": [1, 2.5, None], "c": {"d": True, "e": "s"},
            "z": complex(1.0, -2.0), "nan": math.nan}
    parsed = json.loads(dumps17(obj))
    assert parsed["a"] == math.pi
    assert parsed["z"] == {"re": 1.0, "im": -2.0}
    assert parsed["nan"] == "nan"


@pytest.mark.parametrize("rows", sorted({
    0, 1, CLI.CSV_BLOCK - 1, CLI.CSV_BLOCK, CLI.CSV_BLOCK + 1,
    4095, 4096, 4097, 16384}))
def test_write_csv_matches_savetxt(tmp_path, rows):
    special = [-0.0, math.nan, math.inf, -math.inf, 5e-324, 1e-300, 3.0,
               1e16, float(2**53 + 1)]
    rng = np.random.default_rng(rows)
    floats = np.resize(np.array(special), rows)
    ints = np.arange(rows, dtype=np.int64) * 977 + 2**53 + 1
    tables = {"mixed": (["x", "k", "y"],
                        [floats, ints, rng.standard_normal(rows) * 1e-30]),
              "int64": (["k"], [ints])}
    for name, (header, columns) in tables.items():
        path, oracle = tmp_path / f"{name}.csv", tmp_path / f"{name}_np.csv"
        nbytes = CLI.write_csv(path, header, columns)
        np.savetxt(oracle, np.column_stack(columns), fmt="%.17g",
                   delimiter=",", header=",".join(header), comments="")
        assert path.read_bytes() == oracle.read_bytes(), name
        assert nbytes == path.stat().st_size
        assert path.read_text().count("\n") == rows + 1
    if rows < 16:
        return
    # snapshot files, whose r column is formatted once for all of them
    grid = G.build_grid(r_min=1e-3, r_max=10.0, n=rows)
    snaps = [(t, RadialField(1, np.resize(special[:1] + special[4:], rows)
                             + 1j * rng.standard_normal(rows) * 10.0**t,
                             grid)) for t in (-30, 0)]
    (tmp_path / "snapshots").mkdir()
    write = CLI.snapshot_writer(tmp_path / "snapshots")
    sizes = [write(u) for _, u in snaps]
    for i, (_, u) in enumerate(snaps):
        oracle = tmp_path / f"snap_{i}_np.csv"
        np.savetxt(oracle, np.column_stack([grid.r, u.values.real,
                                            u.values.imag]),
                   fmt="%.17g", delimiter=",", header="r,re,im", comments="")
        path = tmp_path / "snapshots" / f"snap_{i:04d}.csv"
        assert path.read_bytes() == oracle.read_bytes()
        assert sizes[i] == path.stat().st_size


# ---------------------------------------------------------------------------
# verify


def _timings(outroot, name):
    """The timings of a run's manifest, checked to be seconds."""
    timings = json.loads((outroot / name / "manifest.json").read_text())[
        "timings"]
    assert all(v > 0.0 for v in timings.values())
    return timings


def test_verify_identities(runner, outroot):
    res = runner.invoke(main, ["verify", "identities", "--grid", "default",
                               "--out", "vi"])
    assert res.exit_code == 0, res.output
    rep = json.loads(res.output)
    assert rep["n_failed"] == 0
    names = {c["name"] for c in rep["checks"]}
    assert "D_QQ_m1" in names and "wronskian_m3" in names
    assert set(_timings(outroot, "vi")) == {"checks"}


def test_verify_inverses(runner):
    res = runner.invoke(main, ["verify", "inverses", "--grid", "default",
                               "--seed", "7"])
    assert res.exit_code == 0, res.output
    rep = json.loads(res.output)
    assert rep["n_failed"] == 0


def test_verify_coercivity(runner):
    res = runner.invoke(main, ["verify", "coercivity", "--grid", "default",
                               "--samples", "15", "--seed", "3"])
    assert res.exit_code == 0, res.output
    rep = json.loads(res.output)
    assert rep["n_failed"] == 0


def test_verify_morawetz_pass_and_fail(runner):
    res = runner.invoke(main, ["verify", "morawetz", "--grid", "default",
                               "--delta", "0.3"])
    assert res.exit_code == 0, res.output
    # the pointwise scan locates the violation threshold near delta = 0.96;
    # below it both weight inequalities hold with positive margins
    res = runner.invoke(main, ["verify", "morawetz", "--grid", "default",
                               "--delta", "0.99"])
    assert res.exit_code == 1
    # stderr (the failure list) is interleaved after the JSON report
    rep = json.loads(res.output[:res.output.rindex("}") + 1])
    assert not rep["checks"][0]["pass"]
    # the failure names the violated node
    assert "node y=" in rep["checks"][0]["error"]


@pytest.mark.parametrize("args, error", [
    (["coercivity", "--samples", "0"], "--samples must be positive, got 0"),
    (["coercivity", "--samples", "-3"], "--samples must be positive, got -3"),
    (["morawetz", "--delta", "nan"], "--delta must lie in [0, 1), got nan"),
    (["morawetz", "--delta", "1.5"], "--delta must lie in [0, 1), got 1.5"),
])
def test_verify_bad_samples_or_delta_is_usage_error(runner, outroot, args,
                                                    error):
    # --samples 0 ended in min() of an empty list; a --delta outside
    # [0, 1) in morawetz_weight's ValueError, both with a traceback
    res = runner.invoke(main, ["verify", *args, "--grid", "n=512",
                               "--out", "vb"])
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)
    assert "Error: ValueError: " + error in res.output
    assert "Traceback" not in res.output
    assert _error_manifest(outroot, "vb") == "ValueError: " + error


def test_verify_requires_grid(runner):
    res = runner.invoke(main, ["verify", "identities"])
    assert res.exit_code != 0
    assert "--grid" in res.output


# ---------------------------------------------------------------------------
# profiles


def test_profiles_report(runner, outroot):
    res = runner.invoke(main, ["profiles", "--m", "1",
                               "--betas", "0.04,0.02",
                               "--direction", "1,0", "--no-t4",
                               "--grid", "default", "--out", "pr"])
    assert res.exit_code == 0, res.output
    rep = json.loads(res.output)
    assert rep["m"] == 1 and rep["betas"] == [0.04, 0.02]
    assert "psi2_L2" in rep["slopes"]
    assert all(s < 1e-6 * b**3 for s, b in
               zip(rep["solvability"], rep["betas"]))
    assert set(_timings(outroot, "pr")) == {"sweep", "solvability"}


def test_profiles_one_beta_fits_no_slope(runner, recwarn):
    res = runner.invoke(main, ["profiles", "--m", "2", "--betas", "0.02",
                               "--no-t4", "--grid", "n=1024"])
    assert res.exit_code == 0, res.output
    rep = json.loads(res.output)
    assert rep["slopes"] and all(
        fit == {"slope": "nan", "intercept": "nan"}
        for fit in rep["slopes"].values())
    assert not [w for w in recwarn
                if issubclass(w.category, np.exceptions.RankWarning)]


def test_profiles_rejects_large_beta(runner):
    res = runner.invoke(main, ["profiles", "--m", "1", "--betas", "0.2",
                               "--grid", "default"])
    assert res.exit_code != 0


def test_profiles_betas_stay_on_the_unfactored_chart(runner):
    # a residual is evaluated on the chart without the factored phase,
    # beta <= CHART_BETA = 0.099; below 1/10 is no longer enough
    res = runner.invoke(main, ["profiles", "--m", "1", "--betas", "0.0995",
                               "--grid", "n=512"])
    assert res.exit_code == 2, res.output
    assert "Error: ValueError: betas must lie in (0, 0.099]" in res.output
    assert "Traceback" not in res.output


# ---------------------------------------------------------------------------
# ode + report


def test_ode_rotational_phase(runner, outroot):
    res = runner.invoke(main, ["ode", "--m", "1", "--eta0", "0.05",
                               "--out", "rot"])
    assert res.exit_code == 0, res.output
    meta = json.loads(res.output)
    # full passage: accumulated phase 2 pi to 0.1%
    assert abs(meta["delta_gamma_over_2pi"] - 1.0) < 1e-3
    assert meta["delta_gamma_rel_err"] < 1e-6
    series = (outroot / "rot" / "series.csv").read_text()
    head = series.splitlines()[0]
    assert head == ("t,s,lambda,gamma,b,eta,b_hat,eta_hat,"
                    "beta_over_lambda")
    manifest = json.loads((outroot / "rot" / "manifest.json").read_text())
    assert manifest["command"] == "ode"
    assert manifest["config"]["eta0"] == 0.05
    assert "wall_time_s" in manifest


def test_ode_byte_determinism(runner, outroot):
    args = ["ode", "--m", "2", "--eta0", "0.1", "--window", "-50,50"]
    r1 = runner.invoke(main, args + ["--out", "d1"])
    r2 = runner.invoke(main, args + ["--out", "d2"])
    assert r1.exit_code == 0 and r2.exit_code == 0
    assert (outroot / "d1" / "series.csv").read_bytes() == \
        (outroot / "d2" / "series.csv").read_bytes()
    assert (outroot / "d1" / "meta.json").read_bytes() == \
        (outroot / "d2" / "meta.json").read_bytes()
    # the timings of a run go to the manifest only
    assert set(_timings(outroot, "d1")) == {"integrate", "output"}


def test_ode_config_file_and_flag_override(runner, tmp_path, outroot):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("m = 1\neta0 = 0.05\nwindow = -50,50\n")
    res = runner.invoke(main, ["ode", "--config", str(cfg)])
    assert res.exit_code == 0, res.output
    assert json.loads(res.output)["window"] == [-50.0, 50.0]
    res = runner.invoke(main, ["ode", "--config", str(cfg),
                               "--window", "-20,20"])
    assert json.loads(res.output)["window"] == [-20.0, 20.0]
    # a boolean key takes effect and is echoed; its flag still overrides it
    cfg.write_text("m = 1\neta0 = 0.05\nwindow = -50,50\np3 = true\n")
    res = runner.invoke(main, ["ode", "--config", str(cfg), "--out", "p3"])
    assert res.exit_code == 0, res.output
    assert json.loads(res.output)["use_p3"] is True
    manifest = json.loads((outroot / "p3" / "manifest.json").read_text())
    assert manifest["config"]["p3"] is True
    res = runner.invoke(main, ["ode", "--config", str(cfg), "--no-p3"])
    assert json.loads(res.output)["use_p3"] is False
    # a malformed line and a malformed value are usage errors
    for text in ("m = 1\neta0 0.05\n", "m = x\neta0 = 0.05\n"):
        cfg.write_text(text)
        res = runner.invoke(main, ["ode", "--config", str(cfg)])
        assert res.exit_code == 2, res.output
        assert "Traceback" not in res.output


def test_config_key_naming_no_option_is_reported(runner, tmp_path, outroot):
    # a typo falls back to the option's default: the run goes on (a file
    # may serve several verbs), with one warning line and a manifest entry
    cfg = tmp_path / "typo.cfg"
    cfg.write_text("m = 1\neta0 = 0.5\nwindw = -50,50\n")
    res = runner.invoke(main, ["ode", "--config", str(cfg), "--out", "typo"])
    assert res.exit_code == 0, res.output
    assert json.loads(res.stdout)["window"] == [-100.0, 100.0]
    assert res.stderr.splitlines() == [
        "Warning: config keys that name no option of ode: windw"]
    manifest = json.loads((outroot / "typo" / "manifest.json").read_text())
    assert manifest["ignored_config_keys"] == ["windw"]
    res = runner.invoke(main, ["ode", "--m", "1", "--eta0", "0.5",
                               "--out", "clean"])
    assert res.stderr == ""
    manifest = json.loads((outroot / "clean" / "manifest.json").read_text())
    assert "ignored_config_keys" not in manifest


def test_ode_leaving_the_profile_range_is_a_clean_error(tmp_path):
    # lambda = 0.05 + t expands and beta = |b| grows past 1/10, where the
    # profile-assembled phase integral is not defined
    res = _run_module(["ode", "--m", "1", "--eta0", "0", "--lam0", "0.05",
                       "--b0", "-0.05", "--window", "0,1", "--out", "x"],
                      tmp_path)
    assert res.returncode == 1
    assert "Traceback" not in res.stderr
    assert res.stderr.startswith("Error: OdeFailure: beta = 0.1")
    assert res.stderr.count("\n") == 1
    rundir = tmp_path / "runs" / "x"
    assert [p.name for p in rundir.iterdir()] == ["manifest.json"]
    manifest = json.loads((rundir / "manifest.json").read_text())
    assert manifest["error"] == res.stderr.strip().removeprefix("Error: ")
    assert manifest["config"]["phase"] == "profile"
    # the failed phase is timed too
    assert list(manifest["timings"]) == ["integrate"]
    assert manifest["timings"]["integrate"] > 0.0


@pytest.mark.parametrize("lam_min", ["nan", "inf", "0", "-1"])
def test_ode_lam_min_must_be_positive_and_finite(runner, outroot, lam_min):
    # the README cubic run: at NaN or 0 it integrated through the blow-up
    # at t = 0.05 and reported stop t_end
    res = runner.invoke(main, ["ode", "--m", "1", "--eta0", "0",
                               "--lam0", "0.05", "--b0", "0.05",
                               "--window", "0,0.075", "--p3",
                               "--lam-min", lam_min, "--out", "lm"])
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)
    error = ("ValueError: --lam-min must be positive and finite, got "
             f"{float(lam_min)}")
    assert "Error: " + error in res.output
    assert "Traceback" not in res.output
    assert [p.name for p in (outroot / "lm").iterdir()] == ["manifest.json"]
    assert _error_manifest(outroot, "lm") == error


@pytest.mark.parametrize("option, value", [
    ("--eta0", "nan"), ("--b0", "nan"), ("--b0", "-inf"), ("--lam0", "inf"),
    ("--lam0", "nan")])
def test_ode_initial_state_must_be_finite(runner, outroot, option, value):
    # --b0 nan ended in solve_ivp's ValueError with a traceback, exit 1
    # and no manifest record
    args = {"--eta0": "0", "--b0": "0.05", "--lam0": "0.05", option: value}
    res = runner.invoke(main, ["ode", "--m", "1", *(x for kv in args.items()
                                                   for x in kv),
                               "--window", "0,0.075", "--out", "ob"])
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)
    error = f"ValueError: {option} must be finite, got {float(value)}"
    assert "Error: " + error in res.output
    assert "Traceback" not in res.output
    assert [p.name for p in (outroot / "ob").iterdir()] == ["manifest.json"]
    assert _error_manifest(outroot, "ob") == error


def test_ode_refuses_missing_eta0(runner):
    res = runner.invoke(main, ["ode", "--m", "1"])
    assert res.exit_code != 0
    assert "--eta0" in res.output


def test_report_on_blowup_run(runner, outroot):
    res = runner.invoke(main, ["ode", "--m", "1", "--eta0", "0",
                               "--lam0", "0.05", "--b0", "0.05",
                               "--window", "0,0.075", "--lam-min", "0.0025",
                               "--p3", "--out", "cubic"])
    assert res.exit_code == 0, res.output
    assert json.loads(res.output)["stop"] == "blowup-reached"
    res = runner.invoke(main, ["report", str(outroot / "cubic")])
    assert res.exit_code == 0, res.output
    rep = json.loads(res.output)
    assert abs(rep["ell"] - 1.0) < 0.01
    assert rep["fits"]["lambda_over_Tmt"]["relvar"] < 0.01


def test_report_no_blowup(runner, outroot):
    runner.invoke(main, ["ode", "--m", "1", "--eta0", "0.05", "--out", "r2"])
    res = runner.invoke(main, ["report", str(outroot / "r2"), "--out", "rr"])
    assert res.exit_code == 0, res.output
    assert "no_blowup_detected" in json.loads(res.output)
    assert set(_timings(outroot, "rr")) == {"read", "asymptotics"}


def test_report_on_one_sample_and_on_missing_columns(runner, outroot):
    res = runner.invoke(main, ["evolve", "--data", "S", "--m", "1",
                               "--t0", "-1", "--tend", "-1", "--grid", "default",
                               "--decompose", "--out", "one"])
    assert res.exit_code == 0, res.output
    res = runner.invoke(main, ["report", str(outroot / "one")])
    assert res.exit_code == 0, res.output
    rep = json.loads(res.output)
    assert rep["n_samples"] == 1 and "no_blowup_detected" in rep
    (outroot / "one" / "series.csv").write_text("t,lambda\n-1,1\n")
    res = runner.invoke(main, ["report", str(outroot / "one"), "--out", "rep"])
    assert res.exit_code == 2, res.output
    assert "Traceback" not in res.output
    assert _error_manifest(outroot, "rep").startswith("ValueError")


@pytest.mark.parametrize("row, column", [(95, "lambda"), (10, "eta")])
def test_report_refuses_a_non_finite_series(runner, outroot, row, column):
    # row 95 of 100 lies in the tail that asymptotics fits, row 10 before it
    t = np.linspace(-1.0, -0.05, 100)
    cols = {"t": t, "lambda": -t, "gamma": np.zeros_like(t), "b": -t,
            "eta": np.zeros_like(t)}
    cols[column][row] = np.nan
    rundir = outroot / "nan"
    rundir.mkdir(parents=True)
    CLI.write_series(rundir, cols)
    res = runner.invoke(main, ["report", str(rundir), "--out", "rep"])
    assert res.exit_code == 2, res.output
    assert f"non-finite values in the columns {column}" in res.output
    assert "Traceback" not in res.output
    assert _error_manifest(outroot, "rep").startswith("ValueError")
    assert not (outroot / "rep" / "report.json").exists()
    assert set(_timings(outroot, "rep")) == {"read"}  # the failed phase's


# ---------------------------------------------------------------------------
# evolve


def test_evolve_q_run(runner, outroot):
    res = runner.invoke(main, [
        "evolve", "--data", "Q", "--m", "1", "--t0", "0", "--tend", "0.05",
        "--dt", "1e-3", "--grid", "n=2048,r_min=1e-4,r_max=200",
        "--monitor-stride", "10", "--out", "qrun"])
    assert res.exit_code == 0, res.output
    meta = json.loads(res.output)
    assert meta["mass_drift"] < 1e-8
    assert meta["tracking_error_l2_max"] < 1e-3
    assert (outroot / "qrun" / "monitors.csv").exists()
    assert (outroot / "qrun" / "snapshots" / "snap_0000.csv").exists()
    assert (outroot / "qrun" / "manifest.json").exists()


def test_evolve_q_decomposition_without_corrected_params(runner, outroot):
    # E[Q] = 0, so mu = 0 and the corrected parameters are undefined: the
    # run still succeeds, with nan in the b_hat and eta_hat columns
    res = runner.invoke(main, [
        "evolve", "--data", "Q", "--m", "1", "--t0", "0", "--tend", "0.02",
        "--dt", "1e-3", "--grid", "n=1024", "--monitor-stride", "10",
        "--decompose", "--out", "qhat"])
    assert res.exit_code == 0, res.output
    series = np.genfromtxt(outroot / "qhat" / "series.csv", delimiter=",",
                           names=True)
    assert series.size == 3
    assert np.all(np.isnan(series["b_hat"]))
    assert np.all(np.isnan(series["eta_hat"]))
    assert np.all(np.isfinite(series["b"]) & np.isfinite(series["eta"]))


def test_evolve_s_run_with_decomposition(runner, outroot):
    res = runner.invoke(main, [
        "evolve", "--data", "S", "--m", "1", "--t0", "-1", "--tend", "-0.97",
        "--dt", "5e-4", "--grid", "n=8192,r_min=1e-3,r_max=100",
        "--monitor-stride", "20", "--decompose", "--tube-radius", "0.5",
        "--out", "srun"])
    assert res.exit_code == 0, res.output
    meta = json.loads(res.output)
    assert meta["tracking_error_l2_max"] < 1e-3
    series = (outroot / "srun" / "series.csv").read_text().splitlines()
    assert series[0].startswith("t,s,lambda,gamma,b,eta")
    body = np.array([[float(x) for x in row.split(",")]
                     for row in series[1:]])
    lam, b = body[:, 2], body[:, 4]
    t = body[:, 0]
    assert np.all(np.abs(lam / np.abs(t) - 1.0) < 0.02)
    assert np.all(np.abs(b / np.abs(t) - 1.0) < 0.05)
    newton = json.loads((outroot / "srun" / "meta.json").read_text())["newton"]
    assert newton["converged"] == [True] * len(t)
    assert len(newton["iterations"]) == len(t)
    assert all(1 <= k <= 50 for k in newton["iterations"])
    assert all(0.0 <= r < 1e-10 * G.l2(soliton_q(1, G.build_grid()))
               for r in newton["residual_max"])


def test_evolve_stops_on_unconverged_decomposition(runner, outroot,
                                                   monkeypatch):
    original = MOD.decompose
    calls = []

    def decompose(*args, **kwargs):
        d = original(*args, **kwargs)
        calls.append(kwargs["init"])
        if len(calls) != 2:
            return d
        # unconverged, with a lambda that would trip --lambda-min if used
        return dataclasses.replace(
            d, converged=False, state=dataclasses.replace(d.state, lam=0.5))
    monkeypatch.setattr(MOD, "decompose", decompose)
    res = runner.invoke(main, [
        "evolve", "--data", "S", "--m", "1", "--t0", "-1", "--tend", "-0.9",
        "--dt", "1e-3", "--grid", "default", "--monitor-stride", "20",
        "--decompose", "--lambda-min", "0.95", "--out", "nc"])
    assert res.exit_code == 0, res.output
    assert len(calls) == 2 and calls[0] is None
    meta = json.loads((outroot / "nc" / "meta.json").read_text())
    assert meta["stop_reason"] == "no-convergence"
    assert meta["newton"]["converged"] == [True, False]
    assert meta["snapshot_times"] == pytest.approx([-1.0, -0.98])
    series = (outroot / "nc" / "series.csv").read_text().splitlines()
    assert len(series) == 3
    monitors = (outroot / "nc" / "monitors.csv").read_text().splitlines()
    assert len(monitors) == 3
    assert len(list((outroot / "nc" / "snapshots").glob("snap_*.csv"))) == 2
    assert (outroot / "nc" / "manifest.json").exists()


def _snapshots(rundir) -> int:
    """The number of files in a run's snapshots directory."""
    return len(list((rundir / "snapshots").iterdir()))


def test_evolve_lambda_min_stop_keeps_one_snapshot_per_monitor(runner,
                                                                outroot):
    # the stepper runs and writes ahead of the stop; what it wrote past
    # the last recorded monitor goes
    res = runner.invoke(main, [
        "evolve", "--data", "S", "--m", "1", "--t0", "-1", "--tend", "-0.9",
        "--dt", "1e-3", "--grid", "default", "--monitor-stride", "5",
        "--decompose", "--lambda-min", "0.993", "--out", "lm"])
    assert res.exit_code == 0, res.output
    rundir = outroot / "lm"
    meta = json.loads((rundir / "meta.json").read_text())
    assert meta["stop_reason"] == "lambda_min"
    assert meta["snapshot_times"] == pytest.approx([-1.0, -0.995, -0.99])
    monitors = (rundir / "monitors.csv").read_text().splitlines()
    assert _snapshots(rundir) == len(monitors) - 1 == 3
    counters = json.loads((rundir / "manifest.json").read_text())["counters"]
    assert counters["csv_files"] == 2 + 3 and counters["steps"] == 10


def test_evolve_refuses_missing_grid(runner):
    res = runner.invoke(main, ["evolve", "--data", "Q", "--m", "1",
                               "--t0", "0", "--tend", "0.01"])
    assert res.exit_code != 0
    assert "--grid" in res.output


def _error_manifest(outroot, name):
    return json.loads((outroot / name / "manifest.json").read_text())["error"]


@pytest.mark.parametrize("args, error", [
    (["--t0", "-1", "--lambda-min", "0.5", "--no-decompose"],
     "ValueError: lambda_min stop rule requires decompose_flag"),
    (["--t0", "0.1"], "ScaleOutOfRange: blow-up snapshot needs t < 0"),
    (["--t0", "-1", "--tend", "-0.99", "--monitor-stride", "0",
      "--no-decompose"],
     "ValueError: monitor_stride must be >= 1"),
    # lam < nan is never true: the stop rule would never fire
    *[(["--t0", "-1", "--lambda-min", lam, "--decompose"],
       "ValueError: lambda_min must be positive and finite, got "
       f"{float(lam)}") for lam in ("nan", "0", "-1")],
])
def test_evolve_bad_config_is_usage_error(runner, outroot, args, error):
    res = runner.invoke(main, ["evolve", "--data", "S", "--m", "1",
                               "--tend", "0.2", "--grid", "default",
                               "--out", "bad"] + args)
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)
    assert "Error: " + error in res.output
    assert "Traceback" not in res.output
    assert _error_manifest(outroot, "bad").startswith(error)


@pytest.mark.parametrize("args, error", [
    (["--t0", "nan", "--tend", "1"], "t0 must be finite, got nan"),
    (["--t0", "0", "--tend", "nan"], "t_end must be finite, got nan"),
    (["--t0", "0", "--tend", "1", "--dt", "nan"],
     "dt must be positive and finite, got nan"),
    (["--t0", "0", "--tend", "1", "--dt", "inf"],
     "dt must be positive and finite, got inf"),
])
def test_evolve_non_finite_time_is_usage_error(tmp_path, args, error):
    # a NaN time never reaches t_end: a regression runs into the timeout
    res = _run_module(["evolve", "--data", "Q", "--m", "1",
                       "--grid", "n=512,r_min=0.1,r_max=50",
                       "--monitor-stride", "50", "--out", "t"] + args,
                      tmp_path, timeout=30)
    assert res.returncode == 2, res.stderr
    assert "Traceback" not in res.stderr
    errors = [ln for ln in res.stderr.splitlines() if ln.startswith("Error:")]
    assert errors == ["Error: ValueError: " + error]
    manifest = json.loads((tmp_path / "runs" / "t" / "manifest.json")
                          .read_text())
    assert manifest["error"] == "ValueError: " + error


@pytest.mark.parametrize("radius", ["nan", "inf", "0", "-1"])
@pytest.mark.parametrize("verb", ["evolve", "decompose"])
def test_tube_radius_must_be_positive_and_finite(tmp_path, verb, radius):
    # at NaN the tube check dist >= tube_radius never fires
    if verb == "evolve":
        args = ["evolve", "--data", "Q", "--m", "1", "--t0", "0",
                "--tend", "0.01", "--grid", "n=512,r_min=0.1,r_max=50",
                "--decompose"]
    else:
        grid = G.build_grid(n=256)
        field = tmp_path / "q.csv"
        field.write_text("r,re,im\n" + "".join(
            f"{r:.17g},{v.real:.17g},0\n"
            for r, v in zip(grid.r, soliton_q(1, grid).values)))
        args = ["decompose", "--field", str(field), "--m", "1"]
    res = _run_module(args + ["--tube-radius", radius, "--out", "t"],
                      tmp_path, timeout=60)
    assert res.returncode == 2, res.stderr
    assert "Traceback" not in res.stderr
    error = ("ValueError: tube_radius must be positive and finite, got "
             f"{float(radius)}")
    errors = [ln for ln in res.stderr.splitlines() if ln.startswith("Error:")]
    assert errors == ["Error: " + error]
    manifest = json.loads((tmp_path / "runs" / "t" / "manifest.json")
                          .read_text())
    assert manifest["error"] == error


def test_evolve_stability_guard_is_clean_error(runner, outroot):
    res = runner.invoke(main, ["evolve", "--data", "S", "--m", "1",
                               "--t0", "-0.4", "--tend", "-0.3", "--dt", "0.5",
                               "--grid", "default", "--out", "guard"])
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    assert "Error: StabilityGuardTripped: stability-guard-tripped" in res.output
    assert "Traceback" not in res.output
    assert _error_manifest(outroot, "guard").startswith("StabilityGuardTripped")
    meta = json.loads((outroot / "guard" / "meta.json").read_text())
    assert meta["stop_reason"] == "stability-guard"
    assert len(meta["guard_margin"]) == 1 and meta["guard_margin"][0] > 1.0
    assert meta["guard_trip"] == "margin"
    monitors = (outroot / "guard" / "monitors.csv").read_text().splitlines()
    assert len(monitors) == 2  # header and the one row at t0
    assert _snapshots(outroot / "guard") == len(monitors) - 1


def test_evolve_records_a_non_finite_guard_trip(runner, outroot,
                                                monkeypatch):
    # the eighth kinetic solve returns a nan, inside the second segment
    original, calls = EV.KineticSolver.solve, []

    def solve(self, rhs):
        calls.append(1)
        vals = original(self, rhs)
        if len(calls) == 8:
            vals[100] = math.nan
        return vals
    monkeypatch.setattr(EV.KineticSolver, "solve", solve)
    res = runner.invoke(main, [
        "evolve", "--data", "S", "--m", "1", "--t0", "-1", "--tend", "-0.98",
        "--dt", "1e-3", "--grid", "default", "--monitor-stride", "5",
        "--out", "nf"])
    assert res.exit_code == 1
    assert ("Error: StabilityGuardTripped: stability-guard-tripped: "
            "non-finite state\n") in res.output
    meta = json.loads((outroot / "nf" / "meta.json").read_text())
    assert meta["stop_reason"] == "stability-guard"
    assert meta["guard_trip"] == "non-finite-state"
    monitors = (outroot / "nf" / "monitors.csv").read_text().splitlines()
    assert len(meta["guard_margin"]) == len(monitors) - 1 == 3
    assert _snapshots(outroot / "nf") == len(monitors) - 1
    assert all(g <= 1.0 for g in meta["guard_margin"][:-1])
    assert meta["guard_margin"][-1] == "nan"  # dumps17 writes it so


def test_evolve_guard_trip_mid_segment_keeps_last_good_state(runner,
                                                             outroot):
    # at dt = 0.01 the steps up to t = -0.33 pass, the eighth one trips the
    # guard (dt*max|V| = 1.14) inside the first monitor segment
    res = runner.invoke(main, ["evolve", "--data", "S", "--m", "1",
                               "--t0", "-0.4", "--tend", "-0.3",
                               "--dt", "0.01", "--monitor-stride", "10",
                               "--grid", "default", "--decompose",
                               "--out", "trip"])
    assert res.exit_code == 1
    assert ("Error: StabilityGuardTripped: stability-guard-tripped: "
            "dt*max|V| = 1.14 > 1\n") in res.output
    meta = json.loads((outroot / "trip" / "meta.json").read_text())
    assert meta["stop_reason"] == "stability-guard"
    assert meta["snapshot_times"] == pytest.approx([-0.4, -0.33])
    monitors = (outroot / "trip" / "monitors.csv").read_text().splitlines()
    assert len(monitors) - 1 == 2
    assert _snapshots(outroot / "trip") == len(monitors) - 1
    assert len(meta["guard_margin"]) == 2
    assert meta["guard_margin"][0] <= 1.0 < meta["guard_margin"][1]
    assert meta["newton"]["converged"] == [True, True]
    counters = json.loads((outroot / "trip" / "manifest.json").read_text())[
        "counters"]
    assert counters["steps"] == 7 and counters["csv_files"] == 4


@pytest.mark.parametrize("failure", [
    MOD.NotInTube("not-in-tube: relative H1 distance 0.9"),
    ScaleOutOfRange("scale-out-of-range: lambda=9 drops 0.5 of the field"),
    MOD.NoConvergence("singular Newton system: Singular matrix"),
])
def test_evolve_decomposition_failure_keeps_the_run(runner, outroot,
                                                    monkeypatch, failure):
    original = MOD.decompose
    calls, inside = [], []

    def decompose(*args, **kwargs):
        calls.append(1)
        clock = time.perf_counter()
        try:
            if len(calls) == 3:
                time.sleep(0.05)
                raise failure
            return original(*args, **kwargs)
        finally:
            inside.append(time.perf_counter() - clock)
    monkeypatch.setattr(MOD, "decompose", decompose)
    res = runner.invoke(main, [
        "evolve", "--data", "S", "--m", "1", "--t0", "-1", "--tend", "-0.98",
        "--dt", "1e-3", "--grid", "default", "--monitor-stride", "5",
        "--decompose", "--out", "df"])
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    line = f"Error: {type(failure).__name__}: {failure}"
    assert line + "\n" in res.output
    assert "Traceback" not in res.output
    rundir = outroot / "df"
    meta = json.loads((rundir / "meta.json").read_text())
    assert meta["stop_reason"] == "decomposition-failed"
    assert meta["snapshot_times"] == pytest.approx([-1.0, -0.995])
    assert meta["newton"]["converged"] == [True, True]
    assert len(meta["guard_margin"]) == 1
    for name in ("monitors.csv", "series.csv"):
        assert len((rundir / name).read_text().splitlines()) - 1 == 2, name
    assert len(list((rundir / "snapshots").glob("snap_*.csv"))) == 2
    manifest = json.loads((rundir / "manifest.json").read_text())
    assert list(manifest) == ["command", "config", "grid_id", "seed",
                              "version", "wall_time_s", "timings",
                              "counters", "error"]
    assert manifest["error"] == line.removeprefix("Error: ")
    assert manifest["counters"]["csv_files"] == 4
    assert manifest["counters"]["steps"] == 10
    assert set(manifest["timings"]) == {"steps", "monitors",
                                        "decompositions", "snapshots",
                                        "output"}
    # the failed call's seconds count as decomposition time too
    assert len(inside) == 3 and inside[2] >= 0.05
    assert manifest["timings"]["decompositions"] >= sum(inside)


def test_evolve_counts_a_failed_decompositions_iterations(runner, outroot,
                                                         monkeypatch):
    # the third decomposition fails at its second pairing, after one
    # Newton iteration
    original_decompose, original_pairings = MOD.decompose, MOD._pairings
    decomps, pairings = [], []

    def decompose(*args, **kwargs):
        decomps.append(1)
        pairings.clear()
        return original_decompose(*args, **kwargs)

    def failing_pairings(*args, **kwargs):
        pairings.append(1)
        if len(decomps) == 3 and len(pairings) == 2:
            raise ScaleOutOfRange("scale-out-of-range: injected")
        return original_pairings(*args, **kwargs)
    monkeypatch.setattr(MOD, "decompose", decompose)
    monkeypatch.setattr(MOD, "_pairings", failing_pairings)
    res = runner.invoke(main, [
        "evolve", "--data", "S", "--m", "1", "--t0", "-1", "--tend", "-0.98",
        "--dt", "1e-3", "--grid", "default", "--monitor-stride", "5",
        "--decompose", "--tube-radius", "0.5", "--out", "fi"])
    assert res.exit_code == 1
    assert "Error: ScaleOutOfRange: scale-out-of-range: injected" in res.output
    assert len(decomps) == 3 and len(pairings) == 2
    meta = json.loads((outroot / "fi" / "meta.json").read_text())
    assert meta["stop_reason"] == "decomposition-failed"
    done = meta["newton"]["iterations"]
    assert len(done) == 2
    counters = json.loads((outroot / "fi" / "manifest.json").read_text())[
        "counters"]
    assert counters["newton_iterations"] == sum(done) + 1


def test_evolve_decomposition_failure_at_first_monitor(runner, outroot):
    # no monitor was recorded, so only the manifest is written
    res = runner.invoke(main, [
        "evolve", "--data", "S", "--m", "1", "--t0", "-1", "--tend", "-0.99",
        "--grid", "default", "--decompose", "--tube-radius", "1e-9",
        "--out", "first"])
    assert res.exit_code == 1
    assert "Error: NotInTube: not-in-tube" in res.output
    assert [p.name for p in (outroot / "first").iterdir()] == ["manifest.json"]
    manifest = json.loads((outroot / "first" / "manifest.json").read_text())
    assert "timings" not in manifest and "counters" not in manifest
    assert manifest["error"].startswith("NotInTube")


def test_evolve_decompose_byte_determinism(runner, outroot):
    args = ["evolve", "--data", "S", "--m", "1", "--t0", "-1",
            "--tend", "-0.985", "--dt", "1e-3", "--grid", "default",
            "--monitor-stride", "3", "--decompose", "--tube-radius", "0.5"]
    r1 = runner.invoke(main, args + ["--out", "e1"])
    r2 = runner.invoke(main, args + ["--out", "e2"])
    assert r1.exit_code == 0 and r2.exit_code == 0
    assert r1.output == r2.output
    for name in ("series.csv", "monitors.csv", "meta.json"):
        assert (outroot / "e1" / name).read_bytes() == \
            (outroot / "e2" / name).read_bytes()
    assert list(json.loads(r1.output)) == [
        "data", "m", "t0", "t_end", "dt", "stop_reason", "mass_drift",
        "energy_drift", "tracking_error_l2_max"]
    # the timings of a run go to the manifest only
    assert set(_timings(outroot, "e1")) == {"steps", "monitors",
                                            "decompositions", "snapshots",
                                            "output"}


def test_evolve_computes_one_energy_per_monitor(runner, outroot,
                                                monkeypatch):
    # the stepper process computes the energies, so they are counted in
    # shared memory; the decompositions here reuse them
    original, original_decompose = GA.energy_mass, MOD.decompose
    calls = multiprocessing.Value("i", 0)
    energies = []

    def energy_mass(u, *parts):
        with calls.get_lock():
            calls.value += 1
        return original(u, *parts)

    def decompose(*args, **kwargs):
        energies.append(kwargs["energy"])
        return original_decompose(*args, **kwargs)
    monkeypatch.setattr(GA, "energy_mass", energy_mass)
    monkeypatch.setattr(MOD, "decompose", decompose)
    res = runner.invoke(main, [
        "evolve", "--data", "S", "--m", "1", "--t0", "-1", "--tend", "-0.99",
        "--dt", "1e-3", "--grid", "default", "--monitor-stride", "2",
        "--decompose", "--out", "energy"])
    assert res.exit_code == 0, res.output
    monitors = (outroot / "energy" / "monitors.csv").read_text().splitlines()
    assert len(monitors) - 1 == 6
    assert calls.value == 6
    assert len(energies) == 6 and None not in energies


def test_evolve_decomposes_each_monitor_in_the_calling_process(
        runner, outroot, monkeypatch):
    # a patch of modulation.decompose made here, as the benchmark's tap
    # is, sees one call per recorded monitor
    original = MOD.decompose
    calls = []

    def decompose(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)
    monkeypatch.setattr(MOD, "decompose", decompose)
    res = runner.invoke(main, [
        "evolve", "--data", "S", "--m", "1", "--t0", "-1", "--tend", "-0.98",
        "--dt", "1e-3", "--grid", "default", "--monitor-stride", "4",
        "--decompose", "--out", "tap"])
    assert res.exit_code == 0, res.output
    meta = json.loads((outroot / "tap" / "meta.json").read_text())
    series = (outroot / "tap" / "series.csv").read_text().splitlines()
    assert len(calls) == len(meta["snapshot_times"]) == len(series) - 1 == 6


def _bits(x) -> bytes:
    return np.ascontiguousarray(x, dtype=np.float64).tobytes()


def test_evolve_csv_round_trips_bitwise(runner, outroot, monkeypatch):
    original, original_start = CLI.run, BaseProcess.start
    mons, starts = [], []

    def run(u0, config, sink, **kwargs):
        def keep(mon):
            mons.append(mon)
            sink(mon)
        return original(u0, config, keep, **kwargs)

    def start(self):
        starts.append(self)
        return original_start(self)
    monkeypatch.setattr(CLI, "run", run)
    monkeypatch.setattr(BaseProcess, "start", start)
    res = runner.invoke(main, [
        "evolve", "--data", "S", "--m", "1", "--t0", "-1", "--tend", "-0.99",
        "--dt", "1e-3", "--grid", "default", "--monitor-stride", "5",
        "--decompose", "--out", "rt"])
    assert res.exit_code == 0, res.output
    assert len(starts) == 1  # one child steps and writes the snapshots
    snaps = sorted((outroot / "rt" / "snapshots").glob("snap_*.csv"))
    assert len(snaps) == len(mons) == 3
    for path, u in zip(snaps, (mon.u for mon in mons)):
        r, re_, im = np.loadtxt(path, delimiter=",", skiprows=1, unpack=True)
        assert _bits(r) == _bits(u.grid.r)
        assert _bits(re_) == _bits(u.values.real)
        assert _bits(im) == _bits(u.values.imag)
    series = np.loadtxt(outroot / "rt" / "series.csv", delimiter=",",
                        skiprows=1, ndmin=2)
    for col, key in ((2, "lam"), (3, "gamma"), (4, "b"), (5, "eta")):
        assert _bits(series[:, col]) == _bits(
            [getattr(mon.d.state, key) for mon in mons]), key


def test_evolve_snapshot_writer_failure_keeps_the_run(runner, outroot,
                                                      monkeypatch):
    # the stepper process, forked with this patch in place, fails on the
    # second snapshot and writes no more; the run goes on and ends in a
    # clean error
    original = CLI.write_csv

    def write_csv(path, *args):
        if path.name == "snap_0001.csv":
            raise OSError(28, "No space left on device", str(path))
        return original(path, *args)
    monkeypatch.setattr(CLI, "write_csv", write_csv)
    res = runner.invoke(main, [
        "evolve", "--data", "S", "--m", "1", "--t0", "-1", "--tend", "-0.985",
        "--dt", "1e-3", "--grid", "default", "--monitor-stride", "5",
        "--decompose", "--out", "wf"])
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    errors = [line for line in res.output.splitlines()
              if line.startswith("Error:")]
    assert errors == ["Error: OSError: [Errno 28] No space left on device: "
                      f"'{outroot / 'wf' / 'snapshots' / 'snap_0001.csv'}'"]
    assert "Traceback" not in res.output
    rundir = outroot / "wf"
    manifest = json.loads((rundir / "manifest.json").read_text())
    assert manifest["error"] == errors[0].removeprefix("Error: ")
    assert "csv_files" not in manifest["counters"]
    meta = json.loads((rundir / "meta.json").read_text())
    assert meta["stop_reason"] == "t_end"
    assert len(meta["snapshot_times"]) == 4
    snaps = sorted(p.name for p in (rundir / "snapshots").iterdir())
    assert snaps == ["snap_0000.csv"]
    assert (rundir / "snapshots" / "snap_0000.csv").read_text().count(
        "\n") == 4097


def test_evolve_unexpected_error_ends_the_snapshot_writer(runner, outroot,
                                                          monkeypatch):
    # an exception no handler expects, raised with the stepper running,
    # still ends and joins it (the autouse fixture checks), and the
    # snapshot it wrote past the last recorded monitor goes
    original = MOD.decompose
    calls = []

    def decompose(*args, **kwargs):
        calls.append(1)
        if len(calls) == 3:
            raise KeyError("unexpected")
        return original(*args, **kwargs)
    monkeypatch.setattr(MOD, "decompose", decompose)
    res = runner.invoke(main, [
        "evolve", "--data", "S", "--m", "1", "--t0", "-1", "--tend", "-0.98",
        "--dt", "1e-3", "--grid", "default", "--monitor-stride", "5",
        "--decompose", "--out", "ux"])
    assert isinstance(res.exception, KeyError)
    assert len(calls) == 3
    snaps = sorted(p.name for p in (outroot / "ux" / "snapshots").iterdir())
    assert snaps == ["snap_0000.csv", "snap_0001.csv"]


def test_importing_the_cli_loads_no_scipy_beyond_linalg():
    # scipy.integrate is loaded by the ode verb; interpolate, optimize and
    # special by nothing in csslab
    code = ("import sys, csslab.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[:2] in (['scipy', 'interpolate'], "
            "['scipy', 'integrate'], ['scipy', 'optimize'], "
            "['scipy', 'special'])))")
    out = subprocess.run([sys.executable, "-c", code], env=_module_env(),
                         capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n"


def _module_env() -> dict:
    """The environment with csslab's source directory on PYTHONPATH."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(csslab.__file__).parents[1])]
        + os.environ.get("PYTHONPATH", "").split(os.pathsep)))


def _run_module(args, cwd, timeout=120):
    """`python -m csslab.cli args` run in cwd, its output root cwd/runs."""
    env = _module_env()
    env.pop("CSSLAB_OUTPUT_ROOT", None)
    return subprocess.run([sys.executable, "-m", "csslab.cli", *args],
                          cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=timeout)


def test_evolve_stdout_is_the_same_with_out(tmp_path):
    args = ["evolve", "--data", "S", "--m", "1", "--t0", "-1",
            "--tend", "-0.99", "--dt", "1e-3", "--grid", "default",
            "--monitor-stride", "5", "--decompose"]
    plain = _run_module(args, tmp_path)
    kept = _run_module(args + ["--out", "d"], tmp_path)
    assert plain.returncode == kept.returncode == 0, kept.stderr
    assert kept.stdout == plain.stdout
    assert json.loads(kept.stdout)["stop_reason"] == "t_end"
    assert kept.stderr == plain.stderr == ""
    assert len(list((tmp_path / "runs" / "d" / "snapshots").iterdir())) == 3


def test_evolve_manifest_counters(runner, outroot):
    res = runner.invoke(main, [
        "evolve", "--data", "S", "--m", "1", "--t0", "-1", "--tend", "-0.99",
        "--dt", "1e-3", "--grid", "default", "--monitor-stride", "4",
        "--decompose", "--out", "cnt"])
    assert res.exit_code == 0, res.output
    rundir = outroot / "cnt"
    counters = json.loads((rundir / "manifest.json").read_text())["counters"]
    meta = json.loads((rundir / "meta.json").read_text())
    csvs = list(rundir.rglob("*.csv"))
    # monitors.csv, series.csv and one snapshot per monitor
    assert len(csvs) == 2 + len(meta["snapshot_times"]) == 6
    assert counters == {
        "steps": 10, "factorizations": 1,
        "newton_iterations": sum(meta["newton"]["iterations"]),
        "csv_files": len(csvs),
        "csv_bytes": sum(p.stat().st_size for p in csvs)}
    assert counters["newton_iterations"] > 0


# ---------------------------------------------------------------------------
# decompose


def test_decompose_field_file(runner, tmp_path, outroot):
    grid = G.build_grid()
    q = soliton_q(1, grid)
    u = modulate(q, 0.8, 0.7)
    rows = ["r,re,im"]
    for r, v in zip(grid.r, u.values):
        rows.append(f"{r:.17g},{v.real:.17g},{v.imag:.17g}")
    path = tmp_path / "field.csv"
    path.write_text("\n".join(rows) + "\n")
    res = runner.invoke(main, ["decompose", "--field", str(path),
                               "--m", "1", "--tube-radius", "0.5",
                               "--out", "df"])
    assert res.exit_code == 0, res.output
    rep = json.loads(res.output)
    assert rep["converged"]
    assert set(_timings(outroot, "df")) == {"read", "decompose"}
    assert abs(rep["state"]["lambda"] - 0.8) < 1e-6
    assert abs(rep["state"]["gamma"] - 0.7) < 1e-6
    assert abs(rep["state"]["b"]) < 1e-6
    assert rep["eps_l2"] < 1e-6
    assert max(abs(x) for x in rep["ortho_residuals"]) < 1e-8


def test_decompose_scale_out_of_range_is_clean_error(runner, tmp_path,
                                                     outroot):
    # a stored S(-1.1) (declared decay unknown): Newton pushes lambda to
    # where the shrink check of soliton.modulate refuses the chart
    grid = G.build_grid()
    u = blowup_s(1, -1.1, grid)
    rows = ["r,re,im"]
    for r, v in zip(grid.r, u.values):
        rows.append(f"{r:.17g},{v.real:.17g},{v.imag:.17g}")
    path = tmp_path / "field.csv"
    path.write_text("\n".join(rows) + "\n")
    res = runner.invoke(main, ["decompose", "--field", str(path), "--m", "1",
                               "--out", "dec"])
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    assert "Error: ScaleOutOfRange: scale-out-of-range" in res.output
    assert "Traceback" not in res.output
    assert _error_manifest(outroot, "dec").startswith("ScaleOutOfRange")
    assert not (outroot / "dec" / "report.json").exists()
    # the phases run, the failed one's seconds included
    assert set(_timings(outroot, "dec")) == {"read", "decompose"}


@pytest.mark.parametrize("verb", ["ode", "profiles", "evolve", "decompose"])
def test_solvability_violated_is_clean_error(runner, tmp_path, outroot, verb):
    # on n = 256 the m = 1 T-table fails its solvability check, which each
    # of these verbs reaches through profiles.build_t_tables (ode from an
    # initial beta inside BETA_MAX)
    grid = CLI.parse_grid("n=256")
    path, u = tmp_path / "field.csv", blowup_s(1, -0.5, grid).values
    CLI.write_csv(path, ["r", "re", "im"], [grid.r, u.real, u.imag])
    args = {"ode": ["ode", "--m", "1", "--eta0", "0.05", "--b0", "0.05",
                    "--lam0", "0.05", "--window", "0,0.075", "--phase",
                    "profile", "--grid", "n=256"],
            "profiles": ["profiles", "--m", "1", "--betas", "0.04,0.02",
                         "--grid", "n=256"],
            "evolve": ["evolve", "--data", "S", "--m", "1", "--t0", "-1",
                       "--tend", "-0.99", "--grid", "n=256", "--decompose"],
            "decompose": ["decompose", "--field", str(path), "--m", "1",
                          "--tube-radius", "0.5"]}[verb]
    res = runner.invoke(main, [*args, "--out", "sv"])
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    assert "Error: SolvabilityViolated: solvability-violated" in res.output
    assert "Traceback" not in res.output
    assert _error_manifest(outroot, "sv").startswith("SolvabilityViolated")
    assert [p.name for p in (outroot / "sv").iterdir()] == ["manifest.json"]


def test_ode_refuses_initial_beta_before_the_t_table(runner, outroot,
                                                     monkeypatch):
    # beta0 = 100 is beyond BETA_MAX: the run ends before the T-table (one
    # that would fail its solvability check on n = 256) is built
    def built(*args, **kwargs):
        raise AssertionError("build_t_tables called")
    monkeypatch.setattr(PR, "build_t_tables", built)
    res = runner.invoke(main, ["ode", "--m", "1", "--eta0", "0.05",
                               "--phase", "profile", "--grid", "n=256",
                               "--out", "sv"])
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    assert "Error: OdeFailure: beta = 100.0" in res.output
    assert "out of range" in res.output
    assert _error_manifest(outroot, "sv").startswith("OdeFailure")


@pytest.mark.parametrize("args", [
    ["verify", "identities", "--grid", "n4096"],
    ["verify", "identities", "--grid", "n=abc"],
    ["verify", "identities", "--grid", "n=8"],
    ["verify", "identities", "--grid", "r_min=5,r_max=1"],
    ["verify", "identities", "--grid", "r_max=inf"],
    ["ode", "--m", "1", "--eta0", "0.5", "--window", "5"],
    ["profiles", "--m", "1", "--betas", "0.02", "--direction", "0,0",
     "--grid", "n=512"],
    ["profiles", "--m", "1", "--betas", "0.02,x", "--grid", "n=512"],
    ["profiles", "--m", "1", "--betas", "-0.02", "--grid", "n=512"],
    ["decompose", "--field", "{nan_csv}", "--m", "1", "--out", "nan"],
    ["decompose", "--field", "{missing}", "--m", "1"],
    ["ode", "--m", "1", "--eta0", "0.5", "--window", "5,5"],
    ["ode", "--m", "1", "--eta0", "0", "--window", "0,1"],
    ["ode", "--m", "1", "--eta0", "0.5", "--lam0", "-1"],
    ["profiles", "--m", "1", "--betas", "0.2", "--grid", "n=512", "--out", "pb"],
    ["verify", "identities", "--grid", "n=8", "--out", "vb"],
    ["ode", "--m", "1", "--eta0", "0.5", "--window", "5,x", "--out", "wb"],
])
def test_malformed_arguments_are_usage_errors(runner, tmp_path, outroot, args):
    grid = G.build_grid(n=256)
    vals = soliton_q(1, grid).values.copy()
    vals[10] = np.nan
    nan_csv = tmp_path / "nan.csv"
    nan_csv.write_text("r,re,im\n" + "".join(
        f"{r:.17g},{v.real:.17g},{v.imag:.17g}\n" for r, v in zip(grid.r, vals)))
    args = [a.format(nan_csv=nan_csv, missing=tmp_path / "missing.csv")
            for a in args]
    res = runner.invoke(main, args)
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)
    assert "Traceback" not in res.output
    if "--out" in args:
        name = args[args.index("--out") + 1]
        error = _error_manifest(outroot, name)
        assert error.startswith("GridError" if name == "nan" else "ValueError")
    if "vb" in args:
        manifest = json.loads((outroot / "vb" / "manifest.json").read_text())
        assert manifest["command"] == "verify identities"


def test_repeated_grid_key_is_usage_error(runner, outroot):
    # "n=4096,n=1024" ran on the last value, n = 1024
    res = runner.invoke(main, ["verify", "identities", "--grid",
                               "n=4096,n=1024", "--out", "dup"])
    assert res.exit_code == 2, res.output
    assert "repeated grid key 'n'" in res.output
    assert "Traceback" not in res.output
    error = _error_manifest(outroot, "dup")
    assert error.startswith("ValueError") and "repeated grid key 'n'" in error


@pytest.mark.parametrize("verb, text, error", [
    ("report", "t,lambda,gamma,b,eta\n", "and a row of numbers under its header"),
    ("decompose", "r,re,im\n", "field CSV needs the three columns r,re,im"),
    ("decompose", "", "field CSV needs the three columns r,re,im"),
], ids=["report-header-only", "decompose-header-only", "decompose-blank"])
def test_empty_data_file_is_a_clean_usage_error(tmp_path, verb, text, error):
    # numpy's "input contained no data" warning went to stderr first
    (tmp_path / "run").mkdir()
    (tmp_path / "run" / "series.csv").write_text(text)
    (tmp_path / "field.csv").write_text(text)
    args = (["report", "run"] if verb == "report"
            else ["decompose", "--field", "field.csv", "--m", "1"])
    res = _run_module(args + ["--out", "e"], tmp_path)
    assert res.returncode == 2, res.stderr
    assert "Warning" not in res.stderr and "Traceback" not in res.stderr
    assert res.stderr.endswith(f"{error}\n")
    manifest = json.loads((tmp_path / "runs" / "e" / "manifest.json").read_text())
    assert manifest["error"].startswith("ValueError") and error in manifest["error"]


@pytest.mark.parametrize("suite", ["identities", "inverses", "coercivity",
                                   "morawetz"])
def test_negative_seed_is_usage_error(tmp_path, suite):
    # numpy's default_rng(-1) raised past the usage checks, with no manifest
    res = _run_module(["verify", suite, "--grid", "n=256", "--seed", "-1",
                       "--out", "vneg"], tmp_path)
    assert res.returncode == 2, res.stderr
    assert "Traceback" not in res.stderr
    errors = [ln for ln in res.stderr.splitlines() if ln.startswith("Error:")]
    assert errors == ["Error: ValueError: --seed must be non-negative, got -1"]
    manifest = json.loads((tmp_path / "runs" / "vneg" / "manifest.json")
                          .read_text())
    assert "--seed must be non-negative" in manifest["error"]


@pytest.mark.parametrize("t, lam, error", [
    ([1.0] * 5, [0.5, 0.4, 0.3, 0.2, 0.1], "needs a strictly monotone t column"),
    ([0.0, 0.1, 0.1, 0.2, 0.3], [0.5, 0.4, 0.3, 0.2, 0.1],
     "needs a strictly monotone t column"),
    ([0.0, 0.2, 0.1, 0.3, 0.4], [0.5, 0.4, 0.3, 0.2, 0.1],
     "needs a strictly monotone t column"),
    ([0.0, 0.1, 0.2, 0.3, 0.4], [0.5, 0.4, 0.3, 0.2, 0.0],
     "has a lambda that is not positive"),
    ([0.0, 0.1, 0.2, 0.3, 0.4], [0.5, -0.4, 0.3, 0.2, 0.1],
     "has a lambda that is not positive"),
], ids=["t-constant", "t-repeated", "t-unordered", "lambda-zero",
        "lambda-negative"])
def test_malformed_series_is_a_clean_usage_error(tmp_path, t, lam, error):
    # the polyfit of report's asymptotics warned (RankWarning, or a divide
    # by zero) and printed a meaningless fit, exiting 0
    (tmp_path / "run").mkdir()
    (tmp_path / "run" / "series.csv").write_text(
        "t,lambda,gamma,b,eta\n" + "".join(
            f"{ti!r},{li!r},0,0.1,0\n" for ti, li in zip(t, lam)))
    res = _run_module(["report", "run", "--out", "e"], tmp_path)
    assert res.returncode == 2, res.stderr
    assert "Warning" not in res.stderr and "Traceback" not in res.stderr
    assert res.stderr.endswith(f"{error}\n")
    manifest = json.loads((tmp_path / "runs" / "e" / "manifest.json").read_text())
    assert manifest["error"].startswith("ValueError") and error in manifest["error"]


def test_report_reads_a_backward_series(runner, outroot):
    # an ode run with a decreasing window writes decreasing t
    res = runner.invoke(main, ["ode", "--m", "1", "--eta0", "0", "--lam0",
                               "0.05", "--b0", "-0.05", "--window", "0.075,0",
                               "--out", "back"])
    assert res.exit_code == 0, res.output
    res = runner.invoke(main, ["report", str(outroot / "back")])
    assert res.exit_code == 0, res.output
    assert json.loads(res.output)["n_samples"] == 262


@pytest.mark.parametrize("args", [
    ["profiles", "--betas", "0.02", "--grid", "n=512"],
    ["ode", "--eta0", "0.05"],
    ["evolve", "--data", "S", "--t0", "-1", "--tend", "-0.99",
     "--grid", "n=512"],
    ["decompose", "--field", "{field}"],
])
@pytest.mark.parametrize("m", ["0", "-1"])
def test_index_below_one_is_usage_error(runner, tmp_path, outroot, args, m):
    grid = G.build_grid(n=256)
    field = tmp_path / "q.csv"
    field.write_text("r,re,im\n" + "".join(
        f"{r:.17g},{v.real:.17g},0\n"
        for r, v in zip(grid.r, soliton_q(1, grid).values)))
    args = [a.format(field=field) for a in args] + ["--m", m]
    res = runner.invoke(main, args)
    assert res.exit_code == 2, res.output
    assert "--m must be at least 1" in res.output
    assert "Traceback" not in res.output


def test_failure_manifest_echoes_the_config(runner, outroot):
    res = runner.invoke(main, ["ode", "--m", "1", "--eta0", "0",
                               "--window", "0,1", "--out", "zero"])
    assert res.exit_code == 2
    assert "Error: ValueError: lambda must be positive, got 0.0" in res.output
    manifest = json.loads((outroot / "zero" / "manifest.json").read_text())
    assert manifest["config"] == {
        "m": 1, "eta0": 0.0, "lam0": 0.0, "b0": -0.0, "window": "0,1",
        "p3": False, "phase": "auto", "lam_min": 1e-3, "grid": "default"}
    assert manifest["error"].startswith("ValueError")


def test_module_entry_point(tmp_path):
    res = _run_module(["ode", "--m", "1", "--eta0", "0.5", "--window", "5,5"],
                      tmp_path)
    assert res.returncode == 2
    assert "Error:" in res.stderr
