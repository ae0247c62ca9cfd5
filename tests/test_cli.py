"""Command-line interface: verification batteries, run directories,
manifests, byte-stable serialization, and parameter refusal."""

import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import csslab
from csslab import grid as G
from csslab import modulation as MOD
from csslab.cli import dumps17, fmt17, main
from csslab.soliton import SymmetryParams, blowup_s, modulate, soliton_q


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


# ---------------------------------------------------------------------------
# verify


def test_verify_identities(runner):
    res = runner.invoke(main, ["verify", "identities", "--grid", "default"])
    assert res.exit_code == 0, res.output
    rep = json.loads(res.output)
    assert rep["n_failed"] == 0
    names = {c["name"] for c in rep["checks"]}
    assert "D_QQ_m1" in names and "wronskian_m3" in names


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


def test_verify_requires_grid(runner):
    res = runner.invoke(main, ["verify", "identities"])
    assert res.exit_code != 0
    assert "--grid" in res.output


# ---------------------------------------------------------------------------
# profiles


def test_profiles_report(runner):
    res = runner.invoke(main, ["profiles", "--m", "1",
                               "--betas", "0.04,0.02",
                               "--direction", "1,0", "--no-t4",
                               "--grid", "default"])
    assert res.exit_code == 0, res.output
    rep = json.loads(res.output)
    assert rep["m"] == 1 and rep["betas"] == [0.04, 0.02]
    assert "psi2_L2" in rep["slopes"]
    assert all(s < 1e-6 * b**3 for s, b in
               zip(rep["solvability"], rep["betas"]))


def test_profiles_rejects_large_beta(runner):
    res = runner.invoke(main, ["profiles", "--m", "1", "--betas", "0.2",
                               "--grid", "default"])
    assert res.exit_code != 0


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
    res = runner.invoke(main, ["report", str(outroot / "r2")])
    assert res.exit_code == 0, res.output
    assert "no_blowup_detected" in json.loads(res.output)


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
    assert all(0.0 <= r < 1e-10 * G.l2(soliton_q(1, G.default_grid()))
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


def test_evolve_stability_guard_is_clean_error(runner, outroot):
    res = runner.invoke(main, ["evolve", "--data", "S", "--m", "1",
                               "--t0", "-0.4", "--tend", "-0.3", "--dt", "0.5",
                               "--grid", "default", "--out", "guard"])
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    assert "Error: StabilityGuardTripped: stability-guard-tripped" in res.output
    assert "Traceback" not in res.output
    assert _error_manifest(outroot, "guard").startswith("StabilityGuardTripped")
    assert not (outroot / "guard" / "meta.json").exists()


# ---------------------------------------------------------------------------
# decompose


def test_decompose_field_file(runner, tmp_path, outroot):
    grid = G.default_grid()
    q = soliton_q(1, grid)
    u = modulate(q, SymmetryParams(0.8, 0.7))
    rows = ["r,re,im"]
    for r, v in zip(grid.r, u.values):
        rows.append(f"{r:.17g},{v.real:.17g},{v.imag:.17g}")
    path = tmp_path / "field.csv"
    path.write_text("\n".join(rows) + "\n")
    res = runner.invoke(main, ["decompose", "--field", str(path),
                               "--m", "1", "--tube-radius", "0.5"])
    assert res.exit_code == 0, res.output
    rep = json.loads(res.output)
    assert rep["converged"]
    assert abs(rep["state"]["lambda"] - 0.8) < 1e-6
    assert abs(rep["state"]["gamma"] - 0.7) < 1e-6
    assert abs(rep["state"]["b"]) < 1e-6
    assert rep["eps_l2"] < 1e-6
    assert max(abs(x) for x in rep["ortho_residuals"]) < 1e-8


def test_decompose_scale_out_of_range_is_clean_error(runner, tmp_path,
                                                     outroot):
    # a stored S(-1.1) (declared decay unknown): Newton pushes lambda to
    # where the shrink check of soliton.modulate refuses the chart
    grid = G.default_grid()
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
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(csslab.__file__).parents[1])]
        + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    res = subprocess.run([sys.executable, "-m", "csslab.cli", "ode", "--m", "1",
                          "--eta0", "0.5", "--window", "5,5"], cwd=tmp_path,
                         env=env, capture_output=True, text=True, timeout=120)
    assert res.returncode == 2
    assert "Error:" in res.stderr
