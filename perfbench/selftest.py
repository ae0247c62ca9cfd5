"""Self-test of the benchmark harness at reduced size.

    python3 perfbench/selftest.py

Runs every workload with --size tiny, once with tracing off and once on,
and checks that:

- the last line of output is the result object with exactly the keys
  correct, attempted, failed and metrics, and that the outputs passed
  their correctness checks;
- with tracing off the metrics are exactly the end_to_end metrics of
  BENCHMARK.json, with their units and non-zero values, and the
  human-readable lines name every end-to-end figure of the benchmark;
- with tracing on the metrics are exactly the per_layer metrics, with
  their units, and the recorded spans nest (each child inside its
  parent, in the same run) with non-negative self times;
- without the csslab sources the harness exits non-zero and prints no
  result.

Exits 0 when every check passes. Takes about half a minute.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spans as SP  # noqa: E402

SUMMARY_FIGURES = ("setup_s", "wall_s", "raw_setup_s", "raw_wall_s",
                   "host_ref_us", "peak_rss_mib", "failed_frac",
                   "track_err_l2", "param_err_max", "mass_drift")


def run(args: list[str], cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py")]
                          + args, cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def check_spans(path: Path) -> list[str]:
    spans = [json.loads(line) for line in path.read_text().splitlines()]
    problems = []
    objs = []
    for i, s in enumerate(spans):
        if s["index"] != i:
            problems.append(f"span {i} has index {s['index']}")
        if s["end"] < s["start"]:
            problems.append(f"span {i} ends before it starts")
        p = s["parent"]
        if p is not None:
            par = spans[p]
            if not (p < i and par["start"] <= s["start"]
                    and s["end"] <= par["end"] and par["run"] == s["run"]):
                problems.append(f"span {i} ({s['name']}) is not inside its "
                                f"parent {p} ({par['name']})")
        obj = SP.Span(i, s["name"], s["start"], p, s["run"])
        obj.end = s["end"]
        objs.append(obj)
    for i, own in SP.self_times(objs).items():
        if own < 0.0:
            problems.append(f"span {i} has self time {own}")
    if not spans:
        problems.append("no spans recorded")
    return problems


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    problems = []
    if layer != SP.metric_units():
        problems.append("BENCHMARK.json per_layer differs from "
                        "spans.metric_units()")
    tmp = ROOT / ".bench_tmp" / "selftest"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        for wl in ("s_track", "monitor_dense", "stored_fields"):
            for trace in (0, 1):
                span_file = tmp / f"{wl}.jsonl"
                proc = run(["--workload", wl, "--seed", "7", "--seconds", "0",
                            "--trace", str(trace), "--size", "tiny",
                            "--spans", str(span_file)])
                tag = f"{wl} --trace {trace}"
                if proc.returncode != 0:
                    problems.append(f"{tag}: exit {proc.returncode}: "
                                    f"{proc.stderr[-2000:]}")
                    continue
                lines = proc.stdout.strip().splitlines()
                result = json.loads(lines[-1])
                if set(result) != {"correct", "attempted", "failed",
                                   "metrics"}:
                    problems.append(f"{tag}: result keys {sorted(result)}")
                if not (result["correct"] and result["attempted"] >= 1
                        and result["failed"] == 0):
                    problems.append(f"{tag}: incorrect outputs: "
                                    f"{proc.stderr[-2000:]}")
                want = layer if trace else e2e
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                if got != want:
                    diff = sorted(set(got.items()) ^ set(want.items()))
                    problems.append(f"{tag}: metrics or units differ from "
                                    f"BENCHMARK.json: {diff}")
                for name, m in result["metrics"].items():
                    v = m["value"]
                    if not (isinstance(v, (int, float)) and math.isfinite(v)):
                        problems.append(f"{tag}: {name} = {v!r}")
                    elif not trace and v == 0:
                        problems.append(f"{tag}: end-to-end {name} is 0")
                if trace:
                    problems += [f"{tag}: {p}" for p in check_spans(span_file)]
                else:
                    named = {line.split()[0] for line in lines[:-1] if line
                             and not line.startswith("#")}
                    missing = set(SUMMARY_FIGURES) - named
                    if missing:
                        problems.append(f"{tag}: summary lacks {missing}")

        bare = tmp / "bare"
        (bare / "perfbench").mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in HERE.glob("*.py"):
            shutil.copy(path, bare / "perfbench")
        proc = run(["--workload", "s_track", "--seed", "1", "--seconds", "1",
                    "--trace", "0"], cwd=bare)
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append("without sources: exit "
                            f"{proc.returncode}, stdout {proc.stdout!r}")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        if (ROOT / ".bench_tmp").exists() and \
                not any((ROOT / ".bench_tmp").iterdir()):
            (ROOT / ".bench_tmp").rmdir()

    for p in problems:
        print("FAIL:", p)
    print("selftest:", "ok" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
